"""Layer-boundary tracing from outside the program.

`install` replaces public functions of the chardeg modules with wrappers, at
the name through which each caller reaches them: a module attribute for
calls made through the module (`lie.verify_lie_38`), the importing module's
own global where a module imported the name (`symalt.partitions_of`), and
the class attribute for methods.  Cold boundaries record a span (name,
start, end, parent span); hot ones (`GroupTable.mult`, element `__mul__`,
partitions visited by symalt, interval enclosures) are only counted, so
tracing does not dominate the time it measures.  Spans stay in memory.
"""

from __future__ import annotations

from time import perf_counter

# entry points the CLI claims call, by module; each call is one span
CLI_ENTRY_POINTS = {
    "symalt": ["rho_an", "verify_rho_growth", "an_degrees"],
    "lie": ["verify_lie_38", "prime_powers_up_to", "euler_tail_lower", "seitz_ids",
            "seitz_check", "load_torus_table", "random_shape", "semisimple_degree",
            "shape_ambient_order", "situation_ratio"],
    "psl2": ["psl2_degrees", "psl2_order", "theta2_stabilizer_odd",
             "extendible_witness_even", "field_invariance"],
    "gf2poly": ["count_irreducible_monic", "count_self_reciprocal"],
    "bounds": ["composition_bound", "e_of", "epsilon_of", "gagola_arithmetic",
               "simple_bound_report", "verify_e4_bound"],
    "partitions": ["hook_degree", "standard_tableaux_count", "boundary_nodes",
                   "add_node", "remove_node"],
}
# generator entry points: each resumption is one span
CLI_GENERATORS = {
    "lie": ["iter_simple_ids", "iter_situation_instances"],
    "gf2poly": ["irreducible_polys"],
    "partitions": ["partitions_of"],
}

COUNTERS = ("partitions_yielded", "interval_calls", "mult_calls", "mult_computed",
            "element_mul_calls", "subgroup_generated_calls")


class Tracer:
    """Spans as (name, start, end, parent index) plus integer counters."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                stack.pop()

        return wrapper

    def span_each_step(self, name: str, gen_fn):
        step = self.span(name, next)

        def wrapper(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.
        Spans nest strictly (one thread), so covered time is the sum of the
        children's durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported chardeg.  Call once per
    process, before the workload starts."""
    import importlib

    from chardeg import groupengine, symalt
    from chardeg.groupengine import constructions, dixon, elements, gagola, groupfile, table

    for modname, attrs in CLI_ENTRY_POINTS.items():
        module = importlib.import_module(f"chardeg.{modname}")
        for attr in attrs:
            setattr(module, attr, tracer.span(f"{modname}.{attr}", getattr(module, attr)))
    for modname, attrs in CLI_GENERATORS.items():
        module = importlib.import_module(f"chardeg.{modname}")
        for attr in attrs:
            setattr(module, attr,
                    tracer.span_each_step(f"{modname}.{attr}", getattr(module, attr)))

    counts = tracer.counts

    # partitions visited by the rho sweep, counted per generator, not per item
    orig_partitions_of = symalt.partitions_of

    def partitions_of(n):
        visited = 0
        try:
            for visited, lam in enumerate(orig_partitions_of(n), 1):
                yield lam
        finally:
            counts["partitions_yielded"] += visited

    symalt.partitions_of = partitions_of
    symalt.sqrt_interval = tracer.count("interval_calls", symalt.sqrt_interval)
    symalt.root_interval = tracer.count("interval_calls", symalt.root_interval)

    groupengine.build_example_group = tracer.span("groupengine.build_example_group",
                                                  groupengine.build_example_group)
    for owner in (constructions, groupfile):
        owner.close_group = tracer.span("groupengine.close_group", owner.close_group)
    for owner in (groupengine, gagola):
        owner.dixon_character_table = tracer.span(
            "groupengine.dixon_character_table", owner.dixon_character_table)
    groupengine.gagola_analyze = tracer.span("groupengine.gagola_analyze",
                                             groupengine.gagola_analyze)
    groupengine.group_from_dict = tracer.span("groupengine.group_from_dict",
                                              groupengine.group_from_dict)

    gt = table.GroupTable
    for attr in ("conjugacy_classes", "minimal_normal_subgroups", "derived_series"):
        setattr(gt, attr, tracer.span(f"groupengine.{attr}", getattr(gt, attr)))
    gt.subgroup_generated = tracer.count("subgroup_generated_calls", gt.subgroup_generated)
    ct = dixon.CharacterTable
    for attr in ("verify_row_orthogonality", "verify_column_orthogonality"):
        setattr(ct, attr, tracer.span("groupengine.orthogonality", getattr(ct, attr)))

    for cls in (elements.Perm, elements.Mat, elements.FrobMat):
        cls.__mul__ = tracer.count("element_mul_calls", cls.__mul__)

    # a product is computed inside mult when mult calls an element __mul__
    # (FrobMat.__mul__ calls Mat.__mul__ once more); the other calls are
    # answered from the memo
    orig_mult = gt.mult

    def mult(self, i, j):
        before = counts["element_mul_calls"]
        out = orig_mult(self, i, j)
        counts["mult_calls"] += 1
        counts["mult_computed"] += counts["element_mul_calls"] != before
        return out

    gt.mult = mult
