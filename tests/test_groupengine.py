import json
import os
import subprocess
import sys
import tracemalloc
from math import lcm
from pathlib import Path

import pytest

from chardeg import groupengine as ge
from chardeg.errors import ResourceLimitError
from chardeg.exactmath import is_prime_power, prime_power
from chardeg.groupengine import dixon, table
from chardeg.groupengine.elements import FrobMat, Mat, Perm
from chardeg.groupengine.field import MAX_ORDER, gf


# --- fields and elements ---------------------------------------------------

def test_prime_field_arithmetic():
    f5 = gf(5)
    assert f5.add(3, 4) == 2 and f5.mul(3, 4) == 2 and f5.inv(3) == 2
    assert f5.pow(f5.generator, 4) == 1
    assert all(f5.pow(f5.generator, k) != 1 for k in range(1, 4))


def test_extension_field_arithmetic():
    for q in (4, 8, 9, 27, 81):
        F = gf(q)
        assert F.mul(1, x := F.generator) == x
        order = 1
        y = F.generator
        while y != 1:
            y = F.mul(y, F.generator)
            order += 1
        assert order == q - 1
        # Frobenius is a field automorphism of order a
        for x in range(q):
            for y in range(q):
                assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))
                assert F.frobenius(F.add(x, y)) == F.add(F.frobenius(x), F.frobenius(y))
        assert all(F.frobenius(x, F.a) == x for x in range(q))


def _reference_field(q):
    """Addition and multiplication tables by polynomial arithmetic: the first
    monic irreducible f of degree a in code order, found by trial division,
    and every product of two elements reduced mod f."""
    p, a = prime_power(q)

    def poly(code, degree):  # t**degree plus the polynomial of code's digits
        return [code // p**i % p for i in range(degree)] + [1]

    def rem(u, g):  # remainder of u by the monic g over GF(p)
        u = list(u)
        for k in range(len(u) - len(g), -1, -1):
            c = u[k + len(g) - 1]
            for i, gi in enumerate(g):
                u[k + i] = (u[k + i] - c * gi) % p
        return u[:len(g) - 1]

    f = next(f for f in (poly(c, a) for c in range(q)) if f[0] and all(
        any(rem(f, poly(c, d))) for d in range(1, a // 2 + 1) for c in range(p**d)))

    def product(x, y):
        u, v = poly(x, a)[:-1], poly(y, a)[:-1]
        uv = [sum(u[i] * v[k - i] for i in range(a) if 0 <= k - i < a) % p
              for k in range(2 * a - 1)]
        return sum(d * p**i for i, d in enumerate(rem(uv, f)))

    add = [[sum((x // p**i + y // p**i) % p * p**i for i in range(a)) for y in range(q)]
           for x in range(q)]
    return add, [[product(x, y) for y in range(q)] for x in range(q)]


@pytest.mark.parametrize("q", [q for q in range(2, MAX_ORDER + 1) if is_prime_power(q)])
def test_field_tables_match_the_polynomial_reference(q):
    F, (add, mul) = gf(q), _reference_field(q)
    pairs = [(x, y) for x in range(q) for y in range(q)]
    assert all(F.add(x, y) == add[x][y] and F.mul(x, y) == mul[x][y] for x, y in pairs)
    assert all(add[F.sub(x, y)][y] == x for x, y in pairs)
    assert all(mul[x][F.inv(x)] == 1 for x in range(1, q))
    for x in range(q):
        power = 1
        for _ in range(F.p):
            power = mul[power][x]
        assert F.frobenius(x) == power

    def order(g):
        n, y = 1, g
        while y != 1:
            n, y = n + 1, mul[y][g]
        return n

    assert F.generator == next(g for g in range(1, q) if order(g) == q - 1)


def test_perm_basics():
    a = Perm((1, 2, 0))
    b = Perm((1, 0, 2))
    assert (a * a.inverse()).images == (0, 1, 2)
    assert (a * b).images == tuple(a.images[b.images[x]] for x in range(3))
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_matrix_inverse():
    m = ge.matrix(5, [[1, 2], [3, 4]])
    assert (m * m.inverse()) == Mat.identity(gf(5), 2)
    singular = ge.matrix(5, [[1, 2], [2, 4]])
    assert not singular.is_invertible()


# --- closure ---------------------------------------------------------------

def test_close_group_identity_only():
    g = ge.close_group([Perm((0, 1))])
    assert g.order == 1


def test_close_group_heisenberg_over_gf2():
    e12 = ge.matrix(2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e23 = ge.matrix(2, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    g = ge.close_group([e12, e23])
    assert g.order == 8


def test_close_group_k_generators_over_gf3():
    g = ge.build_example_group("isaacs_K", 3)
    assert g.order == 54


def test_close_group_rejects_mixed_kinds_and_singular():
    with pytest.raises(ValueError):
        ge.close_group([Perm((1, 0)), ge.matrix(3, [[1]])])
    with pytest.raises(ValueError):
        ge.close_group([ge.matrix(5, [[1, 2], [2, 4]])])


def test_close_group_resource_limit(monkeypatch):
    rot = Perm([(i + 1) % 40 for i in range(40)])
    assert ge.close_group([rot]).order == 40
    monkeypatch.setattr(table, "MAX_ELEMENTS", 10)
    with pytest.raises(ResourceLimitError):
        ge.close_group([rot])


def test_close_group_limit_is_exact(monkeypatch):
    # isaacs_K over GF(3), order 54: its last breadth-first level holds
    # elements 40..54, so the limit 53 is crossed inside one batched level
    gens = [ge.matrix(3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            ge.matrix(3, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
            ge.matrix(3, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
            ge.matrix(3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])]
    monkeypatch.setattr(table, "MAX_ELEMENTS", 54)
    assert ge.close_group(gens).order == 54
    monkeypatch.setattr(table, "MAX_ELEMENTS", 53)
    with pytest.raises(ResourceLimitError):
        ge.close_group(gens)


def _sequential_closure(gens):
    """Reference closure, one element at a time: each element times each
    generator in turn, every new product taking the next index."""
    elements = [gens[0].identity_like()]
    index = {elements[0]: 0}
    for x in elements:
        for g in gens:
            y = x * g
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    return elements, sorted({index[g] for g in gens})


def test_closure_order_matches_sequential_reference():
    # one group per element kind and field: Perm, Mat over GF(3), GF(4) and
    # GF(9), FrobMat; the generators are re-closed in reverse order
    for built in (ge.symmetric_group(5), ge.gl2_3(), ge.build_example_group("isaacs_K", 4),
                  ge.build_example_group("heisenberg", 9), ge.build_galois_twisted_group(4)):
        gens = [built.elements[i] for i in reversed(built.generators)]
        g = ge.close_group(gens)
        assert (g.elements, g.generators) == _sequential_closure(gens)


def test_cayley_table_matches_element_products():
    # one group per element kind: Perm, Mat, FrobMat, and Mat over GF(9),
    # where addition is not XOR (rows sampled).  Products, inverses and
    # product columns walk the parents
    for g, rows in ((ge.symmetric_group(4), range(24)), (ge.gl2_3(), range(48)),
                    (ge.build_galois_twisted_group(4), range(0, 384, 37)),
                    (ge.build_example_group("heisenberg", 9), range(0, 729, 41))):
        elts = g.elements
        index = {x: i for i, x in enumerate(elts)}
        products = [[index[elts[i] * y] for y in elts] for i in rows]
        for i, row in zip(rows, products):
            inverse = g.inverses[i]
            assert g.mult(i, inverse) == g.mult(inverse, i) == 0
            assert [g.mult(i, j) for j in range(g.order)] == row
        assert g.product_columns(list(rows)) == [
            [index[x * elts[j]] for x in elts] for j in rows]
        identity = list(range(g.order))
        assert g.product_columns([0]) == [identity]
        assert [g.mult(0, j) for j in identity] == identity


class _CountedGathers:
    """A stand-in for GroupTable._right that counts the generator columns
    read, one per gather."""

    def __init__(self, right):
        self.right, self.gathers = right, 0

    def __len__(self):
        return len(self.right)

    def __getitem__(self, key):
        self.gathers += 1
        return self.right[key]


def test_product_columns_start_from_the_nearest_written_column():
    # C60's class representatives are 0..59, each the parent of the next:
    # one gather each from the column before (1,770 from the identity)
    g = ge.cyclic_group(60)
    reps = [c[0] for c in g.conjugacy_classes()]
    g._right = _CountedGathers(g._right)
    columns = g.product_columns(reps)
    assert g._right.gathers <= 60
    assert columns == [[(x + z) % 60 for x in range(60)] for z in reps]
    # any order and repeats: each column is the one built alone
    for g in (ge.symmetric_group(4), ge.build_example_group("heisenberg", 9)):
        zs = [g.order - 1, 5, 0, g.order - 1, 1, 17, 5]
        assert g.product_columns(zs) == [g.product_columns([z])[0] for z in zs]


def test_generated_subgroups_build_each_generator_column_once(monkeypatch):
    g = ge.alternating_group(7)
    built = []
    product_columns = ge.GroupTable.product_columns

    def counted(self, zs):
        built.extend(zs)
        return product_columns(self, zs)

    monkeypatch.setattr(ge.GroupTable, "product_columns", counted)
    for idxs in (g.conjugacy_classes()[1], range(g.order)):
        built.clear()
        members, gens = g._generate(idxs)
        assert built == gens and sorted(members) == list(range(g.order))


def test_character_table_holds_no_order_squared_array():
    # closure, Dixon, the gagola analysis (minimal normal subgroups) and the
    # derived series together stay below 2 n**2 bytes, a quarter of the
    # pointers alone of one order-squared list of products
    for model in (ge.alternating_group(7), ge.build_example_group("isaacs_K", 7)):
        n, gens = model.order, [model.elements[i] for i in model.generators]
        del model
        tracemalloc.start()
        try:
            g = ge.close_group(gens)
            table = ge.dixon_character_table(g)
            report = ge.gagola_analyze(g, table)
            solvable = g.is_solvable()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(d * d for d in table.degrees) == n
        assert solvable == (n != 2520) and report.minimal_normal_count == 1
        assert peak < 2 * n * n, (n, peak)


def _count_constructions(monkeypatch):
    """Per element class, the number of objects built from now on."""
    built = {cls: 0 for cls in (Perm, Mat, FrobMat)}
    for cls in built:
        def counted(self, *args, _cls=cls, _init=cls.__init__):
            built[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_close_group_decodes_elements_only_on_demand(monkeypatch):
    # closure builds a few objects per generator (its Frobenius images, the
    # identity), never one per element; the first read of `elements`
    # decodes each element once
    for model, kind in ((ge.symmetric_group(6), Perm), (ge.gl2_3(), Mat),
                        (ge.build_galois_twisted_group(4), FrobMat)):
        gens = [model.elements[i] for i in model.generators]
        built = _count_constructions(monkeypatch)
        g = ge.close_group(gens)
        assert sum(built.values()) <= 4 * len(gens), (kind, built)
        before = built[kind]
        elements = g.elements
        assert built[kind] - before == g.order == len(elements) == model.order
        assert g.elements is elements
        assert built[kind] - before == g.order
        monkeypatch.undo()


def test_group_engine_loads_only_the_modules_it_uses():
    # a fresh interpreter, so that no other test's imports count; a table,
    # the subgroup queries of a gagola analysis and the derived series run
    # before the check
    code = ("import json, sys; import chardeg.groupengine as ge; "
            "g = ge.build_example_group('isaacs_K', 3); "
            "ge.gagola_analyze(g); assert g.is_solvable(); "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(ge.__file__).parents[2]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "chardeg.groupengine.dixon" in loaded
    for name in ("lie", "symalt", "psl2", "bounds", "partitions", "gf2poly"):
        assert f"chardeg.{name}" not in loaded
    assert "numpy" not in loaded


# --- conjugacy classes and subgroup machinery ------------------------------

def test_conjugacy_classes_examples():
    assert len(ge.cyclic_group(1).conjugacy_classes()) == 1
    d8 = ge.build_example_group("heisenberg", 2)
    sizes = sorted(len(c) for c in d8.conjugacy_classes())
    assert sizes == [1, 1, 2, 2, 2]
    k3 = ge.build_example_group("isaacs_K", 3)
    table = ge.dixon_character_table(k3)
    assert len(k3.conjugacy_classes()) == len(table.degrees)


def test_class_sizes_divide_order():
    for g in (ge.symmetric_group(4), ge.frobenius_21(), ge.quaternion_group()):
        classes = g.conjugacy_classes()
        assert sum(len(c) for c in classes) == g.order
        assert all(g.order % len(c) == 0 for c in classes)


def _element_orders(g) -> list[int]:
    """Order of every element, from powers of the element objects."""
    elts, orders = g.elements, []
    for x in elts:
        power, order = x, 1
        while power != elts[0]:
            power, order = power * x, order + 1
        orders.append(order)
    return orders


def _closure(g, idxs) -> frozenset[int]:
    """Subgroup generated by the given element indices, from element
    products alone."""
    elts = g.elements
    members = {elts[0]}
    while True:
        grown = members | {x * elts[i] for x in members for i in idxs}
        if grown == members:
            index = {x: i for i, x in enumerate(elts)}
            return frozenset(index[x] for x in members)
        members = grown


def _conjugacy_orbits(g) -> list[list[int]]:
    elts = g.elements
    index = {x: i for i, x in enumerate(elts)}
    orbits = {tuple(sorted({index[y.inverse() * x * y] for y in elts})) for x in elts}
    return [list(c) for c in sorted(orbits)]


def test_table_queries_match_element_arithmetic():
    # reference answers from element products alone
    for g in (ge.symmetric_group(4), ge.gl2_3(), ge.quaternion_group(),
              ge.build_example_group("isaacs_K", 3)):
        classes = _conjugacy_orbits(g)
        assert g.conjugacy_classes() == classes
        assert g.class_of() == [
            next(c for c, members in enumerate(classes) if i in members)
            for i in range(g.order)]

        n = g.order
        for idxs in ([], [0], [0, 1, 1], [n - 1, 0, n - 1, g.mult(1, n - 1)],
                     [0, 2, 3, g.mult(2, 3), g.mult(3, 2), 2], classes[-1],
                     g.generators + [g.mult(g.generators[0], 1)]):
            assert g.subgroup_generated(idxs) == _closure(g, idxs)


# name, group, derived-series lengths, minimal normal subgroup orders
STRUCTURE_CASES = [
    ("S4", lambda: ge.symmetric_group(4), [24, 12, 4, 1], [4]),
    ("GL2(3)", ge.gl2_3, [48, 24, 8, 2, 1], [2]),
    ("SL2(3)", ge.sl2_3, [24, 8, 2, 1], [2]),
    ("Q8", ge.quaternion_group, [8, 2, 1], [2]),
    ("F21", ge.frobenius_21, [21, 7, 1], [7]),
    ("A5", lambda: ge.alternating_group(5), [60], [60]),
    ("isaacs_K(3)", lambda: ge.build_example_group("isaacs_K", 3), [54, 9, 1], [3]),
    ("heisenberg(2)", lambda: ge.build_example_group("heisenberg", 2), [8, 2, 1], [2]),
    ("heisenberg(3)", lambda: ge.build_example_group("heisenberg", 3), [27, 3, 1], [3]),
    # centre GF(4)+ = C2 x C2: three minimal normal subgroups
    ("heisenberg(4)", lambda: ge.build_example_group("heisenberg", 4), [64, 4, 1],
     [2, 2, 2]),
]


@pytest.mark.parametrize("name, build, lengths, minimal_orders", STRUCTURE_CASES,
                         ids=[case[0] for case in STRUCTURE_CASES])
def test_structure_queries_match_element_arithmetic(name, build, lengths, minimal_orders):
    # every derived term is the closure of all commutators of the term
    # before, and the minimal normal subgroups are the minimal normal
    # closures of the classes, both from element products alone
    g = build()
    elts = g.elements
    index = {x: i for i, x in enumerate(elts)}
    series = [frozenset(range(g.order))]
    while True:
        members = [elts[i] for i in series[-1]]
        commutators = {index[x.inverse() * y.inverse() * x * y]
                       for x in members for y in members}
        term = _closure(g, sorted(commutators))
        if term == series[-1]:
            break
        series.append(term)
    assert g.derived_series() == series
    assert [len(h) for h in series] == lengths
    assert g.is_solvable() == (series[-1] == {0})

    closures = {_closure(g, c) for c in _conjugacy_orbits(g)[1:]}
    minimal = sorted((h for h in closures if not any(o < h for o in closures)),
                     key=lambda h: (len(h), sorted(h)))
    assert g.minimal_normal_subgroups() == minimal
    assert [len(h) for h in minimal] == minimal_orders


# --- character tables ------------------------------------------------------

def _values_at_every_root(table):
    """(p, at_roots): at_roots[j][t][c] is the value of character t on class
    c at the j-th primitive root, which is ev[t][galois[j][c]]."""
    p, ev = table.evaluations()
    return p, [[[row[c] for c in classes] for row in ev] for classes in table.galois]


def test_cyclic_3_table_values_are_cube_roots():
    g = ge.cyclic_group(3)
    table = ge.dixon_character_table(g)
    assert table.degrees == [1, 1, 1]
    # at each of the two primitive cube roots mod p, the two nontrivial rows
    # take each primitive cube root exactly once on the nontrivial classes
    p, at_roots = _values_at_every_root(table)
    assert len(at_roots) == 2
    roots = [x for x in range(2, p) if pow(x, 3, p) == 1]
    nontrivial = [t for t in range(3) if any(x != 1 for ev in at_roots for x in ev[t])]
    assert len(nontrivial) == 2
    for ev in at_roots:
        for t in nontrivial:
            assert sorted(ev[t][1:]) == roots


def test_heisenberg_gf2_table():
    table = ge.dixon_character_table(ge.build_example_group("heisenberg", 2))
    assert sorted(table.degrees) == [1, 1, 1, 1, 2]


def test_symmetric_and_alternating_tables():
    assert sorted(ge.dixon_character_table(ge.symmetric_group(4)).degrees) == [1, 1, 2, 3, 3]
    assert sorted(ge.dixon_character_table(ge.symmetric_group(5)).degrees) == [1, 1, 4, 4, 5, 5, 6]
    assert sorted(ge.dixon_character_table(ge.alternating_group(5)).degrees) == [1, 3, 3, 4, 5]


def test_tables_agree_with_hook_formula_degrees():
    # two fully independent routes to the same degree multisets: the
    # hook-length formula on partitions, and the modular eigenvector method
    # on explicit permutation groups
    from chardeg.symalt import an_degrees, sn_degrees

    for n in (3, 4, 5):
        table = ge.dixon_character_table(ge.symmetric_group(n))
        assert table.degree_multiset().entries == sn_degrees(n).entries
    for n in (4, 5, 6):
        table = ge.dixon_character_table(ge.alternating_group(n))
        assert table.degree_multiset().entries == an_degrees(n).entries


def test_a5_values_on_five_cycles_are_golden_ratio_pair():
    # the two degree-3 characters take the two roots of x^2 - x - 1 on each
    # class of five-cycles; their sum is 1 and product -1 at every primitive
    # root of unity mod p, which decides both identities exactly
    g = ge.alternating_group(5)
    table = ge.dixon_character_table(g)
    rows = [t for t, d in enumerate(table.degrees) if d == 3]
    assert len(rows) == 2
    orders = _element_orders(g)
    five_cycle_classes = [c for c, rep in enumerate(table.class_reps) if orders[rep] == 5]
    assert len(five_cycle_classes) == 2
    p, at_roots = _values_at_every_root(table)
    for c in five_cycle_classes:
        u, v = [ev[rows[0]][c] for ev in at_roots], [ev[rows[1]][c] for ev in at_roots]
        assert all((x + y) % p == 1 for x, y in zip(u, v))
        assert all(x * y % p == p - 1 for x, y in zip(u, v))
        assert len(set(u)) == 2  # genuinely irrational values


def test_table_invariants_on_assorted_groups():
    for g in (ge.cyclic_group(12), ge.dihedral_group(9), ge.gl2_3(),
              ge.frobenius_21(), ge.quaternion_group()):
        table = ge.dixon_character_table(g)
        assert sum(d * d for d in table.degrees) == g.order
        assert all(g.order % d == 0 for d in table.degrees)
        assert table.verify_row_orthogonality()
        assert table.verify_column_orthogonality()


def _full_lift(group, values_mod, ell, m):
    """Reference lift over all m powers of every class representative:
    c_u = (1/m) sum_{v<m} X(g**v) lambda**(-uv), with no use of the element
    orders, as {u: c_u} for the nonzero c_u.  Row v of the transform is one
    integer of m 8-byte entries lambda**(-uv)/m, so the coefficients of one
    value are one sum of m multiples of those integers."""
    class_of = group.class_of()
    reps = [c[0] for c in group.conjugacy_classes()]
    power_class = []
    for column in group.product_columns(reps):
        x, classes = 0, []
        for _ in range(m):
            classes.append(class_of[x])
            x = column[x]
        power_class.append(classes)
    root, scale = dixon._root_powers(ell, m), pow(m, -1, ell)
    assert m * (ell - 1) ** 2 < 2**64
    transform = [int.from_bytes(b"".join((root[-u * v % m] * scale % ell).to_bytes(8, "little")
                                         for u in range(m)), "little") for v in range(m)]
    out = []
    for row in values_mod:
        out.append([])
        for classes in power_class:
            total = sum(row[j] * t for j, t in zip(classes, transform)).to_bytes(8 * m, "little")
            coeffs = [int.from_bytes(total[8 * u:8 * u + 8], "little") % ell for u in range(m)]
            out[-1].append({u: c for u, c in enumerate(coeffs) if c})
    return out


def test_eigen_split_tries_the_central_classes_first(monkeypatch):
    # the 6 characters of degree 7 of heisenberg(7) vanish off the centre,
    # so no noncentral class matrix splits them apart; in closure order the
    # central classes come last, after 49 splits
    calls = []
    split = dixon._split
    monkeypatch.setattr(dixon, "_split", lambda *args: calls.append(1) or split(*args))
    table = ge.dixon_character_table(ge.build_example_group("heisenberg", 7))
    assert table.degrees.count(7) == 6
    assert len(calls) <= 10


def _items(row):
    return [sorted(value.items()) for value in row]


def test_lift_by_element_order_matches_the_full_lift(monkeypatch):
    calls = []

    def recorded(values_mod, degrees, power_class, orders, ell, m):
        out = lift(values_mod, degrees, power_class, orders, ell, m)
        calls.append((values_mod, ell, m, out))
        return out

    lift = dixon._lift
    monkeypatch.setattr(dixon, "_lift", recorded)
    groups = [ge.alternating_group(7), ge.symmetric_group(5), ge.cyclic_group(60),
              ge.dihedral_group(63), ge.build_example_group("heisenberg", 7),
              ge.build_galois_twisted_group(4)]
    groups += [ge.build_example_group("isaacs_K", q) for q in (2, 3, 4, 5)]
    for g in groups:
        table = ge.dixon_character_table(g)
        values_mod, ell, m, out = calls.pop()
        assert m == table.exponent == lcm(*_element_orders(g))
        full = _full_lift(g, values_mod, ell, m)
        assert full == out, g.order
        assert sorted(map(_items, full)) == sorted(map(_items, table.values))
        # rows come out by degree, then by the flattened coefficient list
        keys = [(d, [value.get(u, 0) for value in row for u in range(m)])
                for d, row in zip(table.degrees, table.values)]
        assert sorted(range(len(keys)), key=keys.__getitem__) == list(range(len(keys)))


def test_lift_refuses_a_multiplicity_above_the_degree():
    # one character of degree 2 on the trivial group: the lift of X(1) is
    # c_0 = X(1), a multiplicity of 1 among the eigenvalues, so at most 2
    ell = 257
    one = ([2], [[0]], [1], ell, 1)
    assert dixon._lift([[2]], *one) == [[{0: 2}]]
    for x in (3, 255):
        with pytest.raises(AssertionError, match="exceeds the degree"):
            dixon._lift([[x]], *one)


def test_dixon_peak_memory_is_a_few_bytes_per_coefficient():
    # the modular table, the packed lift transforms, the dicts of nonzero
    # multiplicities and one packed orthogonality sum at a time stay below
    # 12 bytes per (character, class, root)
    for g in (ge.cyclic_group(60), ge.dihedral_group(63)):
        tracemalloc.start()
        try:
            table = ge.dixon_character_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k, m = table.num_classes, table.exponent
        assert peak < 12 * k * k * m, (g.order, peak, k, m)


def test_each_build_checks_both_relations_on_one_evaluation(monkeypatch):
    ct = ge.CharacterTable
    for name in ("verify_row_orthogonality", "verify_column_orthogonality"):
        with monkeypatch.context() as patch:
            patch.setattr(ct, name, lambda self, evaluated=None: False)
            with pytest.raises(AssertionError, match=name.split("_")[1]):
                ge.dixon_character_table(ge.symmetric_group(4))
    evaluations = ct.evaluations
    count = []

    def counted(self):
        count.append(1)
        return evaluations(self)

    monkeypatch.setattr(ct, "evaluations", counted)
    table = ge.dixon_character_table(ge.alternating_group(5))
    assert len(count) == 1
    # called alone, each check still evaluates the current values
    assert table.verify_row_orthogonality() and table.verify_column_orthogonality()
    assert len(count) == 3


def test_orthogonality_refuses_coefficients_that_are_not_multiplicities():
    # the bound B that makes one prime enough holds only for multiplicity
    # rows: non-negative coefficients summing to the degree
    table = ge.dixon_character_table(ge.cyclic_group(3))
    good = table.values
    too_big = [[{0: 2**30} for _ in row] for row in good]
    extra_unit = [[dict(value) for value in row] for row in good]
    extra_unit[0][0][0] += 1
    negative = [[dict(value) for value in row] for row in good]
    negative[1][1] = {u: negative[1][1].get(u, 0) + a for u, a in enumerate([1, 1, -2])}
    assert [list(map(sum, map(dict.values, row))) for row in negative] == \
        [list(map(sum, map(dict.values, row))) for row in good]
    for values in (too_big, extra_unit, negative):
        table.values = values
        for check in (table.verify_row_orthogonality,
                      table.verify_column_orthogonality,
                      table.nonzero_class_counts):
            with pytest.raises(AssertionError):
                check()


def test_moved_multiplicity_breaks_both_relations():
    # one unit of multiplicity moved from zeta**u to zeta**(u+1) in a single
    # value keeps every row sum, so only the evaluations can see it
    for g in (ge.alternating_group(5), ge.cyclic_group(60),
              ge.build_example_group("isaacs_K", 5)):
        table = ge.dixon_character_table(g)
        t = next(t for t, row in enumerate(table.values) if any(v.get(0) != 1 for v in row))
        value = table.values[t][table.num_classes - 1]
        u = min(value)
        value[u] -= 1
        value[(u + 1) % table.exponent] = value.get((u + 1) % table.exponent, 0) + 1
        assert not table.verify_row_orthogonality()
        assert not table.verify_column_orthogonality()


def test_galois_stable_but_wrong_table_fails_at_one_root():
    # the trivial and sign characters of S4 swapped on one class of size 6:
    # their values 1 and -1 there are the multiplicities at zeta**0 and
    # zeta**6, which every unit mod 12 fixes, so the table stays
    # Galois-stable and keeps its row sums; only the relations see it
    table = ge.dixon_character_table(ge.symmetric_group(4))
    linear = [t for t, d in enumerate(table.degrees) if d == 1]
    c = table.class_sizes.index(6)
    assert sorted(sorted(table.values[t][c]) for t in linear) == [[0], [table.exponent // 2]]
    (a, b), values = linear, table.values
    values[a][c], values[b][c] = values[b][c], values[a][c]
    table.evaluations()  # still Galois-stable: nothing raised
    assert not table.verify_row_orthogonality()
    assert not table.verify_column_orthogonality()


def test_table_that_is_not_galois_stable_is_refused():
    # on C3, a faithful character given zeta on both nontrivial classes
    # keeps its row sums, but sigma_2 chi(g) = zeta**2 is not chi(g**2)
    table = ge.dixon_character_table(ge.cyclic_group(3))
    t = next(t for t, row in enumerate(table.values) if any(v.get(0) != 1 for v in row))
    table.values[t][2] = dict(table.values[t][1])
    assert not table.verify_row_orthogonality()
    assert not table.verify_column_orthogonality()
    for check in (table.evaluations, table.nonzero_class_counts):
        with pytest.raises(AssertionError, match="Galois-stable"):
            check()


def test_gagola_analysis_reads_the_current_values():
    # the build's evaluation is dropped when the values are assigned, or by
    # hand after an edit in place; either way the analysis sees the edit
    g = ge.cyclic_group(3)
    for in_place in (False, True):
        table = ge.dixon_character_table(g)
        assert table.evaluated is not None
        t = next(t for t, row in enumerate(table.values) if any(v.get(0) != 1 for v in row))
        if in_place:
            table.values[t][2] = dict(table.values[t][1])
            table.evaluated = None
        else:
            values = [list(row) for row in table.values]
            values[t][2] = dict(values[t][1])
            table.values = values
            assert table.evaluated is None
        with pytest.raises(AssertionError, match="Galois-stable"):
            ge.gagola_analyze(g, table)


def test_unit_generators_generate_every_unit_group():
    # stability is checked on these generators only; 420 is A7's exponent
    for m in range(1, 421):
        gens = dixon._unit_generators(m)
        reached, frontier = {1 % m}, {1 % m}
        while frontier:
            frontier = {x * u % m for x in frontier for u in gens} - reached
            reached |= frontier
        assert reached == set(dixon._units(m)), m


def test_evaluation_and_relations_peak_at_a_few_bytes_per_coefficient():
    # one root, the stability check and one (k, k) product per relation:
    # nothing grows with phi(m), which is 96 for A7 (k = 9, m = 420)
    table = ge.dixon_character_table(ge.alternating_group(7))
    tracemalloc.start()
    try:
        evaluated = table.evaluations()
        assert table.verify_row_orthogonality(evaluated)
        assert table.verify_column_orthogonality(evaluated)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k, m = table.num_classes, table.exponent
    assert peak < 4 * k * k * m, (peak, k, m)


def test_evaluation_builds_nothing_of_the_tables_shape():
    # the sign test streams the coefficients and the stability check holds
    # one row's nonzero coefficients at a time: the peak stays below 2 bytes
    # per (character, class, root)
    for g in (ge.cyclic_group(60), ge.dihedral_group(63)):
        table = ge.dixon_character_table(g)
        tracemalloc.start()
        try:
            table.evaluations()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k, m = table.num_classes, table.exponent
        assert peak < 2 * k * k * m, (g.order, peak, k, m)


def test_evaluations_run_over_every_primitive_root():
    # on C60 each faithful character takes, across the evaluations, every
    # primitive 60th root of unity mod p once on a generating class
    g = ge.cyclic_group(60)
    table = ge.dixon_character_table(g)
    p, at_roots = _values_at_every_root(table)
    primitive = [x for x in range(1, p) if pow(x, 60, p) == 1
                 and all(pow(x, 60 // q, p) != 1 for q in (2, 3, 5))]
    orders = _element_orders(g)
    c = next(c for c, rep in enumerate(table.class_reps) if orders[rep] == 60)
    faithful = [t for t in range(60) if sorted(ev[t][c] for ev in at_roots) == primitive]
    assert len(primitive) == len(faithful) == 16


def test_evaluation_prime_exceeds_the_norm_bound():
    # a one-character table of the trivial group with degree 4 breaks both
    # relations by 4**2 - 1 = 15, which vanishes mod 3 and mod 5; only a
    # prime above B = |G| d**2 + |G| = 17 is certain to see it
    table = ge.dixon_character_table(ge.cyclic_group(1))
    table.degrees = [4]
    table.values = [[{0: 4}]]
    assert table.evaluations()[0] > 17
    assert not table.verify_row_orthogonality()
    assert not table.verify_column_orthogonality()


def test_roots_are_exactly_the_linear_factors():
    # (x - 9999)(x - 2)(x - 5000)(x^2 + 1) over GF(10007); 10007 = 3 mod 4,
    # so x^2 + 1 has no root there
    from chardeg.groupengine.dixon import _roots

    ell = 10007
    poly = [1, 0, 1]
    for root in (9999, 2, 5000):
        # times (x - root)
        poly = [(shifted - root * c) % ell for shifted, c in zip([0] + poly, poly + [0])]
    assert _roots(poly, ell) == [2, 5000, 9999]
    assert _roots([1, 0, 1], ell) == []


def test_packed_sums_are_exact_at_every_width():
    # 8-byte entries take the struct path; a bound past 2**64 takes wider
    # entries, as a table with a huge degree would for its relations
    for terms, modulus, width in ((60, 61, 8), (5000, 25_000_207, 8), (3, 2**40 + 15, 16)):
        assert dixon._width(terms, modulus) == width
        vectors = [[(i * j + terms) % modulus for i in range(7)] for j in range(terms)]
        coeffs = [(modulus - 1 - j) % modulus for j in range(terms)]
        total = sum(a * dixon._pack(v, width) for a, v in zip(coeffs, vectors))
        assert dixon._unpack(total, 7, width, modulus) == [
            sum(a * v[i] for a, v in zip(coeffs, vectors)) % modulus for i in range(7)]


def test_table_resource_limit():
    class Fake:
        order = 6000
    with pytest.raises(ResourceLimitError):
        ge.dixon_character_table(Fake())


# --- gagola analysis --------------------------------------------------------

def test_gagola_examples():
    d8 = ge.build_example_group("heisenberg", 2)
    rep = ge.gagola_analyze(d8)
    assert rep.is_gagola and rep.character_degree == 2
    assert rep.minimal_normal_order == 2 and rep.vanishing_classes == 3

    rep = ge.gagola_analyze(ge.cyclic_group(4))
    assert not rep.is_gagola

    k3 = ge.build_example_group("isaacs_K", 3)
    rep = ge.gagola_analyze(k3)
    assert rep.is_gagola and rep.character_degree == 6
    assert rep.minimal_normal_order == 3


def test_heisenberg_odd_is_not_gagola():
    # for odd q the unitriangular group alone vanishes off three classes
    rep = ge.gagola_analyze(ge.build_example_group("heisenberg", 3))
    assert not rep.is_gagola


# --- constructions ----------------------------------------------------------

def test_example_group_orders():
    assert ge.build_example_group("isaacs_K", 2).order == 8
    assert ge.build_example_group("isaacs_K", 4).order == 192
    heis = ge.build_example_group("heisenberg", 3)
    assert heis.order == 27
    assert set(_element_orders(heis)) == {1, 3}


def test_resource_limits_on_kinds():
    with pytest.raises(ResourceLimitError):
        ge.build_example_group("isaacs_K", 9)   # order 5832 exceeds the bound
    with pytest.raises(ResourceLimitError):
        ge.build_example_group("heisenberg", 16)
    with pytest.raises(ValueError):
        ge.build_example_group("nonsense", 3)


def test_galois_twisted_group():
    gamma = ge.build_galois_twisted_group(4)
    assert gamma.order == 384
    with pytest.raises(ValueError):
        ge.build_galois_twisted_group(5)  # prime field: trivial twist
    with pytest.raises(ResourceLimitError):
        ge.build_galois_twisted_group(9)  # order 11664


def test_closure_only_sizes():
    assert ge.build_example_group("heisenberg", 9).order == 729
    assert ge.build_example_group("isaacs_K", 8).order == 3584


# --- group specification files ---------------------------------------------

def test_group_file_round_trip(tmp_path):
    path = tmp_path / "d8.json"
    path.write_text(json.dumps({
        "name": "D8",
        "kind": "permutation",
        "degree": 4,
        "generators": [[1, 2, 3, 0], [3, 2, 1, 0]],
    }))
    name, group = ge.load_group_file(path)
    assert name == "D8" and group.order == 8

    path = tmp_path / "q8.json"
    path.write_text(json.dumps({
        "name": "Q8",
        "kind": "matrix",
        "dimension": 2,
        "field": 3,
        "generators": [[0, 2, 1, 0], [1, 1, 1, 2]],
    }))
    name, group = ge.load_group_file(path)
    assert name == "Q8" and group.order == 8


def test_group_file_validation(tmp_path):
    with pytest.raises(ValueError):
        ge.group_from_dict({"kind": "permutation", "degree": 3, "generators": [[0, 1]]})
    with pytest.raises(ValueError):
        ge.group_from_dict({"kind": "widget", "generators": [[0]]})
