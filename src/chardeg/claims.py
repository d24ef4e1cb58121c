"""The claims that `chardeg verify-all` checks, each defined once, in one
row of `CLAIMS`: its id, its check and the chardeg modules the check reads.
`verify-all` runs `CLAIMS` in its order, and every other subcommand and
the tests name claims by their ids in it.

Each check returns pass, fail or out-of-scope together with the witnesses
it examined; `run_claims` reports a claim that raises as error and still
runs the others.  Every range is a constant beside the check that reads
it.  Each check imports the chardeg modules it reads at its top, so a
claim's seconds include the import of every module it is the first to use,
and `--jobs` loads the selected claims' modules, read from their rows,
before the pool forks.  This module never imports `chardeg.cli`: run as
`python -m chardeg.cli`, that module is `__main__`, and importing it again
would compile it a second time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from math import factorial
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .degrees import DegreeMultiset

PASS, FAIL, OUT_OF_SCOPE = "pass", "fail", "out-of-scope"
ERROR = "error"


@dataclass(frozen=True)
class DegreeRecord:
    """Named degree data supplied by the user: order plus (degree, mult) pairs."""

    name: str
    order: int
    degrees: DegreeMultiset


def ingest_degree_records(path) -> list[DegreeRecord]:
    """Read one JSON object per line with fields name/order/degrees; the
    multiplicity-weighted squared degrees must sum to the order and names
    must be unique.  The name is a string, and the order, the degrees and the
    multiplicities are JSON integers: never floats, and never booleans.  The
    order, each degree and each multiplicity is at least 1, checked before
    equal degrees merge, and a record lists at least one degree."""
    from .degrees import DegreeMultiset

    records = []
    seen = set()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        try:
            name = data["name"]
            order = data["order"]
            pairs = [(d, m) for d, m in data["degrees"]]
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{path}:{lineno}: expected name/order/degrees fields") from None
        integers = [order] + [x for pair in pairs for x in pair]
        if type(name) is not str or any(type(x) is not int for x in integers):
            raise ValueError(f"{path}:{lineno}: expected a string name and integer "
                             "order, degrees and multiplicities")
        if order < 1 or not pairs or any(x < 1 for pair in pairs for x in pair):
            raise ValueError(f"{path}:{lineno}: degrees and multiplicities must be "
                             "positive, with at least one degree and an order of at least 1")
        if name in seen:
            raise ValueError(f"{path}:{lineno}: duplicate record name {name!r}")
        seen.add(name)
        ds = DegreeMultiset.from_pairs(pairs)
        if ds.sum_squares != order:
            raise ValueError(
                f"{path}:{lineno}: record {name!r} violates the order identity: "
                f"sum of squared degrees is {ds.sum_squares}, order is {order}")
        records.append(DegreeRecord(name, order, ds))
    return records


@dataclass(frozen=True)
class RunConfig:
    """The inputs a caller can set; every range is a constant beside the
    claim that reads it."""

    degree_records: tuple[DegreeRecord, ...] | None = None
    jobs: int = 1


@dataclass
class VerificationReport:
    claim: str
    status: str
    witnesses: list
    seconds: float

    def to_json(self) -> dict:
        return {"claim": self.claim, "status": self.status,
                "witnesses": self.witnesses, "seconds": round(self.seconds, 3)}


# ---------------------------------------------------------------------------
# claim checks

HOOK_SUM_MAX_N = 12
TABLEAUX_MAX_N = 8
BRANCHING_MAX_N = 10


def _check_hook_sum(cfg: RunConfig):
    from . import partitions

    bad = [n for n in range(1, HOOK_SUM_MAX_N + 1)
           if sum(partitions.hook_degree(lam) ** 2
                  for lam in partitions.partitions_of(n)) != factorial(n)]
    return (FAIL if bad else PASS), [f"n=1..{HOOK_SUM_MAX_N}", f"failures={bad}"]


def _check_hook_tableaux(cfg: RunConfig):
    from . import partitions

    bad = [lam for n in range(1, TABLEAUX_MAX_N + 1)
           for lam in partitions.partitions_of(n)
           if partitions.hook_degree(lam) != partitions.standard_tableaux_count(lam)]
    return (FAIL if bad else PASS), [f"n=1..{TABLEAUX_MAX_N}", f"failures={len(bad)}"]


def _check_branching(cfg: RunConfig):
    from . import partitions

    bad = []
    for n in range(1, BRANCHING_MAX_N + 1):
        for lam in partitions.partitions_of(n):
            addable, removable = partitions.boundary_nodes(lam)
            up = sum(partitions.hook_degree(partitions.add_node(lam, node))
                     for node in addable)
            if up != (n + 1) * partitions.hook_degree(lam):
                bad.append(("up", lam))
            if n > 1:
                down = sum(partitions.hook_degree(partitions.remove_node(lam, node))
                           for node in removable)
                if down != partitions.hook_degree(lam):
                    bad.append(("down", lam))
    return (FAIL if bad else PASS), [f"n<={BRANCHING_MAX_N}", f"failures={len(bad)}"]


def _check_rho_direct(cfg: RunConfig):
    from . import symalt

    # the certificates are data: each one is checked here, whatever made it
    certs = symalt.rho_certificates()
    given = dict(certs)
    bad = [n for n in range(7, symalt.TAIL_START + 1)
           if n not in given or not symalt.certifies_rho_bound(n, given[n])]
    return (FAIL if bad else PASS), [
        f"n=7..{symalt.TAIL_START}", f"failures={bad}",
        [[n, list(lam)] for n, lam in certs]]


def _check_rho_induction(cfg: RunConfig):
    from . import symalt
    from .exactmath import positivity_certificate

    bad = symalt.verify_rho_growth()
    certs = {name: positivity_certificate(poly, symalt.RHO_TAIL_FROM)
             for name, poly in symalt.rho_tail_polynomials().items()}
    return (FAIL if bad else PASS), [
        f"every n>={symalt.TAIL_START}", {"v": "(n+1)^(1/8)", "r": str(symalt.RHO_TAIL_R)},
        certs, f"failures={bad}"]


LIE_MAX_RANK = 12
LIE_MAX_Q = 32


def _check_lie_38(cfg: RunConfig):
    from . import lie

    bad = []
    count = 0
    for gid in lie.iter_simple_ids(LIE_MAX_RANK, LIE_MAX_Q):
        if gid.family == "A" and gid.rank == 1:
            continue
        count += 1
        if not lie.verify_lie_38(gid):
            bad.append(f"{gid.family}:{gid.rank}:{gid.q}")
    return (FAIL if bad else PASS), [
        f"rank<={LIE_MAX_RANK}", f"q<={LIE_MAX_Q}",
        f"groups={count}", f"exceptions={bad}"]


# the class polynomials decide each residue class of q from this q on; q = 5
# has no chi character, so its largest degree is q and it is decided alone
PSL2_CLASS_FROM = {"even": 4, "3 mod 4": 7, "1 mod 4": 9}


def _check_psl2_sums(cfg: RunConfig):
    from . import psl2

    polys = {c: psl2.class_polynomials(c) for c in psl2.CLASSES}
    bad = [c for c, p in polys.items() if any(p["sum of squares - order"])]
    identities = {c: {k: list(map(str, p[k])) for k in ("order", "sum of squares - order")}
                  for c, p in polys.items()}
    return (FAIL if bad else PASS), ["every q>=4", identities, f"failures={bad}"]


def _check_extendible_witness(cfg: RunConfig):
    # the witness index i = (2**f -+ 1)/3 has criterion modulus 3i, so it is
    # fixed when 3 | 2**k -+ 1: both hold as 2**k mod 3 alternates 2, 1
    cycle = [pow(2, k, 3) for k in (1, 2, 3)]
    bad = [] if cycle == [2, 1, 2] else [cycle]
    return (FAIL if bad else PASS), [
        "every f>=3", {"2^k mod 3, k=1,2,3": cycle}, f"failures={bad}"]


def _check_theta2_stabilizer(cfg: RunConfig):
    from .exactmath import positive_from, positivity_certificate

    # for odd p, f >= 2 and 1 <= k < f, 0 < 2(p**k -+ 1) < p**f + 1, as
    # p**(f-1) * (p - 2) >= p(p - 2) > 1; so p**f + 1 divides neither
    poly = [-1, -2, 1]
    bad = [] if positive_from(poly, 3) else ["p^2-2p-1"]
    return (FAIL if bad else PASS), [
        "every odd q>=5", {"p^2-2p-1": positivity_certificate(poly, 3)}, f"failures={bad}"]


def _check_epsilon_psl2(cfg: RunConfig):
    from . import bounds, psl2
    from .exactmath import positive_from, positivity_certificate

    rep = bounds.simple_bound_report(psl2.psl2_degrees(5))
    bad = [] if rep.epsilon_gt_1 and rep.chain_ok else [5]
    certs = {}
    for c, q0 in PSL2_CLASS_FROM.items():
        margins = psl2.class_polynomials(c)["margins"]
        bad += [f"{c}: {k}" for k, poly in margins.items() if not positive_from(poly, q0)]
        certs[c] = {k: positivity_certificate(poly, q0) for k, poly in margins.items()}
    return (FAIL if bad else PASS), ["every q>=4", "q=5 by its degrees", certs, f"failures={bad}"]


def _check_epsilon_an(cfg: RunConfig):
    from . import bounds, symalt

    bad = []
    for n in range(5, 21):
        ds = symalt.an_degrees(n)
        rep = bounds.simple_bound_report(ds)
        if not (bounds.epsilon_of(ds) > 1 and rep.gt_2b2 and rep.lt_2e2):
            bad.append(n)
    return (FAIL if bad else PASS), ["n=5..20", f"failures={bad}"]


def _check_euler_tail(cfg: RunConfig):
    from fractions import Fraction

    from . import lie

    # each factor 1 - q**-i grows with q, so the bound at q = 2 holds for every q
    bad = [] if lie.euler_tail_lower(2, 2, 40) > Fraction(9, 16) else [2]
    return (FAIL if bad else PASS), ["every q>=2", "terms=40", f"failures={bad}"]


POLY_BRUTE_MAX_D = 10
POLY_EXHAUSTIVE_MAX_D = 16


def _check_srim_table(cfg: RunConfig):
    from . import gf2poly

    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9}
    bad = [d for d, v in expected.items() if gf2poly.count_self_reciprocal(d) != v]
    if gf2poly.count_self_reciprocal(8) < 16:
        bad.append(8)
    for d in range(1, POLY_BRUTE_MAX_D + 1):
        if gf2poly.count_self_reciprocal(d) != gf2poly.count_self_reciprocal(d, "brute_force"):
            bad.append(("brute", d))
    return (FAIL if bad else PASS), [
        "table d=1..7 plus d=8 lower bound",
        f"brute force d<={POLY_BRUTE_MAX_D}", f"failures={bad}"]


def _check_nd_counts(cfg: RunConfig):
    from . import gf2poly

    bad = []
    for d in range(1, POLY_EXHAUSTIVE_MAX_D + 1):
        if gf2poly.count_irreducible_monic(d) != sum(1 for _ in gf2poly.irreducible_polys(d)):
            bad.append(("count", d))
    # from d = 5 on only the divisors e <= d/2 subtract from d*N(d) = 2**d - ...,
    # so 4d*N(d) - 3*2**d >= 2**floor(d/2) * (2**ceil(d/2) - 8) + 8 > 0
    for d in (3, 4):
        if not 4 * d * gf2poly.count_irreducible_monic(d) >= 3 * 2**d:
            bad.append(("bound", d))
    return (FAIL if bad else PASS), [
        f"exhaustive d<={POLY_EXHAUSTIVE_MAX_D}",
        "lower bound every d>=3: d=3,4 by count, d>=5 by "
        "4d*N(d)-3*2^d >= 2^floor(d/2)*(2^ceil(d/2)-8)+8", f"failures={bad}"]


# {family: (q, ranks)}: the high-rank classical groups over GF(3) and GF(2)
# left open by the low-rank degree tables
SEITZ_UNTWISTED = {
    "A": (3, range(8, 14)),    # PSL_n(3), 9 <= n <= 14 (rank n-1)
    "B": (3, range(9, 18)),    # Omega_{2n+1}(3), 9 <= n <= 17
    "C": (3, range(9, 18)),    # PSp_{2n}(3), 9 <= n <= 17
    "D": (3, range(9, 31)),    # POmega+_{2n}(3), 9 <= n <= 30
}
SEITZ_TWISTED = {
    "2A": (2, range(8, 14)),   # PSU_n(2), 9 <= n <= 14 (rank n-1)
    "2D": (3, range(9, 31)),   # POmega-_{2n}(3), 9 <= n <= 30
}


def _check_seitz(cfg: RunConfig, table):
    from . import lie

    ids = lie.seitz_ids(table)
    bad = [f"{gid.family}:{gid.rank}:{gid.q}" for gid in ids
           if not lie.seitz_check(gid).passes_2b2]
    return (FAIL if bad else PASS), [f"groups={len(ids)}", f"failures={bad}"]


PART3_NS = (9, 10, 11)


def _check_part3(cfg: RunConfig):
    from . import lie

    bad = []
    count = 0
    for r in range(4):
        for shape in lie.iter_shapes(PART3_NS, ("O+", "O-"), r, max(PART3_NS)):
            count += 1
            deg = lie.semisimple_degree(shape)
            order = lie.ambient_order(shape.ambient, shape.n)
            if deg >= 9 * (1 << (shape.n * (shape.n - 1))) or order <= 2 * deg * deg:
                bad.append(str(shape))
    return (FAIL if bad else PASS), [
        f"shapes={count}", f"ns={list(PART3_NS)}", "r<=3", f"failures={bad}"]


SITUATION_NS = (9, 10, 11, 12)
SITUATION_AMBIENTS = ("Sp", "O+", "O-")
SITUATION_R = 4
SITUATION_MAX_DK = 6


def _check_situations(cfg: RunConfig):
    from fractions import Fraction

    from . import lie

    low = Fraction(81, 320)
    low_iv = Fraction(81, 272)
    counts = {s: 0 for s in lie.SITUATIONS}
    bad = []
    for shape, i, j, situation, ratio in lie.iter_situation_ratios(
            SITUATION_NS, SITUATION_AMBIENTS, SITUATION_R, SITUATION_MAX_DK):
        counts[situation] += 1
        threshold = low_iv if situation == "iv" else low
        if not ratio > threshold:
            bad.append((str(shape), i, j, situation, str(ratio)))
    # a situation with no instance is a part of the range left unchecked
    return (FAIL if bad or not all(counts.values()) else PASS), [
        f"ns={list(SITUATION_NS)}", f"instances={counts}", f"failures={bad}"]


WITNESS_QS = (2, 3, 4, 5)


def _check_equality_family(cfg: RunConfig):
    from . import bounds, groupengine

    bad = []
    for q in WITNESS_QS:
        group = groupengine.build_example_group("isaacs_K", q)
        d = q * (q - 1)
        if group.order != q**3 * (q - 1):
            bad.append((q, "order"))
            continue
        table = groupengine.dixon_character_table(group)
        if table.degree_multiset().multiplicity(d) != 1:
            bad.append((q, "degree multiplicity"))
        rep = groupengine.gagola_analyze(group, table)
        if not (rep.is_gagola and rep.character_degree == d
                and rep.has_unique_minimal_normal and rep.minimal_normal_order == q):
            bad.append((q, "gagola"))
        dec = bounds.e_of(group.order, d)
        if dec.e != q or bounds.verify_e4_bound(dec).slack != 0:
            bad.append((q, "extremal"))
        if not group.is_solvable():
            bad.append((q, "solvable"))
    return (FAIL if bad else PASS), [f"q={list(WITNESS_QS)}", f"failures={bad}"]


def _check_gagola_arithmetic(cfg: RunConfig):
    from . import bounds
    from .exactmath import p_part, prime_power

    bad = []
    for q in WITNESS_QS:
        # the order that build_example_group("isaacs_K", q) asserts
        order = q**3 * (q - 1)
        p = prime_power(q)[0]
        d = q * (q - 1)
        rep = bounds.gagola_arithmetic(order, d, q, p, p_part(order, p))
        if not (rep.all_pass and rep.order_is_extremal and rep.n_equals_e):
            bad.append(q)
    return (FAIL if bad else PASS), [f"q={list(WITNESS_QS)}", f"failures={bad}"]


# e_min, and e_min**2 - 4*bN*bQ as a sum of products of factors {monomial: coefficient}
COMPOSITION_E_MIN = {"eN*eQ": 1, "eN*bQ": 1, "bN*eQ": 1}
COMPOSITION_TERMS = (
    ({"eN*bQ": 1, "bN*eQ": -1}, {"eN*bQ": 1, "bN*eQ": -1}),
    ({"eN": 1}, {"eQ": 1}, {"eN*eQ": 1, "eN*bQ": 2, "bN*eQ": 2}),
    ({"1": 4}, {"bN": 1}, {"bQ": 1}, {"eN*eQ": 1, "1": -1}),
)


def _check_composition(cfg: RunConfig):
    from itertools import product
    from math import prod

    from . import bounds

    def value(factor, at):
        return sum(c * prod(at[v] for v in m.split("*")) for m, c in factor.items())

    # each side has degree <= 2 in each variable, so {0, 1, 2}^4 decides it
    names = ("bN", "bQ", "eN", "eQ")
    bad = [("degree", v) for v in names for t in ((COMPOSITION_E_MIN,) * 2,) + COMPOSITION_TERMS
           if sum(max(m.split("*").count(v) for m in f) for f in t) > 2]
    for point in product(range(3), repeat=4):
        at = {"1": 1, **dict(zip(names, point))}
        if value(COMPOSITION_E_MIN, at) ** 2 - 4 * at["bN"] * at["bQ"] != sum(
                prod(value(f, at) for f in t) for t in COMPOSITION_TERMS):
            bad.append(("identity", point))
    # where every variable is >= 1, a square is >= 0, and a factor with no
    # negative coefficient but the constant's is least where every one is 1
    ones = dict.fromkeys(("1",) + names, 1)
    rest = [t for t in COMPOSITION_TERMS if len(t) != 2 or t[0] != t[1]]
    if sum(prod(value(f, ones) for f in t) for t in rest) <= 0 or any(
            value(f, ones) < 0 or any(c < 0 for m, c in f.items() if m != "1")
            for t in rest for f in t):
        bad.append("sign")
    cases = [(5, 7, 5, 7), (8, 13, 8, 13), (1, 1, 1, 1), (5, 7, 8, 13)]
    bad += [c for c in cases if not bounds.composition_bound(*c).exceeds_2sqrt]
    return (FAIL if bad else PASS), [
        "every bN, bQ, eN, eQ >= 1", "identity on {0,1,2}^4",
        {"e_min": COMPOSITION_E_MIN, "e_min^2-4*bN*bQ": COMPOSITION_TERMS},
        f"cases={cases}", f"failures={bad}"]


def _check_degree_records(cfg: RunConfig):
    from . import bounds

    if cfg.degree_records is None:
        return OUT_OF_SCOPE, ["no degree records supplied"]
    summaries, bad = [], []
    checked = skipped = 0
    for rec in cfg.degree_records:
        rep = bounds.simple_bound_report(rec.degrees)
        eps = bounds.epsilon_of(rec.degrees)
        summaries.append(f"{rec.name}: b={rep.b} epsilon={eps} "
                         f"gt_2b2={rep.gt_2b2} lt_2e2={rep.lt_2e2}")
        # the abstract's theorem: |G| <= e**4 - e**3 for every degree with e > 1
        for d, _ in rec.degrees:
            if rec.order % d:
                bad.append(f"{rec.name}: degree {d} does not divide order {rec.order}")
                continue
            dec = bounds.e_of(rec.order, d)
            if dec.e <= 1:
                skipped += 1
                continue
            checked += 1
            if not bounds.verify_e4_bound(dec).holds:
                bad.append(f"{rec.name}: degree {d}, e={dec.e}, order {rec.order} "
                           f"> e^4-e^3 = {dec.e**4 - dec.e**3}")
    return (FAIL if bad else PASS), summaries + [
        f"e4-bound pairs checked={checked} skipped_e_le_1={skipped}", f"failures={bad}"]


# claim id: (check, the chardeg modules it imports at its top), in verify-all
# order; run_claims loads the modules before a --jobs pool forks, so the
# workers share them, and a test runs each claim alone to check its modules.
CLAIMS: dict[str, tuple[object, tuple[str, ...]]] = {
    "sec2/hook-sum-squares": (_check_hook_sum, ("partitions",)),
    "sec2/hook-vs-tableaux": (_check_hook_tableaux, ("partitions",)),
    "sec2/branching": (_check_branching, ("partitions",)),
    "thm2.1/rho-direct": (_check_rho_direct, ("symalt",)),
    "thm2.1/rho-induction": (_check_rho_induction, ("exactmath", "symalt")),
    "thm2.1/lie-38": (_check_lie_38, ("lie",)),
    "sec5-6/psl2-degree-sums": (_check_psl2_sums, ("psl2",)),
    "lem5.1/extendible-witness": (_check_extendible_witness, ()),
    "lem6.2/theta2-stabilizer": (_check_theta2_stabilizer, ("exactmath",)),
    "thm3.1/epsilon-psl2": (_check_epsilon_psl2, ("bounds", "psl2")),
    "thm3.1/epsilon-an": (_check_epsilon_an, ("bounds", "symalt")),
    "lem3.2/euler-tail": (_check_euler_tail, ("lie",)),
    "lem3.3/srim-table": (_check_srim_table, ("gf2poly",)),
    "sec3/nd-counts": (_check_nd_counts, ("gf2poly",)),
    "sec3/seitz-untwisted": (partial(_check_seitz, table=SEITZ_UNTWISTED), ("lie",)),
    "sec3/seitz-twisted": (partial(_check_seitz, table=SEITZ_TWISTED), ("lie",)),
    "sec3/part3-r-le-3": (_check_part3, ("lie",)),
    "sec3/part4-situations": (_check_situations, ("lie",)),
    "thm7.2/equality-family": (_check_equality_family, ("bounds", "groupengine")),
    "lem7.1/gagola-arithmetic": (_check_gagola_arithmetic, ("bounds",)),
    "lem3.5/composition-bound": (_check_composition, ("bounds",)),
    "user/degree-records": (_check_degree_records, ("bounds",)),
}


def _run_claim(args: tuple[str, RunConfig]) -> VerificationReport:
    claim, cfg = args
    start = time.perf_counter()
    try:
        status, witnesses = CLAIMS[claim][0](cfg)
    except Exception as exc:  # one broken claim must not hide the others
        status, witnesses = ERROR, [f"{type(exc).__name__}: {exc}"]
    return VerificationReport(claim, status, witnesses, time.perf_counter() - start)


def run_claims(claims: list[str], cfg: RunConfig) -> list[VerificationReport]:
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {cfg.jobs}")
    # the fork start method starts every worker up front: none may be idle
    jobs = min(cfg.jobs, len(claims))
    if jobs <= 1:
        return [_run_claim((c, cfg)) for c in claims]
    import importlib
    from concurrent.futures import ProcessPoolExecutor

    for name in sorted({m for c in claims for m in CLAIMS[c][1]}):
        importlib.import_module(f"{__package__}.{name}")

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_claim, [(c, cfg) for c in claims]))
