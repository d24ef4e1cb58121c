"""Command-line surface: per-claim verification subcommands and a
machine-readable consolidated report.

Each claim check returns pass / fail / inconclusive / out-of-scope together
with the witnesses it examined; a claim that raises is reported as error and
the others still run.  `verify-all` runs every configured claim and exits 0
exactly when nothing failed, errored or was inconclusive, and 1 otherwise;
a usage or input error is one line on stderr and exit code 2, before any
claim runs.  Reports are JSON arrays with stable claim ids, byte-identical
across runs except for the timing fields.

Importing this module loads no other chardeg module but `errors`.  Each
claim check imports the modules it reads at its top, so a claim's seconds
include the import of every module it is the first to use, and `--jobs`
loads the selected claims' modules before the pool forks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import cache
from math import factorial
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .errors import PrecisionCapError, ResourceLimitError

if TYPE_CHECKING:
    from .degrees import DegreeMultiset

PASS, FAIL, INCONCLUSIVE, OUT_OF_SCOPE = "pass", "fail", "inconclusive", "out-of-scope"
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

    torus_table: str | None = None
    degrees_path: str | None = None
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
    bad = [n for n in range(7, symalt.INDUCTION_START)
           if n not in given or not symalt.certifies_rho_bound(n, given[n])]
    return (FAIL if bad else PASS), [
        f"n=7..{symalt.INDUCTION_START - 1}", f"failures={bad}",
        [[n, list(lam)] for n, lam in certs]]


RHO_INDUCT_MAX = 10_000
RHO_SPOTS = (10**6,)


def _check_rho_induction(cfg: RunConfig):
    from . import symalt

    bad = symalt.verify_rho_growth(RHO_INDUCT_MAX, RHO_SPOTS)
    return (FAIL if bad else PASS), [
        f"induction n={symalt.INDUCTION_START}..{RHO_INDUCT_MAX}",
        f"spots={list(RHO_SPOTS)}",
        f"failures={bad}",
    ]


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
    from .exactmath import positive_from

    # for odd p, f >= 2 and 1 <= k < f, 0 < 2(p**k -+ 1) < p**f + 1, as
    # p**(f-1) * (p - 2) >= p(p - 2) > 1; so p**f + 1 divides neither
    bad = [] if positive_from([-1, -2, 1], 3) else ["p^2-2p-1"]
    return (FAIL if bad else PASS), [
        "every odd q>=5", {"p^2-2p-1": ["-1", "-2", "1"], "from": 3}, f"failures={bad}"]


def _check_epsilon_psl2(cfg: RunConfig):
    from . import bounds, psl2
    from .exactmath import positive_from

    rep = bounds.simple_bound_report(psl2.psl2_degrees(5))
    bad = [] if rep.epsilon_gt_1 and rep.chain_ok else [5]
    certs = {}
    for c, q0 in PSL2_CLASS_FROM.items():
        margins = psl2.class_polynomials(c)["margins"]
        bad += [f"{c}: {k}" for k, poly in margins.items() if not positive_from(poly, q0)]
        certs[c] = {"from": q0, "margins": {k: list(map(str, v)) for k, v in margins.items()}}
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


def _check_seitz_untwisted(cfg: RunConfig):
    from . import lie

    bad = [str(r.gid) for gid in lie.seitz_ids(twisted=False)
           if not (r := lie.seitz_check(gid)).passes_2b2]
    return (FAIL if bad else PASS), [f"groups={len(lie.seitz_ids(False))}",
                                     f"failures={bad}"]


def _check_seitz_twisted(cfg: RunConfig):
    from . import lie

    if cfg.torus_table is None:
        return OUT_OF_SCOPE, ["no torus table supplied"]
    try:
        table = lie.load_torus_table(cfg.torus_table)
    except ValueError as exc:
        return FAIL, [str(exc)]
    bad, missing = [], []
    for gid in lie.seitz_ids(twisted=True):
        torus = table.get((gid.family, gid.rank, gid.q))
        if torus is None:
            missing.append(f"{gid.family}:{gid.rank}:{gid.q}")
            continue
        if not lie.seitz_check(gid, torus).passes_2b2:
            bad.append(f"{gid.family}:{gid.rank}:{gid.q}")
    status = FAIL if bad else (INCONCLUSIVE if missing else PASS)
    return status, [f"groups={len(lie.seitz_ids(True))}",
                    f"missing={missing}", f"failures={bad}"]


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
SITUATION_MAX_DK = 6


def _check_situations(cfg: RunConfig):
    from fractions import Fraction

    from . import lie

    low = Fraction(81, 320)
    low_iv = Fraction(81, 272)
    counts = {s: 0 for s in lie.SITUATIONS}
    bad = []
    for shape, i, j, situation, ratio in lie.iter_situation_ratios(
            ns=SITUATION_NS, max_dk=SITUATION_MAX_DK):
        counts[situation] += 1
        threshold = low_iv if situation == "iv" else low
        if not ratio > threshold:
            bad.append((str(shape), i, j, situation, str(ratio)))
    # a situation with no instance is a part of the range left unchecked
    return (FAIL if bad or not all(counts.values()) else PASS), [
        f"ns={list(SITUATION_NS)}", f"instances={counts}", f"failures={bad}"]


WITNESS_QS = (2, 3, 4, 5)


@cache
def _witness_group(q: int):
    """isaacs_K(q), built once per process and shared by the two gagola
    claims."""
    from . import groupengine

    return groupengine.build_example_group("isaacs_K", q)


def _check_equality_family(cfg: RunConfig):
    from . import bounds, groupengine

    bad = []
    for q in WITNESS_QS:
        group = _witness_group(q)
        d = q * (q - 1) if q > 2 else 2
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
        group = _witness_group(q)
        p = prime_power(q)[0]
        d = q * (q - 1) if q > 2 else 2
        rep = bounds.gagola_arithmetic(group.order, d, q, p, p_part(group.order, p))
        if not (rep.all_pass and rep.order_is_extremal and rep.n_equals_e):
            bad.append(q)
    return (FAIL if bad else PASS), [f"q={list(WITNESS_QS)}", f"failures={bad}"]


def _check_composition(cfg: RunConfig):
    from . import bounds

    cases = [(5, 7, 5, 7), (8, 13, 8, 13), (1, 1, 1, 1), (5, 7, 8, 13)]
    bad = [c for c in cases if not bounds.composition_bound(*c).exceeds_2sqrt]
    return (FAIL if bad else PASS), [f"cases={cases}", f"failures={bad}"]


def _check_degree_records(cfg: RunConfig):
    from . import bounds

    if cfg.degrees_path is None:
        return OUT_OF_SCOPE, ["no degree records supplied"]
    try:
        records = ingest_degree_records(cfg.degrees_path)
    except ValueError as exc:
        return FAIL, [str(exc)]
    summaries, bad = [], []
    checked = skipped = 0
    for rec in records:
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


CLAIMS: list[tuple[str, object]] = [
    ("sec2/hook-sum-squares", _check_hook_sum),
    ("sec2/hook-vs-tableaux", _check_hook_tableaux),
    ("sec2/branching", _check_branching),
    ("thm2.1/rho-direct", _check_rho_direct),
    ("thm2.1/rho-induction", _check_rho_induction),
    ("thm2.1/lie-38", _check_lie_38),
    ("sec5-6/psl2-degree-sums", _check_psl2_sums),
    ("lem5.1/extendible-witness", _check_extendible_witness),
    ("lem6.2/theta2-stabilizer", _check_theta2_stabilizer),
    ("thm3.1/epsilon-psl2", _check_epsilon_psl2),
    ("thm3.1/epsilon-an", _check_epsilon_an),
    ("lem3.2/euler-tail", _check_euler_tail),
    ("lem3.3/srim-table", _check_srim_table),
    ("sec3/nd-counts", _check_nd_counts),
    ("sec3/seitz-untwisted", _check_seitz_untwisted),
    ("sec3/seitz-twisted", _check_seitz_twisted),
    ("sec3/part3-r-le-3", _check_part3),
    ("sec3/part4-situations", _check_situations),
    ("thm7.2/equality-family", _check_equality_family),
    ("lem7.1/gagola-arithmetic", _check_gagola_arithmetic),
    ("lem3.5/composition-bound", _check_composition),
    ("user/degree-records", _check_degree_records),
]

_CLAIM_MAP = dict(CLAIMS)

# the chardeg modules each claim imports at its top; run_claims loads them
# before a --jobs pool forks, so the workers share them instead of each
# compiling them (and numpy, for the group engine) again.  A test runs each
# claim alone to check its row.
_CLAIM_MODULES = {
    "sec2/hook-sum-squares": ("partitions",),
    "sec2/hook-vs-tableaux": ("partitions",),
    "sec2/branching": ("partitions",),
    "thm2.1/rho-direct": ("symalt",),
    "thm2.1/rho-induction": ("symalt",),
    "thm2.1/lie-38": ("lie",),
    "sec5-6/psl2-degree-sums": ("psl2",),
    "lem5.1/extendible-witness": (),
    "lem6.2/theta2-stabilizer": ("exactmath",),
    "thm3.1/epsilon-psl2": ("bounds", "psl2"),
    "thm3.1/epsilon-an": ("bounds", "symalt"),
    "lem3.2/euler-tail": ("lie",),
    "lem3.3/srim-table": ("gf2poly",),
    "sec3/nd-counts": ("gf2poly",),
    "sec3/seitz-untwisted": ("lie",),
    "sec3/seitz-twisted": ("lie",),
    "sec3/part3-r-le-3": ("lie",),
    "sec3/part4-situations": ("lie",),
    "thm7.2/equality-family": ("bounds", "groupengine"),
    "lem7.1/gagola-arithmetic": ("bounds", "groupengine"),
    "lem3.5/composition-bound": ("bounds",),
    "user/degree-records": ("bounds",),
}

SUBCOMMAND_CLAIMS = {
    "verify-all": [claim for claim, _ in CLAIMS],
    "rho": ["thm2.1/rho-direct", "thm2.1/rho-induction"],
    "psl2": ["sec5-6/psl2-degree-sums", "lem5.1/extendible-witness",
             "lem6.2/theta2-stabilizer", "thm3.1/epsilon-psl2"],
    "lie38": ["thm2.1/lie-38"],
    "seitz": ["sec3/seitz-untwisted", "sec3/seitz-twisted"],
    "situations": ["sec3/part4-situations", "sec3/part3-r-le-3"],
    "poly": ["lem3.3/srim-table", "sec3/nd-counts"],
    "gagola": ["thm7.2/equality-family", "lem7.1/gagola-arithmetic"],
    "epsilon": ["thm3.1/epsilon-an", "user/degree-records"],
}


def _run_claim(args: tuple[str, RunConfig]) -> VerificationReport:
    claim, cfg = args
    start = time.perf_counter()
    try:
        status, witnesses = _CLAIM_MAP[claim](cfg)
    except PrecisionCapError as exc:
        status, witnesses = INCONCLUSIVE, [str(exc)]
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

    for name in sorted({m for c in claims for m in _CLAIM_MODULES[c]}):
        importlib.import_module(f"{__package__}.{name}")

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_claim, [(c, cfg) for c in claims]))


def _write_report(reports: list[VerificationReport], path) -> None:
    payload = [r.to_json() for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _print_reports(reports: list[VerificationReport]) -> None:
    for r in reports:
        print(f"{r.status.upper():13s} {r.claim}  ({r.seconds:.2f}s)")
        for w in r.witnesses:
            print(f"              {w}")


def _exit_code(reports: list[VerificationReport]) -> int:
    return 0 if all(r.status in (PASS, OUT_OF_SCOPE) for r in reports) else 1


def _abort(message: str) -> NoReturn:
    """Reject a usage or input error: one line on stderr, exit code 2."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _check_report_path(path) -> None:
    """Reject a --report path that cannot be written before any claim runs."""
    if path and Path(path).is_dir():
        _abort(f"configuration error: report path {path!r} is a directory")
    if path and not Path(path).parent.is_dir():
        _abort(f"configuration error: report path {path!r} "
               "is not in an existing directory")


def _config_from_args(args) -> RunConfig:
    if args.max_n is not None:
        from . import symalt

        if not 7 <= args.max_n <= symalt.MAX_N:
            _abort(f"configuration error: --max-n {args.max_n} "
                   f"outside 7..{symalt.MAX_N}")
    if args.torus_table and not Path(args.torus_table).is_file():
        _abort(f"configuration error: torus table "
               f"{args.torus_table!r} does not exist")
    if args.degrees and not Path(args.degrees).is_file():
        _abort(f"configuration error: degree file "
               f"{args.degrees!r} does not exist")
    if args.jobs < 1:
        _abort(f"configuration error: --jobs {args.jobs} is below 1")
    _check_report_path(args.report)
    return RunConfig(torus_table=args.torus_table or None,
                     degrees_path=args.degrees or None, jobs=args.jobs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chardeg",
        description="Exact verification of character-degree bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--report", help="write a JSON report to this path")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent claims")
        p.add_argument("--max-n", type=int, dest="max_n",
                       help="accepted for old command lines and ignored: "
                            "rho-direct always certifies n=7..74; "
                            "values outside 7..60 are still rejected")
        p.add_argument("--torus-table", dest="torus_table",
                       help="JSON table of twisted-type minimal torus orders")
        p.add_argument("--degrees", help="JSONL file of user degree records")

    for name in SUBCOMMAND_CLAIMS:
        common(sub.add_parser(name))

    p_gag = sub.add_parser("analyze-group")
    p_gag.add_argument("--group-spec", required=True,
                       help="JSON group specification file")
    p_gag.add_argument("--report", help="write a JSON report to this path")

    p_eof = sub.add_parser("e-of")
    p_eof.add_argument("order", type=int)
    p_eof.add_argument("degree", type=int)

    args = parser.parse_args(argv)

    if args.command == "e-of":
        from . import bounds

        try:
            dec = bounds.e_of(args.order, args.degree)
        except ValueError as exc:
            _abort(f"input error: {exc}")
        print(f"|G| = {dec.order} = {dec.d} * ({dec.d} + {dec.e}), e = {dec.e}")
        if dec.e > 1:
            rep = bounds.verify_e4_bound(dec)
            print(f"e^4 - e^3 = {dec.e**4 - dec.e**3}; bound "
                  f"{'holds' if rep.holds else 'FAILS'} with slack {rep.slack}")
        else:
            print("e <= 1: outside the quartic-bound hypothesis")
        return 0

    if args.command == "analyze-group":
        _check_report_path(args.report)
        from . import groupengine

        # a malformed file raises json.JSONDecodeError, a ValueError
        try:
            name, group = groupengine.load_group_file(args.group_spec)
        except (OSError, ValueError, ResourceLimitError) as exc:
            _abort(f"input error: {exc}")
        start = time.perf_counter()
        rep = groupengine.gagola_analyze(group)
        elapsed = time.perf_counter() - start
        print(f"group {name}: order {group.order}")
        print(f"  character vanishing off two classes: {rep.is_gagola}"
              + (f" (degree {rep.character_degree})" if rep.is_gagola else ""))
        print(f"  minimal normal subgroups: {rep.minimal_normal_count}"
              + (f", unique of order {rep.minimal_normal_order}"
                 if rep.has_unique_minimal_normal else ""))
        if args.report:
            _write_report([VerificationReport(
                f"user/{name}", PASS if rep.is_gagola else FAIL,
                [f"order={group.order}", f"degree={rep.character_degree}",
                 f"minimal_normal_order={rep.minimal_normal_order}"],
                elapsed)], args.report)
        return 0

    cfg = _config_from_args(args)
    reports = run_claims(SUBCOMMAND_CLAIMS[args.command], cfg)
    _print_reports(reports)
    if args.report:
        _write_report(reports, args.report)
    return _exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
