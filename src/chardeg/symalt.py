"""Degree multisets of symmetric and alternating groups, and the growth of
the largest degree extendible from the alternating to the symmetric group.

An irreducible degree of the alternating group on n letters extends to the
symmetric group exactly when its partition differs from its transpose; the
largest such degree is written rho(n) here.  The headline fact checked by
this module is rho(n)**8 * 8 > (n!)**3, i.e. rho(n) > (n!/2)**(3/8), directly
for small n and through three root-inequalities for large n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .degrees import DegreeMultiset
from .errors import ResourceLimitError
from .exactmath import RatInterval, interval_gt, root_interval, sqrt_interval
from .partitions import add_node, boundary_nodes, conjugate, hook_degree, partitions_of

MAX_N = 60

_rho_cache: dict[int, tuple[int, tuple[int, ...]]] = {}


def _check_range(n: int, low: int = 1) -> None:
    if not low <= n <= MAX_N:
        raise ResourceLimitError(f"n = {n} outside supported range {low}..{MAX_N}")


def sn_degrees(n: int) -> DegreeMultiset:
    """Degree multiset of the symmetric group on n letters (hook formula)."""
    _check_range(n)
    return DegreeMultiset.from_degrees(hook_degree(lam) for lam in partitions_of(n))


def an_degrees(n: int) -> DegreeMultiset:
    """Degree multiset of the alternating group on n letters.

    A partition equal to its transpose contributes two characters of half
    its degree; a transpose pair {lam, conj} contributes one character of
    the full degree.
    """
    _check_range(n)
    if n == 1:
        return DegreeMultiset.from_degrees([1])
    out = []
    for lam in partitions_of(n):
        conj = conjugate(lam)
        if lam == conj:
            d = hook_degree(lam)
            if d % 2:
                raise AssertionError(f"odd degree {d} for self-conjugate {lam}")
            out.extend((d // 2, d // 2))
        elif lam <= conj:
            out.append(hook_degree(lam))
    return DegreeMultiset.from_degrees(out)


def _min_hook_product(n: int, seed: tuple[int | None, tuple[int, ...] | None]):
    """(product, partition) minimizing the hook product over non-self-conjugate
    partitions of n.  Minimizing the product maximizes the degree, and a
    known achievable seed lets most partitions abort after a few rows."""
    best, arg = seed
    for lam in partitions_of(n):
        conj = conjugate(lam)
        if conj == lam:
            continue
        p = 1
        for j, lam_j in enumerate(lam, start=1):
            for i in range(1, lam_j + 1):
                p *= lam_j - i + conj[i - 1] - j + 1
            if best is not None and p >= best:
                p = None
                break
        if p is not None and (best is None or p < best):
            best, arg = p, lam
    return best, arg


def _rho_entry(n: int) -> tuple[int, tuple[int, ...]]:
    """(degree, partition) attaining rho(n); results cached, computed in a
    sweep from small n so each level seeds the next."""
    if n in _rho_cache:
        return _rho_cache[n]
    start = 5
    while start in _rho_cache and start < n:
        start += 1
    for m in range(start, n + 1):
        if m in _rho_cache:
            continue
        seed = (None, None)
        prev = _rho_cache.get(m - 1)
        if prev is not None:
            fact_m = factorial(m)
            best, arg = None, None
            for node in boundary_nodes(prev[1])[0]:
                cand = add_node(prev[1], node)
                if cand == conjugate(cand):
                    continue
                p = fact_m // hook_degree(cand)
                if best is None or p < best:
                    best, arg = p, cand
            seed = (best, arg)
        product, lam = _min_hook_product(m, seed)
        _rho_cache[m] = (factorial(m) // product, lam)
    return _rho_cache[n]


def rho_an(n: int) -> int:
    """Largest degree over partitions of n that differ from their transpose."""
    _check_range(n, low=5)
    return _rho_entry(n)[0]


def rho_witness(n: int) -> tuple[int, ...]:
    """A partition attaining rho_an(n)."""
    _check_range(n, low=5)
    return _rho_entry(n)[1]


def _induction_inequalities(n: int) -> tuple[bool, bool, bool]:
    """The three growth inequalities at n, each decided exactly.

    (1)  (n+1) / (sqrt(2n) + 1)                                > (n+1)**(3/8)
    (2)  (n+1 - sqrt(2n+2)) / sqrt(2n)                         > (n+1)**(3/8)
    (3)  (n+2 - sqrt(2n+2) - sqrt(2n) * n**(-3/8)) / sqrt(2n)  > (n+1)**(3/8)
    """

    def lhs1(bits):
        return RatInterval.point(n + 1) / (sqrt_interval(2 * n, bits) + 1)

    def lhs2(bits):
        s2n = sqrt_interval(2 * n, bits)
        return (RatInterval.point(n + 1) - sqrt_interval(2 * n + 2, bits)) / s2n

    def lhs3(bits):
        s2n = sqrt_interval(2 * n, bits)
        n38 = root_interval(n**3, 8, bits)
        inv38 = 1 / n38
        num = RatInterval.point(n + 2) - sqrt_interval(2 * n + 2, bits) - s2n * inv38
        return num / s2n

    def rhs(bits):
        return root_interval((n + 1) ** 3, 8, bits)

    return interval_gt(lhs1, rhs), interval_gt(lhs2, rhs), interval_gt(lhs3, rhs)


@dataclass
class RhoGrowthReport:
    """Outcome of the direct and induction-range growth checks."""

    direct: list[tuple[int, bool]] = field(default_factory=list)
    gap_band: list[tuple[int, tuple[bool, bool, bool]]] = field(default_factory=list)
    induction: list[tuple[int, tuple[bool, bool, bool]]] = field(default_factory=list)
    spot: list[tuple[int, tuple[bool, bool, bool]]] = field(default_factory=list)

    @property
    def direct_failures(self) -> list[int]:
        return [n for n, ok in self.direct if not ok]

    @property
    def induction_failures(self) -> list[int]:
        return [n for n, oks in self.induction + self.spot if not all(oks)]

    @property
    def uncovered(self) -> list[int]:
        """n in the gap band where an induction inequality fails; these are
        covered by neither the direct computation nor the growth argument."""
        return [n for n, oks in self.gap_band if not all(oks)]

    @property
    def all_pass(self) -> bool:
        return not self.direct_failures and not self.induction_failures


def verify_rho_growth(
    n_direct_max: int,
    n_induct_max: int,
    spot_checks: tuple[int, ...] = (10**6,),
) -> RhoGrowthReport:
    """Check rho(n) > (n!/2)**(3/8) directly for 7 <= n <= n_direct_max, and
    the three induction inequalities for 75 <= n <= n_induct_max plus the
    given spot values.  The band between the direct cap and 75 is reported
    explicitly rather than silently assumed."""
    if n_direct_max > MAX_N:
        raise ResourceLimitError(f"direct range capped at {MAX_N}")
    report = RhoGrowthReport()
    for n in range(7, n_direct_max + 1):
        rho = rho_an(n)
        report.direct.append((n, 8 * rho**8 > factorial(n) ** 3))
    for n in range(n_direct_max + 1, min(75, n_induct_max + 1)):
        report.gap_band.append((n, _induction_inequalities(n)))
    for n in range(75, n_induct_max + 1):
        report.induction.append((n, _induction_inequalities(n)))
    for n in spot_checks:
        report.spot.append((n, _induction_inequalities(n)))
    return report
