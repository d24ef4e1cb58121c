"""Degree multisets of symmetric and alternating groups, and the growth of
the largest degree extendible from the alternating to the symmetric group.

An irreducible degree of the alternating group on n letters extends to the
symmetric group exactly when its partition differs from its transpose; the
largest such degree is written rho(n) here.  The headline fact checked by
this module is rho(n)**8 * 8 > (n!)**3, i.e. rho(n) > (n!/2)**(3/8).  Only a
lower bound for rho(n) is needed, so for 7 <= n <= 74 one certificate
partition per n proves it, and from 75 on three root-inequalities carry the
induction, decided on dyadic interval enclosures with integer numerators
(see `exactmath.DyadicInterval`).  They are proved on whole blocks [a, b] of
n: every root in them increases with n, so its enclosure at a gives a lower
end and its enclosure at b an upper end valid on the whole block, and a
block these do not prove is halved until it is proved or is a single n,
decided exactly.  The exact rho(n) is computed by brute force for small n
only.
"""

from __future__ import annotations

from math import factorial

from .degrees import DegreeMultiset
from .errors import ResourceLimitError
from .exactmath import (
    INTERVAL_START_BITS, DyadicInterval, interval_gt, root_interval, sqrt_interval,
)
from .partitions import (
    _conjugate, _hook_degree, add_node, boundary_nodes, conjugate, hook_degree,
    is_partition, partitions_of,
)

MAX_N = 60
# the induction inequalities hold from here on; certificates cover 7..74
INDUCTION_START = 75


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
    # partitions_of yields partitions, so the unchecked cores apply
    for lam in partitions_of(n):
        conj = _conjugate(lam)
        if lam == conj:
            d = _hook_degree(lam, conj)
            if d % 2:
                raise AssertionError(f"odd degree {d} for self-conjugate {lam}")
            out.extend((d // 2, d // 2))
        elif lam <= conj:
            out.append(_hook_degree(lam, conj))
    return DegreeMultiset.from_degrees(out)


def rho_witness(n: int) -> tuple[int, ...]:
    """A partition attaining rho(n), by brute force over every partition of
    n; the first maximiser in the order of `partitions_of`.  Meant for small
    n: the claims use `rho_certificates` instead."""
    _check_range(n, low=5)
    return max((lam for lam in partitions_of(n) if lam != conjugate(lam)),
               key=hook_degree)


def rho_an(n: int) -> int:
    """Largest degree over partitions of n that differ from their transpose."""
    return hook_degree(rho_witness(n))


def rho_certificates() -> list[tuple[int, tuple[int, ...]]]:
    """One non-self-conjugate partition lam of n for each 7 <= n < 75.

    The chain starts at (3,1,1) and at each n adds the addable node giving
    the largest degree among the results that differ from their transpose
    (ties to the larger partition).  Its degree is a lower bound for rho(n),
    not always rho(n) itself, which is all the growth bound needs; whether
    each entry proves the bound is decided by `certifies_rho_bound`.
    """
    lam, out = (3, 1, 1), []
    for n in range(6, INDUCTION_START):
        grown = (add_node(lam, node) for node in boundary_nodes(lam)[0])
        lam = max((c for c in grown if c != conjugate(c)),
                  key=lambda c: (hook_degree(c), c))
        if n >= 7:
            out.append((n, lam))
    return out


def certifies_rho_bound(n: int, lam) -> bool:
    """True when lam is a partition of n other than its transpose with
    8 * f**8 > (n!)**3 for its degree f; then rho(n) >= f proves the bound."""
    lam = tuple(lam)
    return (is_partition(lam) and sum(lam) == n and lam != conjugate(lam)
            and 8 * hook_degree(lam) ** 8 > factorial(n) ** 3)


def _block_enclosures(a: int, b: int, bits: int):
    """Enclosures at the scale 2**bits, valid for every real n in [a, b], of
    the three left-hand sides and the right-hand side (n+1)**(3/8) of the
    induction inequalities (see `_induction_inequalities`).

    sqrt(2n), sqrt(2n+2), n**(3/8) and (n+1)**(3/8) all increase with n, so
    over [a, b] each lies between its value at a and its value at b: the
    lower end of its enclosure at a and the upper end of its enclosure at b
    bound it for the whole block.  Interval arithmetic on those enclosures
    and on n = [a, b] then encloses each side over the block.  At a == b
    these are the single-n enclosures.
    """
    def span(at_a, at_b):
        return DyadicInterval(at_a.lo, at_b.hi, bits)

    n = DyadicInterval(a << bits, b << bits, bits)
    s2n = span(sqrt_interval(2 * a, bits), sqrt_interval(2 * b, bits))
    s2n2 = span(sqrt_interval(2 * a + 2, bits), sqrt_interval(2 * b + 2, bits))
    n38 = span(root_interval(a**3, 8, bits), root_interval(b**3, 8, bits))
    rhs = span(root_interval((a + 1) ** 3, 8, bits), root_interval((b + 1) ** 3, 8, bits))
    lhs = ((n + 1) / (s2n + 1),
           (n + 1 - s2n2) / s2n,
           (n + 2 - s2n2 - s2n / n38) / s2n)
    return lhs, rhs


def _induction_inequalities(a: int, b: int) -> tuple[bool, bool, bool]:
    """Whether each growth inequality holds for every n in [a, b]:

    (1)  (n+1) / (sqrt(2n) + 1)                                > (n+1)**(3/8)
    (2)  (n+1 - sqrt(2n+2)) / sqrt(2n)                         > (n+1)**(3/8)
    (3)  (n+2 - sqrt(2n+2) - sqrt(2n) * n**(-3/8)) / sqrt(2n)  > (n+1)**(3/8)

    A block a < b is judged once, at the start precision of `interval_gt`:
    an inequality is proved when its left-hand lower end exceeds the
    right-hand upper end, and False means only "not proved on this block".
    A single n (a == b) is decided exactly by `interval_gt`.
    """
    if a < b:
        lhs, rhs = _block_enclosures(a, b, INTERVAL_START_BITS)
        return tuple(side.lo > rhs.hi for side in lhs)
    return tuple(interval_gt(lambda bits, k=k: _block_enclosures(a, a, bits)[0][k],
                             lambda bits: _block_enclosures(a, a, bits)[1])
                 for k in range(3))


def _induction_failures(a: int, b: int) -> list[int]:
    """The n in a..b, ascending, at which an induction inequality fails: a
    block that the enclosures do not prove is halved until it is proved or
    is a single n, which is then decided exactly."""
    if a > b or all(_induction_inequalities(a, b)):
        return []
    if a == b:
        return [a]
    mid = (a + b) // 2
    return _induction_failures(a, mid) + _induction_failures(mid + 1, b)


def verify_rho_growth(
    n_max: int,
    spot_checks: tuple[int, ...] = (10**6,),
) -> list[int]:
    """The n among 75..n_max and the spot values at which one of the
    three induction inequalities fails; below 75 the certificates take over.

    The range is proved on whole blocks of n by bisection
    (`_induction_failures`), so its cost grows with the number of blocks the
    enclosures need, about logarithmically in n_max, not with the
    number of n; each spot value is a block of one n.
    """
    return [*_induction_failures(INDUCTION_START, n_max),
            *(n for spot in spot_checks for n in _induction_failures(spot, spot))]
