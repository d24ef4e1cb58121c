"""Degree multisets of symmetric and alternating groups, and the growth of
the largest degree extendible from the alternating to the symmetric group.

An irreducible degree of the alternating group on n letters extends to the
symmetric group exactly when its partition differs from its transpose; the
largest such degree is written rho(n) here.  The headline fact checked by
this module is rho(n)**8 * 8 > (n!)**3, i.e. rho(n) > (n!/2)**(3/8).  Only a
lower bound for rho(n) is needed, so for 7 <= n <= 87 one certificate
partition per n proves it (`rho_certificates`).  For every n >= 87 three
growth inequalities carry the bound from n to n + 1 (`verify_rho_growth`);
each is bounded below by a polynomial in v = (n+1)**(1/8) that
`exactmath.positive_from` certifies positive from v = 7/4, i.e. from
n = 87.  The certificates and the tail meet at n = 87, so no n is left
out whichever way a step is read: out of n (the inequalities at 87 prove
88 from 87) or into n (the inequalities at 88 prove 88 from 87).  The
exact rho(n) is computed by brute force for small n only.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .degrees import DegreeMultiset
from .errors import ResourceLimitError
# symalt calls neither root enclosure; perfbench/tracer.py counts calls
# through these two names, so they stay until the tracer drops them
from .exactmath import positive_from, root_interval, sqrt_interval
from .partitions import (
    _conjugate, _hook_degree, add_node, boundary_nodes, conjugate, hook_degree,
    is_partition, partitions_of,
)

MAX_N = 60
# the certificates cover 7..TAIL_START and the tail every n >= TAIL_START:
# there v = (n+1)**(1/8) >= RHO_TAIL_FROM, and r = RHO_TAIL_R >= sqrt(2)
TAIL_START = 87
RHO_TAIL_FROM = Fraction(7, 4)
RHO_TAIL_R = Fraction(283, 200)


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
    """One non-self-conjugate partition lam of n for each 7 <= n <= TAIL_START.

    The chain starts at (3,1,1) and at each n adds the addable node giving
    the largest degree among the results that differ from their transpose
    (ties to the larger partition).  Its degree is a lower bound for rho(n),
    not always rho(n) itself, which is all the growth bound needs; whether
    each entry proves the bound is decided by `certifies_rho_bound`.
    """
    lam, out = (3, 1, 1), []
    for n in range(6, TAIL_START + 1):
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


def rho_tail_polynomials() -> dict[str, list]:
    """The tail's three polynomials in v = (n+1)**(1/8), as ascending
    coefficients with r = RHO_TAIL_R; `verify_rho_growth` says why each
    bounds its growth inequality."""
    r = RHO_TAIL_R
    return {"P1=v^5-r*v^4-1": [-1, 0, 0, 0, -r, 1],
            "P2=v^8-r*v^7-r*v^4": [0, 0, 0, 0, -r, 0, 0, -r, 1],
            "P3=v^8-r*v^7-r*v^4-r*v+1": [1, -r, 0, 0, -r, 0, 0, -r, 1]}


def verify_rho_growth() -> list[str]:
    """The checks that fail, of those proving for every n >= TAIL_START the
    three growth inequalities that carry the bound from n to n + 1:

    (1)  (n+1) / (sqrt(2n) + 1)                                > (n+1)**(3/8)
    (2)  (n+1 - sqrt(2n+2)) / sqrt(2n)                         > (n+1)**(3/8)
    (3)  (n+2 - sqrt(2n+2) - sqrt(2n) * n**(-3/8)) / sqrt(2n)  > (n+1)**(3/8)

    With v = (n+1)**(1/8), so that n + 1 = v**8, and (1) multiplied by the
    positive (sqrt(2n) + 1) / v**3, (2) and (3) by sqrt(2n), they read

    (1)  v**5 - sqrt(2n) - 1                                     > 0
    (2)  v**8 - sqrt(2n+2) - sqrt(2n) * v**3                     > 0
    (3)  v**8 + 1 - sqrt(2n+2) - sqrt(2) * n**(1/8) - sqrt(2n) * v**3  > 0

    Once r * r >= 2, sqrt(2n) <= sqrt(2n+2) = sqrt(2) * v**4 <= r * v**4
    and sqrt(2) * n**(1/8) <= r * v, so each polynomial of
    `rho_tail_polynomials` is at most the left side of its inequality.
    `positive_from` proves each positive for v >= RHO_TAIL_FROM, which holds
    for every n >= TAIL_START when RHO_TAIL_FROM**8 <= TAIL_START + 1.
    """
    r, v0 = RHO_TAIL_R, RHO_TAIL_FROM
    bad = [] if r * r >= 2 else [f"r={r} has r^2<2"]
    if v0**8 > TAIL_START + 1:
        bad.append(f"v<{v0} at n={TAIL_START}")
    return bad + [name for name, poly in rho_tail_polynomials().items()
                  if not positive_from(poly, v0)]
