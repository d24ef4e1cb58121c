"""Closed-form character degree data for the two-dimensional projective
special linear groups, with the field-automorphism invariance criteria and
the extendibility witnesses built on them.

For even q the group coincides with SL2(q) and its nontrivial degrees are q,
q+1 (the chi series) and q-1 (the theta series).  For odd q the chi and
theta indices are restricted to even values and two extra characters of
degree (q+1)/2 or (q-1)/2 appear according to q mod 4.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .degrees import DegreeMultiset
from .errors import UnsupportedFamilyError
from .exactmath import prime_power


def _series(q: int) -> dict[str, tuple[int, Sequence]]:
    """The character series of PSL2(q), q >= 4, as family -> (degree, indices).

    The one statement of which series exist for q and which indices each
    takes; trivial and steinberg take the single index None.
    """
    p, _ = prime_power(q)
    if q < 4:
        raise ValueError("q must be a prime power >= 4")
    series = {"trivial": (1, (None,)), "steinberg": (q, (None,))}
    if p == 2:
        series["chi"] = (q + 1, range(1, (q - 2) // 2 + 1))
        series["theta"] = (q - 1, range(1, q // 2 + 1))
    else:
        series["chi"] = (q + 1, range(2, (q - 3) // 2 + 1, 2))
        series["theta"] = (q - 1, range(2, (q - 1) // 2 + 1, 2))
        if q % 4 == 1:
            series["xi"] = ((q + 1) // 2, range(1, 3))
        else:
            series["eta"] = ((q - 1) // 2, range(1, 3))
    return series


@dataclass(frozen=True)
class Psl2Char:
    """One irreducible character of PSL2(q), identified by series and index."""

    q: int
    family: str
    index: int | None = None

    def __post_init__(self):
        series = _series(self.q)
        if self.family not in series:
            raise ValueError(f"no {self.family!r} series for q = {self.q}")
        if self.index not in series[self.family][1]:
            raise ValueError(f"{self.family} index {self.index!r} out of range for q = {self.q}")

    @property
    def degree(self) -> int:
        return _series(self.q)[self.family][0]


def psl2_order(q: int) -> int:
    p, _ = prime_power(q)
    return q * (q * q - 1) // (1 if p == 2 else 2)


def psl2_characters(q: int) -> list[Psl2Char]:
    """The full list of irreducible characters of PSL2(q), q >= 4."""
    return [Psl2Char(q, family, i)
            for family, (_, indices) in _series(q).items() for i in indices]


def psl2_degrees(q: int) -> DegreeMultiset:
    """Degree multiset of PSL2(q); multiplicities are index counts of the series."""
    return DegreeMultiset.from_pairs((d, len(indices))
                                     for d, indices in _series(q).values() if indices)


def field_invariance(c: Psl2Char, k: int) -> bool:
    """Whether the character is fixed by the k-th power of the field automorphism.

    For the chi series the criterion is (p**f - 1) | i(p**k - 1) or
    (p**f - 1) | i(p**k + 1); for the theta series the same with p**f + 1.
    No criterion is available for the other families.
    """
    p, f = prime_power(c.q)
    if not 1 <= k <= f:
        raise ValueError(f"k must satisfy 1 <= k <= {f}")
    if c.family == "chi":
        modulus = p**f - 1
    elif c.family == "theta":
        modulus = p**f + 1
    else:
        raise UnsupportedFamilyError(f"no invariance criterion for family {c.family!r}")
    i = c.index
    return i * (p**k - 1) % modulus == 0 or i * (p**k + 1) % modulus == 0


def extendible_witness_even(q: int) -> Psl2Char:
    """Nontrivial non-Steinberg character of SL2(2**f) fixed by every field
    automorphism, hence extendible to the full automorphism group.

    For odd f, 3 divides 2**f + 1 and theta at index (2**f + 1)/3 works; for
    even f, 3 divides 2**f - 1 and chi at index (2**f - 1)/3 works.
    """
    p, f = prime_power(q)
    if p != 2 or f < 3:
        raise ValueError("requires q = 2**f with f >= 3")
    if f % 2 == 1:
        return Psl2Char(q, "theta", (q + 1) // 3)
    return Psl2Char(q, "chi", (q - 1) // 3)


@dataclass
class Theta2StabilizerReport:
    """Divisibility evidence that no proper field-automorphism power fixes
    the first even-index theta character of PSL2(q), q odd.

    For each 1 <= k < f neither p**f + 1 divides 2(p**k - 1) nor 2(p**k + 1);
    the stabilizer inside the automorphism group is then the projective
    general linear group, of index f.
    """

    q: int
    p: int
    f: int
    checks: list[tuple[int, bool]]
    stabilizer_index: int

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.checks)


def theta2_stabilizer_odd(q: int) -> Theta2StabilizerReport:
    p, f = prime_power(q)
    if p == 2 or q < 5:
        raise ValueError("requires an odd prime power q >= 5")
    modulus = p**f + 1
    checks = []
    for k in range(1, f):
        divides = 2 * (p**k - 1) % modulus == 0 or 2 * (p**k + 1) % modulus == 0
        checks.append((k, not divides))
    return Theta2StabilizerReport(q=q, p=p, f=f, checks=checks, stabilizer_index=f)
