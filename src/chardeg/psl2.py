"""Closed-form character degree data for the two-dimensional projective
special linear groups, with the field-automorphism invariance criteria and
the extendibility witnesses built on them.

For even q the group coincides with SL2(q) and its nontrivial degrees are q,
q+1 (the chi series) and q-1 (the theta series).  For odd q the chi and
theta indices are restricted to even values and two extra characters of
degree (q+1)/2 or (q-1)/2 appear according to q mod 4.  On each residue class
the degrees and series lengths are linear in q (`CLASSES`), so one table
gives the per-q degree lists and the polynomials that decide a whole class.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .degrees import DegreeMultiset
from .errors import UnsupportedFamilyError
from .exactmath import poly_add, poly_mul, prime_power

# residue class -> family -> (degree, count, step).  Degree and count are
# (a, b, c), meaning (a*q + b)/c; the indices are step, 2*step, ...,
# count*step, and step 0 stands for the single index None.
_ONE = (0, 1, 1)
_SHARED = {"trivial": (_ONE, _ONE, 0), "steinberg": ((1, 0, 1), _ONE, 0)}
CLASSES = {
    "even": {**_SHARED, "chi": ((1, 1, 1), (1, -2, 2), 1),
             "theta": ((1, -1, 1), (1, 0, 2), 1)},
    "1 mod 4": {**_SHARED, "chi": ((1, 1, 1), (1, -5, 4), 2),
                "theta": ((1, -1, 1), (1, -1, 4), 2), "xi": ((1, 1, 2), (0, 2, 1), 1)},
    "3 mod 4": {**_SHARED, "chi": ((1, 1, 1), (1, -3, 4), 2),
                "theta": ((1, -1, 1), (1, -3, 4), 2), "eta": ((1, -1, 2), (0, 2, 1), 1)},
}


def _series(q: int) -> dict[str, tuple[int, range | tuple]]:
    """The character series of PSL2(q), q >= 4, as family -> (degree, indices)."""
    p, _ = prime_power(q)
    if q < 4:
        raise ValueError("q must be a prime power >= 4")
    table = CLASSES["even" if p == 2 else f"{q % 4} mod 4"]

    def at(t):
        return (t[0] * q + t[1]) // t[2]

    return {family: (at(d), range(step, (at(n) + 1) * step, step) if step else (None,))
            for family, (d, n, step) in table.items()}


def class_polynomials(cls: str) -> dict:
    """Polynomials in q (ascending Fraction coefficients) for one residue
    class: the sum of squared degrees less |G|, which must be zero, and
    margins that must be positive.  b = q + 1 is the chi degree, m the chi
    count and e = |G|/b - b; the last margins make b the largest degree."""
    def lin(t):
        return [Fraction(t[1], t[2]), Fraction(t[0], t[2])]

    table = CLASSES[cls]
    b, m = lin(table["chi"][0]), lin(table["chi"][1])
    z = Fraction(1, 1 if cls == "even" else 2)
    per_b = [0, -z, z]  # |G|/b = q(q - 1)/|Z|
    order = poly_mul(per_b, b)
    minus_b = poly_mul([-1], b)
    e = poly_add(per_b, minus_b)
    margins = {"epsilon > 1": poly_add(order, poly_mul(minus_b, m, b), poly_mul(minus_b, b)),
               "order > 2b^2": poly_add(order, poly_mul([-2], b, b)),
               "order < 2e^2": poly_add(poly_mul([2], e, e), poly_mul([-1], order)),
               "e > b": poly_add(e, minus_b), "chi count > 0": m}
    margins.update((f"b > {f} degree", poly_add(b, poly_mul([-1], lin(d))))
                   for f, (d, _, _) in table.items() if f != "chi")
    squares = [poly_mul(lin(n), lin(d), lin(d)) for d, n, _ in table.values()]
    return {"order": order,
            "sum of squares - order": poly_add(*squares, poly_mul([-1], order)),
            "margins": margins}


class _Psl2CharFields(NamedTuple):
    q: int
    family: str
    index: int | None = None


class Psl2Char(_Psl2CharFields):
    """One irreducible character of PSL2(q), identified by series and index."""

    __slots__ = ()

    def __new__(cls, q: int, family: str, index: int | None = None):
        series = _series(q)
        if family not in series:
            raise ValueError(f"no {family!r} series for q = {q}")
        if index not in series[family][1]:
            raise ValueError(f"{family} index {index!r} out of range for q = {q}")
        return super().__new__(cls, q, family, index)

    @property
    def degree(self) -> int:
        return _series(self.q)[self.family][0]


def psl2_order(q: int) -> int:
    p, _ = prime_power(q)
    return q * (q * q - 1) // (1 if p == 2 else 2)


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


class Theta2StabilizerReport(NamedTuple):
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
    checks = [(k, 2 * (p**k - 1) % modulus != 0 and 2 * (p**k + 1) % modulus != 0)
              for k in range(1, f)]
    return Theta2StabilizerReport(q=q, p=p, f=f, checks=checks, stabilizer_index=f)
