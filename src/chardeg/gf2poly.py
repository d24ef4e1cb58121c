"""Polynomial arithmetic over the two-element field.

Polynomials are encoded as nonnegative integers: bit i is the coefficient of
x**i, so the constant term is the lowest bit and a monic polynomial has its
top bit set.

Besides the ring operations, among them squaring by spreading the bits of
a polynomial apart, the module provides Rabin's irreducibility test for a
single polynomial (its repeated squarings use that spreading), the list of
all irreducibles of one degree by a product sieve over numpy uint32 rows
(exact: only shifts and XOR), Moebius counting of irreducibles, and the
count of self-reciprocal irreducibles of a given even degree in both a
closed form and a brute-force mode that must agree; the brute force builds
only the palindromes with an odd number of terms, since x + 1 divides the
others.
"""

from __future__ import annotations

from typing import Iterator

from .errors import ResourceLimitError
from .exactmath import factorize

X = 0b10  # the polynomial x
ONE = 0b1

_BRUTE_FORCE_MAX = 10
# the sieve of degree d holds 2**d flags and three rows of 2**(d-1) uint32
# products (7 MB at d = 20); products stay below 2**(d+1), within uint32
SIEVE_MAX_D = 20


def poly_degree(f: int) -> int:
    if f <= 0:
        raise ValueError("degree of the zero polynomial is undefined")
    return f.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def poly_mod(a: int, f: int) -> int:
    if f <= 0:
        raise ZeroDivisionError("division by the zero polynomial")
    df = f.bit_length()
    while a.bit_length() >= df:
        a ^= f << (a.bit_length() - df)
    return a


def poly_square(a: int) -> int:
    """a**2, which over GF(2) is sum of a_i x**(2i): the binary digits of a
    read as base-4 digits put bit i at bit 2i."""
    return int(format(a, "b"), 4)


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_is_irreducible(f: int) -> bool:
    """Exact irreducibility test (Rabin): x**(2**d) = x mod f and, for every
    prime divisor p of d, gcd(x**(2**(d/p)) - x, f) = 1."""
    d = poly_degree(f)
    if d < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if d == 1:
        return True
    if not f & 1:
        return False  # divisible by x
    powers = {}
    t = X
    for i in range(1, d + 1):
        t = poly_mod(poly_square(t), f)
        powers[i] = t
    if powers[d] != poly_mod(X, f):
        return False
    for p, _ in factorize(d):
        if poly_gcd(powers[d // p] ^ X, f) != ONE:
            return False
    return True


def irreducible_polys(d: int) -> Iterator[int]:
    """All monic irreducible polynomials of degree d, ascending as integers.

    A sieve over the 2**d monic polynomials of degree d strikes out every
    product g*h of a monic irreducible g with 1 <= deg g <= d/2 and a monic
    h; what is left is irreducible, since a reducible polynomial has such a
    factor g.  The carry-less products of one g with all h are formed at
    once, as the XOR of h << i over the set bits i of g.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d > SIEVE_MAX_D:
        raise ResourceLimitError(f"the sieve is limited to d <= {SIEVE_MAX_D}")
    import numpy as np

    top = 1 << d
    irreducible = np.ones(top, dtype=bool)  # indexed by f - x**d
    for e in range(1, d // 2 + 1):
        h = np.arange(1 << (d - e), 2 << (d - e), dtype=np.uint32)
        for g in irreducible_polys(e):
            product = np.zeros_like(h)
            for i in range(e + 1):
                if g >> i & 1:
                    product ^= h << i
            product ^= top
            irreducible[product] = False
    for body in np.flatnonzero(irreducible).tolist():
        yield top | body


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def count_irreducible_monic(d: int) -> int:
    """Number of monic irreducibles of degree d: (1/d) sum_{e|d} mu(d/e) 2**e."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    total = sum(mobius(d // e) * (1 << e) for e in _divisors(d))
    if total % d:
        raise AssertionError("necklace count is not integral")
    return total // d


def count_self_reciprocal(d: int, mode: str = "formula") -> int:
    """Number of monic irreducible self-reciprocal polynomials of degree 2d.

    The closed form is (1/2d) sum over odd e | d of mu(e) 2**(d/e); the
    brute-force mode is the ground truth for d <= 10.  A palindrome of
    degree 2d with an even number of terms has f(1) = 0, so x + 1 divides
    it and it is reducible.  Its terms other than x**d pair up around x**d,
    so it has an odd number of terms exactly when its x**d coefficient is 1.
    The brute force therefore decides by Rabin's test exactly the 2**(d-1)
    candidates low + x**d + mirror(low), for each odd low of degree below d,
    where mirror sends x**i to x**(2d-i).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if mode == "formula":
        total = sum(mobius(e) * (1 << (d // e)) for e in _divisors(d) if e % 2 == 1)
        if total % (2 * d):
            raise AssertionError("self-reciprocal count is not integral")
        return total // (2 * d)
    if mode == "brute_force":
        if d > _BRUTE_FORCE_MAX:
            raise ResourceLimitError(f"brute force limited to d <= {_BRUTE_FORCE_MAX}")
        width = 2 * d + 1  # mirror(low) reverses the 2d + 1 bits of low
        return sum(1 for low in range(1, 1 << d, 2) if poly_is_irreducible(
            low | 1 << d | int(format(low, f"0{width}b")[::-1], 2)))
    raise ValueError(f"unknown mode {mode!r}")


def srim_count_of_degree(degree: int) -> int:
    """Self-reciprocal irreducibles of exact degree `degree` (x+1 for degree 1,
    none for odd degree >= 3, the closed-form count for even degree)."""
    if degree == 1:
        return 1
    if degree % 2:
        return 0
    return count_self_reciprocal(degree // 2)


def reciprocal_pair_count(d: int) -> int:
    """Number of unordered pairs {g, g~} of distinct monic irreducibles of
    degree d with g~ the reversal of g, excluding x (degree-one pairs do not
    exist: x is not invertible-compatible and x+1 is its own reversal)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    n_d = count_irreducible_monic(d)
    if d == 1:
        n_d -= 1  # drop x, whose constant term is zero
    return (n_d - srim_count_of_degree(d)) // 2
