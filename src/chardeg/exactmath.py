"""Exact integer, rational, and interval arithmetic primitives.

Every inequality verified by this package reduces to an exact integer or
rational comparison.  Fractional powers are compared by cross-exponentiation
(a > b^(x/y) iff a**y > b**x for positive integers), and an inequality over
a whole range, irrational terms such as square roots included, is bounded
below by a polynomial that `positive_from` certifies positive from the
range's start.  No floating point is used anywhere.

The dyadic interval enclosures at the end (integer numerators over a scale
2**bits, rounded outward) decide no claim: the tests use them as an
independent oracle for those polynomial bounds.
"""

from __future__ import annotations

from math import isqrt
from operator import index

LESS, EQUAL, GREATER = -1, 0, 1


# Sorenson and Webster (2017): Miller-Rabin with the 13 primes up to 41 as
# bases decides primality of every n below this bound
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test: strong probable-prime tests to the
    MILLER_RABIN_BASES below MILLER_RABIN_BOUND, trial division above it."""
    if n < 2:
        return False
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n >= MILLER_RABIN_BOUND:
        f = MILLER_RABIN_BASES[-1] + 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(n: int) -> tuple[int, int]:
    """Return (p, f) with n = p**f, or raise ValueError if n is not a prime power."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    fac = factorize(n)
    if len(fac) != 1:
        raise ValueError(f"{n} is not a prime power")
    return fac[0]


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(factorize(n)) == 1


def p_part(n: int, p: int) -> int:
    """Largest power of the prime p dividing n >= 1.

    The valuation v is found with O(log v) divisions, not v: n is divided
    by p, p**2, p**4, ... while each divides what is left, which removes
    p**(2**k - 1) and leaves a valuation below 2**k; going back down through
    the same powers then removes each binary digit of the rest.
    """
    if not is_prime(p):
        raise ValueError(f"p_part requires a prime, got {p}")
    if n < 1:
        raise ValueError(f"p_part requires n >= 1, got {n}")
    part, powers = 1, []
    power = p
    while n % power == 0:
        n //= power
        part *= power
        powers.append(power)
        power *= power
    for power in reversed(powers):
        if n % power == 0:
            n //= power
            part *= power
    return part


def pow_compare(a: int, x: int, b: int, y: int) -> int:
    """Compare a**x with b**y exactly; returns LESS, EQUAL, or GREATER.

    This is the exact form of every fractional-power comparison in the
    package: a > b**(y/x) is decided as a**x > b**y.
    """
    if a < 1 or b < 1 or x < 1 or y < 1:
        raise ValueError("pow_compare requires positive integer arguments")
    lhs = a**x
    rhs = b**y
    if lhs < rhs:
        return LESS
    if lhs > rhs:
        return GREATER
    return EQUAL


def poly_add(*polys: list) -> list:
    """Sum of polynomials given as ascending coefficient lists of any
    lengths; poly_add() is [] and poly_add(p) equals p."""
    out = [0] * max(map(len, polys), default=0)
    for p in polys:
        for i, c in enumerate(p):
            out[i] += c
    return out


def poly_mul(*factors: list) -> list:
    """Product of polynomials given as ascending coefficient lists."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def taylor_shift(coeffs: list, x0) -> list:
    """Ascending coefficients in s of P(x0 + s), P given by ascending
    coefficients, by repeated synthetic division by x - x0."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += x0 * c[j + 1]
    return c


def positive_from(coeffs: list, x0) -> bool:
    """Certify P(x) > 0 for every real x >= x0, P given by ascending
    coefficients: P(x0 + s) must have a positive constant term and no
    negative coefficient."""
    c = taylor_shift(coeffs, x0)
    return bool(c) and c[0] > 0 and min(c) >= 0


def positivity_certificate(coeffs: list, x0) -> dict:
    """What `positive_from(coeffs, x0)` decides, as JSON data with each
    coefficient, and a start x0 that is not an int, written as its string;
    `positive_from([Fraction(c) for c in cert["poly"]], Fraction(cert["from"]))`
    re-checks it."""
    return {"poly": [str(c) for c in coeffs], "from": x0 if type(x0) is int else str(x0)}


def iroot(m: int, k: int) -> int:
    """Floor of the k-th root of m >= 0, by Newton iteration on integers."""
    if m < 0 or k < 1:
        raise ValueError("iroot requires m >= 0 and k >= 1")
    if k == 1 or m in (0, 1):
        return m
    if k & (k - 1) == 0:
        # floor(sqrt(floor(y))) = floor(sqrt(y)), so nested isqrt is exact
        while k > 1:
            m, k = isqrt(m), k // 2
        return m
    x = 1 << (m.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > m:
        x -= 1
    while (x + 1) ** k <= m:
        x += 1
    return x


# DyadicInterval, sqrt_interval, root_interval and iroot decide no claim;
# they stay while perfbench/tracer.py counts calls to the two root enclosures
class DyadicInterval:
    """Closed interval [lo / 2**bits, hi / 2**bits] with integer numerators
    lo <= hi over a scale shared by the operands of each operation.

    An int operand is exact at any scale.  Sums and differences are exact.
    Products and quotients round outward to the scale, floor for `lo` and
    ceiling for `hi`, so the result holds the exact (Moore) interval of the
    operands and exceeds it by less than 2**-bits at each end.  Only integer
    shifts, products and floor divisions are used.
    """

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: int, hi: int, bits: int):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}] / 2**{bits}")
        self.lo, self.hi, self.bits = lo, hi, bits

    def __repr__(self):
        return f"DyadicInterval({self.lo}, {self.hi}, bits={self.bits})"

    def _coerce(self, x) -> "DyadicInterval":
        if isinstance(x, DyadicInterval):
            if x.bits != self.bits:
                raise ValueError(f"scales differ: 2**{self.bits} and 2**{x.bits}")
            return x
        x = index(x) << self.bits
        return DyadicInterval(x, x, self.bits)

    def contains(self, x) -> bool:
        """Whether the int or Fraction x lies in the interval."""
        p, q = x.numerator << self.bits, x.denominator
        return self.lo * q <= p <= self.hi * q

    def __add__(self, other):
        o = self._coerce(other)
        return DyadicInterval(self.lo + o.lo, self.hi + o.hi, self.bits)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return DyadicInterval(self.lo - o.hi, self.hi - o.lo, self.bits)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o, b = self._coerce(other), self.bits
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return DyadicInterval(min(products) >> b, -(-max(products) >> b), b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o, b = self._coerce(other), self.bits
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval straddles zero")
        lo, hi = self.lo << b, self.hi << b
        return DyadicInterval(min(lo // o.lo, lo // o.hi, hi // o.lo, hi // o.hi),
                              -min(-lo // o.lo, -lo // o.hi, -hi // o.lo, -hi // o.hi), b)

    def __rtruediv__(self, other):
        """other / self; the reciprocal is [4**bits // hi, ceil(4**bits / lo)]."""
        return self._coerce(other) / self


def sqrt_interval(n: int, precision_bits: int) -> DyadicInterval:
    """Enclose sqrt(n) in an interval of width <= 2**-precision_bits at the
    scale 2**precision_bits: lo**2 <= n * 4**bits <= hi**2."""
    if n < 0:
        raise ValueError("sqrt_interval requires n >= 0")
    if precision_bits < 0:
        raise ValueError("precision_bits must be nonnegative")
    m = n << (2 * precision_bits)
    s = isqrt(m)
    return DyadicInterval(s, s if s * s == m else s + 1, precision_bits)


def root_interval(m: int, k: int, precision_bits: int) -> DyadicInterval:
    """Enclose the k-th root of m >= 0 in an interval of width
    <= 2**-precision_bits at the scale 2**precision_bits."""
    if m < 0:
        raise ValueError("root_interval requires m >= 0")
    scaled = m << (k * precision_bits)
    r = iroot(scaled, k)
    return DyadicInterval(r, r if r**k == scaled else r + 1, precision_bits)
