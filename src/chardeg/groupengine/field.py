"""Small finite fields GF(p**a) with table-driven arithmetic.

Elements are encoded as integers 0..q-1: the base-p digits of the code are
the coefficients of the element on the power basis 1, t, t**2, ... of the
field over its prime subfield.  Fields up to order 81 are supported, which
covers every matrix group this package constructs.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ..exactmath import prime_power

MAX_ORDER = 81


def poly_trim(a: list[int]) -> list[int]:
    """Drop zero leading coefficients in place, keeping [0] for zero."""
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over GF(p).

    Coefficients run from the constant term up; b needs a nonzero leading
    coefficient.  Both results are trimmed, with [0] for zero.
    """
    rem = [x % p for x in a]
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quo = [0] * max(len(rem) - db, 1)
    for shift in range(len(rem) - 1 - db, -1, -1):
        coef = rem[shift + db] * inv_lead % p
        if coef:
            quo[shift] = coef
            for i in range(db + 1):
                rem[shift + i] = (rem[shift + i] - coef * b[i]) % p
    return poly_trim(quo), poly_trim(rem[:db] or [0])


def _poly_mul_mod_p(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _find_irreducible(p: int, a: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree a over GF(p)."""
    for code in range(p**a):
        coeffs = []
        c = code
        for _ in range(a):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if f[0] == 0:
            continue
        d = a
        reducible = False
        for deg in range(1, d // 2 + 1):
            for gcode in range(p**deg):
                g = []
                gc = gcode
                for _ in range(deg):
                    g.append(gc % p)
                    gc //= p
                g.append(1)
                if poly_divmod(f, g, p)[1] == [0]:
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return f
    raise AssertionError(f"no irreducible of degree {a} over GF({p})")


class GF:
    """Finite field of order q = p**a with precomputed operation tables."""

    def __init__(self, q: int):
        if not 2 <= q <= MAX_ORDER:
            raise ValueError(f"field order {q} outside supported range 2..{MAX_ORDER}")
        p, a = prime_power(q)
        self.q = q
        self.p = p
        self.a = a
        if a == 1:
            self._mul = [[(x * y) % p for y in range(p)] for x in range(p)]
            self._add = [[(x + y) % p for y in range(p)] for x in range(p)]
        else:
            modulus = _find_irreducible(p, a)
            decode = [self._digits(x) for x in range(q)]
            self._add = [[self._encode([(u + v) % p for u, v in zip(decode[x], decode[y])])
                          for y in range(q)] for x in range(q)]
            mul = []
            for x in range(q):
                row = []
                for y in range(q):
                    prod = _poly_mul_mod_p(tuple(decode[x]), tuple(decode[y]), p)
                    row.append(self._encode(poly_divmod(prod, modulus, p)[1]))
                mul.append(row)
            self._mul = mul
        # the same tables as arrays, for products of many matrices at once
        self.mul_table = np.array(self._mul, dtype=np.uint8)
        self.add_table = np.array(self._add, dtype=np.uint8)
        self._inv = [0] * q
        for x in range(1, q):
            for y in range(1, q):
                if self._mul[x][y] == 1:
                    self._inv[x] = y
                    break
        self._frob = [self.pow(x, p) for x in range(q)]
        self.generator = self._find_generator()

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.a):
            out.append(x % self.p)
            x //= self.p
        return out

    def _encode(self, digits) -> int:
        x = 0
        for d in reversed(list(digits)[: self.a]):
            x = x * self.p + d
        return x

    def add(self, x: int, y: int) -> int:
        return self._add[x][y]

    def sub(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x - y) % self.p
        dx, dy = self._digits(x), self._digits(y)
        return self._encode([(u - v) % self.p for u, v in zip(dx, dy)])

    def mul(self, x: int, y: int) -> int:
        return self._mul[x][y]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv[x]

    def pow(self, x: int, e: int) -> int:
        out = 1
        base = x
        while e:
            if e & 1:
                out = self._mul[out][base]
            base = self._mul[base][base]
            e >>= 1
        return out

    def frobenius(self, x: int, k: int = 1) -> int:
        for _ in range(k % self.a):
            x = self._frob[x]
        return x

    def _find_generator(self) -> int:
        target = self.q - 1
        for g in range(1, self.q):
            seen = 1
            x = g
            while x != 1:
                x = self._mul[x][g]
                seen += 1
            if seen == target:
                return g
        raise AssertionError("no multiplicative generator found")

    @property
    def basis(self) -> list[int]:
        """Codes of the power-basis elements 1, t, ..., t**(a-1)."""
        return [self.p**i for i in range(self.a)]


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    """Shared field instance for the given order."""
    return GF(q)
