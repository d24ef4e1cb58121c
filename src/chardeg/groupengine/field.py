"""Small finite fields GF(p**a) with table-driven arithmetic.

Elements are encoded as integers 0..q-1: the base-p digits of the code are
the coefficients of the element on the power basis 1, t, t**2, ... of the
field over its prime subfield.  Fields up to order 81 are supported, which
covers every matrix group this package constructs.

The field is GF(p)[t]/(f) for the monic f = t**a + c of degree a whose lower
coefficients c are the first code, in code order, that gives a field.  No
polynomial is divided: the addition table comes from the digits, and the
multiplication table from addition and one map, z -> t*z, which shifts the
digits of z up one place and adds z's top digit times t**a = -c.  For any c
that builds the ring GF(p)[t]/(f); it is a field exactly when f is
irreducible, that is when the table has no zero product of two nonzero
elements.  For a >= 2 a zero constant term makes t a zero divisor, so those
codes fail the same test; for a = 1 every c gives the same table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..exactmath import prime_power

MAX_ORDER = 81


class GF:
    """Finite field of order q = p**a with precomputed operation tables."""

    def __init__(self, q: int):
        if not 2 <= q <= MAX_ORDER:
            raise ValueError(f"field order {q} outside supported range 2..{MAX_ORDER}")
        p, a = prime_power(q)
        self.q = q
        self.p = p
        self.a = a
        digits = [[x // p**i % p for i in range(a)] for x in range(q)]
        self._add = [[sum((u + v) % p * p**i for i, (u, v) in enumerate(zip(dx, dy)))
                      for dy in digits] for dx in digits]
        self._neg = [row.index(0) for row in self._add]
        self._mul = next(mul for mul in map(self._products, range(q))
                         if all(0 not in row[1:] for row in mul[1:]))
        # the same tables as arrays, for products of many matrices at once
        self.mul_table = np.array(self._mul, dtype=np.uint8)
        self.add_table = np.array(self._add, dtype=np.uint8)
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]
        self._frob = [self.pow(x, p) for x in range(q)]
        self.generator = next(g for g in range(1, q)
                              if all(self.pow(g, k) != 1 for k in range(1, q - 1)))

    def _products(self, c: int) -> list[list[int]]:
        """Multiplication table of GF(p)[t]/(t**a + c), with c an element code."""
        q, p, add = self.q, self.p, self._add
        top = [0]  # the multiples of t**a = -c
        for _ in range(p - 1):
            top.append(add[top[-1]][self._neg[c]])
        times_t = [add[z * p % q][top[z * p // q]] for z in range(q)]
        mul = [[0] * q]
        for x in range(1, q):
            if x % p:  # x = (x - 1) + 1
                mul.append([add[m][y] for y, m in enumerate(mul[x - 1])])
            else:  # x = t * (x / p)
                mul.append([times_t[m] for m in mul[x // p]])
        return mul

    def add(self, x: int, y: int) -> int:
        return self._add[x][y]

    def sub(self, x: int, y: int) -> int:
        return self._add[x][self._neg[y]]

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

    @property
    def basis(self) -> list[int]:
        """Codes of the power-basis elements 1, t, ..., t**(a-1)."""
        return [self.p**i for i in range(self.a)]


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    """Shared field instance for the given order."""
    return GF(q)
