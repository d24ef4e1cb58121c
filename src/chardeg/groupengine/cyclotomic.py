"""Cyclotomic polynomials and exact reduction on the power basis of zeta_m.

A cyclotomic integer is an integer vector (c_0, ..., c_{m-1}) standing for
the sum of c_u zeta**u; a character table stores its values as one array of
such vectors.  Two vectors are equal exactly when their difference times
`reduction_matrix(m)` (reduction modulo the m-th cyclotomic polynomial) is
zero, so equality and the zero test are integer arithmetic, never
float-thresholded.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..gf2poly import _divisors


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (little-endian); remainder must vanish."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num[shift + len(den) - 1]
        if coef % den[-1]:
            raise AssertionError("non-exact polynomial division")
        coef //= den[-1]
        out[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
    if any(num):
        raise AssertionError("nonzero remainder in exact division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, little-endian."""
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    out = num
    for d in _divisors(m):
        if d < m:
            out = _polydiv_exact(out, list(cyclotomic_polynomial(d)))
    return tuple(out)


@lru_cache(maxsize=None)
def reduction_matrix(m: int) -> np.ndarray:
    """(m, phi(m)) matrix whose row u holds x**u modulo the m-th cyclotomic
    polynomial; multiplying a raw coefficient vector by it yields the
    canonical form on the basis 1, zeta, ..., zeta**(phi(m) - 1)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows = []
    current = [1] + [0] * (deg - 1)
    for _ in range(m):
        rows.append(current)
        overflow = current[-1]
        current = [0] + current[:-1]
        if overflow:
            current = [c - overflow * p for c, p in zip(current, phi)]
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out
