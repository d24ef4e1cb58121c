"""Concrete witness groups.

The central family consists of the 3x3 upper triangular matrices over GF(q)
with unit diagonal except for a free invertible corner entry: a group of
order q**3 (q-1) with an irreducible character of degree q (q-1) that
vanishes off two classes.  Its unitriangular part (order q**3) and the
Galois-twisted extension are also constructible, plus assorted permutation
and matrix groups used as oracle fodder.
"""

from __future__ import annotations

from ..errors import ResourceLimitError
from ..exactmath import prime_power
from .elements import FrobMat, Mat, Perm
from .field import gf
from .table import MAX_ELEMENTS, GroupTable, close_group

EXAMPLE_KINDS = ("isaacs_K", "heisenberg")


def _elementary(field, i: int, j: int, a: int) -> Mat:
    entries = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
    entries[i][j] = a
    return Mat.from_rows(field, entries)


def _diag_last(field, d: int) -> Mat:
    return Mat.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, d]])


def _unitriangular_generators(field) -> list[Mat]:
    gens = []
    for a in field.basis:
        gens.append(_elementary(field, 0, 1, a))
        gens.append(_elementary(field, 1, 2, a))
    return gens


def build_example_group(kind: str, q: int) -> GroupTable:
    """Construct one of the two witness groups over GF(q): isaacs_K, of
    order q**3 (q-1), or heisenberg, the unitriangular part of order q**3.

    heisenberg supports q <= 9; isaacs_K needs q**3 (q-1) within the closure
    bound, so q <= 8.
    """
    if kind not in EXAMPLE_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    prime_power(q)
    if kind == "heisenberg":
        if q > 9:
            raise ResourceLimitError("heisenberg supports q <= 9")
        field = gf(q)
        group = close_group(_unitriangular_generators(field))
        assert group.order == q**3
        return group
    if q**3 * (q - 1) > MAX_ELEMENTS:
        raise ResourceLimitError(f"order q**3 (q-1) = {q**3 * (q - 1)} exceeds the closure bound")
    field = gf(q)
    gens = _unitriangular_generators(field)
    gens += [_elementary(field, 0, 2, a) for a in field.basis]
    if q > 2:
        gens.append(_diag_last(field, field.generator))
    group = close_group(gens)
    assert group.order == q**3 * max(q - 1, 1)
    return group


def build_galois_twisted_group(q: int) -> GroupTable:
    """Extension of the isaacs_K group by the entrywise field automorphisms;
    order q**3 (q-1) [GF(q):GF(p)].  Only closure-level checks are feasible
    at the sizes where the twist is nontrivial."""
    p, a = prime_power(q)
    if a == 1:
        raise ValueError("the Galois twist is trivial over a prime field")
    order = q**3 * (q - 1) * a
    if order > MAX_ELEMENTS:
        raise ResourceLimitError(f"twisted order {order} exceeds the closure bound")
    field = gf(q)
    gens = [FrobMat(g, 0) for g in _unitriangular_generators(field)]
    gens.append(FrobMat(_diag_last(field, field.generator), 0))
    gens.append(FrobMat(Mat.identity(field, 3), 1))
    group = close_group(gens)
    assert group.order == order
    return group


# ---------------------------------------------------------------------------
# assorted oracle groups

def cyclic_group(n: int) -> GroupTable:
    if not 1 <= n <= 64:
        raise ValueError("cyclic permutation model limited to 64 points")
    return close_group([Perm([(i + 1) % n for i in range(n)])])


def dihedral_group(n: int) -> GroupTable:
    """Dihedral group of order 2n, acting on n points."""
    if not 3 <= n <= 64:
        raise ValueError("dihedral permutation model limited to 64 points")
    rot = Perm([(i + 1) % n for i in range(n)])
    flip = Perm([(-i) % n for i in range(n)])
    return close_group([rot, flip])


def symmetric_group(n: int) -> GroupTable:
    if not 2 <= n <= 7:
        raise ValueError("symmetric groups supported for 2 <= n <= 7")
    cycle = Perm([(i + 1) % n for i in range(n)])
    swap = Perm([1, 0] + list(range(2, n)))
    return close_group([cycle, swap])


def alternating_group(n: int) -> GroupTable:
    if not 3 <= n <= 7:
        raise ValueError("alternating groups supported for 3 <= n <= 7")
    three_cycle = Perm.from_cycles(n, [(0, 1, 2)])
    if n % 2 == 1:
        long_cycle = Perm([(i + 1) % n for i in range(n)])
    else:
        long_cycle = Perm([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])
    return close_group([three_cycle, long_cycle])


def quaternion_group() -> GroupTable:
    """Order-8 quaternion group inside SL2(3)."""
    field = gf(3)
    i_mat = Mat.from_rows(field, [[0, 2], [1, 0]])
    j_mat = Mat.from_rows(field, [[1, 1], [1, 2]])
    return close_group([i_mat, j_mat])


def sl2_3() -> GroupTable:
    field = gf(3)
    return close_group([Mat.from_rows(field, [[1, 1], [0, 1]]),
                        Mat.from_rows(field, [[1, 0], [1, 1]])])


def gl2_3() -> GroupTable:
    field = gf(3)
    return close_group([Mat.from_rows(field, [[1, 1], [0, 1]]),
                        Mat.from_rows(field, [[1, 0], [1, 1]]),
                        Mat.from_rows(field, [[2, 0], [0, 1]])])


def frobenius_21() -> GroupTable:
    """Nonabelian group of order 21: the order-7 cycle extended by doubling."""
    seven = Perm([(i + 1) % 7 for i in range(7)])
    cube = Perm([(2 * i) % 7 for i in range(7)])
    return close_group([seven, cube])
