"""Partitions, Young diagrams, hook lengths, and the branching boundary.

A partition is a tuple of weakly decreasing positive integers.  Diagram nodes
use the coordinate convention (i, j) with i the column index and j the row
index, both 1-based, so (i, j) lies in the diagram of lam exactly when
i <= lam[j-1].  The hook length at a node is

    h(i, j) = 1 + lam[j-1] + conj(lam)[i-1] - i - j,

and the character degree attached to lam is n! divided by the product of all
hook lengths.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterator

Partition = tuple[int, ...]
Node = tuple[int, int]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    if any(not isinstance(p, int) or p < 1 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts) -> Partition:
    lam = tuple(parts)
    if not is_partition(lam):
        raise ValueError(f"{parts!r} is not a partition")
    return lam


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, in lexicographically decreasing order.

    The order starts at (n,) and ends at (1,)*n; it is the deterministic
    iteration order used throughout the test suite.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    a = [n]
    while True:
        yield tuple(a)
        j = len(a) - 1
        while j >= 0 and a[j] == 1:
            j -= 1
        if j < 0:
            return
        v = a[j] - 1
        rem = len(a) - j - 1 + 1
        del a[j:]
        a.append(v)
        while rem > 0:
            t = min(v, rem)
            a.append(t)
            rem -= t


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: conj(lam)[i-1] = #{j : lam[j-1] >= i}."""
    return _conjugate(check_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    # the unchecked cores take a partition their caller has checked
    if not lam:
        return ()
    out = []
    row = len(lam)
    for i in range(1, lam[0] + 1):
        while lam[row - 1] < i:
            row -= 1
        out.append(row)
    return tuple(out)


def _hook_product(lam: Partition, conj: Partition) -> int:
    """Product of all hook lengths of lam, whose conjugate is conj."""
    return prod(
        lam_j - i + conj[i - 1] - j + 1
        for j, lam_j in enumerate(lam, start=1)
        for i in range(1, lam_j + 1)
    )


def hook_degree(lam: Partition) -> int:
    """Degree n! / prod(hooks) attached to a partition of n; always an integer."""
    lam = check_partition(lam)
    return _hook_degree(lam, _conjugate(lam))


def _hook_degree(lam: Partition, conj: Partition) -> int:
    n = sum(lam)
    denom = _hook_product(lam, conj)
    num = factorial(n)
    if num % denom:
        raise AssertionError(f"hook product {denom} does not divide {n}! for {lam}")
    return num // denom


def boundary_nodes(lam: Partition) -> tuple[frozenset[Node], frozenset[Node]]:
    """Addable and removable nodes of the diagram, as (addable, removable).

    Adding any addable node yields a partition of n+1 and removing any
    removable node yields a partition of n-1; there is always exactly one
    more addable node than removable ones.
    """
    lam = check_partition(lam)
    if not lam:
        return frozenset({(1, 1)}), frozenset()
    k = len(lam)
    addable = {(1, k + 1)}
    removable = set()
    for j in range(1, k + 1):
        lam_j = lam[j - 1]
        if j == 1 or lam[j - 2] > lam_j:
            addable.add((lam_j + 1, j))
        if j == k or lam_j > lam[j]:
            removable.add((lam_j, j))
    return frozenset(addable), frozenset(removable)


def add_node(lam: Partition, node: Node) -> Partition:
    lam = check_partition(lam)
    addable, _ = boundary_nodes(lam)
    if node not in addable:
        raise ValueError(f"{node} is not addable to {lam}")
    i, j = node
    if j == len(lam) + 1:
        return lam + (1,)
    return lam[: j - 1] + (lam[j - 1] + 1,) + lam[j:]


def remove_node(lam: Partition, node: Node) -> Partition:
    lam = check_partition(lam)
    _, removable = boundary_nodes(lam)
    if node not in removable:
        raise ValueError(f"{node} is not removable from {lam}")
    i, j = node
    if lam[j - 1] == 1:
        return lam[: j - 1] + lam[j:]
    return lam[: j - 1] + (lam[j - 1] - 1,) + lam[j:]


def standard_tableaux_count(lam: Partition) -> int:
    """Count standard fillings of the diagram by explicit backtracking.

    Places the values 1..n one at a time; a row can receive the next value
    when it is shorter than the row above.  Deliberately independent of the
    hook-length formula so the two can cross-check each other.
    """
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    fill = [0] * len(lam)

    def place(remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for r in range(len(lam)):
            if fill[r] < lam[r] and (r == 0 or fill[r - 1] > fill[r]):
                fill[r] += 1
                total += place(remaining - 1)
                fill[r] -= 1
        return total

    return place(n)
