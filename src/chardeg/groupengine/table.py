"""Explicit small groups: breadth-first closure of a generating set into a
dense multiplication table, conjugacy classes, normal subgroup machinery,
and derived series."""

from __future__ import annotations

from math import gcd

import numpy as np

from ..errors import ResourceLimitError

MAX_ELEMENTS = 5000  # below 2**15, so element indices fit the int16 table


class GroupTable:
    """A closed list of group elements with its Cayley table.

    Index 0 is the identity.  table[i, j] is the index of
    elements[i] * elements[j]; close_group fills it once, so every product
    and inverse is a lookup and no element is multiplied afterwards.
    """

    def __init__(self, elements, generator_indices, table: np.ndarray):
        self.elements = list(elements)
        self.generators = list(generator_indices)
        self.table = table
        # each row holds the identity exactly once, in the inverse's column
        self.inverses = table.argmin(axis=1)
        self._classes = None
        self._orders: list[int | None] = [None] * len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        return int(self.inverses[i])

    def conjugate(self, i: int, by: int) -> int:
        return self.mult(self.inverse(by), self.mult(i, by))

    def element_order(self, i: int) -> int:
        out = self._orders[i]
        if out is None:
            out = 1
            x = i
            while x != 0:
                x = self.mult(x, i)
                out += 1
            self._orders[i] = out
        return out

    def exponent(self) -> int:
        exp = 1
        for i in range(len(self.elements)):
            exp = exp * self.element_order(i) // gcd(exp, self.element_order(i))
        return exp

    def conjugacy_classes(self) -> list[list[int]]:
        """Orbits under conjugation, identity class first, then in order of
        the smallest member index; each class is sorted."""
        if self._classes is not None:
            return self._classes
        seen = [False] * len(self.elements)
        classes = []
        for start in range(len(self.elements)):
            if seen[start]:
                continue
            orbit = {start}
            frontier = [start]
            seen[start] = True
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.generators:
                        y = self.conjugate(x, g)
                        if not seen[y]:
                            seen[y] = True
                            orbit.add(y)
                            nxt.append(y)
                frontier = nxt
            classes.append(sorted(orbit))
        self._classes = classes
        return classes

    def class_of(self) -> list[int]:
        out = [0] * len(self.elements)
        for c, members in enumerate(self.conjugacy_classes()):
            for i in members:
                out[i] = c
        return out

    def subgroup_generated(self, idxs) -> frozenset[int]:
        gens = [i for i in idxs if i != 0]
        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mult(x, g)
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(members)

    def minimal_normal_subgroups(self) -> list[frozenset[int]]:
        """Minimal elements among the normal closures of nontrivial classes.

        Every minimal normal subgroup is the closure of any of its classes,
        so this brute-force list is complete.
        """
        closures = set()
        for members in self.conjugacy_classes()[1:]:
            closures.add(self.subgroup_generated(members))
        minimal = []
        for h in closures:
            if not any(other < h for other in closures):
                minimal.append(h)
        return sorted(minimal, key=lambda h: (len(h), sorted(h)))

    def derived_subgroup(self, members: frozenset[int] | None = None) -> frozenset[int]:
        """Commutator subgroup of the given subgroup (whole group if None)."""
        pool = (np.arange(len(self.elements)) if members is None
                else np.array(sorted(members)))
        xy = self.table[np.ix_(pool, pool)]
        # x^-1 y^-1 x y = (y x)^-1 (x y), and (y x) is the transpose of (x y)
        commutators = self.table[self.inverses[xy.T], xy]
        return self.subgroup_generated(np.unique(commutators).tolist())

    def derived_series(self) -> list[frozenset[int]]:
        series = [frozenset(range(len(self.elements)))]
        while True:
            nxt = self.derived_subgroup(series[-1])
            if nxt == series[-1]:
                return series
            series.append(nxt)

    def is_solvable(self) -> bool:
        return self.derived_series()[-1] == frozenset({0})


def close_group(generators, limit: int = MAX_ELEMENTS) -> GroupTable:
    """Breadth-first closure of a generating set under multiplication, and
    its Cayley table.

    All generators must share one representation kind; matrix generators
    must be invertible.  Raises ResourceLimitError when the closure exceeds
    the element limit.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    for g in gens[1:]:
        if not first.same_kind(g):
            raise ValueError("generators must share one representation kind")
    for g in gens:
        if hasattr(g, "is_invertible") and not g.is_invertible():
            raise ValueError(f"singular matrix generator {g!r}")
        if hasattr(g, "mat") and not g.mat.is_invertible():
            raise ValueError(f"singular matrix generator {g!r}")
    if limit > MAX_ELEMENTS:
        raise ValueError(f"closure limit exceeds {MAX_ELEMENTS}")
    identity = first.identity_like()
    elements = [identity]
    index = {identity: 0}
    right = [[] for _ in gens]  # right[k][x] is the index of x * gens[k]
    parent = [None]  # parent[y] = (x, k) with y = x * gens[k], x < y
    # visiting in index order walks the breadth-first frontiers in turn
    for x, elt in enumerate(elements):
        for k, g in enumerate(gens):
            y = elt * g
            out = index.get(y)
            if out is None:
                if len(elements) >= limit:
                    raise ResourceLimitError(f"closure exceeded {limit} elements")
                out = index[y] = len(elements)
                elements.append(y)
                parent.append((x, k))
            right[k].append(out)
    n = len(elements)
    right_arr = np.array(right, dtype=np.int16)
    # row y of cols is column y of the table: x * y = (x * p) * gens[k]
    cols = np.empty((n, n), dtype=np.int16)
    cols[0] = np.arange(n)
    for y in range(1, n):
        p, k = parent[y]
        cols[y] = right_arr[k][cols[p]]
    gen_idx = sorted({index[g] for g in gens})
    return GroupTable(elements, gen_idx, np.ascontiguousarray(cols.T))
