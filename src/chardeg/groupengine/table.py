"""Explicit small groups: breadth-first closure of a generating set into a
dense multiplication table, then conjugacy classes, element orders,
generated and normal subgroups, and derived series, each computed by numpy
gathers on that table rather than element by element."""

from __future__ import annotations

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
        self._class_of = None

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        return int(self.inverses[i])

    def element_orders(self) -> np.ndarray:
        """Order of every element, one power of all elements per step."""
        everything = np.arange(len(self.elements))
        orders = np.zeros(len(self.elements), dtype=np.int64)
        power, step = everything, 1
        while not orders.all():
            orders[(power == 0) & (orders == 0)] = step
            power, step = self.table[power, everything], step + 1
        return orders

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders()))

    def class_of(self) -> np.ndarray:
        """Index of each element's class in conjugacy_classes().

        Every element takes the smallest index reachable by conjugating with
        the generators; that label is constant on a class and is its
        smallest member.
        """
        if self._class_of is None:
            # conj[k][x] is the index of g^-1 x g for the k-th generator g
            conj = [self.table[self.inverses[g], self.table[:, g]]
                    for g in self.generators]
            label = np.arange(len(self.elements))
            while True:
                new = label
                for c in conj:
                    new = np.minimum(new, new[c])
                new = new[new]  # labels are class members: jump along them
                if (new == label).all():
                    break
                label = new
            self._class_of = np.unique(label, return_inverse=True)[1]
        return self._class_of

    def conjugacy_classes(self) -> list[list[int]]:
        """Orbits under conjugation, identity class first, then in order of
        the smallest member index; each class is sorted."""
        labels = self.class_of()
        members = np.argsort(labels, kind="stable")
        ends = np.cumsum(np.bincount(labels))[:-1]
        return [c.tolist() for c in np.split(members, ends)]

    def subgroup_generated(self, idxs) -> frozenset[int]:
        """Subgroup generated by an array-like of element indices.

        Only candidates outside the subgroup built so far join the
        generators, so each one at least doubles it; after each, the whole
        subgroup is multiplied by the generators, then each new frontier.
        """
        wanted = np.zeros(len(self.elements), dtype=bool)
        wanted[np.asarray(idxs, dtype=np.intp)] = True
        inside = np.zeros(len(self.elements), dtype=bool)
        inside[0] = True
        gens = []
        while (outside := np.flatnonzero(wanted & ~inside)).size:
            gens.append(outside[0])
            frontier = np.flatnonzero(inside)
            while frontier.size:
                products = self.table[np.ix_(frontier, gens)].ravel()
                frontier = np.unique(products[~inside[products]])
                inside[frontier] = True
        return frozenset(np.flatnonzero(inside).tolist())

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
        return self.subgroup_generated(commutators.ravel())

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
