"""Explicit small groups: breadth-first closure of a generating set into a
dense multiplication table, then conjugacy classes, element orders,
generated and normal subgroups, and derived series, each computed by numpy
gathers on that table rather than element by element.

The closure itself multiplies no element objects and builds none per
element: each element is a row of integer codes, a whole breadth-first level
is multiplied by the generators in one batched gather, and the table is
filled a row at a time by gathers on rows already filled.  The rows are kept,
and element objects are decoded from them only when asked for."""

from __future__ import annotations

import numpy as np

from ..errors import ResourceLimitError
from .elements import FrobMat, Mat, Perm

MAX_ELEMENTS = 5000  # below 2**15, so element indices fit the int16 table


class GroupTable:
    """A closed list of group elements with its Cayley table.

    Index 0 is the identity, and indices follow the breadth-first order of
    the closure (each element times each generator in turn, new products
    numbered at first occurrence).  table[i, j] is the index of
    elements[i] * elements[j]; close_group fills it once, so every product
    and inverse is a lookup and no element is multiplied afterwards.

    The elements are kept as the closure's rows of integer codes, and
    `elements` decodes them into element objects on first access: every
    group query reads the table alone.
    """

    def __init__(self, rows: np.ndarray, decode, generator_indices, table: np.ndarray):
        self._rows = rows
        self._decode = decode
        self._elements = None
        self.generators = list(generator_indices)
        self.table = table
        # each row holds the identity exactly once, in the inverse's column
        self.inverses = table.argmin(axis=1)
        self._class_of = None

    @property
    def elements(self) -> list:
        if self._elements is None:
            self._elements = [self._decode(row) for row in self._rows.tolist()]
        return self._elements

    def __len__(self) -> int:
        return len(self.table)

    @property
    def order(self) -> int:
        return len(self.table)

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        return int(self.inverses[i])

    def element_orders(self) -> np.ndarray:
        """Order of every element, one power of all elements per step."""
        everything = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        power, step = everything, 1
        while not orders.all():
            orders[(power == 0) & (orders == 0)] = step
            power, step = self.table[power, everything], step + 1
        return orders

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
            label = np.arange(self.order)
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
        wanted = np.zeros(self.order, dtype=bool)
        wanted[np.asarray(idxs, dtype=np.intp)] = True
        inside = np.zeros(self.order, dtype=bool)
        inside[0] = True
        gens = []
        while (outside := np.flatnonzero(wanted & ~inside)).size:
            gens.append(outside[0])
            frontier = np.flatnonzero(inside)
            while frontier.size:
                products = self.table[np.ix_(frontier, gens)].ravel()
                # the new products, sorted and distinct, by a mask: a bare
                # np.unique would import numpy.ma for its masked-array check
                grown = inside.copy()
                grown[products] = True
                frontier = np.flatnonzero(grown & ~inside)
                inside = grown
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
        pool = (np.arange(self.order) if members is None
                else np.array(sorted(members)))
        xy = self.table[np.ix_(pool, pool)]
        # x^-1 y^-1 x y = (y x)^-1 (x y), and (y x) is the transpose of (x y)
        commutators = self.table[self.inverses[xy.T], xy]
        return self.subgroup_generated(commutators.ravel())

    def derived_series(self) -> list[frozenset[int]]:
        series = [frozenset(range(self.order))]
        while True:
            nxt = self.derived_subgroup(series[-1])
            if nxt == series[-1]:
                return series
            series.append(nxt)

    def is_solvable(self) -> bool:
        return self.derived_series()[-1] == frozenset({0})


def _mat_products(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a @ b over the field of two broadcastable (..., d, d) arrays
    of field codes: the d**3 entry products are one gather on the field's
    multiplication table, summed by d - 1 gathers on its addition table."""
    terms = field.mul_table[a[..., :, :, None], b[..., None, :, :]]  # [..., i, k, j]
    out = terms[..., 0, :]
    for k in range(1, terms.shape[-2]):
        out = field.add_table[out, terms[..., k, :]]
    return out


def _rows_of_kind(gens):
    """How the generators' kind is closed on rows of uint8 codes.

    Returns the identity's row; `times`, which maps an (m, w) array of rows
    to the (m, K, w) array of their products with each of the K generators
    on the right; and `decode`, which turns a row (a list) into an element.
    A Perm row is its images; a FrobMat row is its matrix entries, row-major,
    followed by its Frobenius power, and a Mat row is that of power 0.
    """
    first, count = gens[0], len(gens)
    if isinstance(first, Perm):
        images = np.array([g.images for g in gens], dtype=np.uint8)
        # (x * g)(i) = x(g(i)): one gather of every row by every generator
        return first.identity_like().images, lambda rows: rows[:, images], Perm
    twist = isinstance(first, FrobMat)
    mats = [g.mat for g in gens] if twist else gens
    field, d = mats[0].field, mats[0].dim
    a = field.a if twist else 1
    # (M, s)(N, t) = (M Frob^s(N), s + t): twisted[s, k] is Frob^s of the
    # k-th generator's matrix, and each row picks its own s
    twisted = np.array([[m.frobenius(s).entries for m in mats] for s in range(a)],
                       dtype=np.uint8).reshape(a, count, d, d)
    powers = np.array([g.power for g in gens] if twist else [0] * count, dtype=np.uint8)

    def times(rows):
        s = rows[:, -1]
        out = np.empty((len(rows), count, d * d + 1), dtype=np.uint8)
        out[:, :, :-1] = _mat_products(field, rows[:, :-1].reshape(-1, 1, d, d),
                                       twisted[s]).reshape(len(rows), count, -1)
        out[:, :, -1] = (s[:, None] + powers) % a
        return out

    identity = mats[0].identity_like().entries + (0,)
    if twist:
        return identity, times, lambda row: FrobMat(Mat(field, d, row[:-1]), row[-1])
    return identity, times, lambda row: Mat(field, d, row[:-1])


def close_group(generators, limit: int = MAX_ELEMENTS) -> GroupTable:
    """Breadth-first closure of a generating set under multiplication, and
    its Cayley table.

    All generators must share one representation kind; matrix generators
    must be invertible.  Raises ResourceLimitError when the closure exceeds
    the element limit.

    Elements are closed as rows of integer codes (_rows_of_kind), one
    breadth-first level at a time: the whole level is multiplied by every
    generator in one batched product, and the products are walked
    level-element-major, generator-minor, each new one taking the next
    index.  That is the order in which a one-element-at-a-time closure
    meets them, so the indices do not depend on the batching.  The rows
    are handed to the GroupTable undecoded.
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
    identity, times, decode = _rows_of_kind(gens)
    count = len(gens)
    frontier = np.array([identity], dtype=np.uint8)
    index = {frontier.tobytes(): 0}
    levels = [frontier]  # rows of each level; a level's indices are consecutive
    right = []  # per level: at position count * x + k, the index of x * gens[k]
    parents = []  # per later level: for each y = x * gens[k], count * x + k
    while len(frontier):
        products = times(frontier).reshape(len(frontier) * count, -1)
        width = products.shape[1]
        keys = products.view(f"V{width}").ravel().tolist() if width else [b""] * len(products)
        start = len(index)
        found = np.array([index.setdefault(key, len(index)) for key in keys])
        if len(index) > limit:
            raise ResourceLimitError(f"closure exceeded {limit} elements")
        # new elements are numbered in order of first occurrence
        values, first_at = np.unique(found, return_index=True)
        first_at = first_at[values >= start]
        right.append(found)
        parents.append(first_at + count * (start - len(frontier)))
        frontier = products[first_at]
        levels.append(frontier)
    n = len(index)
    right = np.concatenate(right)
    # left[k, z] is the index of gens[k] * z, from g (x h) = (g x) h
    left = np.empty((count, n), dtype=np.intp)
    left[:, 0] = right[:count]
    y = 1
    for level in parents:
        xs, ks = divmod(level, count)
        left[:, y:y + len(level)] = right[count * left[:, xs] + ks]
        y += len(level)
    # row by row, from (x h) z = x (h z)
    table = np.empty((n, n), dtype=np.int16)
    table[0] = np.arange(n)
    for y, pos in enumerate(np.concatenate(parents).tolist(), 1):
        x, k = divmod(pos, count)
        table[y] = table[x][left[k]]
    return GroupTable(np.concatenate(levels), decode,
                      sorted(set(right[:count].tolist())), table)
