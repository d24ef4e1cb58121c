"""Explicit small groups: breadth-first closure of a generating set, then
conjugacy classes, products, generated and normal subgroups, and derived
series, each computed by numpy gathers rather than element by element.

The closure itself multiplies no element objects and builds none per
element: each element is a row of integer codes, and a whole breadth-first
level is multiplied by the generators in one batched gather.  What it keeps
is linear in the order: the product of every element with every generator
on the right, each element's parent (x, k), with the element equal to x
times the k-th generator, and the inverses.  Conjugation by the generators
and any product column x -> x z are gathers on those arrays, and no query
builds an n x n array.  The rows are kept, and element objects are decoded
from them only when asked for."""

from __future__ import annotations

import numpy as np

from ..errors import ResourceLimitError
from .elements import FrobMat, Mat, Perm

# the closure limit; the int64 exactness of the character-table arithmetic
# is checked up to this order
MAX_ELEMENTS = 5000


class GroupTable:
    """A closed list of group elements, with products by the generators.

    Index 0 is the identity, and indices follow the breadth-first order of
    the closure (each element times each generator in turn, new products
    numbered at first occurrence).  right[x, k] is the index of x * g_k for
    the k-th generator g_k; every element y > 0 has the parent
    parents[y - 1] = K x + k (K generators) with y = x * g_k and x < y.
    So every product is a walk of gathers on `right` along the parents, and
    no element is multiplied afterwards.  Conjugacy classes conjugate by the
    generators; a generated subgroup grows each frontier by the product
    columns of its generators; the derived series takes each term as the
    normal closure of the commutators of the last term's generators.

    The elements are kept as the closure's rows of integer codes, and
    `elements` decodes them into element objects on first access: no group
    query reads them.
    """

    def __init__(self, rows: np.ndarray, decode, right: np.ndarray,
                 parents: np.ndarray, inverses: np.ndarray):
        self._rows = rows
        self._decode = decode
        self._elements = None
        self._right = right
        self._parents = parents
        self.inverses = inverses
        self.generators = sorted(set(right[0].tolist()))
        self._class_of = None

    @property
    def elements(self) -> list:
        if self._elements is None:
            self._elements = [self._decode(row) for row in self._rows.tolist()]
        return self._elements

    @property
    def order(self) -> int:
        return len(self.inverses)

    def _walk(self, z: int, known=()) -> tuple[int, list[int]]:
        """(y, word): y is the first of z and its ancestors, read up the
        parents, that is in `known`, or else the identity, and word the
        generator positions k_1, ..., k_r with z = y g_k1 ... g_kr."""
        count = self._right.shape[1]
        word = []
        while z and z not in known:
            z, k = divmod(int(self._parents[z - 1]), count)
            word.append(k)
        return z, word[::-1]

    def mult(self, i: int, j: int) -> int:
        for k in self._walk(j)[1]:
            i = self._right[i, k]
        return int(i)

    def product_columns(self, zs) -> np.ndarray:
        """The (order, len(zs)) array whose c-th column is x -> x * zs[c].

        The zs are taken in ascending index order, so every parent of z
        comes before z.  Each z is walked up its parents only until an
        element whose column is already written here, or the identity, and
        that column (or the identity's) is carried back down the letters
        walked, one gather on `right` per letter.  It is int16, since the
        closure stops at MAX_ELEMENTS < 2**15 elements."""
        out = np.empty((self.order, len(zs)), dtype=np.int16)
        written = {}  # element -> its column in out
        for c in sorted(range(len(zs)), key=lambda c: zs[c]):
            z = int(zs[c])
            y, word = self._walk(z, written)
            column = out[:, written[y]] if y else np.arange(self.order)
            for k in word:
                column = self._right[column, k]
            out[:, c] = column
            written[z] = c
        return out

    def class_of(self) -> np.ndarray:
        """Index of each element's class in conjugacy_classes().

        Every element takes the smallest index reachable by conjugating with
        the generators; that label is constant on a class and is its
        smallest member.
        """
        if self._class_of is None:
            # conj[k][x] is the index of g^-1 x g for the k-th generator g:
            # g^-1 w = (w^-1 g)^-1 for w = x g
            inv, right = self.inverses, self._right
            conj = [inv[right[inv[right[:, k]], k]] for k in range(right.shape[1])]
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

    def _generate(self, idxs) -> tuple[np.ndarray, list[int]]:
        """Membership mask of the subgroup generated by an array-like of
        element indices, and the generators it was grown from.

        Only candidates outside the subgroup built so far join the
        generators, so each one at least doubles it; after each, the whole
        subgroup is multiplied by the generators' product columns, then each
        new frontier.  Each generator's column is built once, when it joins.
        """
        wanted = np.zeros(self.order, dtype=bool)
        wanted[np.asarray(idxs, dtype=np.intp)] = True
        inside = np.zeros(self.order, dtype=bool)
        inside[0] = True
        gens = []
        columns = np.empty((self.order, 0), dtype=np.int16)
        while (outside := np.flatnonzero(wanted & ~inside)).size:
            gens.append(int(outside[0]))
            columns = np.hstack([columns, self.product_columns(gens[-1:])])
            frontier = np.flatnonzero(inside)
            while frontier.size:
                # the new products, sorted and distinct, by a mask: a bare
                # np.unique would import numpy.ma for its masked-array check
                grown = inside.copy()
                grown[columns[frontier]] = True
                frontier = np.flatnonzero(grown & ~inside)
                inside = grown
        return inside, gens

    def subgroup_generated(self, idxs) -> frozenset[int]:
        """Subgroup generated by an array-like of element indices."""
        return frozenset(np.flatnonzero(self._generate(idxs)[0]).tolist())

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

    def derived_series(self) -> list[frozenset[int]]:
        """G, G', G'', ... down to the first term equal to its successor.

        Each term H is normal in G, so H' is the normal closure in G of the
        commutators of H's generators: the subgroup generated by their
        conjugacy classes.  The commutator x^-1 y^-1 x y is (y x)^-1 (x y).
        """
        class_of, inv = self.class_of(), self.inverses
        series, gens = [frozenset(range(self.order))], self.generators
        while True:
            commutators = [self.mult(int(inv[self.mult(y, x)]), self.mult(x, y))
                           for x in gens for y in gens]
            wanted = np.zeros(class_of.max() + 1, dtype=bool)
            wanted[class_of[commutators]] = True
            inside, gens = self._generate(np.flatnonzero(wanted[class_of]))
            if inside.sum() == len(series[-1]):
                return series
            series.append(frozenset(np.flatnonzero(inside).tolist()))

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


def close_group(generators) -> GroupTable:
    """Breadth-first closure of a generating set under multiplication.

    All generators must share one representation kind; matrix generators
    must be invertible.  Raises ResourceLimitError when the closure exceeds
    MAX_ELEMENTS, read at each call.

    Elements are closed as rows of integer codes (_rows_of_kind), one
    breadth-first level at a time: the whole level is multiplied by every
    generator in one batched product, and the products are walked
    level-element-major, generator-minor, each new one taking the next
    index.  That is the order in which a one-element-at-a-time closure
    meets them, so the indices do not depend on the batching.  The rows
    are handed to the GroupTable undecoded, with the products by the
    generators, the parents and the inverses.
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
        if len(index) > MAX_ELEMENTS:
            raise ResourceLimitError(f"closure exceeded {MAX_ELEMENTS} elements")
        # new elements are numbered in order of first occurrence
        values, first_at = np.unique(found, return_index=True)
        first_at = first_at[values >= start]
        right.append(found)
        parents.append(first_at + count * (start - len(frontier)))
        frontier = products[first_at]
        levels.append(frontier)
    n = len(index)
    right = np.concatenate(right).reshape(n, count)
    # left[k, z] is the index of gens[k] * z, from g (x h) = (g x) h, and
    # unleft[k] is its inverse permutation, z -> gens[k]**-1 * z; both serve
    # only to find the inverses
    left = np.empty((count, n), dtype=np.intp)
    left[:, 0] = right[0]
    y = 1
    for level in parents:
        xs, ks = divmod(level, count)
        left[:, y:y + len(level)] = right[left[:, xs], ks]
        y += len(level)
    unleft = np.empty_like(left)
    np.put_along_axis(unleft, left, np.arange(n), axis=1)
    # level by level, from (x g)^-1 = g^-1 x^-1
    inverses = np.zeros(n, dtype=np.intp)
    y = 1
    for level in parents:
        xs, ks = divmod(level, count)
        inverses[y:y + len(level)] = unleft[ks, inverses[xs]]
        y += len(level)
    return GroupTable(np.concatenate(levels), decode, right, np.concatenate(parents),
                      inverses)
