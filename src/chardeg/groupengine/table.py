"""Explicit small groups: breadth-first closure of a generating set, then
conjugacy classes, products, generated and normal subgroups, and derived
series, each computed on lists of element indices rather than on elements.

The closure multiplies no element objects and builds none per element:
each element is a tuple of integer codes, and each generator multiplies a
code tuple by a lookup per entry.  What it keeps is linear in the order:
the product of every element with every generator on the right, each
element's parent (x, k), with the element equal to x times the k-th
generator, and the inverses.  Conjugation by the generators and any product
column x -> x z are gathers on those lists, and no query builds an n x n
table.  The code tuples are kept, and element objects are decoded from them
only when asked for."""

from __future__ import annotations

from operator import itemgetter

from ..errors import ResourceLimitError
from .elements import FrobMat, Mat, Perm

# the closure limit
MAX_ELEMENTS = 5000


def _gather(column: list[int], values: list[int]) -> list[int]:
    """[column[v] for v in values]."""
    return list(map(column.__getitem__, values))


class GroupTable:
    """A closed list of group elements, with products by the generators.

    Index 0 is the identity, and indices follow the breadth-first order of
    the closure (each element times each generator in turn, new products
    numbered at first occurrence).  right[k][x] is the index of x * g_k for
    the k-th generator g_k; every element y > 0 has the parent
    parents[y - 1] = K x + k (K generators) with y = x * g_k and x < y.
    So every product is a walk of gathers on `right` along the parents, and
    no element is multiplied afterwards.  Conjugacy classes conjugate by the
    generators; a generated subgroup grows each frontier by the product
    columns of its generators; the derived series takes each term as the
    normal closure of the commutators of the last term's generators.

    The elements are kept as the closure's code tuples, and `elements`
    decodes them into element objects on first access: no group query reads
    them.
    """

    def __init__(self, rows: list[tuple], decode, right: list[list[int]],
                 parents: list[int], inverses: list[int]):
        self._rows = rows
        self._decode = decode
        self._elements = None
        self._right = right
        self._parents = parents
        self.inverses = inverses
        self.generators = sorted({column[0] for column in right})
        self._class_of = None
        self._classes = None

    @property
    def elements(self) -> list:
        if self._elements is None:
            self._elements = [self._decode(row) for row in self._rows]
        return self._elements

    @property
    def order(self) -> int:
        return len(self.inverses)

    def _walk(self, z: int, known=()) -> tuple[int, list[int]]:
        """(y, word): y is the first of z and its ancestors, read up the
        parents, that is in `known`, or else the identity, and word the
        generator positions k_1, ..., k_r with z = y g_k1 ... g_kr."""
        count = len(self._right)
        word = []
        while z and z not in known:
            z, k = divmod(self._parents[z - 1], count)
            word.append(k)
        return z, word[::-1]

    def mult(self, i: int, j: int) -> int:
        for k in self._walk(j)[1]:
            i = self._right[k][i]
        return i

    def product_columns(self, zs) -> list[list[int]]:
        """The list whose c-th entry is the column x -> x * zs[c], a list of
        indices; a column repeated in zs may be the same list object.

        The zs are taken in ascending index order, so every parent of z
        comes before z.  Each z is walked up its parents only until an
        element whose column is already written here, or the identity, and
        that column (or the identity's) is carried back down the letters
        walked, one gather on `right` per letter."""
        out = [None] * len(zs)
        written = {}  # element -> its column
        for c in sorted(range(len(zs)), key=zs.__getitem__):
            z = zs[c]
            y, word = self._walk(z, written)
            column = written[y] if y else list(range(self.order))
            for k in word:
                column = _gather(self._right[k], column)
            out[c] = written[z] = column
        return out

    def _conjugacy(self) -> None:
        """Fill the classes and each element's class.  Each class is the
        orbit of its smallest member under conjugation by the generators,
        g^-1 x g = (w^-1 g)^-1 for w = x g, found in index order, so the
        classes come in order of their smallest member."""
        inv, n = self.inverses, self.order
        conj = [_gather(inv, _gather(column, _gather(inv, column))) for column in self._right]
        class_of, classes = [-1] * n, []
        for x in range(n):
            if class_of[x] < 0:
                class_of[x] = len(classes)
                members = [x]
                for y in members:  # grows while it is read
                    for c in conj:
                        z = c[y]
                        if class_of[z] < 0:
                            class_of[z] = len(classes)
                            members.append(z)
                classes.append(sorted(members))
        self._class_of, self._classes = class_of, classes

    def class_of(self) -> list[int]:
        """Index of each element's class in conjugacy_classes()."""
        if self._class_of is None:
            self._conjugacy()
        return self._class_of

    def conjugacy_classes(self) -> list[list[int]]:
        """Orbits under conjugation, identity class first, then in order of
        the smallest member index; each class is sorted."""
        if self._classes is None:
            self._conjugacy()
        return [list(members) for members in self._classes]

    def _generate(self, idxs) -> tuple[list[int], list[int]]:
        """Members of the subgroup generated by an iterable of element
        indices, and the generators it was grown from.

        Only candidates outside the subgroup built so far join the
        generators, so each one at least doubles it; after each, the whole
        subgroup is multiplied by the generators' product columns, then each
        new frontier.  Each generator's column is built once, when it joins.
        """
        inside = bytearray(self.order)
        inside[0] = 1
        members, gens, columns = [0], [], []
        for z in sorted(set(idxs)):
            if inside[z]:
                continue
            gens.append(z)
            columns += self.product_columns([z])
            frontier = members
            while frontier:
                grown = []
                for column in columns:
                    for y in map(column.__getitem__, frontier):
                        if not inside[y]:
                            inside[y] = 1
                            grown.append(y)
                members = members + grown
                frontier = grown
        return members, gens

    def subgroup_generated(self, idxs) -> frozenset[int]:
        """Subgroup generated by an iterable of element indices."""
        return frozenset(self._generate(idxs)[0])

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
            wanted = {class_of[self.mult(inv[self.mult(y, x)], self.mult(x, y))]
                      for x in gens for y in gens}
            members, gens = self._generate(x for x, c in enumerate(class_of) if c in wanted)
            if len(members) == len(series[-1]):
                return series
            series.append(frozenset(members))

    def is_solvable(self) -> bool:
        return self.derived_series()[-1] == frozenset({0})


class _RowTimes(dict):
    """Matrix rows times one matrix N over a field, memoised: a row is the
    code sum_j a_j q**j of its entries a_j, and self[r] is the code of the
    row r N, computed on first use."""

    def __init__(self, field, dim: int, entries):
        super().__init__()
        self._field, self._dim, self._entries = field, dim, entries

    def __missing__(self, r: int) -> int:
        field, d = self._field, self._dim
        q, add = field.q, field._add
        acc, rest = [0] * d, r
        for i in range(d):  # add a_i times the i-th row of N
            times_a, rest = field._mul[rest % q], rest // q
            acc = [add[s][times_a[x]] for s, x in zip(acc, self._entries[i * d:(i + 1) * d])]
        code = 0
        for s in reversed(acc):
            code = code * q + s
        self[r] = code
        return code


def _rows_of_kind(gens):
    """How the generators' kind is closed on tuples of integer codes.

    Returns the identity's tuple; `times`, which maps a tuple to the list of
    its products with each of the K generators on the right; and `decode`,
    which turns a tuple into an element.  A Perm tuple is its images; a Mat
    tuple holds the codes of its rows (_RowTimes), and a FrobMat tuple the
    codes of its matrix's rows followed by its Frobenius power.
    """
    first = gens[0]
    if isinstance(first, Perm):
        identity = first.identity_like().images
        if len(identity) < 2:  # only the identity
            return identity, lambda row: [row] * len(gens), Perm
        # (x * g)(i) = x(g(i)): one gather of x by each generator's images
        getters = [itemgetter(*g.images) for g in gens]
        return identity, lambda row: [get(row) for get in getters], Perm
    twist = isinstance(first, FrobMat)
    mats = [g.mat for g in gens] if twist else gens
    field, d = mats[0].field, mats[0].dim
    q = field.q
    identity = tuple(q**i for i in range(d))

    def decode_mat(codes):
        return Mat(field, d, [code // q**j % q for code in codes for j in range(d)])

    if not twist:
        tables = [_RowTimes(field, d, m.entries).__getitem__ for m in mats]
        return (identity, lambda row: [tuple(map(t, row)) for t in tables], decode_mat)
    # (M, s)(N, t) = (M Frob^s(N), s + t): tables[s][k] multiplies rows by
    # Frob^s of the k-th generator's matrix, and each tuple picks its own s
    a = field.a
    tables = [[_RowTimes(field, d, m.frobenius(s).entries).__getitem__ for m in mats]
              for s in range(a)]
    powers = [g.power for g in gens]

    def times(row):
        s, codes = row[-1], row[:-1]
        return [tuple(map(t, codes)) + ((s + power) % a,)
                for t, power in zip(tables[s], powers)]

    return (identity + (0,), times,
            lambda row: FrobMat(decode_mat(row[:-1]), row[-1]))


def close_group(generators) -> GroupTable:
    """Breadth-first closure of a generating set under multiplication.

    All generators must share one representation kind; matrix generators
    must be invertible.  Raises ResourceLimitError when the closure exceeds
    MAX_ELEMENTS, read at each call.

    Elements are closed as tuples of integer codes (_rows_of_kind), one
    element at a time: each element, in index order, is multiplied by every
    generator in turn, and each new product takes the next index.  The
    tuples are handed to the GroupTable undecoded, with the products by the
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
    count, limit = len(gens), MAX_ELEMENTS
    rows = [identity]
    index = {identity: 0}
    products = []  # at position count * x + k, the index of x * gens[k]
    parents = []  # for each y > 0 with y = x * gens[k], count * x + k
    for row in rows:  # rows grows while it is read
        for product in times(row):
            y = index.setdefault(product, len(rows))
            if y == len(rows):
                rows.append(product)
                parents.append(len(products))
            products.append(y)
        if len(rows) > limit:
            raise ResourceLimitError(f"closure exceeded {limit} elements")
    n = len(rows)
    right = [products[k::count] for k in range(count)]
    # left[k][z] is the index of gens[k] * z, from g (x h) = (g x) h, and
    # unleft[k] is its inverse permutation, z -> gens[k]**-1 * z; both serve
    # only to find the inverses
    left = [[column[0]] for column in right]
    for parent in parents:
        x, k = divmod(parent, count)
        column = right[k]
        for out in left:
            out.append(column[out[x]])
    unleft = [[0] * n for _ in range(count)]
    for out, lk in zip(unleft, left):
        for z, y in enumerate(lk):
            out[y] = z
    # in index order, from (x g)^-1 = g^-1 x^-1
    inverses = [0]
    for parent in parents:
        x, k = divmod(parent, count)
        inverses.append(unleft[k][inverses[x]])
    return GroupTable(rows, decode, right, parents, inverses)
