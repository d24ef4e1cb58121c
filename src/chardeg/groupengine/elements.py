"""Concrete group elements: permutations, invertible matrices over a small
finite field, and Frobenius-twisted matrices (pairs of a matrix with a power
of the field automorphism, multiplying semidirectly)."""

from __future__ import annotations

from .field import GF, gf

MAX_POINTS = 64
MAX_DIM = 4


class Perm:
    """Permutation of 0..n-1; (a * b) maps x to a(b(x))."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if len(images) > MAX_POINTS:
            raise ValueError(f"permutations limited to {MAX_POINTS} points")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"{images} is not a permutation")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Perm":
        images = list(range(n))
        for cycle in cycles:
            for idx, point in enumerate(cycle):
                images[point] = cycle[(idx + 1) % len(cycle)]
        return cls(images)

    def __mul__(self, other: "Perm") -> "Perm":
        o = other.images
        return Perm(tuple(self.images[o[x]] for x in range(len(o))))

    def inverse(self) -> "Perm":
        out = [0] * len(self.images)
        for x, y in enumerate(self.images):
            out[y] = x
        return Perm(out)

    def identity_like(self) -> "Perm":
        return Perm.identity(len(self.images))

    def same_kind(self, other) -> bool:
        return isinstance(other, Perm) and len(other.images) == len(self.images)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Perm{self.images}"


class Mat:
    """Invertible square matrix over GF(q), entries row-major field codes."""

    __slots__ = ("field", "dim", "entries", "_hash")

    def __init__(self, field: GF, dim: int, entries):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"matrix dimension limited to {MAX_DIM}")
        entries = tuple(entries)
        if len(entries) != dim * dim:
            raise ValueError("wrong number of entries")
        if any(not 0 <= e < field.q for e in entries):
            raise ValueError("entries must be field codes")
        self.field = field
        self.dim = dim
        self.entries = entries
        self._hash = hash((field.q, dim, entries))

    @classmethod
    def identity(cls, field: GF, dim: int) -> "Mat":
        return cls(field, dim, tuple(1 if i == j else 0
                                     for i in range(dim) for j in range(dim)))

    @classmethod
    def from_rows(cls, field: GF, rows) -> "Mat":
        rows = [list(r) for r in rows]
        return cls(field, len(rows), tuple(x for r in rows for x in r))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.dim + j]

    def __mul__(self, other: "Mat") -> "Mat":
        F, d = self.field, self.dim
        a, b = self.entries, other.entries
        out = []
        for i in range(d):
            row = a[i * d:(i + 1) * d]
            for j in range(d):
                acc = 0
                for k in range(d):
                    acc = F.add(acc, F.mul(row[k], b[k * d + j]))
                out.append(acc)
        return Mat(F, d, out)

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except ZeroDivisionError:
            return False

    def inverse(self) -> "Mat":
        """Gauss-Jordan over the field; raises ZeroDivisionError if singular."""
        F, d = self.field, self.dim
        aug = [[self[i, j] for j in range(d)] + [1 if i == j else 0 for j in range(d)]
               for i in range(d)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = F.inv(aug[col][col])
            aug[col] = [F.mul(inv, x) for x in aug[col]]
            for r in range(d):
                if r != col and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [F.sub(x, F.mul(factor, y))
                              for x, y in zip(aug[r], aug[col])]
        return Mat(F, d, tuple(aug[i][d + j] for i in range(d) for j in range(d)))

    def frobenius(self, k: int) -> "Mat":
        F = self.field
        return Mat(F, self.dim, tuple(F.frobenius(x, k) for x in self.entries))

    def identity_like(self) -> "Mat":
        return Mat.identity(self.field, self.dim)

    def same_kind(self, other) -> bool:
        return (isinstance(other, Mat) and other.field is self.field
                and other.dim == self.dim)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field.q == other.field.q
                and self.dim == other.dim and self.entries == other.entries)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Mat(GF({self.field.q}), {self.dim}, {self.entries})"


class FrobMat:
    """Pair (M, k) of a matrix and a Frobenius power, with the semidirect
    product rule (M, i)(N, j) = (M * Frob^i(N), i + j)."""

    __slots__ = ("mat", "power", "_hash")

    def __init__(self, mat: Mat, power: int):
        self.mat = mat
        self.power = power % mat.field.a
        self._hash = hash((mat, self.power))

    def __mul__(self, other: "FrobMat") -> "FrobMat":
        return FrobMat(self.mat * other.mat.frobenius(self.power),
                       self.power + other.power)

    def identity_like(self) -> "FrobMat":
        return FrobMat(self.mat.identity_like(), 0)

    def same_kind(self, other) -> bool:
        return isinstance(other, FrobMat) and self.mat.same_kind(other.mat)

    def __eq__(self, other):
        return (isinstance(other, FrobMat) and self.power == other.power
                and self.mat == other.mat)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FrobMat({self.mat!r}, {self.power})"


def matrix(q: int, rows) -> Mat:
    """Convenience constructor from row lists of field codes."""
    return Mat.from_rows(gf(q), rows)
