"""Exact character tables by the modular eigenvector method.

The class-sum multiplication constants give commuting matrices whose common
eigenvectors are the central characters.  Working over GF(ell) with
ell = 1 (mod exponent) and ell > 2 sqrt(|G|), the eigenvectors are found by
simultaneous splitting: the eigenvalues on each common eigenspace are the
roots of its minimal polynomial, found by evaluating it at every point of
GF(ell), so no step is randomized.  Degrees are recovered from the second
orthogonality averages (they are small integers, so the modular image pins
them down), and the character values are lifted to exact cyclotomic
integers by inverting the power-map transform: the lift writes one integer
array of coefficients on the powers of zeta_m, and every later check reads
that array, reducing modulo the m-th cyclotomic polynomial by one matrix
product.  Both orthogonality relations are verified exactly before a table
is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from ..degrees import DegreeMultiset
from ..errors import ResourceLimitError
from ..exactmath import factorize, is_prime
from .cyclotomic import reduction_matrix
from .field import poly_divmod, poly_trim
from .table import GroupTable

DIXON_MAX_ORDER = 5000


# --------------------------------------------------------------------------
# modular linear algebra (numpy int64; ell**2 * dim stays far below 2**63)

def _mod_rref(a: np.ndarray, ell: int) -> tuple[np.ndarray, list[int]]:
    a = a % ell
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i, c] % ell), None)
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, ell) % ell
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % ell
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _kernel(a: np.ndarray, ell: int) -> np.ndarray:
    """Columns spanning the nullspace of a (square or not) over GF(ell)."""
    rref, pivots = _mod_rref(a.copy(), ell)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-int(rref[r, fc])) % ell
    return basis


def _echelon_columns(b: np.ndarray, ell: int) -> tuple[np.ndarray, list[int]]:
    """Column basis normalized so that the pivot rows carry an identity block."""
    rref, pivots = _mod_rref(b.T.copy() % ell, ell)
    return rref[: len(pivots)].T, pivots


def _poly_gcd(a: list[int], b: list[int], ell: int) -> list[int]:
    a = poly_trim([x % ell for x in a])
    b = poly_trim([x % ell for x in b])
    while b != [0]:
        a, b = b, poly_divmod(a, b, ell)[1]
    inv = pow(a[-1], -1, ell)
    return [x * inv % ell for x in a]


def _poly_lcm(a: list[int], b: list[int], ell: int) -> list[int]:
    quo = poly_divmod(a, _poly_gcd(a, b, ell), ell)[0]
    conv = np.convolve(np.asarray(quo, dtype=np.int64),
                       np.asarray(b, dtype=np.int64)) % ell
    return poly_trim(conv.tolist())


def _minpoly(mat: np.ndarray, ell: int) -> list[int]:
    """Minimal polynomial over GF(ell), as the lcm of cyclic-vector annihilators."""
    dim = mat.shape[0]
    mp = [1]
    for start in range(dim):
        e = np.zeros(dim, dtype=np.int64)
        e[start] = 1
        # skip vectors already annihilated
        acc = e.copy()
        val = np.zeros(dim, dtype=np.int64)
        for c in mp:
            val = (val + c * acc) % ell
            acc = mat @ acc % ell
        if not val.any():
            continue
        krylov = [e]
        rows = np.zeros((0, dim), dtype=np.int64)
        pivots: list[int] = []
        vec = e
        while True:
            red = vec.copy()
            for r, pc in enumerate(pivots):
                red = (red - red[pc] * rows[r]) % ell
            if not red.any():
                # dependency: solve for coefficients by re-reducing with tracking
                coeffs = _solve_dependency(krylov, ell)
                mp = _poly_lcm(mp, coeffs, ell)
                break
            red = red * pow(int(red[np.nonzero(red)[0][0]]), -1, ell) % ell
            pivots.append(int(np.nonzero(red)[0][0]))
            rows = np.vstack([rows, red])
            vec = mat @ vec % ell
            krylov.append(vec)
        if len(mp) - 1 == dim:
            break
    return mp


def _solve_dependency(krylov: list[np.ndarray], ell: int) -> list[int]:
    """Monic coefficients c with sum c_i K_i = 0, c over the last vector."""
    a = np.stack(krylov[:-1], axis=1)
    rhs = (-krylov[-1]) % ell
    rref, pivots = _mod_rref(np.hstack([a, rhs.reshape(-1, 1)]), ell)
    coeffs = [0] * (len(krylov) - 1)
    for r, pc in enumerate(pivots):
        if pc == len(coeffs):
            raise AssertionError("inconsistent Krylov dependency")
        coeffs[pc] = int(rref[r, -1])
    return poly_trim(coeffs + [1])


def _roots(poly: list[int], ell: int) -> list[int]:
    """The roots of a polynomial in GF(ell), ascending, found by evaluating
    it at every point (Horner in int64: each step stays below ell**2)."""
    points = np.arange(ell, dtype=np.int64)
    values = np.zeros(ell, dtype=np.int64)
    for c in reversed(poly):
        values = (values * points + c) % ell
    return np.flatnonzero(values == 0).tolist()


# --------------------------------------------------------------------------

def _find_modulus(order: int, exponent: int) -> int:
    """Smallest prime = 1 (mod exponent) exceeding 2 sqrt(order)."""
    floor = 2 * isqrt(order) + 1
    ell = exponent + 1
    while ell <= floor or not is_prime(ell):
        ell += exponent
    return ell


def _primitive_root_of_unity(ell: int, m: int) -> int:
    """Element of exact multiplicative order m in GF(ell)."""
    fac = [p for p, _ in factorize(ell - 1)]
    g = 2
    while True:
        if all(pow(g, (ell - 1) // p, ell) != 1 for p in fac):
            break
        g += 1
    lam = pow(g, (ell - 1) // m, ell)
    assert pow(lam, m, ell) == 1
    return lam


@dataclass
class CharacterTable:
    """Exact character table: cyclotomic values indexed by class.

    values[t, c, u] is the coefficient of zeta_m**u in the value of
    character t on class c (m = exponent), as the lift wrote it: the
    multiplicity of that root of unity among the eigenvalues.
    """

    group: GroupTable
    class_reps: list[int]
    class_sizes: list[int]
    exponent: int
    degrees: list[int]
    values: np.ndarray  # (characters, classes, m) int64 coefficients

    @property
    def num_classes(self) -> int:
        return len(self.class_reps)

    def degree_multiset(self) -> DegreeMultiset:
        return DegreeMultiset.from_degrees(self.degrees)

    def _folded_products(self, left: np.ndarray, right: np.ndarray,
                         weights: np.ndarray) -> np.ndarray:
        """R[s, t, u] = sum_c w_c * sum_{a+b = u mod m} left[s,c,a] right[t,c,b].

        Computed in float64 matrix products, which are exact because every
        term is non-negative and the largest sum is below 2**53.
        """
        if (left < 0).any() or (right < 0).any():
            raise AssertionError("folded products need non-negative coefficients")
        bound = (int(weights.sum()) * int(left.sum(axis=2).max())
                 * int(right.sum(axis=2).max()))
        if bound >= 2**53:
            raise AssertionError("folded products would not be exact in float64")
        s_count, k, m = left.shape
        t_count = right.shape[0]
        lw = (left * weights[np.newaxis, :, np.newaxis]).astype(np.float64)
        lw = lw.reshape(s_count, k * m)
        out = np.zeros((s_count, t_count, m), dtype=np.int64)
        for u in range(m):
            rot = right[:, :, (u - np.arange(m)) % m].astype(np.float64)
            out[:, :, u] = np.rint(lw @ rot.reshape(t_count, k * m).T).astype(np.int64)
        return out

    def _verify_against(self, sums: np.ndarray, targets: np.ndarray) -> bool:
        """Reduce length-m sums modulo the cyclotomic polynomial and compare
        with rational-integer targets."""
        reduced = sums @ reduction_matrix(self.exponent)
        expect = np.zeros_like(reduced)
        expect[..., 0] = targets
        return bool((reduced == expect).all())

    def verify_row_orthogonality(self) -> bool:
        """sum_c |C_c| chi_s(g_c) conj(chi_t(g_c)) = delta_st |G|, exactly."""
        conj = self.values[:, :, (-np.arange(self.exponent)) % self.exponent]
        weights = np.array(self.class_sizes, dtype=np.int64)
        sums = self._folded_products(self.values, conj, weights)
        targets = self.group.order * np.eye(len(self.values), dtype=np.int64)
        return self._verify_against(sums, targets)

    def verify_column_orthogonality(self) -> bool:
        """sum_t chi_t(g_i) conj(chi_t(g_j)) = delta_ij |G| / |C_i|, exactly."""
        k, m = self.num_classes, self.exponent
        left = np.transpose(self.values, (1, 0, 2))
        conj = self.values[:, :, (-np.arange(m)) % m]
        right = np.transpose(conj, (1, 0, 2))
        weights = np.ones(len(self.values), dtype=np.int64)
        sums = self._folded_products(left, right, weights)
        sizes = np.array(self.class_sizes, dtype=np.int64)
        targets = np.where(np.eye(k, dtype=bool), self.group.order // sizes, 0)
        return self._verify_against(sums, targets)

    def nonzero_class_counts(self) -> list[int]:
        reduced = self.values @ reduction_matrix(self.exponent)
        return [int(count) for count in (reduced != 0).any(axis=2).sum(axis=1)]


def _class_matrix(group: GroupTable, classes, class_of: np.ndarray, i: int,
                  ell: int) -> np.ndarray:
    """Matrix of the i-th class sum acting on central characters:
    entry (j, l) counts the x in C_i with x^-1 z_l in C_j, that is the pairs
    (x in C_i, y in C_j) with x y = z_l for the representative z_l of C_l."""
    k = len(classes)
    reps = [c[0] for c in classes]
    hits = class_of[group.table[np.ix_(group.inverses[classes[i]], reps)]]
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (hits, np.arange(k)), 1)
    return counts % ell


def dixon_character_table(group: GroupTable) -> CharacterTable:
    if group.order > DIXON_MAX_ORDER:
        raise ResourceLimitError(
            f"character tables limited to order {DIXON_MAX_ORDER}")
    classes = group.conjugacy_classes()
    class_of = group.class_of()
    k = len(classes)
    sizes = [len(c) for c in classes]
    reps = [c[0] for c in classes]
    m = group.exponent()
    ell = _find_modulus(group.order, m)

    # simultaneous eigenvectors of the class matrices
    blocks = [_echelon_columns(np.eye(k, dtype=np.int64), ell)]
    for i in range(1, k):
        if all(b.shape[1] == 1 for b, _ in blocks):
            break
        mat = _class_matrix(group, classes, class_of, i, ell)
        new_blocks = []
        for basis, pivots in blocks:
            dim = basis.shape[1]
            if dim == 1:
                new_blocks.append((basis, pivots))
                continue
            action = (mat @ basis % ell)[pivots, :] % ell
            mp = _minpoly(action, ell)
            eigs = _roots(mp, ell)
            total = 0
            for c in eigs:
                ker = _kernel((action - c * np.eye(dim, dtype=np.int64)) % ell, ell)
                total += ker.shape[1]
                sub = basis @ ker % ell
                new_blocks.append(_echelon_columns(sub, ell))
            if total != dim:
                raise AssertionError("class matrix failed to diagonalize")
        blocks = new_blocks
    if any(b.shape[1] != 1 for b, _ in blocks):
        raise AssertionError("central characters not fully separated")

    omegas = []
    for basis, _ in blocks:
        w = basis[:, 0] % ell
        if w[0] == 0:
            raise AssertionError("central character vanishes at the identity")
        omegas.append(w * pow(int(w[0]), -1, ell) % ell)

    # degrees from the averaged norm of each central character
    inv_class = [class_of[group.inverse(rep)] for rep in reps]
    size_inv = [pow(s, -1, ell) for s in sizes]
    degrees = []
    sqrt_cap = isqrt(group.order)
    for w in omegas:
        s = sum(int(w[i]) * int(w[inv_class[i]]) * size_inv[i] for i in range(k)) % ell
        x = group.order * pow(s, -1, ell) % ell
        d = next((d for d in range(1, sqrt_cap + 1) if d * d % ell == x), None)
        if d is None:
            raise AssertionError("no integer degree matches the modular image")
        degrees.append(d)
    if sum(d * d for d in degrees) != group.order:
        raise AssertionError("degree squares do not sum to the group order")

    # modular character values X[t][j] = d_t * omega_t[j] / |C_j|
    values_mod = (np.array(degrees, dtype=np.int64)[:, np.newaxis] * np.array(omegas)
                  % ell * np.array(size_inv, dtype=np.int64) % ell)

    # power maps: class of rep_j ** v for v = 0..m-1
    power_class = np.zeros((k, m), dtype=np.int64)
    powers = np.zeros(k, dtype=np.intp)
    for v in range(m):
        power_class[:, v] = class_of[powers]
        powers = group.table[powers, reps]

    # lifting: c_u = (1/m) sum_v X(g^v) lambda^(-uv) are the root multiplicities
    lam = _primitive_root_of_unity(ell, m)
    lam_inv_pows = [pow(pow(lam, -1, ell), u, ell) for u in range(m)]
    m_inv = pow(m, -1, ell)
    transform = np.array(
        [[lam_inv_pows[(u * v) % m] for u in range(m)] for v in range(m)],
        dtype=np.int64,
    ) * m_inv % ell

    # float64 products are exact: every sum is below m * (ell - 1)**2
    if m * (ell - 1) ** 2 >= 2**53:
        raise AssertionError("lift products would not be exact in float64")
    transform = transform.astype(np.float64)
    values = np.zeros((k, k, m), dtype=np.int64)
    for t in range(k):
        # values_mod[t][power_class] is (k, m): the value at the class of g_j^v
        values[t] = values_mod[t][power_class].astype(np.float64) @ transform % ell
        if (values[t] > degrees[t]).any():
            raise AssertionError("lifted multiplicities exceed the degree")

    order_rows = sorted(range(k), key=lambda t: (degrees[t], values[t].tolist()))
    table = CharacterTable(
        group=group,
        class_reps=reps,
        class_sizes=sizes,
        exponent=m,
        degrees=[degrees[t] for t in order_rows],
        values=values[order_rows],
    )
    for d in table.degrees:
        if group.order % d:
            raise AssertionError(f"degree {d} does not divide the group order")
    if not table.verify_row_orthogonality():
        raise AssertionError("row orthogonality failed")
    if not table.verify_column_orthogonality():
        raise AssertionError("column orthogonality failed")
    return table
