"""Exact character tables by the modular eigenvector method, in int64
arithmetic modulo primes that split completely in Q(zeta_m).

The class-sum multiplication constants give commuting matrices whose common
eigenvectors are the central characters.  They and the power maps read the
group's products only as the columns x -> x z of the class representatives
z, so no order-squared array is built.  Working over GF(ell) with
ell = 1 (mod exponent) and ell > 2 sqrt(|G|) + 1, they are split out of one
vector: the unit vector e_0 at the identity class is sum_t (d_t**2/|G|) w_t,
and no coefficient vanishes mod ell.  For each class matrix M, every vector
that M does not fix up to scale is replaced by its projections onto the
eigenspaces of M, read off the Krylov chain v, Mv, ... up to its first
dependency f(M) v = 0.  The roots of f are found by evaluating it at every
point of GF(ell), so no step is randomized.  Degrees are recovered from the
second orthogonality averages (they are small integers, so the modular image
pins them down), and the character values are lifted to exact cyclotomic
integers by inverting the power-map transform one element order at a time:
a class of order o reads only its first o powers, through an o x o
transform, so the lift costs what the class orders need, not what the
exponent m (the lcm of the representatives' orders) would.  The lifted
coefficients are the multiplicities of the m-th roots of unity among the
eigenvalues, so each lies in 0..d for the degree d <= isqrt(MAX_ELEMENTS)
= 70, and the table stores them as int8; the lift refuses a residue that
does not fit rather than wrap it.

Every later check reads the values through their evaluations at one
primitive m-th root of unity lambda modulo a second prime p = 1 (mod m).
Such a prime splits completely in Z[zeta_m] (Washington, Introduction to
Cyclotomic Fields, Thm 2.13), so a cyclotomic integer alpha that vanishes at
every primitive root has p**phi(m) dividing its norm; if every conjugate of
alpha is at most B < p in absolute value, the norm is below p**phi(m) and
alpha = 0.  The other primitive roots need no evaluation of their own: the
table is first checked to be Galois-stable, sigma_u chi(g) = chi(g**u) for
a generating set of units u mod m, as exact equalities of multiplicities.
Then the value of class c at lambda**u is the value of the class of g_c**u
at lambda, and the power map by u permutes the classes and keeps their
sizes, so an orthogonality relation that holds at lambda holds at every
primitive root.  Both relations are verified this way before a table is
returned, from one evaluation of the table per build.  Every matrix product
is int64 with its bound asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm

import numpy as np

from ..degrees import DegreeMultiset
from ..errors import ResourceLimitError
from ..exactmath import factorize, is_prime
from .table import MAX_ELEMENTS, GroupTable


# --------------------------------------------------------------------------
# arithmetic modulo a prime (numpy int64)

def _assert_int64(terms: int, modulus: int) -> None:
    """A sum of `terms` products of residues mod `modulus` fits in int64."""
    if terms * (modulus - 1) ** 2 >= 2**63:
        raise AssertionError(f"{terms}-term products mod {modulus} overflow int64")


def _split_prime(bound: int, m: int) -> int:
    """Smallest prime p = 1 (mod m) with p > bound."""
    p = bound + 1 + (-bound) % m
    while not is_prime(p):
        p += m
    return p


def _units(m: int) -> list[int]:
    """The units of Z/m in ascending order ([0] for m = 1)."""
    return [u for u in range(m) if gcd(u, m) == 1]


def _unit_generators(m: int) -> list[int]:
    """Units that generate (Z/m)^x: each is the least unit outside the
    subgroup generated by the ones before it."""
    subgroup, gens = {1 % m}, []
    for u in _units(m):
        if u not in subgroup:
            gens.append(u)
            grown, power = set(subgroup), u
            while power not in subgroup:  # one coset subgroup * u**i at a time
                grown |= {x * power % m for x in subgroup}
                power = power * u % m
            subgroup = grown
    return gens


def _root_powers(p: int, m: int) -> np.ndarray:
    """lam**i mod p for i = 0..m-1, where lam = g**((p-1)/m) has order m for
    the least primitive root g mod p."""
    fac = [q for q, _ in factorize(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in fac))
    lam = pow(g, (p - 1) // m, p)
    powers = [1]
    for _ in range(m - 1):
        powers.append(powers[-1] * lam % p)
    return np.array(powers, dtype=np.int64)


def _roots(poly, ell: int) -> list[int]:
    """The roots of a polynomial in GF(ell), ascending, found by evaluating
    it at every point (Horner in int64: each step stays below ell**2)."""
    points = np.arange(ell, dtype=np.int64)
    values = np.zeros(ell, dtype=np.int64)
    for c in reversed(poly):
        values = (values * points + c) % ell
    return np.flatnonzero(values == 0).tolist()


def _krylov(mat: np.ndarray, v: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """The chain v, Mv, ..., M**(d-1) v up to its first dependency, as
    columns, and the monic f of degree d with f(M) v = 0, constant term
    first.  Each new vector joins a reduced echelon basis of the chain so
    far whose rows carry their coefficients on the chain; the first vector
    that reduces to zero spells out f."""
    k = len(v)
    chain = [v]
    basis = np.zeros((0, 2 * k + 1), dtype=np.int64)
    pivots: list[int] = []
    while True:
        row = np.zeros(2 * k + 1, dtype=np.int64)
        row[:k] = chain[-1]
        row[k + len(chain) - 1] = 1
        row = (row - row[pivots] @ basis) % ell
        nonzero = np.flatnonzero(row[:k])
        if not nonzero.size:
            return np.stack(chain[:-1], axis=1), row[k:k + len(chain)]
        p = nonzero[0]
        row = row * pow(int(row[p]), -1, ell) % ell
        basis = np.vstack([(basis - np.outer(basis[:, p], row)) % ell, row])
        pivots.append(p)
        chain.append(mat @ chain[-1] % ell)


def _split(vectors: np.ndarray, mat: np.ndarray, ell: int) -> np.ndarray:
    """Each column of `vectors` that mat does not fix up to scale, replaced
    by its projections (f/(x - c))(M) v onto the eigenspaces of mat, one
    per root c of its annihilator f.  The scale of each projection is free:
    the central characters are normalised at the identity at the end."""
    image = mat @ vectors % ell
    cols = np.arange(vectors.shape[1])
    lead = (vectors != 0).argmax(axis=0)
    cross = image * vectors[lead, cols] - vectors * image[lead, cols]
    fixed = (cross % ell == 0).all(axis=0)
    out = [vectors[:, fixed]]
    for v in vectors[:, ~fixed].T:
        chain, f = _krylov(mat, v, ell)
        roots = np.array(_roots(f, ell), dtype=np.int64)
        if len(roots) != len(f) - 1:
            raise AssertionError("class matrix has no distinct eigenvalues in GF(ell)")
        # f / (x - c) for every root c at once, by synthetic division
        quo = np.zeros((len(roots), len(roots)), dtype=np.int64)
        quo[-1] = 1
        for j in range(len(roots) - 1, 0, -1):
            quo[j - 1] = (f[j] + roots * quo[j]) % ell
        out.append(chain @ quo % ell)
    return np.hstack(out)


# --------------------------------------------------------------------------

class NotGaloisStable(AssertionError):
    """The values are not permuted by the Galois action as the power maps
    permute the classes, so they are no character table."""


@dataclass
class CharacterTable:
    """Exact character table: cyclotomic values indexed by class.

    values[t, c, u] is the coefficient of zeta_m**u in the value of
    character t on class c (m = exponent), as the lift wrote it: the
    multiplicity of that root of unity among the eigenvalues, stored as
    int8 since it is at most the degree; evaluations() reads any integer
    dtype.  galois[j, c] is the class of g_c**u for the j-th unit u mod m
    in ascending order, so galois[-1] maps each class to its inverse class.
    """

    group: GroupTable
    class_reps: list[int]
    class_sizes: list[int]
    exponent: int
    degrees: list[int]
    values: np.ndarray  # (characters, classes, m) int8 multiplicities
    galois: np.ndarray  # (phi(m), classes) power-map classes

    @property
    def num_classes(self) -> int:
        return len(self.class_reps)

    def degree_multiset(self) -> DegreeMultiset:
        return DegreeMultiset.from_degrees(self.degrees)

    def evaluations(self) -> tuple[int, np.ndarray]:
        """(p, ev) with ev[t, c] the value of character t on class c at one
        primitive m-th root of unity lambda mod p.  The value at the j-th
        primitive root lambda**u (u the j-th unit, ascending) is
        ev[:, galois[j]], and ev[:, galois[-1]] is complex conjugation.

        The coefficients must be eigenvalue multiplicities (non-negative,
        summing to the degree), so |sigma chi(g)| <= chi(1) for every
        conjugate, and B = max(sum |C_c|, rows) max d**2 + |G| bounds each
        conjugate of both orthogonality differences and of every value; for
        a genuine table it is |G| max d**2 + |G|.  p is the least prime
        = 1 (mod m) above B.  The table must then be Galois-stable:
        sigma_u chi(g) = chi(g**u), that is, the multiplicity of zeta**(u i)
        on the class of g**u equals that of zeta**i on the class of g, for
        each generator u of the units mod m, hence for every unit; otherwise
        NotGaloisStable is raised.  Classes are evaluated one element order
        at a time, each on the only coefficients that can be nonzero there."""
        values, m = self.values, self.exponent
        if (values < 0).any() or (values.sum(axis=2)
                                  != np.array(self.degrees)[:, np.newaxis]).any():
            raise AssertionError("coefficients are not eigenvalue multiplicities")
        rows, k = values.shape[:2]
        weight = max(sum(self.class_sizes), rows)
        p = _split_prime(weight * max(self.degrees) ** 2 + self.group.order, m)
        # the relations sum over rows or classes; one value is at most
        # d * (p - 1) < (p - 1)**2, since d**2 < B < p
        _assert_int64(max(rows, k), p)
        units = _units(m)
        for u in _unit_generators(m):
            # moved[t, c, i] = values[t, galois[u][c], u i], by two gathers:
            # one index over both axes would broadcast to (classes, m) intp
            moved = values[:, self.galois[units.index(u)]][:, :, np.arange(m) * u % m]
            if not np.array_equal(moved, values):
                raise NotGaloisStable(f"values are not Galois-stable under zeta -> zeta**{u}")
        powers = _root_powers(p, m)
        # a class whose coefficients vanish off the multiples of s reads only
        # those; for a genuine table s = m/o on a class of order o, since
        # the regular character there has every o-th root as an eigenvalue
        support = values.any(axis=0)
        steps = np.array([gcd(m, *np.flatnonzero(row).tolist()) for row in support])
        ev = np.empty((rows, k), dtype=np.int64)
        for s in set(steps.tolist()):
            cls = np.flatnonzero(steps == s)
            # einsum casts the int8 block to int64 in buffered chunks; @
            # would cast the whole block first
            ev[:, cls] = np.einsum("tci,i->tc", values[:, cls, ::s], powers[::s]) % p
        return p, ev

    def verify_row_orthogonality(self, evaluated=None) -> bool:
        """sum_c |C_c| chi_s(g_c) conj(chi_t(g_c)) = delta_st |G|, exactly.
        It is checked at one root: at the root lambda**u, the sum is the
        same sum over the classes permuted by the power map by u, which
        keeps their sizes.  `evaluated` is the (p, ev) of evaluations() on
        the current values; by default they are evaluated here, and a table
        that is not Galois-stable fails."""
        try:
            p, ev = self.evaluations() if evaluated is None else evaluated
        except NotGaloisStable:
            return False
        sizes = np.array(self.class_sizes, dtype=np.int64)
        targets = self.group.order % p * np.eye(len(self.values), dtype=np.int64)
        conj = ev[:, self.galois[-1]]
        return bool(((ev * sizes % p) @ conj.T % p == targets).all())

    def verify_column_orthogonality(self, evaluated=None) -> bool:
        """sum_t chi_t(g_i) conj(chi_t(g_j)) = delta_ij |G| / |C_i|, exactly,
        checked at one root as for verify_row_orthogonality: at lambda**u
        the relation is that of the pair of classes the power map by u
        sends (i, j) to.  `evaluated` is as for verify_row_orthogonality."""
        try:
            p, ev = self.evaluations() if evaluated is None else evaluated
        except NotGaloisStable:
            return False
        sizes = np.array(self.class_sizes, dtype=np.int64)
        targets = np.where(np.eye(self.num_classes, dtype=bool),
                           self.group.order // sizes, 0) % p
        conj = ev[:, self.galois[-1]]
        return bool((ev.T @ conj % p == targets).all())

    def nonzero_class_counts(self) -> list[int]:
        """Per character, the number of classes where its value is nonzero;
        a value is zero exactly when it vanishes at every primitive root,
        and at the j-th root the values are ev[:, galois[j]]."""
        _, ev = self.evaluations()
        nonzero = ev != 0
        anywhere = np.zeros_like(nonzero)
        for classes in self.galois:
            anywhere |= nonzero[:, classes]
        return anywhere.sum(axis=1).tolist()


def _class_matrix(inverses: np.ndarray, cols: np.ndarray, members, class_of: np.ndarray,
                  ell: int) -> np.ndarray:
    """Matrix of the class sum of C_i = members acting on central characters:
    entry (j, l) counts the x in C_i with x^-1 z_l in C_j, that is the pairs
    (x in C_i, y in C_j) with x y = z_l for the representative z_l of C_l,
    whose product column w -> w z_l is cols[:, l]."""
    k = cols.shape[1]
    hits = class_of[cols[inverses[members]]]
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (hits, np.arange(k)), 1)
    return counts % ell


def _power_maps(cols: np.ndarray, class_of: np.ndarray):
    """(power_class, orders): orders[c] is the order o_c of the c-th
    representative g_c, whose product column is cols[:, c], and
    power_class[c, v] the class of g_c**v for v < o_c, from one walk up to
    the largest o_c."""
    k = cols.shape[1]
    orders = np.zeros(k, dtype=np.int64)
    columns = []
    powers = np.zeros(k, dtype=np.intp)
    while not orders.all():
        columns.append(class_of[powers])
        powers = cols[powers, np.arange(k)]
        orders[(powers == 0) & (orders == 0)] = len(columns)
    return np.stack(columns, axis=1), orders


def _lift(values_mod: np.ndarray, power_class: np.ndarray, orders: np.ndarray,
          ell: int, m: int) -> np.ndarray:
    """The root multiplicities c_u = (1/m) sum_{v<m} X(g**v) lambda**(-uv)
    of every modular character value X(g), lambda = _root_powers(ell, m)[1],
    as int8.

    Every eigenvalue of rho(g) is an o-th root of unity for o = ord(g), so
    c_u = 0 unless u = (m/o) w, and then
    c_u = (1/o) sum_{v<o} X(g**v) lambda**(-(m/o) w v): one (rows, o) @ (o, o)
    transform per class of order o, written at every (m/o)-th u.  A genuine
    c_u is at most the degree, at most isqrt(MAX_ELEMENTS) < 128; a residue
    that does not fit int8 is refused rather than wrapped."""
    k = len(values_mod)
    root = _root_powers(ell, m)
    values = np.zeros((k, len(orders), m), dtype=np.int8)
    for o in sorted(set(orders.tolist())):
        exps = np.arange(o)
        transform = root[-np.outer(exps, exps) * (m // o) % m] * pow(o, -1, ell) % ell
        for c in np.flatnonzero(orders == o):
            block = values_mod[:, power_class[c, :o]] @ transform
            block %= ell
            if block.max() > np.iinfo(np.int8).max:
                raise AssertionError("lifted multiplicity does not fit int8")
            values[:, c, ::m // o] = block
    return values


def dixon_character_table(group: GroupTable) -> CharacterTable:
    if group.order > MAX_ELEMENTS:
        raise ResourceLimitError(f"character tables limited to order {MAX_ELEMENTS}")
    classes = group.conjugacy_classes()
    class_of = group.class_of()
    k = len(classes)
    sizes = [len(c) for c in classes]
    reps = [c[0] for c in classes]
    cols = group.product_columns(reps)
    power_class, orders = _power_maps(cols, class_of)
    m = lcm(*orders.tolist())  # every element is conjugate to a representative
    ell = _split_prime(2 * isqrt(group.order) + 1, m)
    _assert_int64(max(k, m), ell)

    # simultaneous eigenvectors of the class matrices, split out of e_0.
    # Central classes go first: the closure numbers them last, yet a
    # noncentral class matrix is 0 on every character vanishing off the
    # centre, so it cannot split those apart
    vectors = np.eye(k, 1, dtype=np.int64)
    for i in sorted(range(1, k), key=lambda i: sizes[i] > 1):
        if vectors.shape[1] == k:
            break
        mat = _class_matrix(group.inverses, cols, classes[i], class_of, ell)
        vectors = _split(vectors, mat, ell)
    if vectors.shape[1] != k:
        raise AssertionError("central characters not fully separated")
    if not vectors[0].all():
        raise AssertionError("central character vanishes at the identity")
    scale = np.array([pow(int(w), -1, ell) for w in vectors[0]], dtype=np.int64)
    omegas = (vectors * scale % ell).T

    # the last unit is -1, so galois[-1] maps each class to its inverse
    units = np.array(_units(m))
    galois = power_class[np.arange(k), units[:, np.newaxis] % orders]

    # degrees from the averaged norm of each central character
    size_inv = np.array([pow(s, -1, ell) for s in sizes], dtype=np.int64)
    norms = (omegas * omegas[:, galois[-1]] % ell * size_inv % ell).sum(axis=1) % ell
    degrees = []
    sqrt_cap = isqrt(group.order)
    for s in norms.tolist():
        x = group.order * pow(s, -1, ell) % ell
        d = next((d for d in range(1, sqrt_cap + 1) if d * d % ell == x), None)
        if d is None:
            raise AssertionError("no integer degree matches the modular image")
        degrees.append(d)
    if sum(d * d for d in degrees) != group.order:
        raise AssertionError("degree squares do not sum to the group order")

    # modular character values X[t][j] = d_t * omega_t[j] / |C_j|
    values_mod = (np.array(degrees, dtype=np.int64)[:, np.newaxis] * omegas % ell
                  * size_inv % ell)

    values = _lift(values_mod, power_class, orders, ell, m)
    if (values.sum(axis=2) != np.array(degrees)[:, np.newaxis]).any():
        raise AssertionError("lifted multiplicities do not sum to the degree")

    # the bytes of a C-contiguous row of coefficients in 0..127 compare in
    # the order of its flattened values
    order_rows = sorted(range(k), key=lambda t: (degrees[t], values[t].tobytes()))
    table = CharacterTable(
        group=group,
        class_reps=reps,
        class_sizes=sizes,
        exponent=m,
        degrees=[degrees[t] for t in order_rows],
        values=values[order_rows],
        galois=galois,
    )
    for d in table.degrees:
        if group.order % d:
            raise AssertionError(f"degree {d} does not divide the group order")
    evaluated = table.evaluations()
    if not table.verify_row_orthogonality(evaluated):
        raise AssertionError("row orthogonality failed")
    if not table.verify_column_orthogonality(evaluated):
        raise AssertionError("column orthogonality failed")
    return table
