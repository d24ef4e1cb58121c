"""Exact character tables by the modular eigenvector method, on Python
integers modulo primes that split completely in Q(zeta_m).

The class-sum multiplication constants give commuting matrices whose common
eigenvectors are the central characters.  They and the power maps read the
group's products only as the columns x -> x z of the class representatives
z, so no order-squared table is built.  Working over GF(ell) with
ell = 1 (mod exponent) and ell > 2 sqrt(|G|) + 1, they are split out of one
vector: the unit vector e_0 at the identity class is sum_t (d_t**2/|G|) w_t,
and no coefficient vanishes mod ell.  For each class matrix M, every vector
that M does not fix up to scale is replaced by its projections onto the
eigenspaces of M, read off the Krylov chain v, Mv, ... up to its first
dependency f(M) v = 0.  The roots of f are found by evaluating it at every
point of GF(ell), so no step is randomized.  Degrees are recovered from the
second orthogonality averages (they are small integers, so the modular image
pins them down), and the character values are lifted to exact cyclotomic
integers by inverting the power-map transform one rational class at a time:
a class of order o reads only its first o powers, through an o x o
transform, and the classes of its Galois conjugates g**u are written from
its coefficients by the exponent permutation u.  The lifted coefficients
are the multiplicities of the m-th roots of unity among the eigenvalues, so
each lies in 0..d for the degree d; the lift refuses a residue above d.

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
returned, from one evaluation of the table per build.

Sums of many products modulo a prime are formed on packed integers: a
vector of residues is one integer with a fixed number of bytes per entry,
wide enough for the whole sum, so a multiple of one vector is added to
another by one integer multiply-add, and each entry is reduced once at the
end.
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter
from math import gcd, isqrt, lcm
from operator import mul

from ..degrees import DegreeMultiset
from ..errors import ResourceLimitError
from ..exactmath import factorize, is_prime
from .table import MAX_ELEMENTS, GroupTable

_flat = itertools.chain.from_iterable


# --------------------------------------------------------------------------
# arithmetic modulo a prime

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


def _root_powers(p: int, m: int) -> list[int]:
    """lam**i mod p for i = 0..m-1, where lam = g**((p-1)/m) has order m for
    the least primitive root g mod p."""
    fac = [q for q, _ in factorize(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in fac))
    lam = pow(g, (p - 1) // m, p)
    powers = [1]
    for _ in range(m - 1):
        powers.append(powers[-1] * lam % p)
    return powers


def _width(terms: int, modulus: int) -> int:
    """Bytes per packed entry, a multiple of 8, that hold one residue plus a
    sum of `terms` products of two residues mod `modulus`."""
    return 8 * -(-(terms * (modulus - 1) ** 2 + modulus).bit_length() // 64)


def _pack(residues, width: int) -> int:
    """The integer whose i-th `width`-byte entry is residues[i] (each >= 0)."""
    if width == 8:
        data = struct.pack(f"<{len(residues)}Q", *residues)
    else:
        data = b"".join(x.to_bytes(width, "little") for x in residues)
    return int.from_bytes(data, "little")


def _unpack(packed: int, count: int, width: int, modulus: int) -> list[int]:
    """The first `count` entries of a packed integer, each reduced mod modulus."""
    data = packed.to_bytes(count * width, "little")
    if width == 8:
        return [x % modulus for x in struct.unpack(f"<{count}Q", data)]
    return [int.from_bytes(data[i:i + width], "little") % modulus
            for i in range(0, len(data), width)]


def _roots(poly, ell: int) -> list[int]:
    """The roots of a polynomial in GF(ell), constant term first, ascending,
    found by evaluating it at every point (Horner)."""
    values = [0] * ell
    for c in reversed(poly):
        values = [(v * x + c) % ell for x, v in enumerate(values)]
    return [x for x, v in enumerate(values) if v == 0]


def _apply(mat: list[int], v: list[int], ell: int) -> list[int]:
    """mat v mod ell, for a k x k matrix stored as its packed columns of
    residues, each _width(k, ell) bytes an entry."""
    k = len(v)
    return _unpack(sum(map(mul, v, mat)), k, _width(k, ell), ell)


def _krylov(mat, v: list[int], ell: int) -> tuple[list[list[int]], list[int]]:
    """The chain v, Mv, ..., M**(d-1) v up to its first dependency, and the
    monic f of degree d with f(M) v = 0, constant term first.  Each new
    vector is reduced by an echelon basis of the chain so far whose packed
    rows carry their coefficients on the chain after the k entries, with 1
    at their pivot; the first vector that reduces to zero spells out f."""
    k = len(v)
    # a row starts below ell and gains one product per basis row (< k)
    width = _width(k, ell)
    shift = 8 * width
    mask = (1 << shift) - 1
    chain, basis = [v], []  # basis: (pivot, packed row)
    while True:
        size = k + len(chain)
        row = _pack(chain[-1] + [0] * (len(chain) - 1) + [1], width)
        for pivot, b in basis:
            c = (row >> shift * pivot & mask) % ell
            if c:
                row += (ell - c) * b
        row = _unpack(row, size, width, ell)
        pivot = next((i for i in range(k) if row[i]), None)
        if pivot is None:
            return chain[:-1], row[k:]
        scale = pow(row[pivot], -1, ell)
        basis.append((pivot, _pack([x * scale % ell for x in row], width)))
        chain.append(_apply(mat, chain[-1], ell))


def _split(vectors: list[list[int]], mat, ell: int) -> list[list[int]]:
    """Each vector that mat does not fix up to scale, replaced by its
    projections (f/(x - c))(M) v onto the eigenspaces of mat, one per root c
    of its annihilator f.  The scale of each projection is free: the
    central characters are normalised at the identity at the end."""
    fixed, out = [], []
    for v in vectors:
        image = _apply(mat, v, ell)
        lead = next(i for i, x in enumerate(v) if x)
        a, b = v[lead], image[lead]
        if [y * a % ell for y in image] == [x * b % ell for x in v]:
            fixed.append(v)
            continue
        chain, f = _krylov(mat, v, ell)
        roots = _roots(f, ell)
        if len(roots) != len(f) - 1:
            raise AssertionError("class matrix has no distinct eigenvalues in GF(ell)")
        width = _width(len(chain), ell)
        packed = [_pack(u, width) for u in chain]
        for c in roots:
            # f / (x - c) by synthetic division, top coefficient first
            quo = [1]
            for j in range(len(f) - 2, 0, -1):
                quo.append((f[j] + c * quo[-1]) % ell)
            total = sum(map(mul, reversed(quo), packed))
            out.append(_unpack(total, len(v), width, ell))
    return fixed + out


# --------------------------------------------------------------------------

class NotGaloisStable(AssertionError):
    """The values are not permuted by the Galois action as the power maps
    permute the classes, so they are no character table."""


class CharacterTable:
    """Exact character table: cyclotomic values indexed by class.

    values[t][c] maps each exponent u in 0..m-1 (m = exponent) to the
    coefficient of zeta_m**u in the value of character t on class c, as the
    lift wrote it: the multiplicity of that root of unity among the
    eigenvalues.  An exponent it leaves out has coefficient 0.  galois[j][c]
    is the class of g_c**u for the j-th unit u mod m in ascending order, so
    galois[-1] maps each class to its inverse class.  `evaluated` is the
    evaluations() on which dixon_character_table checked both relations.
    Assigning any other field drops it to None; a caller that edits the
    values in place sets it to None, so that they are evaluated again.
    Two tables are equal when every field is.
    """

    __slots__ = ("group", "class_reps", "class_sizes", "exponent", "degrees",
                 "values", "galois", "evaluated")

    def __init__(self, group: GroupTable, class_reps: list[int], class_sizes: list[int],
                 exponent: int, degrees: list[int], values: list[list[dict[int, int]]],
                 galois: list[list[int]],
                 evaluated: tuple[int, list[list[int]]] | None = None):
        self.group, self.class_reps, self.class_sizes = group, class_reps, class_sizes
        self.exponent, self.degrees, self.values = exponent, degrees, values
        self.galois = galois
        self.evaluated = evaluated

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name != "evaluated":
            object.__setattr__(self, "evaluated", None)

    def __eq__(self, other):
        if type(other) is not CharacterTable:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        # evaluated is derived from the other fields, so it is left out
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__[:-1])
        return f"CharacterTable({shown})"

    @property
    def num_classes(self) -> int:
        return len(self.class_reps)

    def degree_multiset(self) -> DegreeMultiset:
        return DegreeMultiset.from_degrees(self.degrees)

    def evaluations(self) -> tuple[int, list[list[int]]]:
        """(p, ev) with ev[t][c] the value of character t on class c at one
        primitive m-th root of unity lambda mod p.  The value at the j-th
        primitive root lambda**u (u the j-th unit, ascending) is
        ev[t][galois[j][c]], and galois[-1] gives complex conjugation.

        The coefficients must be eigenvalue multiplicities (non-negative,
        at exponents in 0..m-1, summing to the degree; AssertionError
        otherwise, checked first), so |sigma chi(g)| <= chi(1) for every
        conjugate, and B = max(sum |C_c|, rows) max d**2 + |G| bounds each
        conjugate of both orthogonality differences and of every value; for
        a genuine table it is |G| max d**2 + |G|.  p is the least prime
        = 1 (mod m) above B.  The table must then be Galois-stable:
        sigma_u chi(g) = chi(g**u), that is, the multiplicity of zeta**(u i)
        on the class of g**u equals that of zeta**i on the class of g, for
        each generator u of the units mod m, hence for every unit; otherwise
        NotGaloisStable is raised.  Each value reads only the coefficients
        it stores."""
        m, k, values = self.exponent, self.num_classes, self.values
        for d, row in zip(self.degrees, values):
            # every value sums to d >= 1, so it stores some coefficient
            if (list(map(sum, map(dict.values, row))) != [d] * len(row)
                    or min(_flat(map(dict.values, row))) < 0
                    or min(_flat(row)) < 0 or max(_flat(row)) >= m):
                raise AssertionError("coefficients are not eigenvalue multiplicities")
        weight = max(sum(self.class_sizes), len(values))
        p = _split_prime(weight * max(self.degrees) ** 2 + self.group.order, m)
        powers, units = _root_powers(p, m), _units(m)
        images = [(u, self.galois[units.index(u)]) for u in _unit_generators(m)]
        ev = []
        for row in values:
            # the nonzero coefficients of the row, zeta**i on class c at c m + i
            flat = {c * m + i: a for c, value in enumerate(row) for i, a in value.items() if a}
            for u, image in images:
                # zeta**i on the class of g goes to zeta**(u i) on the class of g**u
                if {image[key // m] * m + u * key % m: a for key, a in flat.items()} != flat:
                    raise NotGaloisStable(
                        f"values are not Galois-stable under zeta -> zeta**{u}")
            sums = [0] * k
            for key, a in flat.items():
                c, i = divmod(key, m)
                sums[c] += a * powers[i]
            ev.append([x % p for x in sums])
        return p, ev

    def _relation(self, evaluated, columns: bool) -> bool:
        """Row (columns=False) or column orthogonality on the values at one
        root, each row of the product one sum of packed vectors."""
        try:
            p, ev = self.evaluations() if evaluated is None else evaluated
        except NotGaloisStable:
            return False
        conj_class, sizes = self.galois[-1], self.class_sizes
        rows, k = len(ev), self.num_classes
        width = _width(max(rows, k), p)
        if columns:
            # row i: sum_t chi_t(g_i) conj(chi_t), packed over the classes j
            packed = [_pack(list(map(row.__getitem__, conj_class)), width) for row in ev]
            coefficients = list(zip(*ev))
            targets = [self.group.order // size % p for size in sizes]
            count = k
        else:
            # row s: sum_c |C_c| chi_s(g_c) conj(chi_.(g_c)), packed over t
            packed = [_pack([row[j] for row in ev], width) for j in conj_class]
            coefficients = [[size * x % p for size, x in zip(sizes, row)] for row in ev]
            targets = [self.group.order % p] * rows
            count = rows
        for i, (coeffs, target) in enumerate(zip(coefficients, targets)):
            total = sum(map(mul, coeffs, packed))
            expected = [0] * count
            expected[i] = target
            if _unpack(total, count, width, p) != expected:
                return False
        return True

    def verify_row_orthogonality(self, evaluated=None) -> bool:
        """sum_c |C_c| chi_s(g_c) conj(chi_t(g_c)) = delta_st |G|, exactly.
        It is checked at one root: at the root lambda**u, the sum is the
        same sum over the classes permuted by the power map by u, which
        keeps their sizes.  `evaluated` is the (p, ev) of evaluations() on
        the current values; by default they are evaluated here, and a table
        that is not Galois-stable fails."""
        return self._relation(evaluated, columns=False)

    def verify_column_orthogonality(self, evaluated=None) -> bool:
        """sum_t chi_t(g_i) conj(chi_t(g_j)) = delta_ij |G| / |C_i|, exactly,
        checked at one root as for verify_row_orthogonality: at lambda**u
        the relation is that of the pair of classes the power map by u
        sends (i, j) to.  `evaluated` is as for verify_row_orthogonality."""
        return self._relation(evaluated, columns=True)

    def nonzero_class_counts(self, evaluated=None) -> list[int]:
        """Per character, the number of classes where its value is nonzero;
        a value is zero exactly when it vanishes at every primitive root,
        and at the j-th root the values are ev[t][galois[j][c]].
        `evaluated` is as for verify_row_orthogonality."""
        _, ev = self.evaluations() if evaluated is None else evaluated
        conjugates = [sorted({classes[c] for classes in self.galois})
                      for c in range(self.num_classes)]
        return [sum(any(row[j] for j in js) for js in conjugates) for row in ev]


def _class_matrix(inverses: list[int], cols: list[list[int]], members,
                  class_of: list[int], ell: int) -> list[int]:
    """Matrix of the class sum of C_i = members acting on central characters,
    mod ell, as its packed columns (_apply): entry (j, l) counts the x in C_i
    with x^-1 z_l in C_j, that is the pairs (x in C_i, y in C_j) with
    x y = z_l for the representative z_l of C_l, whose product column
    w -> w z_l is cols[l]."""
    shift = 8 * _width(len(cols), ell)
    starts = [inverses[x] for x in members]
    packed = []
    for column in cols:
        counts = Counter(map(class_of.__getitem__, map(column.__getitem__, starts)))
        packed.append(sum(count % ell << shift * j for j, count in counts.items()))
    return packed


def _power_maps(cols: list[list[int]], class_of: list[int]):
    """(power_class, orders): orders[c] is the order o_c of the c-th
    representative g_c, whose product column is cols[c], and
    power_class[c][v] the class of g_c**v for v < o_c."""
    power_class = []
    for column in cols:
        x, classes = 0, []
        while True:
            classes.append(class_of[x])
            x = column[x]
            if x == 0:
                break
        power_class.append(classes)
    return power_class, [len(classes) for classes in power_class]


def _lift(values_mod: list[list[int]], degrees: list[int], power_class, orders,
          ell: int, m: int) -> list[list[dict[int, int]]]:
    """The root multiplicities c_u = (1/m) sum_{v<m} X(g**v) lambda**(-uv)
    of every modular character value X(g), lambda = _root_powers(ell, m)[1],
    as {u: c_u} with the zero ones left out.

    Every eigenvalue of rho(g) is an o-th root of unity for o = ord(g), so
    c_u = 0 unless u = (m/o) w, and then
    c_u = (1/o) sum_{v<o} X(g**v) lambda**(-(m/o) w v).  This is computed
    once per rational class, for its first class c in index order.  For a
    unit u mod o, the class c' of g**u has power_class[c'][v] =
    power_class[c][u v mod o], asserted, so its transform reads the same
    residues and c'_(u w) = c_w: its values are written by that exponent
    permutation.  A genuine c_u is at most the degree; a residue above it
    is refused."""
    root = _root_powers(ell, m)
    values = [[None] * len(orders) for _ in values_mod]
    transforms = {}  # o -> packed rows v of lambda**(-(m/o) w v) / o
    for c, (o, powers) in enumerate(zip(orders, power_class)):
        if values[0][c] is not None:
            continue
        s = m // o
        images = {}  # class of g**u -> u
        for u in _units(o):
            images.setdefault(powers[u % o], u)
        for image, u in images.items():
            if power_class[image] != [powers[u * v % o] for v in range(o)]:
                raise AssertionError("power maps of Galois-conjugate classes disagree")
        if o not in transforms:
            width = _width(o, ell)
            scale = pow(o, -1, ell)
            transforms[o] = width, [_pack([root[-s * w * v % m] * scale % ell
                                           for w in range(o)], width) for v in range(o)]
        width, transform = transforms[o]
        for t, (d, row) in enumerate(zip(degrees, values_mod)):
            x = map(row.__getitem__, powers)  # X(g**v) for v < o
            coeffs = _unpack(sum(map(mul, x, transform)), o, width, ell)
            if max(coeffs) > d:
                raise AssertionError("lifted multiplicity exceeds the degree")
            lifted = {s * w: a for w, a in enumerate(coeffs) if a}
            for image, u in images.items():
                values[t][image] = {u * i % m: a for i, a in lifted.items()}
    return values


def _row_bytes(row: list[dict[int, int]], m: int) -> bytes:
    """The flattened coefficient list of a row (class major, exponent
    minor), one byte per coefficient: a multiplicity is at most the degree,
    at most isqrt(MAX_ELEMENTS) < 256, so the bytes of two rows compare in
    the order of their coefficient lists."""
    out = bytearray(len(row) * m)
    for c, value in enumerate(row):
        for u, a in value.items():
            out[c * m + u] = a
    return bytes(out)


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
    m = lcm(*orders)  # every element is conjugate to a representative
    ell = _split_prime(2 * isqrt(group.order) + 1, m)

    # simultaneous eigenvectors of the class matrices, split out of e_0.
    # Central classes go first: the closure numbers them last, yet a
    # noncentral class matrix is 0 on every character vanishing off the
    # centre, so it cannot split those apart
    vectors = [[1] + [0] * (k - 1)]
    for i in sorted(range(1, k), key=lambda i: sizes[i] > 1):
        if len(vectors) == k:
            break
        mat = _class_matrix(group.inverses, cols, classes[i], class_of, ell)
        vectors = _split(vectors, mat, ell)
    if len(vectors) != k:
        raise AssertionError("central characters not fully separated")
    if not all(v[0] for v in vectors):
        raise AssertionError("central character vanishes at the identity")
    omegas = [[x * scale % ell for x in v] for v in vectors
              for scale in [pow(v[0], -1, ell)]]

    # the last unit is -1, so galois[-1] maps each class to its inverse
    galois = [[powers[u % o] for powers, o in zip(power_class, orders)]
              for u in _units(m)]

    # degrees from the averaged norm of each central character
    size_inv = [pow(s, -1, ell) for s in sizes]
    degrees = []
    sqrt_cap = isqrt(group.order)
    for w in omegas:
        s = sum(x * w[j] * z for x, j, z in zip(w, galois[-1], size_inv)) % ell
        x = group.order * pow(s, -1, ell) % ell
        d = next((d for d in range(1, sqrt_cap + 1) if d * d % ell == x), None)
        if d is None:
            raise AssertionError("no integer degree matches the modular image")
        degrees.append(d)
    if sum(d * d for d in degrees) != group.order:
        raise AssertionError("degree squares do not sum to the group order")

    # modular character values X[t][j] = d_t * omega_t[j] / |C_j|
    values_mod = [[d * x * z % ell for x, z in zip(w, size_inv)]
                  for d, w in zip(degrees, omegas)]

    values = _lift(values_mod, degrees, power_class, orders, ell, m)

    order_rows = sorted(range(k), key=lambda t: (degrees[t], _row_bytes(values[t], m)))
    table = CharacterTable(
        group=group,
        class_reps=reps,
        class_sizes=sizes,
        exponent=m,
        degrees=[degrees[t] for t in order_rows],
        values=[values[t] for t in order_rows],
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
    table.evaluated = evaluated
    return table
