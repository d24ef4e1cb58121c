"""Order formulas for the finite simple groups of Lie type, Steinberg degrees,
the eighth-power-versus-cube order check, the minimal-torus degree bound, and
the semisimple-centralizer degree calculus over the two-element field.

A centralizer shape records the factorization C = K x GL(k1,e1) x ... of the
centralizer of a semisimple element in SL_n(2), Sp_2n(2), or one of the
even-dimensional orthogonal groups over GF(2); GL factors carry a field
extension exponent d, a dimension k, and a sign (+1 linear, -1 unitary).
The degree of the irreducible character attached to (class, Steinberg of C)
is the odd part of [S : C] times the Steinberg degree of C, and all ratio
bounds are evaluated as exact rationals.  Every order, of a simple group or
of a GF(2) ambient or centralizer factor, is read from one formula per
family (`_order_parts`); St(C) is the 2-part of |C|.  Every shape that a
claim checks, with few factors (part 3) or as a merge situation (part 4),
comes from one deterministic enumerator, `iter_shapes`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, prod
from pathlib import Path
from typing import Iterator

from . import gf2poly
from .errors import ExcludedCaseError
from .exactmath import GREATER, factorize, is_prime_power, p_part, pow_compare, prime_power

FAMILIES = (
    "A", "2A", "B", "C", "D", "2D",
    "G2", "F4", "E6", "2E6", "E7", "E8",
    "2B2", "2G2", "2F4", "3D4",
)

_FIXED_RANK = {"G2": 2, "F4": 4, "E6": 6, "2E6": 6, "E7": 7, "E8": 8,
               "2B2": 2, "2G2": 2, "2F4": 4, "3D4": 4}


def _is_odd_power_of(q: int, p: int) -> bool:
    base, f = prime_power(q)
    return base == p and f % 2 == 1


def not_simple_reason(family: str, rank: int, q: int) -> str | None:
    """Why (family, rank, q) names no finite simple group of Lie type, or
    None when it names one.  Rank-one groups over tiny fields and the like
    are not simple."""
    fam, n = family, rank
    if fam not in FAMILIES:
        return f"unknown family {fam!r}"
    if not is_prime_power(q):
        return f"{q} is not a prime power"
    fixed = _FIXED_RANK.get(fam)
    if fixed is not None and n != fixed:
        return f"{fam} has rank {fixed}, got {n}"
    if fam == "A":
        if n < 1:
            return "type A needs rank >= 1"
        if n == 1 and q in (2, 3):
            return f"A1({q}) is not simple"
    elif fam == "2A":
        if n < 2:
            return "type 2A needs rank >= 2"
        if n == 2 and q == 2:
            return "2A2(2) is not simple"
    elif fam in ("B", "C"):
        if n < 2:
            return f"type {fam} needs rank >= 2"
        if n == 2 and q == 2:
            return f"{fam}2(2) is not simple"
    elif fam in ("D", "2D"):
        if n < 4:
            return f"type {fam} needs rank >= 4"
    elif fam == "G2" and q == 2:
        return "G2(2) is not simple"
    elif fam in ("2B2", "2F4"):
        if not _is_odd_power_of(q, 2) or q < 8:
            return f"{fam} needs q an odd power of 2, q >= 8"
    elif fam == "2G2":
        if not _is_odd_power_of(q, 3) or q < 27:
            return "2G2 needs q an odd power of 3, q >= 27"
    return None


@dataclass(frozen=True)
class SimpleGroupId:
    """Symbolic name (family, rank, q) of a finite simple group of Lie type.

    A combination that names no simple group is rejected at construction
    with the reason that `not_simple_reason` gives.
    """

    family: str
    rank: int
    q: int

    def __post_init__(self):
        reason = not_simple_reason(self.family, self.rank, self.q)
        if reason is not None:
            raise ValueError(reason)

    @property
    def characteristic(self) -> int:
        return prime_power(self.q)[0]


def _order_parts(family: str, rank: int, q: int) -> tuple[int, list[int], int]:
    """(q-power part, cyclotomic factors, center order) of the simply
    connected group; the simple group order is the product of the first two
    divided by the third.  Every factor and the center are prime to q, so the
    first part is the p-part of the order.  Ranks that `SimpleGroupId` rejects
    (A0, C1, D1..D3 and the like) give the small classical groups of the
    GF(2) calculus."""
    fam, n = family, rank
    if fam == "A":
        return q ** (n * (n + 1) // 2), [q**i - 1 for i in range(2, n + 2)], \
            gcd(n + 1, q - 1)
    if fam == "2A":
        return q ** (n * (n + 1) // 2), \
            [q**i - (-1) ** i for i in range(2, n + 2)], gcd(n + 1, q + 1)
    if fam in ("B", "C"):
        return q ** (n * n), [q ** (2 * i) - 1 for i in range(1, n + 1)], gcd(2, q - 1)
    if fam == "D":
        return q ** (n * (n - 1)), \
            [q**n - 1] + [q ** (2 * i) - 1 for i in range(1, n)], gcd(4, q**n - 1)
    if fam == "2D":
        return q ** (n * (n - 1)), \
            [q**n + 1] + [q ** (2 * i) - 1 for i in range(1, n)], gcd(4, q**n + 1)
    if fam == "G2":
        return q**6, [q**6 - 1, q**2 - 1], 1
    if fam == "F4":
        return q**24, [q**12 - 1, q**8 - 1, q**6 - 1, q**2 - 1], 1
    if fam == "E6":
        return q**36, [q**12 - 1, q**9 - 1, q**8 - 1, q**6 - 1, q**5 - 1, q**2 - 1], \
            gcd(3, q - 1)
    if fam == "2E6":
        return q**36, [q**12 - 1, q**9 + 1, q**8 - 1, q**6 - 1, q**5 + 1, q**2 - 1], \
            gcd(3, q + 1)
    if fam == "E7":
        return q**63, [q**18 - 1, q**14 - 1, q**12 - 1, q**10 - 1, q**8 - 1,
                       q**6 - 1, q**2 - 1], gcd(2, q - 1)
    if fam == "E8":
        return q**120, [q**30 - 1, q**24 - 1, q**20 - 1, q**18 - 1, q**14 - 1,
                        q**12 - 1, q**8 - 1, q**2 - 1], 1
    if fam == "2B2":
        return q**2, [q**2 + 1, q - 1], 1
    if fam == "2G2":
        return q**3, [q**3 + 1, q - 1], 1
    if fam == "2F4":
        return q**12, [q**6 + 1, q**4 - 1, q**3 + 1, q - 1], 1
    if fam == "3D4":
        return q**12, [q**8 + q**4 + 1, q**6 - 1, q**2 - 1], 1
    raise AssertionError(fam)


def _simply_connected(family: str, rank: int, q: int) -> int:
    qpart, factors, _ = _order_parts(family, rank, q)
    return qpart * prod(factors)


def simply_connected_order(gid: SimpleGroupId) -> int:
    return _simply_connected(gid.family, gid.rank, gid.q)


def simple_order(gid: SimpleGroupId) -> int:
    qpart, factors, center = _order_parts(gid.family, gid.rank, gid.q)
    total = qpart * prod(factors)
    if total % center:
        raise AssertionError("center does not divide the group order")
    return total // center


def steinberg_degree(gid: SimpleGroupId) -> int:
    """Degree of the Steinberg character: the q-power part of the order."""
    return _order_parts(gid.family, gid.rank, gid.q)[0]


def verify_lie_38(gid: SimpleGroupId) -> bool:
    """Whether St(1)**8 > |S|**3, the exact form of St(1) > |S|**(3/8).

    The rank-one linear groups are excluded: their largest degree is only
    about the cube root of the order, so the inequality genuinely fails
    there and they are handled by separate arguments.
    """
    if gid.family == "A" and gid.rank == 1:
        raise ExcludedCaseError("rank-one type A is excluded from this check")
    return pow_compare(steinberg_degree(gid), 8, simple_order(gid), 3) == GREATER


def prime_powers_up_to(limit: int) -> list[int]:
    """Every prime power q <= limit, ascending."""
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


def iter_simple_ids(max_rank: int, q_limit: int) -> Iterator[SimpleGroupId]:
    """Every valid id with rank <= max_rank and q <= q_limit, deterministically."""
    qs = prime_powers_up_to(q_limit)
    for fam in FAMILIES:
        fixed = _FIXED_RANK.get(fam)
        ranks = [fixed] if fixed is not None else range(1, max_rank + 1)
        for n in ranks:
            if n > max_rank:
                continue
            for q in qs:
                if not_simple_reason(fam, n, q) is None:
                    yield SimpleGroupId(fam, n, q)


# ---------------------------------------------------------------------------
# Minimal-torus degree bound for the high-rank classical groups over GF(3)
# and GF(2) left open by low-rank degree tables.

SEITZ_UNTWISTED = {
    "A": (3, range(8, 14)),    # PSL_n(3), 9 <= n <= 14 (rank n-1)
    "B": (3, range(9, 18)),    # Omega_{2n+1}(3), 9 <= n <= 17
    "C": (3, range(9, 18)),    # PSp_{2n}(3), 9 <= n <= 17
    "D": (3, range(9, 31)),    # POmega+_{2n}(3), 9 <= n <= 30
}
SEITZ_TWISTED = {
    "2A": (2, range(8, 14)),   # PSU_n(2), 9 <= n <= 14 (rank n-1)
    "2D": (3, range(9, 31)),   # POmega-_{2n}(3), 9 <= n <= 30
}


def seitz_ids(twisted: bool = False) -> list[SimpleGroupId]:
    table = SEITZ_TWISTED if twisted else SEITZ_UNTWISTED
    out = []
    for fam, (q, ranks) in table.items():
        out.extend(SimpleGroupId(fam, n, q) for n in ranks)
    return out


@cache  # every rank over one q reads the entries of the smaller ranks
def _least_cycle_product(q: int, n: int, signed: bool, odd: bool) -> int | None:
    """The least product, over the cycles of lengths a summing to n, of
    |q**a - 1| for a positive cycle and |q**a + 1| for a negative one, with
    an odd or even number of negative cycles (none unless signed); None
    when no cycles qualify."""
    if n == 0:
        return None if odd else 1
    best = None
    for a in range(1, n + 1):
        for negative in ((False, True) if signed else (False,)):
            rest = _least_cycle_product(q, n - a, signed, odd != negative)
            if rest is not None:
                value = abs(q**a - (-1) ** negative) * rest
                best = value if best is None else min(best, value)
    return best


def minimal_torus_order(gid: SimpleGroupId) -> int:
    """The least order |T^F| of a maximal torus of the simply connected
    group of a classical family.  A cycle of length a contributes q**a - 1
    for A, over the partitions of rank + 1, then divided by q - 1; for 2A
    the same at -q, that is q**a - (-1)**a, then divided by q + 1.  For B,
    C, D and 2D, over the signed partitions of the rank, a positive cycle
    contributes q**a - 1 and a negative one q**a + 1, with an even number
    of negative cycles for D and an odd number for 2D."""
    fam, n, q = gid.family, gid.rank, gid.q
    if fam in ("A", "2A"):
        q = q if fam == "A" else -q
        return _least_cycle_product(q, n + 1, False, False) // abs(q - 1)
    if fam in ("B", "C"):
        return min(_least_cycle_product(q, n, True, odd) for odd in (False, True))
    if fam in ("D", "2D"):
        return _least_cycle_product(q, n, True, fam == "2D")
    raise ValueError(f"{fam} is not a classical family")


@dataclass(frozen=True)
class SeitzReport:
    gid: SimpleGroupId
    torus_order: int
    bound: int
    passes_2b2: bool


def seitz_check(gid: SimpleGroupId) -> SeitzReport:
    """Bound the largest degree by the odd part of the index of a maximal
    torus of least order (`minimal_torus_order`) in the simply connected
    group, and test order > 2 * bound**2."""
    if not any(gid.family == f and gid.q == q and gid.rank in r
               for f, (q, r) in (*SEITZ_UNTWISTED.items(), *SEITZ_TWISTED.items())):
        raise ValueError(f"{gid} is not in the supported torus-bound list")
    torus_order = minimal_torus_order(gid)
    sc = simply_connected_order(gid)
    if sc % torus_order:
        raise ValueError(f"torus order {torus_order} does not divide the group order")
    quotient = sc // torus_order
    bound = quotient // p_part(quotient, gid.characteristic)
    order = simple_order(gid)
    return SeitzReport(gid, torus_order, bound, order > 2 * bound * bound)


# no claim reads a torus table; kept while `perfbench/tracer.py` wraps it
def load_torus_table(path) -> dict[tuple[str, int, int], int]:
    """Read a torus-order table: a JSON object mapping "family/rank/q" keys,
    rank and q in decimal digits, to orders written as strings of decimal
    digits above 0.  Anything else is refused with a ValueError naming the
    path and, where there is one, the key."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object of family/rank/q keys")
    table = {}
    for key, value in raw.items():
        parts = key.split("/")
        if (len(parts) != 3 or not isinstance(value, str)
                or not all(x.isdecimal() for x in (*parts[1:], value)) or int(value) < 1):
            raise ValueError(f"{path}: key {key!r}: expected a family/rank/q key and "
                             "an order written as a string of decimal digits above 0")
        table[(parts[0], int(parts[1]), int(parts[2]))] = int(value)
    return table


# ---------------------------------------------------------------------------
# Semisimple centralizer shapes over GF(2).

AMBIENTS = ("SL", "Sp", "O+", "O-")


# SL_n, Sp_2n and the orthogonal groups O+-_2n as Lie-type families of rank
# n - 1, n, n, n; their orders at q = 2 are read from `_order_parts`
_AMBIENT_FAMILY = {"SL": "A", "Sp": "C", "O+": "D", "O-": "2D"}


@cache  # a few dozen (d, k, eps) triples, each read for thousands of factors
def gl_order(d: int, k: int, eps: int) -> int:
    """Order of GL_k(2**d) for eps = +1, of the unitary group GU_k(2**d) for
    eps = -1: (2**d - eps) times the order of SL_k or SU_k over GF(2**d)."""
    if d < 1 or k < 1 or eps not in (1, -1):
        raise ValueError("need d >= 1, k >= 1, eps = +-1")
    return ((1 << d) - eps) * _simply_connected("A" if eps == 1 else "2A", k - 1, 1 << d)


@cache  # a handful of (kind, n) pairs, each read for thousands of shapes
def ambient_order(kind: str, n: int) -> int:
    if kind not in _AMBIENT_FAMILY:
        raise ValueError(f"unknown ambient {kind!r}")
    return _simply_connected(_AMBIENT_FAMILY[kind], n - 1 if kind == "SL" else n, 2)


@dataclass(frozen=True)
class ClassicalFactor:
    """One GL-type factor of a semisimple centralizer: GL_k(2**d) when
    eps = +1, the unitary group on k points over GF(2**d) when eps = -1."""

    d: int
    k: int
    eps: int

    def __post_init__(self):
        if self.d < 1 or self.k < 1 or self.eps not in (1, -1):
            raise ValueError(f"bad factor ({self.d}, {self.k}, {self.eps})")

    @property
    def ndim(self) -> int:
        """Contribution to the shape's dimension budget."""
        return self.d * self.k

    @property
    def order(self) -> int:
        return gl_order(self.d, self.k, self.eps)

    @property
    def sign(self) -> int:
        return self.eps**self.k

    def sort_key(self):
        # decreasing d*k, ties by decreasing d, then +1 before -1
        return (-self.ndim, -self.d, -self.eps)


def _canonical(factors) -> tuple[ClassicalFactor, ...]:
    return tuple(sorted(factors, key=ClassicalFactor.sort_key))


@dataclass(frozen=True)
class CentralizerShape:
    """Factor decomposition K x GL-factors of a semisimple centralizer.

    ambient is one of SL, Sp, O+, O- with dimension parameter n (dimension n
    over GF(2) for SL, 2n otherwise); m is the half-dimension of the
    eigenvalue-one block K (0 when absent) and beta its orthogonal sign.
    The dimension budget satisfies m + sum of d*k over factors = n, and for
    orthogonal ambients the factor signs must multiply to the ambient sign.
    """

    ambient: str
    n: int
    m: int
    beta: int | None
    factors: tuple[ClassicalFactor, ...]

    def __post_init__(self):
        if self.ambient not in AMBIENTS:
            raise ValueError(f"unknown ambient {self.ambient!r}")
        minimum = {"SL": 3, "Sp": 2, "O+": 3, "O-": 3}[self.ambient]
        if self.n < minimum:
            raise ValueError(f"{self.ambient} ambient needs n >= {minimum}")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.ambient == "SL":
            if self.m != 0 or self.beta is not None:
                raise ValueError("SL ambient has no eigenvalue-one block")
            if any(f.eps != 1 for f in self.factors):
                raise ValueError("SL ambient admits only linear factors")
        elif self.ambient == "Sp":
            if self.beta is not None:
                raise ValueError("Sp block carries no sign")
        else:
            if self.m == 0 and self.beta is not None:
                raise ValueError("beta requires m >= 1")
            if self.m >= 1 and self.beta not in (1, -1):
                raise ValueError("orthogonal block needs beta = +-1")
            ambient_sign = 1 if self.ambient == "O+" else -1
            block_sign = self.beta if self.m >= 1 else 1
            if block_sign * prod(f.sign for f in self.factors) != ambient_sign:
                raise ValueError("factor signs do not multiply to the ambient sign")
        if self.m + sum(f.ndim for f in self.factors) != self.n:
            raise ValueError("dimension budget m + sum(d*k) != n")
        if sum(1 for f in self.factors if f.d == 1 and f.eps == 1) > 1:
            raise ValueError("a (d, eps) = (1, +) factor may occur at most once")

    def with_factors(self, factors) -> "CentralizerShape":
        return CentralizerShape(self.ambient, self.n, self.m, self.beta,
                                _canonical(factors))


def make_shape(ambient: str, n: int, m: int, beta: int | None,
               factors) -> CentralizerShape:
    """Build a shape with the factors in canonical order."""
    return CentralizerShape(ambient, n, m, beta,
                            _canonical(ClassicalFactor(*f) if isinstance(f, tuple)
                                       else f for f in factors))


def k_factor_order(shape: CentralizerShape) -> int:
    if shape.ambient == "SL" or shape.m == 0:
        return 1
    if shape.ambient == "Sp":
        return ambient_order("Sp", shape.m)
    return ambient_order("O+" if shape.beta == 1 else "O-", shape.m)


def centralizer_order(shape: CentralizerShape) -> int:
    return k_factor_order(shape) * prod(f.order for f in shape.factors)


def shape_ambient_order(shape: CentralizerShape) -> int:
    return ambient_order(shape.ambient, shape.n)


def semisimple_degree(shape: CentralizerShape) -> int:
    """Degree of the character attached to (class of s, Steinberg of C):
    the odd part of [S : C] times the Steinberg degree of C, which is the
    2-part of |C|."""
    s = shape_ambient_order(shape)
    c = centralizer_order(shape)
    if s % c:
        raise ValueError("centralizer order does not divide the ambient order")
    index = s // c
    odd = index >> ((index & -index).bit_length() - 1)
    return odd * (c & -c)


SITUATIONS = ("i", "ii", "iii", "iv")


def comparison_shapes(shape: CentralizerShape, i: int,
                      j: int) -> list[tuple[str, CentralizerShape]]:
    """(situation, shape of the comparison element t) for every merge move
    that applies to the pair (i, j) of factors, in the order of SITUATIONS.

    A pair admits a move when the shape has r >= 4 factors in canonical
    order, 1 <= i < j <= r, and the pair dimension d0 = d_i k_i + d_j k_j
    is even and at least 4.  With eps the product of the pair's signs and
    rest the other factors:
    (i)   rest has no (d0, eps) factor: replace the pair by GL-type (d0, 1, eps);
    (ii)  rest has one: fold the pair into the first such, k -> k + 1;
    (iii) eps = +1, the ambient is not SL (whose centralizers have no
          unitary factor), and rest has no (d0/2, -1) factor: replace the
          pair by the unitary GU_2(2**(d0/2));
    (iv)  the same, but rest has one: fold the pair into the first such,
          k -> k + 2.
    Exactly one of (i), (ii) applies to a pair that admits a move, and at
    most one of (iii), (iv).
    """
    factors = shape.factors
    if len(factors) < 4 or factors != _canonical(factors) or not 1 <= i < j <= len(factors):
        return []
    fi, fj = factors[i - 1], factors[j - 1]
    d0 = fi.ndim + fj.ndim
    if d0 % 2 or d0 < 4:
        return []
    rest = [f for t, f in enumerate(factors, start=1) if t not in (i, j)]

    def merge(d: int, eps: int, fresh: str, fold: str, width: int):
        pos = next((t for t, f in enumerate(rest) if (f.d, f.eps) == (d, eps)), None)
        if pos is None:
            return fresh, shape.with_factors(rest + [ClassicalFactor(d, width, eps)])
        grown = ClassicalFactor(d, rest[pos].k + width, eps)
        return fold, shape.with_factors(rest[:pos] + [grown] + rest[pos + 1:])

    eps = fi.sign * fj.sign
    out = [merge(d0, eps, "i", "ii", 1)]
    if eps == 1 and shape.ambient != "SL":
        out.append(merge(d0 // 2, -1, "iii", "iv", 2))
    return out


def situation_shape(shape: CentralizerShape, i: int, j: int,
                    situation: str) -> CentralizerShape:
    """The comparison shape of `comparison_shapes(shape, i, j)` for the
    given situation; a ValueError when that situation does not apply."""
    if situation not in SITUATIONS:
        raise ValueError(f"unknown situation {situation!r}")
    for name, t_shape in comparison_shapes(shape, i, j):
        if name == situation:
            return t_shape
    raise ValueError(f"situation {situation} does not apply to the pair ({i}, {j})")


def situation_ratio(shape: CentralizerShape, i: int, j: int,
                    situation: str) -> Fraction:
    """psi(1)/chi(1) for the comparison element of the given situation,
    as an exact rational."""
    t_shape = situation_shape(shape, i, j, situation)
    return Fraction(semisimple_degree(t_shape), semisimple_degree(shape))


# ---------------------------------------------------------------------------
# Shape generation: availability of polynomials bounds how many factors of a
# given (d, eps) type can coexist in a genuine centralizer.

def factor_availability(ambient: str, d: int, eps: int) -> int:
    """How many distinct GL-type factors with parameters (d, eps) can occur.

    In the symplectic/orthogonal ambients a +1 factor consumes an unordered
    pair {g, g~} of distinct irreducibles of degree d and a -1 factor a
    self-reciprocal irreducible of degree 2d; in the linear ambient each
    irreducible of degree d other than x gives a factor.
    """
    if ambient == "SL":
        if eps != 1:
            raise ValueError("SL ambient has only +1 factors")
        n_d = gf2poly.count_irreducible_monic(d)
        return n_d - 1 if d == 1 else n_d
    if eps == 1:
        return gf2poly.reciprocal_pair_count(d)
    return gf2poly.count_self_reciprocal(d)


def iter_shapes(ns, ambients, r: int, max_dk: int) -> Iterator[CentralizerShape]:
    """Every realizable shape with exactly r GL-type factors, each with
    d*k <= max_dk, whose ambient is one of the symplectic and orthogonal
    ones named in ambients and whose parameter n is in ns; no shape comes
    twice.  Shapes come factor combination by combination in lexicographic
    order, then n in the order of ns, then Sp, then the orthogonal ambient
    of block sign beta = +1, then -1."""
    top = max(ns, default=0)
    # each (d, eps) availability is a Moebius sum: look it up, never redo it
    avail = {(d, eps): factor_availability("Sp", d, eps)
             for d in range(1, max_dk + 1) for eps in (1, -1)}
    base_types = sorted((d, k, eps) for (d, eps), count in avail.items() if count
                        for k in range(1, max_dk // d + 1))

    def multisets(start: int, count: int, chosen: list, dims: int):
        if count == 0:
            yield list(chosen)
            return
        for t in range(start, len(base_types)):
            d, k, eps = base_types[t]
            # no n in ns leaves room for a combination this wide
            if dims + d * k > top:
                continue
            used = sum(1 for (dd, _, ee) in chosen if (dd, ee) == (d, eps))
            if used + 1 > avail[d, eps]:
                continue
            chosen.append(base_types[t])
            yield from multisets(t, count - 1, chosen, dims + d * k)
            chosen.pop()

    for combo in multisets(0, r, [], 0):
        dims = sum(d * k for d, k, _ in combo)
        sign = prod(e**k for _, k, e in combo)
        for n in ns:
            m = n - dims
            if m < 0:
                continue
            if "Sp" in ambients:
                yield make_shape("Sp", n, m, None, combo)
            # an absent block (m = 0) carries no sign
            for beta in ((None,) if m == 0 else (1, -1)):
                amb = "O+" if (beta or 1) * sign == 1 else "O-"
                if amb in ambients:
                    yield make_shape(amb, n, m, beta, combo)


def iter_situation_instances(ns=(9, 10, 11, 12), ambients=("Sp", "O+", "O-"),
                             r: int = 4, max_dk: int = 6):
    """The (shape, i, j, situation) of every row of `iter_situation_ratios`."""
    for shape, i, j, situation, _ in iter_situation_ratios(ns, ambients, r, max_dk):
        yield shape, i, j, situation


def iter_situation_ratios(ns=(9, 10, 11, 12), ambients=("Sp", "O+", "O-"),
                          r: int = 4, max_dk: int = 6):
    """Yield (shape, i, j, situation, ratio) for every shape of `iter_shapes`,
    every pair i < j of its factors and every situation that applies to the
    pair, ratio being `situation_ratio(shape, i, j, situation)`.  Each
    comparison shape is built once, and the degree of each distinct shape,
    enumerated or compared, is computed once per call."""
    degrees: dict[CentralizerShape, int] = {}

    def degree(shape: CentralizerShape) -> int:
        if shape not in degrees:
            degrees[shape] = semisimple_degree(shape)
        return degrees[shape]

    for shape in iter_shapes(ns, ambients, r, max_dk):
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                for situation, t_shape in comparison_shapes(shape, i, j):
                    yield shape, i, j, situation, Fraction(degree(t_shape), degree(shape))


def random_shape(rng, n: int, r_max: int = 3, ambient_pool=("O+", "O-")):
    """A shape drawn by `rng.choice` from every realizable shape of parameter
    n with at most r_max GL-type factors in the ambients of ambient_pool.
    No claim draws one: the claims enumerate with `iter_shapes`."""
    return rng.choice([shape for r in range(r_max + 1)
                       for shape in iter_shapes((n,), ambient_pool, r, n)])


def euler_tail_lower(q: int, start: int = 2, terms: int = 40) -> Fraction:
    """Rigorous rational lower bound for prod_{i >= start} (1 - q**-i).

    The first `terms` factors are multiplied exactly; the remaining tail is
    bounded below by 1 - q**-(start+terms-1) / (q-1) via the geometric series.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if start < 1 or terms < 0:
        raise ValueError("need start >= 1, terms >= 0")
    partial = Fraction(1)
    for i in range(start, start + terms):
        partial *= 1 - Fraction(1, q**i)
    last = start + terms - 1
    tail = 1 - Fraction(1, q**last) / (q - 1)
    return partial * tail
