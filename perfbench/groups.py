"""Group specifications for the group workloads, the degree records for the
verify-all workload, and the textbook facts their outputs are checked against.

Every group is written out here as a group-spec dict (the format that
`chardeg.groupengine.group_from_dict` reads) without calling the package.  A
seed chooses the order of the generators and a relabelling of the points, or
of the coordinates for matrix groups: both leave the group unchanged up to
isomorphism, so the same facts hold for every seed, while the order in which
closure visits elements and in which classes are found changes.
"""

from __future__ import annotations

import random
from math import factorial, prod

# (name, family, parameter); outputs are checked against facts(family, parameter)
CHAR_TABLE_GROUPS = [
    ("C12", "cyclic", 12), ("C60", "cyclic", 60),
    ("D8", "dihedral", 4), ("D18", "dihedral", 9), ("D126", "dihedral", 63),
    ("S4", "symmetric", 4), ("S5", "symmetric", 5), ("A5", "alternating", 5),
    ("F21", "frobenius21", 7), ("Q8", "quaternion", 8),
    ("SL2(3)", "sl2_3", 3), ("GL2(3)", "gl2_3", 3),
    ("Heis(2)", "heisenberg", 2), ("Heis(3)", "heisenberg", 3),
    ("Heis(5)", "heisenberg", 5), ("Heis(7)", "heisenberg", 7),
    ("K(2)", "isaacs_K", 2), ("K(3)", "isaacs_K", 3),
    ("K(4)", "isaacs_K", 4), ("K(5)", "isaacs_K", 5),
    ("A7", "alternating", 7), ("K(7)", "isaacs_K", 7),
]


# ---------------------------------------------------------------------------
# generators

def _cycle(n: int) -> list[int]:
    return [(i + 1) % n for i in range(n)]


def _unit_generator(q: int) -> int:
    """Field code of a generator of the multiplicative group of GF(q).  In
    GF(4) every element outside {0, 1} has order 3; for prime q it is the
    smallest primitive root."""
    if q == 4:
        return 2
    return next(g for g in range(2, q)
                if all(pow(g, (q - 1) // p, q) != 1 for p in _primes(q - 1)))


def _basis(q: int) -> list[int]:
    """Field codes of the power basis 1, t, ..., of GF(q) over GF(p): the
    code of t**i is p**i."""
    p = _primes(q)[0]
    basis = [1]
    while basis[-1] * p < q:
        basis.append(basis[-1] * p)
    return basis


def _elementary(i: int, j: int, a: int) -> list[int]:
    m = [1 if r == c else 0 for r in range(3) for c in range(3)]
    m[3 * i + j] = a
    return m


def _spec(family: str, n: int) -> dict:
    if family == "cyclic":
        return {"kind": "permutation", "degree": n, "generators": [_cycle(n)]}
    if family == "dihedral":
        return {"kind": "permutation", "degree": n,
                "generators": [_cycle(n), [(-i) % n for i in range(n)]]}
    if family == "symmetric":
        return {"kind": "permutation", "degree": n,
                "generators": [_cycle(n), [1, 0] + list(range(2, n))]}
    if family == "alternating":  # odd n: a 3-cycle and the n-cycle
        return {"kind": "permutation", "degree": n,
                "generators": [[1, 2, 0] + list(range(3, n)), _cycle(n)]}
    if family == "frobenius21":
        return {"kind": "permutation", "degree": 7,
                "generators": [_cycle(7), [(2 * i) % 7 for i in range(7)]]}
    if family in ("quaternion", "sl2_3", "gl2_3"):
        gens = {"quaternion": [[0, 2, 1, 0], [1, 1, 1, 2]],
                "sl2_3": [[1, 1, 0, 1], [1, 0, 1, 1]],
                "gl2_3": [[1, 1, 0, 1], [1, 0, 1, 1], [2, 0, 0, 1]]}[family]
        return {"kind": "matrix", "dimension": 2, "field": 3, "generators": gens}
    if family in ("heisenberg", "isaacs_K"):
        q = n
        gens = [_elementary(i, j, a) for a in _basis(q) for i, j in ((0, 1), (1, 2))]
        if family == "isaacs_K":
            gens += [_elementary(0, 2, a) for a in _basis(q)]
            if q > 2:
                gens.append([1, 0, 0, 0, 1, 0, 0, 0, _unit_generator(q)])
        return {"kind": "matrix", "dimension": 3, "field": q, "generators": gens}
    raise ValueError(f"unknown family {family!r}")


def _relabel(spec: dict, rng: random.Random) -> dict:
    """Shuffle the generators and conjugate each by a random relabelling of
    the points (permutations) or of the coordinates (matrices)."""
    gens = [list(g) for g in spec["generators"]]
    rng.shuffle(gens)
    if spec["kind"] == "permutation":
        sigma = list(range(spec["degree"]))
        rng.shuffle(sigma)
        relabelled = []
        for g in gens:
            out = [0] * len(g)
            for x, y in enumerate(g):
                out[sigma[x]] = sigma[y]
            relabelled.append(out)
    else:
        dim = spec["dimension"]
        pi = list(range(dim))
        rng.shuffle(pi)
        relabelled = []
        for g in gens:
            out = [0] * (dim * dim)
            for i in range(dim):
                for j in range(dim):
                    out[pi[i] * dim + pi[j]] = g[i * dim + j]
            relabelled.append(out)
    return dict(spec, generators=relabelled)


def group_specs(groups, seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [dict(_relabel(_spec(family, n), rng), name=name)
            for name, family, n in groups]


# ---------------------------------------------------------------------------
# textbook facts

def _primes(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _conjugate(lam):
    return tuple(sum(1 for r in lam if r > i) for i in range(lam[0]))


def _hook_degree(lam) -> int:
    """Degree of the symmetric-group character of lam: n! over its hooks."""
    conj = _conjugate(lam)
    hooks = prod(lam[j] - i + conj[i] - j - 1
                 for j in range(len(lam)) for i in range(lam[j]))
    return factorial(sum(lam)) // hooks


def _symmetric_degrees(n: int) -> list[int]:
    return [_hook_degree(lam) for lam in _partitions(n)]


def _alternating_degrees(n: int) -> list[int]:
    """A self-conjugate partition splits into two characters of half its
    degree; a transpose pair restricts to one irreducible character."""
    out = []
    for lam in _partitions(n):
        conj = _conjugate(lam)
        if lam == conj:
            out += [_hook_degree(lam) // 2] * 2
        elif lam > conj:
            out.append(_hook_degree(lam))
    return out


def facts(family: str, n: int) -> dict:
    """Order, degree multiset (sorted) and class count."""
    if family == "cyclic":
        f = {"order": n, "degrees": [1] * n}
    elif family == "dihedral":
        if n % 2:
            f = {"degrees": [1] * 2 + [2] * ((n - 1) // 2)}
        else:
            f = {"degrees": [1] * 4 + [2] * (n // 2 - 1)}
        f["order"] = 2 * n
    elif family == "symmetric":
        f = {"order": factorial(n), "degrees": _symmetric_degrees(n)}
    elif family == "alternating":
        f = {"order": factorial(n) // 2, "degrees": _alternating_degrees(n)}
    elif family == "frobenius21":
        f = {"order": 21, "degrees": [1, 1, 1, 3, 3]}
    elif family == "quaternion":
        f = {"order": 8, "degrees": [1, 1, 1, 1, 2]}
    elif family == "sl2_3":
        f = {"order": 24, "degrees": [1, 1, 1, 2, 2, 2, 3]}
    elif family == "gl2_3":
        f = {"order": 48, "degrees": [1, 1, 2, 2, 2, 3, 3, 4]}
    elif family == "heisenberg" or (family == "isaacs_K" and n == 2):
        # q**2 linear characters and q - 1 of degree q
        q = n
        f = {"order": q**3, "degrees": [1] * q**2 + [q] * (q - 1)}
    elif family == "isaacs_K":
        # G/Z is GF(q) x AGL(1, q): q(q-1) linear characters and q of degree
        # q - 1; the one character of degree q(q-1) completes the order
        q = n
        f = {"order": q**3 * (q - 1),
             "degrees": [1] * (q * (q - 1)) + [q - 1] * q + [q * (q - 1)]}
    else:
        raise ValueError(f"unknown family {family!r}")
    f["degrees"] = sorted(f["degrees"])
    f["classes"] = len(f["degrees"])
    if sum(d * d for d in f["degrees"]) != f["order"]:
        raise AssertionError(f"squared degrees of {family} {n} miss the order")
    return f


# ---------------------------------------------------------------------------
# degree records for `verify-all --degrees`

_RECORD_FAMILIES = [
    ("C{}", "cyclic", range(2, 61)),
    ("D{}", "dihedral", range(3, 61)),
    ("S{}", "symmetric", range(3, 9)),
    ("A{}", "alternating", range(5, 10)),
    ("Heis({})", "heisenberg", (2, 3, 5, 7, 11, 13)),
    ("K({})", "isaacs_K", (3, 4, 5, 7, 8, 9, 11)),
]

RECORD_COUNT = 16


def degree_records(seed: int) -> list[dict]:
    """RECORD_COUNT distinct records, each an order and degree multiset
    derived from the closed forms above."""
    rng = random.Random(seed)
    pool = [(fmt, family, n) for fmt, family, ns in _RECORD_FAMILIES for n in ns]
    out = []
    for fmt, family, n in rng.sample(pool, RECORD_COUNT):
        f = facts(family, n)
        counts: dict[int, int] = {}
        for d in f["degrees"]:
            counts[d] = counts.get(d, 0) + 1
        name = fmt.format(2 * n if family == "dihedral" else n)
        out.append({"name": name, "order": f["order"],
                    "degrees": sorted(counts.items(), reverse=True)})
    return out
