import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import isqrt, prod

import pytest

from chardeg import lie
from chardeg.claims import (
    LIE_MAX_Q, LIE_MAX_RANK, SEITZ_TWISTED, SEITZ_UNTWISTED, SITUATION_AMBIENTS,
    SITUATION_MAX_DK, SITUATION_NS, SITUATION_R,
)
from chardeg.errors import ExcludedCaseError
from chardeg.exactmath import p_part
from chardeg.lie import (
    AMBIENTS, FAMILIES, CentralizerShape, ClassicalFactor, SimpleGroupId,
    ambient_order, centralizer_order, comparison_shapes,
    euler_tail_lower, factor_availability, gl_order, iter_simple_ids,
    iter_shapes, iter_situation_instances, iter_situation_ratios,
    k_factor_order, load_torus_table, make_shape, minimal_torus_order, not_simple_reason,
    prime_powers_up_to, random_shape, seitz_check, seitz_ids, semisimple_degree,
    simple_order, simply_connected_order, situation_ratio, situation_shape,
    steinberg_degree, verify_lie_38,
)
from chardeg.partitions import partitions_of
from chardeg.psl2 import psl2_order

ATLAS_ORDERS = {
    ("A", 1, 5): 60,
    ("A", 1, 7): 168,
    ("A", 2, 2): 168,
    ("A", 2, 3): 5616,
    ("A", 3, 2): 20160,
    ("2A", 2, 3): 6048,
    ("2A", 3, 2): 25920,
    ("2A", 3, 3): 3265920,
    ("2A", 4, 2): 13685760,
    ("B", 2, 3): 25920,
    ("B", 3, 3): 4585351680,
    ("C", 3, 2): 1451520,
    ("C", 3, 3): 4585351680,
    ("D", 4, 2): 174182400,
    ("D", 4, 3): 4952179814400,
    ("2D", 4, 2): 197406720,
    ("2D", 4, 3): 10151968619520,
    ("G2", 2, 3): 4245696,
    ("G2", 2, 4): 251596800,
    ("2B2", 2, 8): 29120,
    ("2B2", 2, 32): 32537600,
    ("2G2", 2, 27): 10073444472,
    ("3D4", 4, 2): 211341312,
    ("3D4", 4, 3): 20560831566912,
    ("F4", 4, 2): 3311126603366400,
    ("2F4", 4, 8): 264905352699586176614400,
    ("E6", 6, 2): 214841575522005575270400,
    ("2E6", 6, 2): 76532479683774853939200,
}


def test_orders_against_atlas_values():
    for (fam, rank, q), order in ATLAS_ORDERS.items():
        assert simple_order(SimpleGroupId(fam, rank, q)) == order, (fam, rank, q)


def test_rank_one_matches_two_dimensional_linear_groups():
    for q in prime_powers_up_to(100):
        if q >= 4:
            assert simple_order(SimpleGroupId("A", 1, q)) == psl2_order(q)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 10**4])
def test_prime_power_sieve_matches_factoring(limit):
    # a sieve of Eratosthenes and the powers of its primes, against the
    # library's factoring of each q
    prime = [False, False] + [True] * (limit - 1)
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            prime[p * p::p] = [False] * len(range(p * p, limit + 1, p))
    powers = {p**k for p in range(2, limit + 1) if prime[p]
              for k in range(1, limit.bit_length() + 1) if p**k <= limit}
    assert prime_powers_up_to(limit) == sorted(powers)


def test_omega_plus_18_formula_value():
    expected = 2**72 * (2**9 - 1) * prod(2 ** (2 * i) - 1 for i in range(1, 9))
    assert simple_order(SimpleGroupId("D", 9, 2)) == expected


def test_steinberg_examples():
    assert steinberg_degree(SimpleGroupId("A", 2, 3)) == 27
    assert steinberg_degree(SimpleGroupId("C", 3, 2)) == 512
    assert steinberg_degree(SimpleGroupId("A", 1, 5)) == 5


def test_non_simple_parameters_rejected():
    for fam, rank, q in [("A", 1, 2), ("A", 1, 3), ("2A", 2, 2), ("B", 2, 2),
                         ("C", 2, 2), ("G2", 2, 2), ("2B2", 2, 2),
                         ("2G2", 2, 3), ("2F4", 4, 2), ("2B2", 2, 16),
                         ("D", 3, 2), ("2A", 1, 5)]:
        reason = not_simple_reason(fam, rank, q)
        assert reason
        with pytest.raises(ValueError) as exc:
            SimpleGroupId(fam, rank, q)
        assert str(exc.value) == reason


def test_iter_simple_ids_matches_constructing_every_candidate():
    # every (family, rank, q) in range is tried, and the ones the
    # constructor refuses are skipped
    expected = []
    for fam in FAMILIES:
        for rank in range(1, LIE_MAX_RANK + 1):
            for q in range(1, LIE_MAX_Q + 1):
                try:
                    expected.append(SimpleGroupId(fam, rank, q))
                except ValueError:
                    continue
    assert list(iter_simple_ids(LIE_MAX_RANK, LIE_MAX_Q)) == expected
    assert all(not_simple_reason(g.family, g.rank, g.q) is None for g in expected)


def test_lie_38_examples():
    assert verify_lie_38(SimpleGroupId("A", 2, 3))
    assert verify_lie_38(SimpleGroupId("C", 3, 2))
    assert verify_lie_38(SimpleGroupId("E8", 8, 2))
    with pytest.raises(ExcludedCaseError):
        verify_lie_38(SimpleGroupId("A", 1, 5))


def test_lie_38_holds_on_moderate_grid():
    checked = 0
    for gid in iter_simple_ids(6, 9):
        if gid.family == "A" and gid.rank == 1:
            continue
        assert verify_lie_38(gid), gid
        checked += 1
    assert checked > 100


def test_lie_38_claim_range_holds_over_a_thousand_groups():
    # rank <= 12, q <= 32 is the range of the thm2.1/lie-38 claim
    assert sum(1 for gid in iter_simple_ids(12, 32)
               if not (gid.family == "A" and gid.rank == 1)) > 1000


def test_seitz_untwisted_examples():
    rep = seitz_check(SimpleGroupId("A", 9, 3))  # 10-dimensional over GF(3)
    assert rep.passes_2b2 and rep.torus_order == 2**9
    rep = seitz_check(SimpleGroupId("C", 10, 3))
    assert rep.passes_2b2 and rep.torus_order == 2**10


def test_seitz_default_torus_is_split():
    # the least torus of an untwisted group is the split one, (q - 1)**rank
    for gid in seitz_ids(SEITZ_UNTWISTED):
        assert minimal_torus_order(gid) == (gid.q - 1) ** gid.rank, gid
        assert seitz_check(gid).torus_order == (gid.q - 1) ** gid.rank, gid


def test_seitz_full_untwisted_list_passes():
    for gid in seitz_ids(SEITZ_UNTWISTED):
        assert seitz_check(gid).passes_2b2, gid


def test_seitz_twisted_torus_is_derived():
    # 2A_8(2) = SU_9(2): four cycles of length 2 and one of length 1, each
    # contributing 3, divided by q + 1 = 3
    rep = seitz_check(SimpleGroupId("2A", 8, 2))
    assert rep.torus_order == 3**4 and rep.passes_2b2
    for gid in seitz_ids(SEITZ_TWISTED):
        assert seitz_check(gid).passes_2b2, gid


def test_seitz_checks_a_classical_group_outside_the_seitz_lists():
    gid = SimpleGroupId("A", 2, 3)
    assert seitz_check(gid).torus_order == minimal_torus_order(gid)
    with pytest.raises(ValueError):  # not a classical family
        seitz_check(SimpleGroupId("G2", 2, 3))


def test_seitz_rejects_a_torus_order_that_does_not_divide(monkeypatch):
    monkeypatch.setattr(lie, "minimal_torus_order", lambda gid: 2**200)
    with pytest.raises(ValueError):  # cannot divide the group order
        seitz_check(SimpleGroupId("A", 9, 3))


def test_shipped_torus_table():
    # the shipped 2D orders are the least ones; its 2A orders, 3**rank, are not
    from pathlib import Path

    table = load_torus_table(Path(__file__).parent.parent / "data" / "torus_orders.json")
    for gid in seitz_ids(SEITZ_TWISTED):
        shipped = table[(gid.family, gid.rank, gid.q)]
        derived = minimal_torus_order(gid)
        assert derived == shipped if gid.family == "2D" else derived < shipped, gid


def _least_torus_by_brute_force(family: str, rank: int, q: int) -> int:
    """The least torus order over every (signed) partition, listed whole."""
    if family in ("A", "2A"):
        s = 1 if family == "A" else -1
        return min(prod(q**a - s**a for a in lam)
                   for lam in partitions_of(rank + 1)) // (q - s)
    return min(prod(q**a - s for a, s in zip(lam, signs))
               for lam in partitions_of(rank)
               for signs in product((1, -1), repeat=len(lam))
               if family in ("B", "C") or signs.count(-1) % 2 == (family == "2D"))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_minimal_torus_order_matches_brute_force(q):
    checked = 0
    for family in ("A", "2A", "B", "C", "D", "2D"):
        for rank in range(1, 9):
            if not_simple_reason(family, rank, q) is None:
                checked += 1
                assert minimal_torus_order(SimpleGroupId(family, rank, q)) == \
                    _least_torus_by_brute_force(family, rank, q), (family, rank, q)
    assert checked >= 35


def test_minimal_torus_order_refuses_exceptional_families():
    with pytest.raises(ValueError):
        minimal_torus_order(SimpleGroupId("G2", 2, 3))


def test_gl_order_examples():
    assert gl_order(1, 1, 1) == 1          # GL_1(2)
    assert gl_order(2, 1, 1) == 3          # GL_1(4)
    assert gl_order(1, 2, -1) == 18        # unitary on 2 points over GF(2)
    assert gl_order(1, 4, 1) == 20160      # GL_4(2)


def test_centralizer_order_examples():
    shape = make_shape("SL", 3, 0, None, [(1, 1, 1), (2, 1, 1)])
    assert centralizer_order(shape) == 3
    sp4 = make_shape("Sp", 2, 2, None, [])
    assert centralizer_order(sp4) == 720
    assert k_factor_order(sp4) == 720


def test_semisimple_degree_examples():
    # trivial class: the degree is the Steinberg degree of the ambient group
    full = make_shape("Sp", 3, 3, None, [])
    assert semisimple_degree(full) == 512
    # Sp_6(2) with centralizer Sp_2(2) x GU_2(2)
    shape = make_shape("Sp", 3, 1, None, [(1, 2, -1)])
    assert centralizer_order(shape) == 6 * 18
    assert semisimple_degree(shape) == 420
    assert ambient_order("Sp", 3) % 420 == 0
    # linear ambient: GL_1(2) x GL_1(4) inside the 3-dimensional group
    lin = make_shape("SL", 3, 0, None, [(1, 1, 1), (2, 1, 1)])
    assert semisimple_degree(lin) == 7


def test_shape_validation():
    with pytest.raises(ValueError):
        make_shape("SL", 3, 0, None, [(1, 1, -1)])      # unitary factor in SL
    with pytest.raises(ValueError):
        make_shape("Sp", 3, 1, None, [(1, 1, 1), (1, 1, 1)])  # two (1,+) factors
    with pytest.raises(ValueError):
        make_shape("O+", 9, 2, 1, [(3, 2, 1)])          # budget 2+6 != 9
    with pytest.raises(ValueError):
        make_shape("O+", 8, 2, 1, [(3, 1, -1), (3, 1, 1)])  # signs multiply to -1
    # beta = -1 with even-multiplicity unitary factor lands in the minus type
    shape = make_shape("O-", 8, 2, -1, [(3, 2, -1)])
    assert shape.ambient == "O-"
    # only make_shape sorts the factors into canonical order
    factors = [(1, 1, 1), (2, 1, 1), (3, 1, -1)]
    with pytest.raises(ValueError, match="canonical order"):
        CentralizerShape("Sp", 7, 1, None, tuple(ClassicalFactor(*f) for f in factors))
    assert make_shape("Sp", 7, 1, None, factors) == \
        make_shape("Sp", 7, 1, None, factors[::-1])


def test_situation_worked_example():
    shape = make_shape("O+", 12, 2, 1, [(4, 1, 1), (3, 1, 1), (2, 1, 1), (1, 1, 1)])
    assert [f.ndim for f in shape.factors] == [4, 3, 2, 1]
    r_i = situation_ratio(shape, 1, 3, "i")
    assert r_i == Fraction(5, 7) and r_i > Fraction(81, 320)
    r_iii = situation_ratio(shape, 1, 3, "iii")
    assert r_iii == Fraction(40, 63) and r_iii > Fraction(81, 320)
    # pair (1, 4): 4 + 1 = 5 is odd, so no situation applies
    with pytest.raises(ValueError):
        situation_shape(shape, 1, 4, "i")


def test_situation_shape_preserves_budget_and_ambient():
    shape = make_shape("O+", 12, 2, 1, [(4, 1, 1), (3, 1, 1), (2, 1, 1), (1, 1, 1)])
    t = situation_shape(shape, 1, 3, "i")
    assert t.n == shape.n and t.m == shape.m and t.ambient == shape.ambient
    assert t.m + sum(f.ndim for f in t.factors) == t.n


def test_situation_applicability_guards():
    shape = make_shape("Sp", 11, 0, None,
                       [(4, 1, -1), (3, 1, 1), (2, 1, -1), (1, 2, -1)])
    # pair (3, 4): d0 = 4, signs (-1)(+1) = -1: iii/iv inapplicable
    with pytest.raises(ValueError):
        situation_shape(shape, 3, 4, "iii")
    # pair (3, 4) situation ii: a (4, -1) factor exists, merge into it
    t = situation_shape(shape, 3, 4, "ii")
    assert any(f.d == 4 and f.k == 2 and f.eps == -1 for f in t.factors)
    # situation i requires the merged factor to be absent
    with pytest.raises(ValueError):
        situation_shape(shape, 3, 4, "i")


def test_situation_i_in_linear_ambient():
    # the linear groups need only the fresh-factor merge, always with +1 signs
    shape = make_shape("SL", 10, 0, None,
                       [(4, 1, 1), (3, 1, 1), (2, 1, 1), (1, 1, 1)])
    ratio = situation_ratio(shape, 1, 3, "i")
    assert ratio == Fraction(45, 63)
    assert ratio > Fraction(81, 320)
    t = situation_shape(shape, 1, 3, "i")
    assert t.ambient == "SL" and any(f.d == 6 for f in t.factors)


def test_situation_sweep_bounds():
    low, low_iv = Fraction(81, 320), Fraction(81, 272)
    seen = set()
    count = 0
    for shape, i, j, situation in iter_situation_instances((9, 10), SITUATION_AMBIENTS,
                                                         SITUATION_R, 5):
        ratio = situation_ratio(shape, i, j, situation)
        seen.add(situation)
        count += 1
        assert ratio > (low_iv if situation == "iv" else low)
    assert count > 30 and "i" in seen


def _factor_odd_part(f):
    return prod(2 ** (nu * f.d) - f.eps**nu for nu in range(1, f.k + 1))


def _factor_steinberg(f):
    return 2 ** (f.d * f.k * (f.k - 1) // 2)


def _closed_form_ratio(shape, i, j, situation):
    """The merge-move ratio written out as an explicit product expression,
    independently of the degree machinery."""
    fi, fj = shape.factors[i - 1], shape.factors[j - 1]
    d0 = fi.ndim + fj.ndim
    eps = fi.sign * fj.sign
    base = Fraction(_factor_odd_part(fi) * _factor_odd_part(fj),
                    _factor_steinberg(fi) * _factor_steinberg(fj))
    if situation == "i":
        return base / (2**d0 - eps)
    if situation == "ii":
        merged = next(f for t, f in enumerate(shape.factors, start=1)
                      if t not in (i, j) and f.d == d0 and f.eps == eps)
        k = merged.k
        num = 2 ** (d0 * k * (k + 1) // 2) * prod(
            2 ** (nu * d0) - eps**nu for nu in range(1, k + 1))
        den = 2 ** (d0 * k * (k - 1) // 2) * prod(
            2 ** (nu * d0) - eps**nu for nu in range(1, k + 2))
        return base * Fraction(num, den)
    if situation == "iii":
        h = d0 // 2
        return base * Fraction(2**h, (2**h + 1) * (2**d0 - 1))
    if situation == "iv":
        h = d0 // 2
        merged = next(f for t, f in enumerate(shape.factors, start=1)
                      if t not in (i, j) and f.d == h and f.eps == -1)
        k = merged.k
        num = 2 ** (h * (k + 2) * (k + 1) // 2) * prod(
            2 ** (nu * h) - (-1) ** nu for nu in range(1, k + 1))
        den = 2 ** (h * k * (k - 1) // 2) * prod(
            2 ** (nu * h) - (-1) ** nu for nu in range(1, k + 3))
        return base * Fraction(num, den)
    raise AssertionError(situation)


def test_situation_ratio_matches_closed_form():
    checked = {s: 0 for s in ("i", "ii", "iii", "iv")}
    for shape, i, j, situation in iter_situation_instances(
            SITUATION_NS, SITUATION_AMBIENTS, SITUATION_R, SITUATION_MAX_DK):
        expected = _closed_form_ratio(shape, i, j, situation)
        assert situation_ratio(shape, i, j, situation) == expected, \
            (shape, i, j, situation)
        checked[situation] += 1
    assert all(v > 0 for v in checked.values())


def test_semisimple_degree_matches_index_formula():
    # orthogonal ambient with a nontrivial block: the degree equals
    # 2^(m(m-1) + sum d k(k-1)/2) (2^n - eps) prod_{j=m}^{n-1} (2^(2j) - 1)
    # / ((2^m - beta) prod over factors of prod_i (2^(i d) - eps^i))
    checked = 0
    for r in range(5):
        for shape in iter_shapes(range(9, 14), ("O+", "O-"), r, 13):
            if shape.m == 0:
                continue
            n = shape.n
            eps = 1 if shape.ambient == "O+" else -1
            num = (2 ** (shape.m * (shape.m - 1)
                         + sum(f.d * f.k * (f.k - 1) // 2 for f in shape.factors))
                   * (2**n - eps)
                   * prod(2 ** (2 * j) - 1 for j in range(shape.m, n)))
            den = (2**shape.m - shape.beta) * prod(
                _factor_odd_part(f) for f in shape.factors)
            assert num % den == 0
            assert semisimple_degree(shape) == num // den, shape
            checked += 1
    assert checked == 3576


def _reference_semisimple_degree(shape):
    """The degree as the explicit product it was first written as: the odd
    part of [S : C] times the Steinberg degree 2^(m^2) (Sp) or 2^(m(m-1))
    (orthogonal) of K and 2^(d k(k-1)/2) of each GL-type factor."""
    index = ambient_order(shape.ambient, shape.n) // centralizer_order(shape)
    while index % 2 == 0:
        index //= 2
    if shape.ambient == "SL" or shape.m == 0:
        k_steinberg = 1
    elif shape.ambient == "Sp":
        k_steinberg = 2 ** (shape.m * shape.m)
    else:
        k_steinberg = 2 ** (shape.m * (shape.m - 1))
    return index * k_steinberg * prod(_factor_steinberg(f) for f in shape.factors)


def test_semisimple_degree_matches_the_explicit_product():
    shapes = set()
    for shape, i, j, situation in iter_situation_instances(
            SITUATION_NS, SITUATION_AMBIENTS, SITUATION_R, SITUATION_MAX_DK):
        shapes |= {shape, situation_shape(shape, i, j, situation)}
    assert len(shapes) == 651
    shapes |= {make_shape("SL", 3, 0, None, [(1, 1, 1), (2, 1, 1)]),
               make_shape("SL", 10, 0, None, [(4, 1, 1), (3, 1, 1), (2, 1, 1), (1, 1, 1)]),
               make_shape("SL", 7, 0, None, [(1, 3, 1), (2, 2, 1)]),
               make_shape("SL", 6, 0, None, [(3, 2, 1)])}
    for shape in shapes:
        assert semisimple_degree(shape) == _reference_semisimple_degree(shape), shape


def test_factor_availability_values():
    assert factor_availability("Sp", 1, 1) == 0   # no degree-1 reversal pairs
    assert factor_availability("Sp", 1, -1) == 1  # x^2+x+1 only
    assert factor_availability("Sp", 2, 1) == 0   # the only quadratic is palindromic
    assert factor_availability("Sp", 3, 1) == 1   # {x^3+x+1, x^3+x^2+1}
    assert factor_availability("SL", 1, 1) == 1   # x+1
    assert factor_availability("SL", 4, 1) == 3


def test_random_shapes_divide_ambient_order():
    # every shape `random_shape(rng, n, 6, ("O+", "O-", "Sp"))` can draw, n = 9..14
    count = 0
    for r in range(7):
        for shape in iter_shapes(range(9, 15), ("O+", "O-", "Sp"), r, 14):
            degree = semisimple_degree(shape)
            assert ambient_order(shape.ambient, shape.n) % degree == 0
            count += 1
    assert count == 11_484


def _brute_force_shapes(ambient, n, r):
    """Every shape of r factors (d, k, eps) with d*k <= n that `make_shape`
    accepts in the given ambient and parameter n, with every block sign,
    and whose factors of each (d, eps) do not outnumber the availability."""
    types = [(d, k, eps) for d in range(1, n + 1) for k in range(1, n // d + 1)
             for eps in (1, -1)]
    shapes = set()
    for combo in combinations_with_replacement(types, r):
        m = n - sum(d * k for d, k, _ in combo)
        if m < 0:
            continue
        for beta in (None, 1, -1):
            try:
                shape = make_shape(ambient, n, m, beta, combo)
            except ValueError:
                continue
            counts = Counter((f.d, f.eps) for f in shape.factors)
            if all(c <= factor_availability(ambient, d, eps)
                   for (d, eps), c in counts.items()):
                shapes.add(shape)
    return shapes


@pytest.mark.parametrize("ambient", ["Sp", "O+", "O-"])
def test_iter_shapes_matches_brute_force(ambient):
    for n in range(2 if ambient == "Sp" else 3, 9):
        for r in range(4):
            shapes = list(iter_shapes((n,), (ambient,), r, n))
            assert len(shapes) == len(set(shapes)), (n, r)
            assert set(shapes) == _brute_force_shapes(ambient, n, r), (n, r)


def test_iter_shapes_of_several_ambients_and_ns_is_the_union():
    ambients = ("O-", "Sp", "O+")
    shapes = list(iter_shapes((8, 5, 7), ambients, 3, 8))
    assert len(shapes) == len(set(shapes))
    assert set(shapes) == {s for amb in ambients for n in (5, 7, 8)
                           for s in iter_shapes((n,), (amb,), 3, n)}


def test_random_shape_draws_from_the_enumerated_shapes():
    rng = random.Random(5)
    for n, r_max, pool in ((9, 3, ("O+", "O-")), (10, 2, ("Sp",)),
                           (10, 4, ("O+", "O-", "Sp"))):
        allowed = {s for r in range(r_max + 1) for s in iter_shapes((n,), pool, r, n)}
        for _ in range(20):
            assert random_shape(rng, n, r_max, ambient_pool=pool) in allowed


def test_euler_tail_examples():
    assert euler_tail_lower(2, 2, 40) > Fraction(9, 16)
    assert euler_tail_lower(3, 2, 20) > Fraction(9, 16)
    # lem3.2/euler-tail evaluates q = 2 alone, as the bound grows with q
    values = [euler_tail_lower(q, 2, 40) for q in range(2, 11)]
    assert values == sorted(values)
    # zero terms: pure geometric tail bound
    assert euler_tail_lower(2, 2, 0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        euler_tail_lower(1, 2, 10)


def test_euler_tail_monotone_and_below_truth():
    for q in (2, 3, 5, 10):
        values = [euler_tail_lower(q, 2, t) for t in range(0, 61, 6)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        true_product = 1.0
        for i in range(2, 400):
            true_product *= 1 - q**-i
        assert float(values[-1]) <= true_product + 1e-12


def _reference_situation_instances(ns, ambients=("Sp", "O+", "O-"), r=4, max_dk=6):
    """The situation enumerator as it was before the availability table and
    the width pruning, yielding (shape, i, j, situation, comparison shape):
    availability is recomputed at every step, and the pair test and the
    four merge rules are written out here, apart from `comparison_shapes`."""
    def applicable(shape, i, j):
        fs = [(f.d, f.k, f.eps) for f in shape.factors]
        if len(fs) < 4:
            return []
        (di, ki, ei), (dj, kj, ej) = fs[i - 1], fs[j - 1]
        d0, eps = di * ki + dj * kj, ei**ki * ej**kj
        if d0 % 2 or d0 < 4:
            return []
        rest = [f for t, f in enumerate(fs, start=1) if t not in (i, j)]
        out = []
        same = [t for t, (d, _, e) in enumerate(rest) if (d, e) == (d0, eps)]
        if not same:
            out.append(("i", rest + [(d0, 1, eps)]))
        else:
            t = same[0]
            out.append(("ii", rest[:t] + [(d0, rest[t][1] + 1, eps)] + rest[t + 1:]))
        if eps == 1 and shape.ambient != "SL":
            unitary = [t for t, (d, _, e) in enumerate(rest) if (d, e) == (d0 // 2, -1)]
            if not unitary:
                out.append(("iii", rest + [(d0 // 2, 2, -1)]))
            else:
                t = unitary[0]
                out.append(("iv", rest[:t] + [(d0 // 2, rest[t][1] + 2, -1)] + rest[t + 1:]))
        return [(situation, make_shape(shape.ambient, shape.n, shape.m, shape.beta, new))
                for situation, new in out]

    base_types = []
    for d in range(1, max_dk + 1):
        for k in range(1, max_dk // d + 1):
            for eps in (1, -1):
                if factor_availability("Sp", d, eps) >= 1:
                    base_types.append((d, k, eps))
    base_types.sort()

    def multisets(start, count, chosen):
        if count == 0:
            yield list(chosen)
            return
        for t in range(start, len(base_types)):
            d, k, eps = base_types[t]
            used = sum(1 for (dd, _, ee) in chosen if (dd, ee) == (d, eps))
            if used + 1 > factor_availability("Sp", d, eps):
                continue
            chosen.append(base_types[t])
            yield from multisets(t, count - 1, chosen)
            chosen.pop()

    wanted_signs = {sign for a, sign in {"O+": 1, "O-": -1}.items() if a in ambients}
    for combo in multisets(0, r, []):
        dims = sum(d * k for d, k, _ in combo)
        sign = prod(e**k for _, k, e in combo)
        for n in ns:
            m = n - dims
            if m < 0:
                continue
            shapes = []
            if "Sp" in ambients:
                shapes.append(make_shape("Sp", n, m, None, combo))
            if m == 0:
                if sign in wanted_signs:
                    shapes.append(make_shape("O+" if sign == 1 else "O-", n, 0, None, combo))
            else:
                for beta in (1, -1):
                    if beta * sign in wanted_signs:
                        amb = "O+" if beta * sign == 1 else "O-"
                        shapes.append(make_shape(amb, n, m, beta, combo))
            for shape in shapes:
                for i in range(1, r + 1):
                    for j in range(i + 1, r + 1):
                        for situation, t_shape in applicable(shape, i, j):
                            yield shape, i, j, situation, t_shape


@pytest.mark.parametrize("kwargs", [
    {"ns": SITUATION_NS, "ambients": SITUATION_AMBIENTS, "r": SITUATION_R,
     "max_dk": SITUATION_MAX_DK},
    {"ns": (12, 8), "ambients": ("O-",), "r": 4, "max_dk": 4},
    {"ns": (13,), "ambients": ("O+",), "r": 5, "max_dk": 5},
])
def test_situation_enumerator_matches_reference(kwargs):
    reference = list(_reference_situation_instances(**kwargs))
    expected = [row[:4] for row in reference]
    assert expected
    assert list(iter_situation_instances(**kwargs)) == expected
    ratios = list(iter_situation_ratios(**kwargs))
    assert [row[:4] for row in ratios] == expected
    assert [row[4] for row in ratios] == [
        Fraction(semisimple_degree(t_shape), semisimple_degree(shape))
        for shape, _, _, _, t_shape in reference]
    assert [situation_shape(*row) for row in expected] == [row[4] for row in reference]


def test_situation_ratios_compute_each_distinct_degree_once(monkeypatch):
    import chardeg.lie as lie

    asked = []
    monkeypatch.setattr(lie, "semisimple_degree",
                        lambda shape: asked.append(shape) or semisimple_degree(shape))
    rows = list(iter_situation_ratios(SITUATION_NS, SITUATION_AMBIENTS, SITUATION_R,
                                      SITUATION_MAX_DK))
    shapes = {row[0] for row in rows}
    shapes |= {situation_shape(*row[:4]) for row in rows}
    assert len(asked) == len(set(asked)) == len(shapes)


def test_part3_and_part4_compute_each_order_once(monkeypatch):
    # gl_order and ambient_order are cached, so the two claims together
    # order each distinct (d, k, eps) triple and each ambient group once
    import chardeg.claims as claims
    import chardeg.lie as lie

    calls = []
    true_order = lie._simply_connected
    monkeypatch.setattr(lie, "_simply_connected",
                        lambda *args: calls.append(args) or true_order(*args))
    gl_order.cache_clear()
    ambient_order.cache_clear()
    assert claims._check_part3(claims.RunConfig())[0] == claims.PASS
    assert claims._check_situations(claims.RunConfig())[0] == claims.PASS
    triples, ambients = gl_order.cache_info(), ambient_order.cache_info()
    assert triples.hits > 100 * triples.currsize
    assert len(calls) <= triples.currsize + ambients.currsize


def test_comparison_shapes_agree_with_situation_shape():
    shape = make_shape("Sp", 11, 0, None,
                       [(4, 1, -1), (3, 1, 1), (2, 1, -1), (1, 2, -1)])
    assert comparison_shapes(shape, 3, 4) == [("ii", situation_shape(shape, 3, 4, "ii"))]
    assert comparison_shapes(shape, 1, 2) == []   # d0 = 7 is odd
    shape = make_shape("Sp", 5, 0, None, [(2, 1, 1), (1, 1, 1), (1, 1, -1), (1, 1, -1)])
    assert comparison_shapes(shape, 2, 3) == []   # d0 = 2 is below 4
    # two (4, -1) factors: the pair folds into the first in canonical order
    shape = make_shape("Sp", 16, 0, None, [(4, 2, -1), (4, 1, -1), (2, 1, -1), (2, 1, 1)])
    assert comparison_shapes(shape, 3, 4) == [
        ("ii", make_shape("Sp", 16, 0, None, [(4, 3, -1), (4, 1, -1)]))]
    # the linear ambient has no unitary factor, so no merge (iii) or (iv)
    shape = make_shape("SL", 10, 0, None, [(4, 1, 1), (3, 1, 1), (2, 1, 1), (1, 1, 1)])
    for i, j in combinations(range(1, 5), 2):
        names = [situation for situation, _ in comparison_shapes(shape, i, j)]
        assert names == {(1, 3): ["i"], (2, 4): ["ii"]}.get((i, j), []), (i, j)
    with pytest.raises(ValueError):
        situation_shape(shape, 1, 3, "iii")


def test_steinberg_degree_is_the_q_power_part_over_the_lie_38_range():
    count = 0
    for gid in iter_simple_ids(LIE_MAX_RANK, LIE_MAX_Q):
        assert steinberg_degree(gid) == p_part(simple_order(gid), gid.characteristic), gid
        count += 1
    assert count > 1243   # the lie-38 groups and the rank-one linear ones
