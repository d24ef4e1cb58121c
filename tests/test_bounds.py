from fractions import Fraction

import pytest

from chardeg.bounds import (
    composition_bound, e_of, epsilon_of, gagola_arithmetic,
    simple_bound_report, verify_e4_bound,
)
from chardeg.degrees import DegreeMultiset
from chardeg.errors import OutOfHypothesisError
from chardeg.psl2 import psl2_degrees
from chardeg.symalt import an_degrees


def test_e_of_examples():
    assert e_of(60, 5).e == 7
    assert e_of(1, 1).e == 0
    assert e_of(8, 2).e == 2


def test_e_of_rejections():
    with pytest.raises(ValueError):
        e_of(60, 7)     # 7 does not divide 60
    with pytest.raises(ValueError):
        e_of(60, 10)    # 100 > 60


@pytest.mark.parametrize("order, d", [(-5, 1), (0, 1), (-6, -2), (0, 0)])
def test_e_of_rejects_non_positive_orders(order, d):
    with pytest.raises(ValueError, match="order must be positive"):
        e_of(order, d)


def test_e_of_round_trip():
    for order in range(1, 10_001):
        for d in range(1, order + 1):
            if d * d > order:
                break
            if order % d == 0:
                dec = e_of(order, d)
                assert dec.d * (dec.d + dec.e) == order


def test_e4_bound_examples():
    assert verify_e4_bound(e_of(54, 6)) == verify_e4_bound(e_of(54, 6))
    rep = verify_e4_bound(e_of(54, 6))
    assert rep.holds and rep.slack == 0
    rep = verify_e4_bound(e_of(192, 12))
    assert rep.holds and rep.slack == 0
    rep = verify_e4_bound(e_of(60, 5))
    assert rep.holds and rep.slack == 1998


def test_e4_bound_refuses_small_e():
    with pytest.raises(OutOfHypothesisError):
        verify_e4_bound(e_of(2, 1))  # e = 1
    with pytest.raises(OutOfHypothesisError):
        verify_e4_bound(e_of(1, 1))  # e = 0


def test_matrix_family_identity():
    # order q**3 (q-1) with degree q(q-1) gives e = q and exact equality
    from chardeg.lie import prime_powers_up_to
    for q in prime_powers_up_to(100):
        order = q**3 * (q - 1)
        if q == 2:
            d = 2  # degree q(q-1) = 2 for the order-8 group
        else:
            d = q * (q - 1)
        dec = e_of(order, d)
        assert dec.e == q
        assert order == q**4 - q**3
        if q > 2:
            assert verify_e4_bound(dec).slack == 0


def test_epsilon_examples():
    assert epsilon_of(psl2_degrees(5)) == Fraction(7, 5)
    assert epsilon_of(psl2_degrees(7)) == Fraction(13, 8)
    assert epsilon_of(DegreeMultiset.from_degrees([1])) == 0


def test_epsilon_excludes_all_max_degree_copies():
    ds = DegreeMultiset.from_pairs([(4, 3), (2, 2), (1, 1)])
    assert epsilon_of(ds) == Fraction(2 * 4 + 1, 16)


def test_simple_bound_report_examples():
    rep = simple_bound_report(psl2_degrees(7))
    assert (rep.order, rep.b) == (168, 8)
    assert rep.gt_2b2 and rep.e_at_b == 13 and rep.lt_2e2 and rep.chain_ok
    rep = simple_bound_report(psl2_degrees(5))
    assert (rep.order, rep.b) == (60, 5)
    assert rep.gt_2b2 and rep.e_at_b == 7 and rep.lt_2e2
    rep = simple_bound_report(DegreeMultiset.from_degrees([1]))
    assert not rep.gt_2b2 and rep.order == 1


def test_simple_bound_report_undefined_e():
    # maximum degree not dividing the squared-degree sum
    ds = DegreeMultiset.from_pairs([(3, 1), (1, 1)])
    rep = simple_bound_report(ds)
    assert rep.order == 10 and rep.e_at_b is None and rep.lt_2e2 is None


def test_alternating_epsilon_chain():
    for n in range(5, 21):
        rep = simple_bound_report(an_degrees(n))
        assert rep.epsilon_gt_1 and rep.chain_ok and rep.gt_2b2 and rep.lt_2e2


def test_composition_examples():
    rep = composition_bound(5, 7, 5, 7)
    assert (rep.order, rep.e_min) == (3600, 119) and rep.exceeds_2sqrt
    rep = composition_bound(1, 1, 1, 1)
    assert (rep.order, rep.e_min) == (4, 3) and rep.exceeds_2sqrt
    rep = composition_bound(8, 13, 8, 13)
    assert rep.order == 64 * 441 and rep.e_min == 377
    with pytest.raises(OutOfHypothesisError):
        composition_bound(5, 0, 5, 7)


def test_gagola_arithmetic_examples():
    rep = gagola_arithmetic(54, 6, 3, 3, 27)
    assert rep.e == 3 and rep.all_pass and rep.order_is_extremal and rep.n_equals_e
    rep = gagola_arithmetic(192, 12, 4, 2, 64)
    assert rep.e == 4 and rep.all_pass
    rep = gagola_arithmetic(8, 2, 2, 2, 8)
    assert rep.e == 2 and rep.all_pass


def test_gagola_arithmetic_validation():
    with pytest.raises(ValueError):
        gagola_arithmetic(54, 6, 6, 3, 27)   # |N| not a prime power of p
    with pytest.raises(ValueError):
        gagola_arithmetic(54, 6, 3, 3, 9)    # wrong Sylow order
