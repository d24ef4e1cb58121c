from math import factorial

import pytest
from hypothesis import given, strategies as st

from chardeg.errors import ResourceLimitError
from chardeg.partitions import conjugate, hook_degree, partitions_of
from chardeg.symalt import (
    an_degrees, rho_an, rho_certificates, rho_witness, sn_degrees,
    verify_rho_growth, _block_enclosures, _induction_failures, _induction_inequalities,
)


def test_sn_degrees_examples():
    assert sn_degrees(1).entries == ((1, 1),)
    assert sn_degrees(3).entries == ((2, 1), (1, 2))
    assert sn_degrees(5).entries == ((6, 1), (5, 2), (4, 2), (1, 2))


def test_an_degrees_examples():
    assert an_degrees(3).entries == ((1, 3),)
    assert an_degrees(4).entries == ((3, 1), (1, 3))
    assert an_degrees(5).entries == ((5, 1), (4, 1), (3, 2), (1, 1))
    # degree 8 pairs come from the split of the self-conjugate staircase
    assert an_degrees(6).entries == ((10, 1), (9, 1), (8, 2), (5, 2), (1, 1))
    assert an_degrees(7).entries == (
        (35, 1), (21, 1), (15, 1), (14, 2), (10, 2), (6, 1), (1, 1))


def test_degree_sum_identities():
    for n in range(2, 13):
        assert sn_degrees(n).sum_squares == factorial(n)
        assert an_degrees(n).sum_squares == factorial(n) // 2


def test_rho_small_values():
    assert rho_an(5) == 5
    # the largest degree from a non-self-conjugate partition of 6 is 10,
    # attained by (4,1,1); the self-conjugate (3,2,1) of degree 16 is excluded
    assert rho_an(6) == 10
    assert rho_an(7) == 35


def test_certificates_never_exceed_rho():
    certs = dict(rho_certificates())
    assert list(certs) == list(range(7, 75))
    for n in range(7, 21):
        assert sum(certs[n]) == n
        assert hook_degree(certs[n]) <= rho_an(n)


def test_rho_witness_attains_value():
    for n in (5, 6, 9, 12):
        lam = rho_witness(n)
        assert lam != conjugate(lam)
        assert hook_degree(lam) == rho_an(n)


def test_rho_below_max_sn_degree():
    for n in range(5, 13):
        top = sn_degrees(n).max_degree
        assert rho_an(n) <= top
        maximizers = [lam for lam in partitions_of(n) if hook_degree(lam) == top]
        if any(lam != conjugate(lam) for lam in maximizers):
            assert rho_an(n) == top


def test_rho_range_checks():
    with pytest.raises(ResourceLimitError):
        rho_an(4)
    with pytest.raises(ResourceLimitError):
        rho_an(61)
    with pytest.raises(ResourceLimitError):
        sn_degrees(61)


def test_induction_inequalities_hold_from_75():
    for n in (75, 76, 100, 1000):
        assert all(_induction_inequalities(n, n))


def test_induction_fails_at_74_so_certificates_must_reach_it():
    assert _induction_inequalities(74, 74) == (True, True, False)
    assert verify_rho_growth(80, spot_checks=()) == []
    assert _induction_failures(74, 10**4) == [74]


def test_rho_induction_proves_a_range_no_per_n_loop_could():
    assert verify_rho_growth(10**9, ()) == []


def test_block_proof_agrees_with_each_n_decided_alone():
    reference = [n for n in range(75, 3001) if not all(_induction_inequalities(n, n))]
    assert verify_rho_growth(3000, spot_checks=()) == reference
    reference = [n for n in range(2, 300) if not all(_induction_inequalities(n, n))]
    assert _induction_failures(2, 299) == reference == list(range(2, 75))


@given(st.lists(st.integers(75, 10**5), min_size=3, max_size=3).map(sorted),
       st.sampled_from((32, 64, 128)))
def test_block_enclosures_contain_each_single_n(a_n_b, bits):
    # the block proof is sound only if its enclosures hold every n in it
    a, n, b = a_n_b
    block_lhs, block_rhs = _block_enclosures(a, b, bits)
    single_lhs, single_rhs = _block_enclosures(n, n, bits)
    for block, single in zip((*block_lhs, block_rhs), (*single_lhs, single_rhs)):
        assert block.lo <= single.lo <= single.hi <= block.hi

