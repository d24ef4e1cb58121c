from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from chardeg import symalt
from chardeg.errors import ResourceLimitError
from chardeg.exactmath import root_interval, sqrt_interval
from chardeg.partitions import add_node, boundary_nodes, conjugate, hook_degree, partitions_of
from chardeg.symalt import (
    TAIL_START, an_degrees, certifies_rho_bound, rho_an, rho_certificates, rho_tail_polynomials,
    rho_witness, sn_degrees, verify_rho_growth,
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
    assert list(certs) == list(range(7, TAIL_START + 1))
    for n in range(7, 21):
        assert sum(certs[n]) == n
        assert hook_degree(certs[n]) <= rho_an(n)


def test_certificate_chain_matches_the_checked_api():
    # the chain grows on the unchecked cores; grown again through the
    # public API, which checks every partition, it must be the same chain
    lam, chain = (3, 1, 1), []
    for n in range(6, TAIL_START + 1):
        grown = (add_node(lam, node) for node in boundary_nodes(lam)[0])
        lam = max((c for c in grown if c != conjugate(c)),
                  key=lambda c: (hook_degree(c), c))
        if n >= 7:
            chain.append((n, lam))
    assert rho_certificates() == chain


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


def test_chain_reaches_the_tail_with_no_gap():
    # the tail starts at the chain's last n, so a step read out of n (87
    # proves 88) or into n (88 from 87) finds the bound it starts from
    certs = rho_certificates()
    assert [n for n, _ in certs] == list(range(7, TAIL_START + 1))
    assert all(certifies_rho_bound(n, lam) for n, lam in certs)
    assert verify_rho_growth() == []
    # and it starts at the first n with v = (n+1)**(1/8) >= 7/4, that is
    # with 65536 * (n+1) >= 7**8
    assert symalt.RHO_TAIL_FROM == Fraction(7, 4)
    assert 65536 * (TAIL_START + 1) >= 7**8 > 65536 * TAIL_START


def test_tail_refuses_r_below_sqrt_2(monkeypatch):
    monkeypatch.setattr(symalt, "RHO_TAIL_R", Fraction(141, 100))
    assert verify_rho_growth() == ["r=141/100 has r^2<2"]


def test_tail_refuses_a_start_below_7_4(monkeypatch):
    monkeypatch.setattr(symalt, "RHO_TAIL_FROM", Fraction(17, 10))
    assert verify_rho_growth() == ["P2=v^8-r*v^7-r*v^4", "P3=v^8-r*v^7-r*v^4-r*v+1"]


def test_tail_refuses_a_seam_its_start_does_not_reach(monkeypatch):
    monkeypatch.setattr(symalt, "TAIL_START", TAIL_START - 1)
    assert verify_rho_growth() == [f"v<7/4 at n={TAIL_START - 1}"]


def _at(poly, v):
    """P(v) on the dyadic interval v, for P with rational coefficients."""
    out, power = 0 * v, 0 * v + 1
    for c in poly:
        c = Fraction(c)
        out = out + (power * c.numerator) / c.denominator
        power = power * v
    return out


@given(st.one_of(st.just(TAIL_START), st.integers(TAIL_START, 10**12)),
       st.sampled_from((48, 96)))
def test_tail_polynomials_lie_below_the_exact_sides(n, bits):
    # the growth inequalities multiplied out, each side enclosed at its own n
    v = root_interval(n + 1, 8, bits)
    v3, v5 = root_interval((n + 1) ** 3, 8, bits), root_interval((n + 1) ** 5, 8, bits)
    s2n, s2n2 = sqrt_interval(2 * n, bits), sqrt_interval(2 * n + 2, bits)
    n38 = root_interval(n**3, 8, bits)
    sides = (v5 - s2n - 1,
             (n + 1) - s2n2 - s2n * v3,
             (n + 2) - s2n2 - s2n / n38 - s2n * v3)
    for poly, side in zip(rho_tail_polynomials().values(), sides, strict=True):
        bound = _at(poly, v)
        assert 0 < bound.lo <= bound.hi < side.lo
