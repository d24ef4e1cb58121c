import operator
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from chardeg.exactmath import (
    EQUAL, GREATER, LESS,
    DyadicInterval, factorize, iroot, is_prime, is_prime_power, p_part, poly_add,
    poly_mul, positive_from, positivity_certificate, pow_compare, prime_power,
    root_interval, sqrt_interval, taylor_shift,
)


def test_positive_from_examples():
    # x**2 - 2x - 1 is 2 at x = 3 and -1 at x = 2
    assert positive_from([-1, -2, 1], 3)
    assert not positive_from([-1, -2, 1], 2)
    # x**2 - x + 1 is positive everywhere, but its unshifted middle
    # coefficient is negative, so it is not certified from 0
    assert not positive_from([1, -1, 1], 0)
    assert positive_from([1, -1, 1], 1)
    # a zero constant term after the shift is a root at x0
    assert not positive_from([0, 1], 0)
    assert not positive_from([-2, 1], 2)
    assert positive_from([Fraction(-5, 4), Fraction(1, 4)], 9)
    assert not positive_from([], 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6), st.integers(-5, 5),
       st.integers(0, 30))
def test_positive_from_is_sound(coeffs, x0, s):
    # a certified polynomial is positive at every sampled point from x0 on
    if positive_from(coeffs, x0):
        x = x0 + Fraction(s, 3)
        assert sum(c * x**i for i, c in enumerate(coeffs)) > 0


def test_poly_mul():
    assert poly_mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert poly_mul([Fraction(1, 2)], [0, 2], [3]) == [0, 3]
    assert poly_mul() == [1]


def _value(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_fractions, max_size=6), small_fractions, small_fractions)
def test_taylor_shift_evaluates_at_x0_plus_s(coeffs, x0, s):
    assert _value(taylor_shift(coeffs, x0), s) == _value(coeffs, x0 + s)


@given(st.lists(st.lists(st.integers(-20, 20), max_size=6), min_size=1, max_size=4))
def test_poly_add_sums_coefficientwise(polys):
    total = poly_add(*polys)
    assert len(total) == max(map(len, polys))
    assert total == [sum(p[i] for p in polys if i < len(p)) for i in range(len(total))]


def test_poly_add_of_no_polynomial_and_of_one():
    assert poly_add() == []
    assert poly_add([1, Fraction(1, 2)]) == [1, Fraction(1, 2)]
    assert poly_add([1, 2], [0, -2]) == [1, 0]  # zero top coefficients are kept


def test_positivity_certificate_is_json_that_rechecks():
    cert = positivity_certificate([Fraction(-5, 4), Fraction(1, 4)], 9)
    assert cert == {"poly": ["-5/4", "1/4"], "from": 9}
    assert positive_from([Fraction(c) for c in cert["poly"]], Fraction(cert["from"]))
    # a start that is not an int is written as its string, as JSON needs
    cert = positivity_certificate([-5, 1], Fraction(21, 4))
    assert cert == {"poly": ["-5", "1"], "from": "21/4"}
    assert positive_from([Fraction(c) for c in cert["poly"]], Fraction(cert["from"]))


def test_p_part_examples():
    assert p_part(5616, 3) == 27
    assert p_part(1, 7) == 1
    assert p_part(504, 2) == 8


def test_p_part_rejects_bad_inputs():
    with pytest.raises(ValueError):
        p_part(12, 4)
    with pytest.raises(ValueError):
        p_part(0, 3)


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_p_part_splits_off_coprime_part(n, p):
    part = p_part(n, p)
    assert n % part == 0
    assert (n // part) % p != 0


def _p_part_one_division_at_a_time(n, p):
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 31, 65537]), st.integers(min_value=0, max_value=4000),
       st.integers(min_value=1, max_value=10**40))
def test_p_part_agrees_with_one_division_at_a_time(p, k, m):
    m //= _p_part_one_division_at_a_time(m, p)   # m prime to p
    n = p**k * m
    assert p_part(n, p) == _p_part_one_division_at_a_time(n, p) == p**k


def test_factorize_round_trip():
    for n in list(range(1, 500)) + [5616, 2**20, 3**12 * 7]:
        prod = 1
        for p, e in factorize(n):
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to every prime base up to 7, 23 and 37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**79 - 67)
    assert not is_prime((2**31 - 1) * (2**47 - 115))
    assert not is_prime(43**16)  # above the bound: trial division


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    with pytest.raises(ValueError):
        prime_power(12)
    with pytest.raises(ValueError):
        prime_power(1)


def test_is_prime_power_is_false_below_two():
    assert [n for n in range(-4, 10) if is_prime_power(n)] == [2, 3, 4, 5, 7, 8, 9]


def test_pow_compare_examples():
    assert pow_compare(27, 8, 5616, 3) == GREATER
    assert pow_compare(4, 1, 2, 2) == EQUAL
    assert pow_compare(2, 3, 3, 2) == LESS


def test_pow_compare_exhaustive_against_direct_exponentiation():
    powers = {(a, x): a**x for a in range(1, 101) for x in range(1, 11)}
    for a in range(1, 101, 7):
        for x in range(1, 11):
            for b in range(1, 101, 9):
                for y in range(1, 11):
                    lhs, rhs = powers[(a, x)], powers[(b, y)]
                    expected = (lhs > rhs) - (lhs < rhs)
                    assert pow_compare(a, x, b, y) == expected
                    assert pow_compare(b, y, a, x) == -expected


def test_iroot():
    assert iroot(0, 5) == 0
    assert iroot(1, 9) == 1
    assert iroot(2**30, 3) == 2**10
    for m in (7, 26, 27, 28, 10**18, 10**18 + 1):
        for k in (2, 3, 5, 8):
            r = iroot(m, k)
            assert r**k <= m < (r + 1) ** k


def _values(iv):
    scale = 1 << iv.bits
    return Fraction(iv.lo, scale), Fraction(iv.hi, scale)


def test_sqrt_interval_examples():
    iv = sqrt_interval(4, 10)
    assert iv.contains(2) and iv.bits == 10 and iv.hi - iv.lo <= 1
    iv = sqrt_interval(2, 20)
    lo, hi = _values(iv)
    assert lo**2 <= 2 <= hi**2
    iv = sqrt_interval(150, 30)
    lo, hi = _values(iv)
    assert lo**2 <= 150 <= hi**2
    assert iv.bits == 30 and iv.hi - iv.lo <= 1


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=1, max_value=40))
def test_sqrt_interval_encloses(n, bits):
    iv = sqrt_interval(n, bits)
    lo, hi = _values(iv)
    assert lo**2 <= n <= hi**2
    assert iv.bits == bits and iv.hi - iv.lo <= 1


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=20))
def test_sqrt_interval_precision_monotone(n, bits):
    fine, coarse = sqrt_interval(n, bits + 8), sqrt_interval(n, bits)
    assert fine.hi - fine.lo <= (coarse.hi - coarse.lo) << 8


def test_root_interval():
    iv = root_interval(5**8, 8, 20)
    assert iv.contains(5)
    iv = root_interval(75**3, 8, 30)
    lo, hi = _values(iv)
    assert lo**8 <= 75**3 <= hi**8


def test_interval_arithmetic():
    bits = 4
    a = DyadicInterval(1 << bits, 2 << bits, bits)
    b = DyadicInterval(3 << bits, 4 << bits, bits)
    assert _values(a + b) == (4, 6)
    assert _values(b - a) == (1, 3)
    assert _values(a * b) == (3, 8)
    assert _values(b / a) == (Fraction(3, 2), 4)
    assert _values(1 / b)[0] == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        1 / DyadicInterval(-1 << bits, 1 << bits, bits)


def test_interval_scales_must_match():
    with pytest.raises(ValueError):
        DyadicInterval(1, 2, 4) + DyadicInterval(1, 2, 5)
    with pytest.raises(ValueError):
        DyadicInterval(2, 1, 4)


def _moore(op, a, b):
    ends = [op(x, y) for x in a for y in b]
    return min(ends), max(ends)


_numerators = st.integers(min_value=-2**80, max_value=2**80)


@st.composite
def _intervals(draw, bits):
    """Intervals at the scale 2**bits, with integer endpoints (numerators
    divisible by the scale) or dyadic ones, of either sign."""
    ends = sorted(draw(st.one_of(
        st.tuples(_numerators, _numerators),
        st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
        .map(lambda t: (t[0] << bits, t[1] << bits)))))
    return DyadicInterval(ends[0], ends[1], bits)


@given(st.data(), st.integers(min_value=1, max_value=64),
       st.integers(min_value=-10**6, max_value=10**6))
def test_interval_operations_enclose_within_one_unit(data, bits, c):
    """Sums and differences are exact.  Products, quotients and reciprocals
    hold the exact interval of the operands and exceed it by less than
    2**-bits at either end.  An int operand c is the point [c, c]."""
    a, b = data.draw(_intervals(bits)), data.draw(_intervals(bits))
    point = DyadicInterval(c << bits, c << bits, bits)
    unit = Fraction(1, 1 << bits)
    for x, y, ex, ey in ((a, b, a, b), (a, c, a, point), (c, a, point, a)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            if op is operator.truediv and ey.lo <= 0 <= ey.hi:
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            lo, hi = _values(op(x, y))
            exact_lo, exact_hi = _moore(op, _values(ex), _values(ey))
            if op in (operator.add, operator.sub):
                assert (lo, hi) == (exact_lo, exact_hi)
            else:
                assert exact_lo - unit < lo <= exact_lo
                assert exact_hi <= hi < exact_hi + unit
    if not a.lo <= 0 <= a.hi:
        recip = 1 / a
        lo, hi = _values(recip)
        a_lo, a_hi = _values(a)
        assert 1 / a_hi - unit < lo <= 1 / a_hi
        assert 1 / a_lo <= hi < 1 / a_lo + unit
        assert (recip.lo, recip.hi) == (4**bits // a.hi, -(-4**bits // a.lo))


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=64))
def test_root_enclosures_bracket_the_root(m, k, bits):
    """lo**k <= m <= hi**k exactly, and the width is at most 2**-bits."""
    for iv, power in ((sqrt_interval(m, bits), 2), (root_interval(m, k, bits), k)):
        lo, hi = _values(iv)
        assert lo >= 0 and lo**power <= m <= hi**power
        assert iv.bits == bits and iv.hi - iv.lo <= 1

