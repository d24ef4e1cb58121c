import tracemalloc

import pytest
from hypothesis import given, strategies as st

from chardeg.errors import ResourceLimitError
from chardeg.gf2poly import (
    count_irreducible_monic, count_self_reciprocal, irreducible_polys,
    poly_degree, poly_is_irreducible, poly_mod, poly_mul,
    poly_square, reciprocal_pair_count, srim_count_of_degree, SIEVE_MAX_D,
)


def test_irreducibility_examples():
    assert poly_is_irreducible(0b111)        # x^2+x+1
    assert not poly_is_irreducible(0b101)    # x^2+1 = (x+1)^2
    assert poly_is_irreducible(0b10011)      # x^4+x+1


def test_irreducibility_against_trial_division():
    def divides(g, f):
        from chardeg.gf2poly import poly_mod
        return poly_mod(f, g) == 0

    for f in range(2, 1 << 10):
        d = poly_degree(f)
        if d < 1:
            continue
        brute = not any(divides(g, f)
                        for g in range(2, 1 << (d // 2 + 1)) if poly_degree(g) >= 1)
        assert poly_is_irreducible(f) == brute, bin(f)


def test_count_irreducible_examples():
    assert count_irreducible_monic(1) == 2
    assert count_irreducible_monic(4) == 3
    assert count_irreducible_monic(8) == 30


def test_count_matches_enumeration():
    for d in range(1, 17):
        assert count_irreducible_monic(d) == sum(1 for _ in irreducible_polys(d))


def test_sieve_agrees_with_rabin_test():
    for d in range(1, 15):
        sieved = list(irreducible_polys(d))
        assert sieved == [f for f in range(1 << d, 2 << d) if poly_is_irreducible(f)], d
        assert all(type(f) is int for f in sieved)


def test_sieve_holds_one_row_of_products_at_a_time():
    import numpy  # noqa: F401 -- loaded before tracing starts, so not counted

    tracemalloc.start()
    try:
        count = sum(1 for _ in irreducible_polys(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == count_irreducible_monic(16)
    # 2**16 flags and three rows of 2**15 uint32 products take 0.44 MB; a
    # 2**e x 2**(16-e) table of int64 products would take 1.57 MB
    assert peak < 2**20


def test_sieve_resource_limit():
    with pytest.raises(ResourceLimitError):
        next(irreducible_polys(SIEVE_MAX_D + 1))
    with pytest.raises(ValueError):
        next(irreducible_polys(0))


def test_field_counting_identity():
    # sum over e | d of e * N_e = 2**d
    from chardeg.gf2poly import _divisors
    for d in range(1, 21):
        assert sum(e * count_irreducible_monic(e) for e in _divisors(d)) == 2**d


def test_self_reciprocal_table():
    assert [count_self_reciprocal(d) for d in range(1, 8)] == [1, 1, 1, 2, 3, 5, 9]
    assert count_self_reciprocal(8) == 16
    for d in range(9, 15):
        assert count_self_reciprocal(d) >= 16


def test_self_reciprocal_modes_agree():
    for d in range(1, 11):
        assert count_self_reciprocal(d, "formula") == count_self_reciprocal(d, "brute_force")


def test_brute_force_resource_limit():
    with pytest.raises(ResourceLimitError):
        count_self_reciprocal(11, "brute_force")
    with pytest.raises(ValueError):
        count_self_reciprocal(3, "magic")


def _palindromes(degree: int) -> list[int]:
    """Every monic polynomial of the degree equal to its own reversal, found
    by scanning them all for binary digits that read the same both ways."""
    return [f for f in range(1 << degree, 2 << degree)
            if (bits := format(f, "b")) == bits[::-1]]


def test_palindromes_with_an_even_number_of_terms_have_the_factor_x_plus_1():
    # the brute-force count builds none of these candidates
    for degree in range(2, 21):
        even = [f for f in _palindromes(degree) if f.bit_count() % 2 == 0]
        assert even
        assert all(poly_mod(f, 0b11) == 0 for f in even), degree


@given(st.integers(min_value=0, max_value=2**300))
def test_square_by_spreading_bits_matches_multiplication(a):
    assert poly_square(a) == poly_mul(a, a)


def test_self_reciprocal_irreducibles_have_even_degree():
    # no palindromic irreducible of odd degree 3..15 exists
    for degree in range(3, 16, 2):
        assert not any(poly_is_irreducible(f) for f in _palindromes(degree))
    # degree one: x+1 is its own reversal
    assert srim_count_of_degree(1) == 1


def test_pool_size_against_enumeration():
    def reversal(f):  # the coefficient sequence of f, read backwards
        return int(format(f, "b")[::-1], 2)

    for d0 in range(1, 11):
        polys = [f for f in irreducible_polys(d0) if f & 1]
        assert reciprocal_pair_count(d0) == sum(1 for f in polys if f < reversal(f))
        assert srim_count_of_degree(d0) == sum(1 for f in polys if f == reversal(f))


def test_lower_bound_on_irreducible_count():
    for d in range(3, 31):
        n = count_irreducible_monic(d)
        assert 4 * d * n >= 3 * 2**d
        if d >= 5:
            # the steps by which sec3/nd-counts decides every d >= 5: only
            # divisors e <= d/2 subtract from d*N(d)
            assert d * n >= 2**d - 2 ** (d // 2 + 1) + 2
            tail = 2 ** (d // 2) * (2 ** ((d + 1) // 2) - 8) + 8
            assert 4 * d * n - 3 * 2**d >= tail > 0
