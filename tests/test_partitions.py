from collections import Counter
from math import factorial, isqrt

import pytest
from hypothesis import given, strategies as st

from chardeg.partitions import (
    add_node, boundary_nodes, conjugate, hook_degree, partitions_of,
    remove_node, standard_tableaux_count,
)


@st.composite
def partition_strategy(draw, max_n=14):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    remaining = n
    cap = n
    while remaining:
        p = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return tuple(parts)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_hook_degree_examples():
    assert hook_degree((7,)) == 1
    assert hook_degree((2, 1)) == 2
    assert hook_degree((3, 2)) == 5


@given(partition_strategy())
def test_hook_degree_conjugation_invariant(lam):
    assert hook_degree(lam) == hook_degree(conjugate(lam))


def test_partition_enumeration_order():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(0)) == [()]
    counts = [len(list(partitions_of(n))) for n in range(1, 11)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_lexicographically_decreasing():
    for n in (6, 9):
        seq = list(partitions_of(n))
        assert all(a > b for a, b in zip(seq, seq[1:]))


def test_sum_of_squares_identity():
    for n in range(1, 13):
        assert sum(hook_degree(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_boundary_nodes_examples():
    addable, removable = boundary_nodes((1,))
    assert addable == {(1, 2), (2, 1)} and removable == {(1, 1)}
    addable, removable = boundary_nodes((2, 1))
    assert len(addable) == 3 and len(removable) == 2
    for n in (1, 4, 9):
        addable, removable = boundary_nodes((n,))
        assert len(addable) == 2 and len(removable) == 1


@given(partition_strategy())
def test_boundary_counts_and_bounds(lam):
    n = sum(lam)
    addable, removable = boundary_nodes(lam)
    assert len(addable) == len(removable) + 1
    # |A| < sqrt(2n) + 1 and |R| < sqrt(2n), via exact squaring
    assert (len(addable) - 1) ** 2 < 2 * n or len(addable) == 1
    assert len(removable) ** 2 < 2 * n
    for node in addable:
        mu = add_node(lam, node)
        assert sum(mu) == n + 1
    for node in removable:
        mu = remove_node(lam, node)
        assert sum(mu) == n - 1


def test_add_remove_round_trip():
    lam = (4, 2, 1)
    addable, _ = boundary_nodes(lam)
    for node in addable:
        assert remove_node(add_node(lam, node), node) == lam


def test_branching_identities():
    for n in range(1, 11):
        for lam in partitions_of(n):
            addable, removable = boundary_nodes(lam)
            assert (n + 1) * hook_degree(lam) == sum(
                hook_degree(add_node(lam, node)) for node in addable)
            if n > 1:
                assert hook_degree(lam) == sum(
                    hook_degree(remove_node(lam, node)) for node in removable)


def test_hook_degree_matches_tableau_enumeration():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert hook_degree(lam) == standard_tableaux_count(lam)


def test_invalid_partition_rejected():
    with pytest.raises(ValueError):
        hook_degree((1, 2))
    with pytest.raises(ValueError):
        conjugate((3, 0))
