"""Order-versus-degree arithmetic: the e-invariant of a (order, degree) pair,
the quartic bound e**4 - e**3, the epsilon invariant of a degree multiset,
the two-sided simple-group bounds, the composition lower bound for e, and
the arithmetic of groups with a character vanishing off two classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .degrees import DegreeMultiset
from .errors import OutOfHypothesisError
from .exactmath import is_prime, p_part, prime_power


class EDecomposition(NamedTuple):
    """|G| = d (d + e) for a character degree d; e is the slack above d."""

    order: int
    d: int
    e: int


def e_of(order: int, d: int) -> EDecomposition:
    """The unique decomposition order = d (d + e) with e = order/d - d."""
    if order < 1:
        raise ValueError("order must be positive")
    if d < 1:
        raise ValueError("degree must be positive")
    if order % d:
        raise ValueError(f"{d} does not divide {order}")
    if d * d > order:
        raise ValueError(f"{d}**2 exceeds the order {order}")
    return EDecomposition(order, d, order // d - d)


class E4BoundReport(NamedTuple):
    holds: bool
    slack: int


def verify_e4_bound(dec: EDecomposition) -> E4BoundReport:
    """Check order <= e**4 - e**3; defined only for e > 1 (the e = 1 groups
    form a separately classified family)."""
    if dec.e <= 1:
        raise OutOfHypothesisError("the quartic bound assumes e > 1")
    cap = dec.e**4 - dec.e**3
    return E4BoundReport(holds=dec.order <= cap, slack=cap - dec.order)


def epsilon_of(ds: DegreeMultiset) -> Fraction:
    """Sum of squared degrees strictly below the maximum, over the maximum
    squared.  All characters of maximal degree are excluded, including extra
    copies when the maximum has multiplicity above one."""
    b = ds.max_degree
    below = sum(m * d * d for d, m in ds if d < b)
    return Fraction(below, b * b)


class SimpleBoundReport(NamedTuple):
    """Two-sided bounds recovered from a complete degree multiset.

    epsilon > 1 forces e > b, which yields both order > 2b**2 and
    order < 2e**2; chain_ok records that the implication held on this input.
    """

    b: int
    order: int
    gt_2b2: bool
    e_at_b: int | None
    lt_2e2: bool | None
    epsilon_gt_1: bool
    chain_ok: bool


def simple_bound_report(ds: DegreeMultiset) -> SimpleBoundReport:
    order = ds.sum_squares
    b = ds.max_degree
    gt_2b2 = order > 2 * b * b
    if order % b == 0 and b * b <= order:
        e = e_of(order, b).e
        lt_2e2 = order < 2 * e * e
    else:
        e = None
        lt_2e2 = None
    eps_gt_1 = epsilon_of(ds) > 1
    chain_ok = (not eps_gt_1) or (
        e is not None and e > b and gt_2b2 and bool(lt_2e2))
    return SimpleBoundReport(b, order, gt_2b2, e, lt_2e2, eps_gt_1, chain_ok)


class CompositionBoundReport(NamedTuple):
    order: int
    e_min: int
    exceeds_2sqrt: bool


def composition_bound(bN: int, eN: int, bQ: int, eQ: int) -> CompositionBoundReport:
    """Lower bound for e when a group of order bN(bN+eN) * bQ(bQ+eQ) has
    largest degree bN*bQ: e >= eN*eQ + eN*bQ + bN*eQ, which already exceeds
    2*sqrt(bN*bQ) whenever both parts are nontrivial."""
    if bN < 1 or bQ < 1:
        raise ValueError("largest degrees must be positive")
    if eN < 1 or eQ < 1:
        raise OutOfHypothesisError("both factors must be nontrivial (e > 0)")
    order = bN * bQ * (bN + eN) * (bQ + eQ)
    e_min = eN * eQ + eN * bQ + bN * eQ
    return CompositionBoundReport(order, e_min, e_min * e_min > 4 * bN * bQ)


class GagolaArithmeticReport(NamedTuple):
    """Arithmetic consequences for a group with a character vanishing off
    two classes: with N the unique minimal normal subgroup and P a Sylow
    subgroup for its prime, |P : N| = e**2, d = e(|N| - 1), |G : P| = |N| - 1,
    and order = e**4 - e**3 exactly when |N| = e."""

    e: int
    sylow_index_is_e2: bool
    degree_relation: bool
    equality_iff: bool
    order_is_extremal: bool
    n_equals_e: bool
    index_relation: bool

    @property
    def all_pass(self) -> bool:
        return (self.sylow_index_is_e2 and self.degree_relation
                and self.equality_iff and self.index_relation)


def gagola_arithmetic(order: int, d: int, n_order: int, p: int,
                      sylow_p: int) -> GagolaArithmeticReport:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    pp, _ = prime_power(n_order)
    if pp != p:
        raise ValueError(f"|N| = {n_order} is not a power of {p}")
    if sylow_p != p_part(order, p):
        raise ValueError(f"{sylow_p} is not the {p}-part of {order}")
    e = e_of(order, d).e
    sylow_ok = sylow_p % n_order == 0 and sylow_p // n_order == e * e
    degree_ok = d == e * (n_order - 1)
    extremal = order == e**4 - e**3
    n_is_e = n_order == e
    index_ok = order % sylow_p == 0 and order // sylow_p == n_order - 1
    return GagolaArithmeticReport(
        e=e,
        sylow_index_is_e2=sylow_ok,
        degree_relation=degree_ok,
        equality_iff=extremal == n_is_e,
        order_is_extremal=extremal,
        n_equals_e=n_is_e,
        index_relation=index_ok,
    )
