"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget.  Criteria 01-11 run the claim
definitions of `chardeg verify-all` at their default ranges.  Every
assertion is exact; no floating point enters any verified comparison."""

import time
from math import factorial

from chardeg import groupengine, symalt
from chardeg.claims import PASS, RunConfig, run_claims
from chardeg.exactmath import GREATER, pow_compare


class Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} [{self.description}]: {status} "
              f"({elapsed:.1f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget}s")
        return False


def _criterion(number, description, budget_seconds, *claims):
    """Run each claim's own definition, the one `chardeg verify-all` runs,
    within the budget."""
    with Criterion(number, description, budget_seconds):
        reports = run_claims(list(claims), RunConfig())
        assert all(r.status == PASS for r in reports), \
            [r.to_json() for r in reports if r.status != PASS]


def test_criterion_01_hook_formula_identity():
    _criterion(1, "hook-length degree identities", 10,
               "sec2/hook-sum-squares", "sec2/hook-vs-tableaux")


def test_criterion_02_alternating_degree_growth():
    _criterion(2, "extendible alternating degree growth", 30,
               "thm2.1/rho-direct", "thm2.1/rho-induction")


def test_criterion_03_lie_type_steinberg_growth():
    _criterion(3, "Steinberg eighth power vs order cubed", 30, "thm2.1/lie-38")


def test_criterion_04_psl2_degree_lists():
    _criterion(4, "two-dimensional linear group degree data", 60,
               "sec5-6/psl2-degree-sums", "lem5.1/extendible-witness",
               "lem6.2/theta2-stabilizer")


def test_criterion_05_two_sided_bounds():
    _criterion(5, "epsilon and two-sided order bounds", 120,
               "thm3.1/epsilon-psl2", "thm3.1/epsilon-an")


def test_criterion_06_infinite_product_bound():
    _criterion(6, "tail product lower bound", 1, "lem3.2/euler-tail")


def test_criterion_07_polynomial_counts():
    _criterion(7, "irreducible and self-reciprocal counts", 120,
               "lem3.3/srim-table", "sec3/nd-counts")


def test_criterion_08_few_factor_degree_bound():
    _criterion(8, "few-factor semisimple degree bound", 60, "sec3/part3-r-le-3")


def test_criterion_09_situation_ratios():
    _criterion(9, "merge-move degree ratios", 300, "sec3/part4-situations")


def test_criterion_10_minimal_torus_bound():
    _criterion(10, "minimal-torus degree bound, untwisted split list", 10,
               "sec3/seitz-untwisted")


def test_criterion_11_equality_family():
    _criterion(11, "extremal family of order q^3(q-1)", 120,
               "thm7.2/equality-family", "lem7.1/gagola-arithmetic")


def test_criterion_12_character_table_oracle():
    with Criterion(12, "character table oracle soundness", 180):
        groups = [
            groupengine.cyclic_group(12),
            groupengine.cyclic_group(60),
            groupengine.dihedral_group(4),
            groupengine.dihedral_group(9),
            groupengine.dihedral_group(63),
            groupengine.symmetric_group(4),
            groupengine.symmetric_group(5),
            groupengine.alternating_group(5),
            groupengine.frobenius_21(),
            groupengine.quaternion_group(),
            groupengine.sl2_3(),
            groupengine.gl2_3(),
            groupengine.build_example_group("heisenberg", 2),
            groupengine.build_example_group("heisenberg", 3),
            groupengine.build_example_group("heisenberg", 5),
            groupengine.build_example_group("heisenberg", 7),
            groupengine.build_galois_twisted_group(4),
        ] + [groupengine.build_example_group("isaacs_K", q) for q in (3, 4, 5)]
        tables = [groupengine.dixon_character_table(g) for g in groups]
        assert len(groups) == 20
        for group, table in zip(groups, tables):
            assert group.order <= 500
            assert sum(d * d for d in table.degrees) == group.order
            assert all(group.order % d == 0 for d in table.degrees)
            assert table.verify_row_orthogonality()
            assert table.verify_column_orthogonality()


def test_rho_witness_at_seven():
    # the single-witness form of the direct growth check
    rho7 = symalt.rho_an(7)
    assert rho7 == 35
    assert 8 * rho7**8 > factorial(7) ** 3
    assert pow_compare(rho7, 8, factorial(7) // 2, 3) == GREATER
