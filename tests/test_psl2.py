import pytest

from chardeg import claims
from chardeg.bounds import epsilon_of, simple_bound_report
from chardeg.degrees import DegreeMultiset
from chardeg.errors import UnsupportedFamilyError
from chardeg.exactmath import LESS, pow_compare
from chardeg.lie import prime_powers_up_to
from chardeg.psl2 import (
    CLASSES, Psl2Char, class_polynomials, extendible_witness_even, field_invariance,
    psl2_degrees, psl2_order, theta2_stabilizer_odd,
)


def psl2_characters(q):
    """Every irreducible character of PSL2(q), q >= 4, listed from the index
    ranges of each series directly rather than from the residue-class table;
    Psl2Char refuses an index the table does not hold."""
    if q % 2 == 0:
        series = {"chi": range(1, (q - 2) // 2 + 1), "theta": range(1, q // 2 + 1)}
    else:
        series = {"chi": range(2, (q - 3) // 2 + 1, 2), "theta": range(2, (q - 1) // 2 + 1, 2),
                  "xi" if q % 4 == 1 else "eta": range(1, 3)}
    return [Psl2Char(q, "trivial"), Psl2Char(q, "steinberg")] + [
        Psl2Char(q, family, i) for family, indices in series.items() for i in indices]


def _value(poly, q):
    return sum(c * q**i for i, c in enumerate(poly))


def test_degree_lists_examples():
    assert psl2_degrees(8).entries == ((9, 3), (8, 1), (7, 4), (1, 1))
    assert psl2_degrees(5).entries == ((5, 1), (4, 1), (3, 2), (1, 1))
    assert psl2_degrees(7).entries == ((8, 1), (7, 1), (6, 1), (3, 2), (1, 1))
    assert psl2_degrees(8).sum_squares == 504
    assert psl2_degrees(5).sum_squares == 60
    assert psl2_degrees(7).sum_squares == 168


def test_exceptional_isomorphism_4_vs_5():
    assert psl2_degrees(4).entries == psl2_degrees(5).entries


def test_degree_multiset_matches_character_list():
    for q in prime_powers_up_to(2000):
        if q >= 4:
            chars = psl2_characters(q)
            assert psl2_degrees(q) == DegreeMultiset.from_degrees(c.degree for c in chars)
            assert psl2_degrees(q).sum_squares == psl2_order(q)
            # one character per conjugacy class
            assert len(chars) == (q + 1 if q % 2 == 0 else (q + 5) // 2)


def test_sum_identity_sweep():
    for q in prime_powers_up_to(500):
        if q >= 4:
            assert psl2_degrees(q).sum_squares == psl2_order(q)


def test_max_degree_is_q_or_q_plus_one():
    for q in prime_powers_up_to(200):
        if q >= 5:
            assert psl2_degrees(q).max_degree in (q, q + 1)


def test_eighth_power_comparison_fails_for_large_q():
    # the largest degree is only about the cube root of the order, so
    # b**8 > |S|**3 must fail once q is large; this is why these groups are
    # excluded from the Steinberg-degree growth check
    for q in (16, 17, 19, 25, 27, 49, 1024):
        b = psl2_degrees(q).max_degree
        assert pow_compare(b, 8, psl2_order(q), 3) == LESS


def test_epsilon_exceeds_one():
    for q in prime_powers_up_to(300):
        if q >= 5:
            assert epsilon_of(psl2_degrees(q)) > 1


def test_field_invariance_examples():
    assert field_invariance(Psl2Char(8, "theta", 3), 1) is True
    assert field_invariance(Psl2Char(9, "theta", 2), 1) is False
    # k = f is the identity automorphism
    assert field_invariance(Psl2Char(8, "theta", 1), 3) is True
    assert field_invariance(Psl2Char(16, "chi", 3), 4) is True


def test_field_invariance_unsupported_families():
    with pytest.raises(UnsupportedFamilyError):
        field_invariance(Psl2Char(8, "steinberg"), 1)
    with pytest.raises(UnsupportedFamilyError):
        field_invariance(Psl2Char(13, "xi", 1), 1)


def test_extendible_witness_examples():
    w = extendible_witness_even(8)
    assert (w.family, w.index, w.degree) == ("theta", 3, 7)
    w = extendible_witness_even(16)
    assert (w.family, w.index, w.degree) == ("chi", 5, 17)
    w = extendible_witness_even(32)
    assert (w.family, w.index, w.degree) == ("theta", 11, 31)


def test_extendible_witness_invariance():
    # the per-q oracle for lem5.1/extendible-witness, which decides every f
    for f in range(3, 21):
        w = extendible_witness_even(2**f)
        assert all(field_invariance(w, k) for k in range(1, f + 1))
        assert w.degree in (2**f - 1, 2**f + 1)


def test_extendible_witness_rejects_small_or_odd():
    with pytest.raises(ValueError):
        extendible_witness_even(4)
    with pytest.raises(ValueError):
        extendible_witness_even(9)


def test_theta2_stabilizer_examples():
    rep = theta2_stabilizer_odd(9)
    assert rep.all_pass and rep.checks == [(1, True)] and rep.stabilizer_index == 2
    rep = theta2_stabilizer_odd(5)
    assert rep.all_pass and rep.checks == []  # f = 1 is vacuous
    rep = theta2_stabilizer_odd(27)
    assert rep.all_pass and len(rep.checks) == 2
    with pytest.raises(ValueError):
        theta2_stabilizer_odd(8)


def test_degrees_rejects_bad_q():
    with pytest.raises(ValueError):
        psl2_degrees(3)
    with pytest.raises(ValueError):
        psl2_degrees(6)


def test_character_index_validation():
    with pytest.raises(ValueError):
        Psl2Char(8, "chi", 4)  # even q: chi index <= (q-2)/2 = 3
    with pytest.raises(ValueError):
        Psl2Char(9, "theta", 3)  # odd q: theta index must be even
    with pytest.raises(ValueError):
        Psl2Char(9, "eta", 1)  # q = 1 mod 4 has xi, not eta
    with pytest.raises(ValueError):
        Psl2Char(7, "xi", 1)


def test_class_polynomials_agree_with_each_q():
    # the per-q degree lists are the oracle for the class polynomials, and
    # the bound report for the signs of the margins
    polys = {cls: class_polynomials(cls) for cls in CLASSES}
    assert not any(c for p in polys.values() for c in p["sum of squares - order"])
    for q in prime_powers_up_to(10**4):
        if q < 4:
            continue
        p = polys["even" if q % 2 == 0 else f"{q % 4} mod 4"]
        ds = psl2_degrees(q)
        assert _value(p["order"], q) == psl2_order(q) == ds.sum_squares
        if q == 5:  # no chi character: the largest degree is q, decided alone
            assert ds.max_degree == 5
            continue
        margins = {k: _value(v, q) for k, v in p["margins"].items()}
        b = ds.max_degree
        m = ds.multiplicity(b)
        rep = simple_bound_report(ds)
        assert b == q + 1 and margins["chi count > 0"] == m
        assert margins["epsilon > 1"] == ds.sum_squares - (m + 1) * b * b
        assert margins["order > 2b^2"] == ds.sum_squares - 2 * b * b
        assert margins["order < 2e^2"] == 2 * rep.e_at_b**2 - ds.sum_squares
        assert margins["e > b"] == rep.e_at_b - b
        assert (margins["epsilon > 1"] > 0) == rep.epsilon_gt_1
        assert (margins["order > 2b^2"] > 0) == rep.gt_2b2
        assert (margins["order < 2e^2"] > 0) == rep.lt_2e2
        assert all(v > 0 for v in margins.values())


def test_theta2_stabilizer_sweep():
    # the per-q oracle for lem6.2/theta2-stabilizer, which decides every odd q
    for q in prime_powers_up_to(10**4):
        if q >= 5 and q % 2:
            assert theta2_stabilizer_odd(q).all_pass


def test_wrong_class_entry_fails_the_degree_sum_claim(monkeypatch):
    wrong = {**CLASSES["1 mod 4"], "chi": ((1, 1, 1), (1, -1, 4), 2)}
    monkeypatch.setitem(CLASSES, "1 mod 4", wrong)
    [report] = claims.run_claims(["sec5-6/psl2-degree-sums"], claims.RunConfig())
    assert (report.status, report.witnesses[-1]) == (claims.FAIL, "failures=['1 mod 4']")


def test_threshold_below_the_class_start_fails_the_epsilon_claim(monkeypatch):
    # from q = 5 the 1 mod 4 class has no chi character, so its margins fail
    monkeypatch.setitem(claims.PSL2_CLASS_FROM, "1 mod 4", 5)
    [report] = claims.run_claims(["thm3.1/epsilon-psl2"], claims.RunConfig())
    assert report.status == claims.FAIL
    assert "1 mod 4: chi count > 0" in report.witnesses[-1]
