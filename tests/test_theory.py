import hashlib
import json
import math
from fractions import Fraction

import pytest

from svsearch.errors import DomainError, UsageError
from svsearch.theory import (
    E_UPPER,
    binomial_stirling_identity_ok,
    cert_rate_lower_bound,
    complexity_formulas,
    expected_strips_bound,
    failure_bound,
    first_strip_bounds,
    first_strip_series_bounds,
    hypothesis_report,
    invertible_tuple_count,
    joint_cert_success_bound,
    joint_strips_bound,
    mat_mul_2x2,
    mu,
    stirling1,
    strip_index_bound,
    strip_index_series_bound,
    strip_sums,
    success_at_strip_bound,
    symmetric_power,
    theory_report,
    ul_recursion,
)

F = Fraction


def test_e_upper_is_a_tight_upper_bound():
    assert float(E_UPPER) == pytest.approx(math.e, abs=1e-15)
    assert E_UPPER > F(math.e)  # float(e) rounds below the true value at this precision
    lower = sum(F(1, math.factorial(k)) for k in range(46))
    assert lower < E_UPPER
    assert E_UPPER - lower < F(1, 10 ** 50)


def test_mu_examples():
    assert mu(1) == 1
    assert mu(2) == F(1, 2)
    assert mu(3) == F(2, 3)
    assert mu(4) == F(5, 8)
    assert abs(float(mu(10)) - 0.6321) < 1e-4
    with pytest.raises(UsageError):
        mu(0)


def test_strip_sums_examples():
    s1 = strip_sums(2, 2, 1)
    assert s1.alt == 1  # C(4,1)/4
    s2 = strip_sums(2, 2, 2)
    assert s2.alt == F(5, 8)
    assert strip_sums(2, 2, 3).tail == F(1, 16)
    assert strip_sums(3, 2, 2).alt == F(5, 9)
    # binomial cutoff: q^s < j makes the terms vanish
    tiny = strip_sums(2, 2, 6)
    assert tiny.tail == 0
    # identities
    for (q, s, m) in ((2, 2, 3), (3, 2, 4), (5, 3, 5)):
        t = strip_sums(q, s, m)
        assert t.alt == t.odd - t.even
        assert t.plus == t.odd + t.even


def test_first_strip_bounds_examples():
    iv = first_strip_bounds(2, 2, 2)
    assert (iv.lower, iv.upper) == (F(5, 8), F(11, 16))
    assert iv.hypotheses_ok
    iv3 = first_strip_bounds(2, 2, 3)
    assert (iv3.lower, iv3.upper) == (F(11, 16) - F(1, 256), F(11, 16))
    iv32 = first_strip_bounds(3, 2, 2)
    assert (iv32.lower, iv32.upper) == (F(5, 9), F(5, 9) + F(84, 729))


def test_first_strip_series_examples():
    iv = first_strip_series_bounds(5, 2, 3)
    assert iv.lower == F(5, 8) - F(2, 25)
    assert iv.upper == F(2, 3) + F(2, 25)
    # the series interval always contains the exact one when hypotheses hold
    for q in range(2, 10):
        for d in range(2, 7):
            s = 2
            exact = first_strip_bounds(q, s, d)
            series = first_strip_series_bounds(q, s, d)
            if exact.hypotheses_ok:
                assert series.lower <= exact.lower <= exact.upper <= series.upper, (q, d)


def test_joint_strips_bound_examples():
    iv = joint_strips_bound(2, 2, 3, 2)
    assert iv.center == F(11, 16) ** 2
    iv_even = joint_strips_bound(2, 2, 2, 2)
    assert iv_even.center == strip_sums(2, 2, 3).alt ** 2  # even d pivots at d + 1
    with pytest.raises(UsageError):
        joint_strips_bound(2, 2, 3, 1)
    # radius positive and decreasing in d for fixed k, q, s, within the
    # hypothesis region q^s > d (outside it the binomial tail vanishes)
    for q, s, k in ((5, 2, 2), (3, 2, 3)):
        radii = [joint_strips_bound(q, s, d, k).radius for d in range(2, 8)]
        assert all(r > 0 for r in radii)
        assert all(a >= b for a, b in zip(radii, radii[1:]))
    assert joint_strips_bound(2, 2, 5, 2).radius == 0  # q^s < d + 1: tail is 0


def test_success_at_strip_examples():
    iv = success_at_strip_bound(2, 2, 3, 2)
    assert iv.center == F(11, 16) * F(5, 16)
    with pytest.raises(UsageError):
        success_at_strip_bound(2, 2, 3, 1)
    # radius at h = 2 equals tail * (1 + plus + 1/2) by hand expansion
    sums4 = strip_sums(2, 2, 4)
    assert iv.radius == sums4.tail * (1 + sums4.plus + F(1, 2))


def test_strip_index_bound_adds_two_over_q():
    for (q, s, d, h) in ((2, 2, 3, 2), (3, 2, 4, 3), (31, 2, 3, 2), (5, 2, 5, 4)):
        base = success_at_strip_bound(q, s, d, h)
        full = strip_index_bound(q, s, d, h)
        assert full.center == base.center
        assert full.radius == base.radius + F(2, q)


def test_strip_index_series_center_and_terms():
    iv = strip_index_series_bound(101, 2, 6, 2)
    assert iv.center == mu(7) * (1 - mu(7))  # even d pivots at d + 1
    # radius uses mu(d), not mu(d+1), inside the q^(-s) correction
    manual = (
        (E_UPPER + F(1, 2)) / math.factorial(7)
        + F(2, 101)
        + F(5, 101 ** 2) * (2 - mu(6))
    )
    assert iv.radius == manual
    assert iv.outward_rounded


def test_failure_bound_headline_numbers():
    iv = failure_bound(101, 4, 2, 6)
    assert iv.center == (1 - mu(7)) ** 3
    assert float(iv.center) == pytest.approx(0.049778, abs=1e-6)
    assert float(iv.radius) == pytest.approx(0.0671561, abs=1e-6)
    assert iv.hypotheses_ok
    # small d makes the factorial term blow past 1: flagged vacuous
    vac = failure_bound(1009, 6, 2, 3)  # h* = 5
    assert vac.vacuous
    edge = failure_bound(101, 3, 2, 6)  # h* = 2: regular tag
    assert edge.tag == "failure_probability"
    degenerate = failure_bound(101, 3, 3, 6)  # h* = 1: flagged edge case
    assert degenerate.tag == "failure_probability(budget<2)"


def test_joint_cert_success_identities():
    for (q, s, d, h) in ((1009, 2, 3, 2), (101, 2, 6, 3), (31, 2, 3, 2)):
        joint = joint_cert_success_bound(q, s, d, h)
        series = strip_index_series_bound(q, s, d, h)
        gate = 2 * d ** s * (d + 1) ** s
        assert joint.center == series.center
        assert joint.radius == series.radius + F(gate, q)
    assert not joint_cert_success_bound(31, 2, 3, 2).hypotheses["q>2d^s(d+1)^s"]  # 288 >= 31
    assert joint_cert_success_bound(1009, 2, 2, 2).hypotheses["q>2d^s(d+1)^s"]


def test_joint_cert_success_matches_its_closed_form():
    # the bound is built on strip_index_series_bound; the closed form it
    # must keep, written out term by term, is the reference
    checked = 0
    for q in (2, 3, 4, 5, 7, 31, 101, 1009):
        for s in (2, 3, 4):
            for d in range(2, 7):
                for h in (2, 3):
                    mu_par = mu(d if d % 2 else d + 1)
                    gate = 2 * d ** s * (d + 1) ** s
                    radius = (
                        (E_UPPER ** (h - 1) + F(1, 2)) / math.factorial(d + 1)
                        + F(gate + 2, q)
                        + F(5, q ** s) * (2 - mu(d)) ** (h - 1)
                    )
                    joint = joint_cert_success_bound(q, s, d, h)
                    assert joint.center == mu_par * (1 - mu_par) ** (h - 1), (q, s, d, h)
                    assert joint.radius == radius, (q, s, d, h)
                    assert joint.hypotheses == {"q>2d^s(d+1)^s": q > gate, "s<d": s < d, "h>1": True}
                    checked += 1
    assert checked == 240
    with pytest.raises(UsageError):
        joint_cert_success_bound(31, 2, 3, 1)


def test_expected_strips_examples():
    b = expected_strips_bound(101, 4, 2, 6)
    manual = 1 / mu(7) + 3 * (1 - mu(7)) ** 3 + 9 * E_UPPER ** 3 / math.factorial(7)
    assert b.value == manual
    assert float(b.value) == pytest.approx(1.7671, abs=2e-4)
    assert not b.hypotheses_ok  # 101 <= 2 * 36 * 49
    assert b.o_tail == F(4 * 7 ** 8, 101)
    # headline: about 2.34 strips suffice for large d
    large = expected_strips_bound(10 ** 6 + 3, 4, 2, 20)
    assert float(1 / mu(20)) + 0.76 == pytest.approx(2.3419, abs=1e-3)
    assert float(large.value) <= 2.34
    # decreasing in d at fixed budget
    vals = [float(expected_strips_bound(1009, 4, 2, d).value) for d in range(4, 10)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_cert_rate_lower_bound_examples():
    assert cert_rate_lower_bound(1009, 2, 2) == 1 - F(72, 1009)
    assert float(cert_rate_lower_bound(1009, 2, 2)) == pytest.approx(0.92864, abs=1e-5)
    assert cert_rate_lower_bound(72, 2, 2) == 0
    assert cert_rate_lower_bound(101, 2, 2) == 1 - F(72, 101)
    assert float(cert_rate_lower_bound(101, 2, 2)) == pytest.approx(0.287, abs=1e-3)


def test_stirling_examples_and_identities():
    assert stirling1(3, 2) == 3
    assert stirling1(4, 1) == 6
    assert stirling1(5, 5) == 1
    for j in range(1, 9):
        assert stirling1(j, j) == 1
        if j >= 2:
            assert stirling1(j, j - 1) == j * (j - 1) // 2
        assert sum(stirling1(j, k) for k in range(j + 1)) == math.factorial(j)
    with pytest.raises(UsageError):
        stirling1(21, 1)
    with pytest.raises(UsageError):
        stirling1(3, 4)


def test_binomial_stirling_identity():
    for q in (2, 3, 5):
        for s in (2, 3):
            for j in range(1, 9):
                assert binomial_stirling_identity_ok(q, s, j), (q, s, j)


def test_ul_recursion_basics():
    rec = ul_recursion(2, 2, 3, 8)
    sums3 = strip_sums(2, 2, 3)
    sums4 = strip_sums(2, 2, 4)
    assert rec.uppers[0] == sums3.alt  # d odd: upper truncates at d
    assert rec.lowers[0] == sums4.alt
    for u, l in zip(rec.uppers, rec.lowers):
        assert l <= u
    # even parity swaps the roles
    rec_even = ul_recursion(2, 2, 2, 5)
    assert rec_even.uppers[0] == strip_sums(2, 2, 3).alt
    assert rec_even.lowers[0] == strip_sums(2, 2, 2).alt
    with pytest.raises(UsageError):
        ul_recursion(2, 2, 3, 33)


def test_ul_recursion_closed_form_matches_iteration():
    for (q, s, d) in ((2, 2, 3), (3, 2, 2), (2, 2, 5), (5, 2, 3)):
        rec = ul_recursion(q, s, d, 8)
        for mat in (rec.mat_upper, rec.mat_lower):
            a, b = mat[0][0], -mat[0][1]
            iterated = ((F(1), F(0)), (F(0), F(1)))
            for m in range(8):
                assert symmetric_power(a, b, m) == iterated
                iterated = mat_mul_2x2(iterated, mat)


def test_ul_recursion_sandwich_entrywise():
    for (q, s, d) in ((2, 2, 3), (2, 2, 2), (3, 2, 3), (3, 2, 4), (5, 2, 3)):
        rec = ul_recursion(q, s, d, 8)
        for i in range(2):
            for j in range(2):
                assert rec.mat_lower[i][j] <= rec.mat_mixed[i][j] <= rec.mat_upper[i][j]


def test_ul_recursion_envelope_exact_at_two_steps_but_not_beyond():
    # The symmetric-matrix envelope pivot^k + tail/2 * (plus^(k-1) - pivot^(k-1))
    # coincides with U_k for k <= 2.  For k >= 3 it can undershoot: entrywise
    # matrix domination does not survive powering when off-diagonals are
    # negative.  The final joint-strip radius absorbs the gap (next test).
    for (q, s, d) in ((2, 2, 3), (3, 2, 2), (3, 2, 3), (5, 2, 3)):
        rec = ul_recursion(q, s, d, 8)
        pivot = rec.mat_upper[0][0] - (-rec.mat_upper[0][1])
        plus = rec.mat_upper[0][0] + (-rec.mat_upper[0][1])
        tail = strip_sums(q, s, d + 1).tail
        for k in (1, 2):
            envelope = pivot ** k + tail / 2 * (plus ** (k - 1) - pivot ** (k - 1))
            assert rec.uppers[k - 1] == envelope, (q, s, d, k)
    # pinned counterexample at k = 3
    rec = ul_recursion(2, 2, 3, 3)
    assert rec.uppers[2] == F(10783, 32768)
    envelope3 = F(11, 16) ** 3 + strip_sums(2, 2, 4).tail / 2 * (F(23, 16) ** 2 - F(11, 16) ** 2)
    assert envelope3 == F(5375, 16384)
    assert rec.uppers[2] > envelope3


def test_joint_radius_covers_two_step_envelope():
    # at k = 2 the recursion envelope is exact, and the published radius
    # strictly contains it; beyond k = 2 exact enumeration arbitrates (see
    # test_mc.test_three_strip_joint_probability_exact_enumeration), since
    # the envelope itself overshoots
    for (q, s, d) in ((2, 2, 3), (2, 2, 2), (3, 2, 3), (3, 2, 4), (5, 2, 3), (5, 2, 4)):
        rec = ul_recursion(q, s, d, 2)
        iv = joint_strips_bound(q, s, d, 2)
        assert rec.uppers[1] - iv.center <= iv.radius, (q, s, d)
        assert iv.center - rec.lowers[1] <= iv.radius, (q, s, d)


def test_telescoping_identity():
    for d in (2, 3, 6, 9):
        for hstar in (1, 2, 3, 5):
            m = mu(d)
            total = sum(m * (1 - m) ** (h - 1) for h in range(1, hstar + 1))
            assert total == 1 - (1 - m) ** hstar


def test_series_vs_sum_distance_bound():
    # |alt_m - mu_m| <= 1/(4 q^s) + m / q^(2s): rigorous for m >= 3
    for q in (2, 3, 5, 7, 11):
        for s in (2, 3):
            for m in range(3, 9):
                gap = abs(strip_sums(q, s, m).alt - mu(m))
                assert gap <= F(1, 4 * q ** s) + F(m, q ** (2 * s)), (q, s, m)


def test_series_vs_sum_distance_bound_m2_exception():
    # At m = 2 the gap is exactly 1/(2 q^s): alt_2 = (n+1)/(2n) for n = q^s.
    # The claimed bound then holds iff q^s <= 8; the weaker 2/q^s bound that
    # the endpoint corrections actually consume holds always.
    for q in (2, 3, 5, 7, 11):
        for s in (2, 3):
            n = q ** s
            gap = abs(strip_sums(q, s, 2).alt - mu(2))
            assert gap == F(1, 2 * n)
            claimed = F(1, 4 * n) + F(2, n * n)
            assert (gap <= claimed) == (n <= 8), (q, s)
            assert gap <= F(2, n)


def test_intervals_clamp_and_flags():
    iv = strip_index_series_bound(7, 2, 3, 4)
    assert 0 <= iv.lower <= iv.upper <= 1
    assert iv.vacuous == (iv.radius >= 1)
    d = iv.as_dict()
    assert set(d) >= {"tag", "center", "radius", "lower", "upper", "hypotheses_ok"}


def test_complexity_formula_examples():
    tau_gb, tau_k = complexity_formulas(2, 2, 31, 4, 3.0)
    assert tau_gb == pytest.approx(15 + 2 * 10 ** 3 + 64 + 4 * math.log2(31), rel=1e-12)
    assert tau_k == pytest.approx(15 + 6 * 16 + 4 * math.log2(31), rel=1e-12)
    assert round(tau_gb) == 2099
    assert round(tau_k) == 131
    gbs = [complexity_formulas(d, 2, 31, 4, 3.0)[0] for d in range(2, 8)]
    assert all(a < b for a, b in zip(gbs, gbs[1:]))
    with pytest.raises(UsageError):
        complexity_formulas(2, 2, 31, 4, 1.5)


def test_hypothesis_report_examples():
    rep = hypothesis_report(31, 5, 2, 3)
    assert rep == {
        "s<=d+1": True,
        "q^s>d": True,
        "s<d": True,
        "q^s>6": True,
        "q>2d^s(d+1)^s": False,
    }
    assert hypothesis_report(1009, 4, 2, 2)["q>2d^s(d+1)^s"] is True
    rep2 = hypothesis_report(2, 3, 2, 2)
    assert rep2["q^s>d"] is True and rep2["s<d"] is False
    assert hypothesis_report(31, 5, 2, 3, h=4)["1<h<=r-s+1"] is True
    assert hypothesis_report(31, 5, 2, 3, h=5)["1<h<=r-s+1"] is False


def test_theory_report_structure():
    rep = theory_report(2, 3, 2, 2)
    assert rep["first_strip"]["lower"] == "5/8"
    assert rep["first_strip"]["upper"] == "11/16"
    rep2 = theory_report(101, 4, 2, 6)
    assert float(rep2["failure"]["center_float"]) == pytest.approx(0.049778, abs=1e-5)
    assert float(rep2["expected_strips"]["value_float"]) == pytest.approx(1.767, abs=1e-3)
    # the strict upper bound on mu(d) fails exactly at d = 3
    assert theory_report(31, 5, 2, 3)["mu_strict_upper_ok"] is False
    assert theory_report(31, 5, 2, 5)["mu_strict_upper_ok"] is True
    mu_entry = rep2["mu_table"]["10"]
    assert abs(mu_entry["float"] - 0.6321) < 1e-4


def test_invertible_tuple_count_h1():
    assert invertible_tuple_count(7, 1, 5, 2) == 7 ** 3
    with pytest.raises(DomainError):
        invertible_tuple_count(2, 4, 4, 2)


# sha256 of json.dumps(theory_report(q, r, s, d, hmax)), recorded while each
# of the first-strip bounds still picked its ends in a branch on the parity of d
@pytest.mark.parametrize(
    "params,hmax,sha256",
    [
        ((101, 4, 2, 6), None, "b7b0acc7022d9cec42d6e3aa61ce1dd92e73409fc817c5323618f2cc975189b7"),
        ((31, 5, 2, 3), None, "f330ab61287fa40d9c407e1a98c12f233a59b08ca3a5431572c3ff359a4623df"),
        ((2, 4, 2, 2), 3, "5fb595238e97f6c2e32eb1c29e215d99c0fd46368e8c707b5204ca920c0c1866"),
        ((1009, 4, 2, 4), None, "b1023788788ddba9106e8bada2f34d955ce727da8f4dd1c53d4b4e134aa8dfae"),
    ],
    ids=["q101-d6", "q31-d3", "q2-d2-h3", "q1009-d4"],
)
def test_theory_report_bytes_are_pinned(params, hmax, sha256):
    report = theory_report(*params, hmax=hmax)
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == sha256


# raises that no other test reaches: (call, error type, message fragment)
REFUSALS = {
    "strip_sums_m_0": (lambda: strip_sums(2, 2, 0), UsageError, "m >= 1"),
    "invertible_tuples_h_0": (lambda: invertible_tuple_count(2, 0, 4, 2), UsageError, "h >= 1"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_raise_their_error(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error, match=fragment):
        call()
