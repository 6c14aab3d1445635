import math

import numpy as np
import pytest

from fracseries.leibniz import (
    leibniz_caputo_corrected,
    leibniz_caputo_wrong,
    leibniz_monomial,
    leibniz_report,
    leibniz_rl,
)
from fracseries.operators import caputo_derivative, rl_differintegral
from fracseries.series import TaylorSeries, series_from_catalog, taylor_arith

rng = np.random.default_rng(4242)


def poly(coeffs, center=0.0, truncation=12):
    return series_from_catalog("poly", list(coeffs), center=center, truncation=truncation)


def shifted(coeffs, center, truncation=12):
    return series_from_catalog(
        "shifted-poly", list(coeffs), center=center, truncation=truncation
    )


def unit(center=0.0):
    return series_from_catalog("const", [1.0], center=center, truncation=12)


# --- RL product rule ---------------------------------------------------------


@pytest.mark.parametrize("rule", ["rl", "wrong", "corrected"])
def test_report_recenters_the_lead_factor_once(monkeypatch, rule):
    calls = []
    original = TaylorSeries.recentered

    def counting(self, new_center):
        calls.append(new_center)
        return original(self, new_center)

    monkeypatch.setattr(TaylorSeries, "recentered", counting)
    f = series_from_catalog("exp", [1.0], truncation=32)
    g = series_from_catalog("sin", [1.0], truncation=32)
    leibniz_report(f, g, 0.5, 0.75, rule=rule)
    assert calls == [0.75]


def test_rl_rule_square_closed_form():
    # D^(1/2) t*t = Gamma(3)/Gamma(2.5) t^(3/2)
    f = poly([0.0, 1.0])
    t = 1.3
    got = leibniz_rl(f, f, 0.5, t).expect_finite()
    want = math.gamma(3.0) / math.gamma(2.5) * t**1.5
    assert got == pytest.approx(want, rel=1e-13)


def test_rl_rule_matches_product_operator():
    for alpha in (0.3, 0.7, 1.5, 2.2):
        for _ in range(10):
            f = poly(rng.uniform(-1.0, 1.0, size=4))
            g = poly(rng.uniform(-1.0, 1.0, size=4))
            product = taylor_arith(f, g, "mul")
            for t in (0.4, 1.1):
                got = leibniz_rl(f, g, alpha, t).expect_finite()
                want = rl_differintegral(product, alpha).evaluate(t).expect_finite()
                assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_rl_rule_unit_series_factor_collapses():
    g = poly([1.0, 2.0, -0.5])
    t = 0.9
    got = leibniz_rl(unit(), g, 0.4, t).expect_finite()
    want = rl_differintegral(g, 0.4).evaluate(t).expect_finite()
    assert got == pytest.approx(want, rel=1e-14)


def test_rl_rule_unit_cofactor_is_local_form():
    f = poly([1.0, 2.0, -0.5])
    t = 0.9
    got = leibniz_rl(f, unit(), 0.4, t).expect_finite()
    want = rl_differintegral(f, 0.4).evaluate(t).expect_finite()
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_rl_rule_integer_order_is_classical():
    f = poly([0.0, 1.0])
    g = poly([1.0, 1.0])
    t = 2.0
    got = leibniz_rl(f, g, 1.0, t).expect_finite()
    # (t + t^2)' = 1 + 2t
    assert got == pytest.approx(1.0 + 2.0 * t, rel=1e-14)


def test_rl_rule_validation():
    f = poly([1.0])
    with pytest.raises(ValueError):
        leibniz_rl(f, f, 0.5, 0.0)
    with pytest.raises(ValueError):
        leibniz_rl(f, f, 0.5, 1.0, trunc=0)


# --- monomial-cofactor rule ---------------------------------------------------


def test_monomial_rule_identity_factor():
    g = poly([1.0, 0.5, 0.25])
    t = 1.4
    got = leibniz_monomial(g, 0, 0.6, t).expect_finite()
    want = rl_differintegral(g, 0.6).evaluate(t).expect_finite()
    assert got == pytest.approx(want, rel=1e-14)


def test_monomial_rule_linear_times_one():
    # D^alpha t = t^(1-alpha)/Gamma(2-alpha)
    t = 1.8
    for alpha in (0.25, 0.5, 0.75):
        got = leibniz_monomial(unit(), 1, alpha, t).expect_finite()
        want = t ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        assert got == pytest.approx(want, rel=1e-13)


def test_monomial_rule_square_integral():
    # I^alpha t^2 = 2 t^(2+alpha)/Gamma(3+alpha)
    t = 1.8
    for alpha in (0.5, 1.3):
        got = leibniz_monomial(unit(), 2, alpha, t, kind="integral").expect_finite()
        want = 2.0 * t ** (2.0 + alpha) / math.gamma(3.0 + alpha)
        assert got == pytest.approx(want, rel=1e-13)


def test_monomial_rule_general_cofactor():
    f = series_from_catalog("exp", [1.0], truncation=40)
    product = taylor_arith(poly([0.0, 0.0, 1.0], truncation=40), f, "mul")
    t = 0.8
    for alpha in (0.5, 1.5):
        got = leibniz_monomial(f, 2, alpha, t).expect_finite()
        want = rl_differintegral(product, alpha).evaluate(t).expect_finite()
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_monomial_rule_validation():
    f = unit()
    with pytest.raises(ValueError):
        leibniz_monomial(f, -1, 0.5, 1.0)
    with pytest.raises(ValueError):
        leibniz_monomial(f, 1, -0.5, 1.0)
    with pytest.raises(ValueError):
        leibniz_monomial(f, 1, 0.5, 1.0, kind="sideways")


# --- the naive Caputo transplant ----------------------------------------------


def test_wrong_rule_linear_closed_form():
    # f = t - a, g = 1: the transplant gives alpha (t-a)^(1-alpha)/Gamma(2-alpha)
    for a in (0.0, 1.0):
        f = shifted([0.0, 1.0], center=a)
        g = unit(center=a)
        for alpha in (0.25, 0.5, 0.75):
            for t in (a + 0.5, a + 1.0, a + 2.0):
                got = leibniz_caputo_wrong(f, g, alpha, t).expect_finite()
                want = alpha * (t - a) ** (1.0 - alpha) / math.gamma(2.0 - alpha)
                assert got == pytest.approx(want, rel=1e-13)


def test_wrong_rule_square_closed_form():
    # f = g = t from terminal a:
    # (t-a)^(1-alpha)/Gamma(3-alpha) * (2t + a alpha - a alpha^2)
    a = 1.0
    f = poly([0.0, 1.0], center=a)
    for alpha in (0.25, 0.5, 0.75):
        for t in (1.5, 2.0, 3.0):
            got = leibniz_caputo_wrong(f, f, alpha, t).expect_finite()
            want = (
                (t - a) ** (1.0 - alpha)
                / math.gamma(3.0 - alpha)
                * (2.0 * t + a * alpha - a * alpha * alpha)
            )
            assert got == pytest.approx(want, rel=1e-13)


def test_wrong_rule_exact_when_cofactor_data_vanishes():
    # with g(a) = 0 and alpha in (0,1) nothing is missing
    a = 0.5
    g = shifted([0.0, 1.0], center=a)
    for _ in range(10):
        f = poly(rng.uniform(-1.0, 1.0, size=4), center=a)
        product = taylor_arith(f, g, "mul")
        alpha = float(rng.uniform(0.05, 0.95))
        t = a + 1.0
        got = leibniz_caputo_wrong(f, g, alpha, t).expect_finite()
        want = caputo_derivative(product, alpha).evaluate(t).expect_finite()
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_wrong_rule_misses_terminal_data():
    # with g(a) != 0 the transplant provably disagrees
    a = 1.0
    f = shifted([0.0, 1.0], center=a)
    g = unit(center=a)
    t = 2.0
    alpha = 0.5
    got = leibniz_caputo_wrong(f, g, alpha, t).expect_finite()
    truth = 1.0 / math.gamma(1.5)
    assert abs(got - truth) > 1e-2


def test_wrong_rule_near_integer_order_loses_the_limit():
    # as alpha -> 1 from above the transplant's terms all carry a factor
    # (alpha - 1) and die; the Caputo derivative tends to f'(t) instead
    alpha = 1.0 + 1e-6
    f = series_from_catalog("exp", [1.0], truncation=32)
    g = unit()
    t = 1.0
    wrong = leibniz_caputo_wrong(f, g, alpha, t).expect_finite()
    truth = caputo_derivative(f, alpha).evaluate(t).expect_finite()
    assert abs(wrong) < 1e-3
    assert truth == pytest.approx(math.exp(t) - 1.0, abs=1e-3)
    assert abs(wrong - truth) > 1.0


# --- corrected rule -------------------------------------------------------------


def test_corrected_rule_linear_example():
    a = 1.0
    f = shifted([0.0, 1.0], center=a)
    g = unit(center=a)
    t = 2.0
    alpha = 0.5
    report = leibniz_caputo_corrected(f, g, alpha, t)
    truth = 1.0 / math.gamma(1.5)
    assert report.reference_value.value == pytest.approx(truth, rel=1e-14)
    assert report.residual == 0.0
    gap = (1.0 - alpha) * (t - a) ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    assert report.correction_value == pytest.approx(gap, rel=1e-13)


def test_corrected_rule_square_example():
    a = 1.0
    t = 2.0
    alpha = 0.5
    f = poly([0.0, 1.0], center=a)
    report = leibniz_caputo_corrected(f, f, alpha, t)
    want_corr = (
        (t - a) ** (1.0 - alpha)
        / math.gamma(3.0 - alpha)
        * (2.0 * a - 3.0 * a * alpha + a * alpha * alpha)
    )
    want_truth = (
        2.0 * (t - a) ** (1.0 - alpha) * (t + a - a * alpha) / math.gamma(3.0 - alpha)
    )
    assert report.correction_value == pytest.approx(want_corr, rel=1e-13)
    assert report.reference_value.value == pytest.approx(want_truth, rel=1e-14)
    assert report.rule_value.value == pytest.approx(3.761263890318375, rel=1e-14)
    assert report.residual <= 1e-12 * (1.0 + abs(report.reference_value.value))


def test_corrected_rule_random_polynomials():
    for _ in range(25):
        a = float(rng.uniform(-0.5, 0.5))
        f = poly(rng.uniform(-1.0, 1.0, size=5), center=a)
        g = poly(rng.uniform(-1.0, 1.0, size=5), center=a)
        alpha = float(rng.uniform(0.05, 1.95))
        if abs(alpha - 1.0) < 1e-3:
            continue
        t = a + float(rng.uniform(0.2, 2.0))
        report = leibniz_caputo_corrected(f, g, alpha, t)
        ref = report.reference_value.value
        assert report.residual <= 1e-10 * (1.0 + abs(ref))


def test_corrected_rule_swap_symmetry():
    for _ in range(10):
        a = 0.25
        f = poly(rng.uniform(-1.0, 1.0, size=4), center=a)
        g = poly(rng.uniform(-1.0, 1.0, size=4), center=a)
        alpha = float(rng.uniform(0.1, 0.9))
        t = 1.5
        r1 = leibniz_caputo_corrected(f, g, alpha, t)
        r2 = leibniz_caputo_corrected(f, g, alpha, t, swap=True)
        assert r1.reference_value.value == r2.reference_value.value
        assert abs(r1.rule_value.value - r2.rule_value.value) <= 1e-10 * (
            1.0 + abs(r1.reference_value.value)
        )


def test_corrected_rule_integer_order_collapses():
    f = poly([1.0, 2.0])
    g = poly([0.0, 1.0])
    t = 1.5
    report = leibniz_caputo_corrected(f, g, 1.0, t)
    assert report.correction_value == 0.0
    # (t + 2t^2)' = 1 + 4t
    assert report.rule_value.value == pytest.approx(1.0 + 4.0 * t, rel=1e-14)
    assert report.residual <= 1e-13


def test_correction_vanishes_with_flat_cofactor():
    a = 0.0
    f = poly(rng.uniform(-1.0, 1.0, size=4), center=a)
    g = shifted([0.0, 0.0, 1.0], center=a)  # (t-a)^2: data 0 below k=2
    report = leibniz_caputo_corrected(f, g, 1.5, 1.0)
    assert report.correction_value == 0.0


def test_corrected_rule_transcendental_factors():
    f = series_from_catalog("exp", [1.0], truncation=24)
    g = series_from_catalog("sin", [1.0], truncation=24)
    report = leibniz_caputo_corrected(f, g, 0.5, 0.8, trunc=24)
    assert report.residual <= 1e-8 * (1.0 + abs(report.reference_value.value))


def test_corrected_rule_center_mismatch():
    with pytest.raises(ValueError):
        leibniz_caputo_corrected(poly([1.0]), poly([1.0], center=1.0), 0.5, 2.0)


# --- report dispatcher ----------------------------------------------------------


def test_report_wrong_rule_fields_cancel():
    a = 1.0
    f = poly([0.5, 1.0, -0.5], center=a)
    g = poly([1.0, 0.5], center=a)
    report = leibniz_report(f, g, 0.5, 2.0, rule="wrong")
    assert report.residual == abs(report.rule_value.value - report.reference_value.value)
    repaired = report.rule_value.value + report.correction_value
    assert abs(repaired - report.reference_value.value) <= 1e-10 * (
        1.0 + abs(report.reference_value.value)
    )


def test_report_rl_rule():
    f = poly([0.0, 1.0])
    report = leibniz_report(f, f, 0.5, 1.3, rule="rl")
    assert report.correction_value == 0.0
    assert report.residual <= 1e-12 * (1.0 + abs(report.reference_value.value))


def test_report_unknown_rule():
    with pytest.raises(ValueError):
        leibniz_report(poly([1.0]), poly([1.0]), 0.5, 1.0, rule="magic")
