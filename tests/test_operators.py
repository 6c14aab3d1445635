import math

import numpy as np
import pytest

from fracseries.operators import (
    caputo_derivative,
    caputo_local_form,
    frac_differintegral,
    integer_limit_check,
    rl_caputo_bridge,
    rl_differintegral,
    rl_local_form,
)
from fracseries.series import FracPowerSeries, TaylorSeries, series_from_catalog

rng = np.random.default_rng(101)


def random_poly(degree, center=0.0, truncation=12):
    coeffs = rng.uniform(-2.0, 2.0, size=degree + 1)
    return series_from_catalog("poly", list(coeffs), center=center, truncation=truncation)


# --- Riemann-Liouville ------------------------------------------------------


def test_rl_derivative_of_constant():
    f = series_from_catalog("const", [1.0], center=0.0, truncation=4)
    s = rl_differintegral(f, 0.5)
    assert s.terms == ((1.0 / math.gamma(0.5), -0.5),)


def test_rl_order_zero_is_identity():
    f = series_from_catalog("poly", [1.0, -2.0, 3.0], truncation=6)
    s = rl_differintegral(f, 0.0)
    for t in (0.0, 0.5, 2.0):
        want = 1.0 - 2.0 * t + 3.0 * t * t
        assert s.evaluate(t).expect_finite() == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_rl_integer_orders_are_exact_shifts():
    f = series_from_catalog("poly", [0.0, 0.0, 1.0], truncation=8)  # t^2
    d = rl_differintegral(f, 1.0)
    assert d.evaluate(3.0).expect_finite() == 6.0
    i = rl_differintegral(f, -1.0)
    assert i.evaluate(3.0).expect_finite() == 9.0


def test_rl_halfint_integral_of_monomial():
    # I^(1/2) t = t^(3/2) / Gamma(5/2)
    f = series_from_catalog("poly", [0.0, 1.0], truncation=4)
    s = rl_differintegral(f, -0.5)
    t = 1.7
    want = t**1.5 / math.gamma(2.5)
    assert s.evaluate(t).expect_finite() == pytest.approx(want, rel=1e-14)


def test_rl_half_derivative_of_exp():
    # e^t erf(sqrt(t)) + 1/sqrt(pi t), an independent closed form
    f = series_from_catalog("exp", [1.0], truncation=64)
    s = rl_differintegral(f, 0.5)
    for t in (0.25, 1.0, 2.0):
        want = math.exp(t) * math.erf(math.sqrt(t)) + 1.0 / math.sqrt(math.pi * t)
        assert s.evaluate(t).expect_finite() == pytest.approx(want, rel=1e-13)


def test_rl_half_integral_of_exp():
    f = series_from_catalog("exp", [1.0], truncation=64)
    s = rl_differintegral(f, -0.5)
    for t in (0.25, 1.0, 2.0):
        want = math.exp(t) * math.erf(math.sqrt(t))
        assert s.evaluate(t).expect_finite() == pytest.approx(want, rel=1e-13)


def test_rl_classification_at_center():
    f = series_from_catalog("exp", [1.0], truncation=16)
    r = rl_differintegral(f, 0.5).evaluate(0.0)
    assert r.is_infinite and r.sign == 1
    # 1/Gamma(-0.5) < 0 flips the sign at order 3/2
    r = rl_differintegral(f, 1.5).evaluate(0.0)
    assert r.is_infinite and r.sign == -1


# --- Caputo -----------------------------------------------------------------


def test_caputo_of_linear():
    f = series_from_catalog("poly", [0.0, 1.0], truncation=4)
    s = caputo_derivative(f, 0.5)
    assert s.terms == ((1.0 / math.gamma(1.5), 0.5),)


def test_caputo_of_square():
    f = series_from_catalog("poly", [0.0, 0.0, 1.0], truncation=6)
    s = caputo_derivative(f, 0.5)
    t = 2.0
    want = 2.0 * t**1.5 / math.gamma(2.5)
    assert s.evaluate(t).expect_finite() == pytest.approx(want, rel=1e-14)


def test_caputo_kills_lower_polynomial_data():
    # constants (and all data below ceil(alpha)) drop out
    f = series_from_catalog("poly", [5.0, 0.0, 1.0], truncation=6)
    g = series_from_catalog("poly", [0.0, 0.0, 1.0], truncation=6)
    a = caputo_derivative(f, 0.5)
    b = caputo_derivative(g, 0.5)
    assert a.terms == b.terms


def test_caputo_of_exp():
    f = series_from_catalog("exp", [1.0], truncation=64)
    s = caputo_derivative(f, 0.5)
    for t in (0.25, 1.0, 2.0):
        want = math.exp(t) * math.erf(math.sqrt(t))
        assert s.evaluate(t).expect_finite() == pytest.approx(want, rel=1e-13)


def test_caputo_rejects_bad_orders():
    f = series_from_catalog("poly", [0.0, 1.0], truncation=4)
    for alpha in (0.0, -0.5, 1.0, 2.0):
        with pytest.raises(ValueError):
            caputo_derivative(f, alpha)


def test_caputo_vanishes_at_the_terminal():
    for _ in range(20):
        f = random_poly(int(rng.integers(0, 7)), center=0.5)
        alpha = float(rng.uniform(0.05, 2.95))
        if abs(alpha - round(alpha)) < 1e-3:
            continue
        r = caputo_derivative(f, alpha).evaluate(0.5)
        assert r.is_finite and r.value == 0.0


# --- bridge -----------------------------------------------------------------


def test_bridge_of_constant():
    f = series_from_catalog("const", [1.0], center=1.0, truncation=4)
    s = rl_caputo_bridge(f, 0.5)
    assert len(s.terms) == 1
    c, e = s.terms[0]
    assert e == -0.5
    assert c == pytest.approx(1.0 / math.gamma(0.5), rel=1e-15)


def test_bridge_of_shifted_linear():
    # f = t - a has f(a) = 0, f'(a) = 1; only the k=1 term survives
    f = series_from_catalog("shifted-poly", [0.0, 1.0], center=2.0, truncation=4)
    s = rl_caputo_bridge(f, 1.5)
    assert len(s.terms) == 1
    c, e = s.terms[0]
    assert e == -0.5
    assert c == pytest.approx(1.0 / math.gamma(0.5), rel=1e-15)


def test_bridge_empty_at_integer_order():
    f = series_from_catalog("poly", [1.0, 2.0, 3.0], truncation=6)
    assert rl_caputo_bridge(f, 2.0).is_zero


def test_rl_splits_into_caputo_plus_bridge():
    for _ in range(20):
        a = float(rng.uniform(-1.0, 1.0))
        f = random_poly(int(rng.integers(0, 7)), center=a)
        alpha = float(rng.uniform(0.05, 2.95))
        if abs(alpha - round(alpha)) < 1e-3:
            continue
        rl = rl_differintegral(f, alpha)
        cap = caputo_derivative(f, alpha)
        br = rl_caputo_bridge(f, alpha)
        for t in np.linspace(a + 0.1, a + 2.0, 20):
            lhs = rl.evaluate(float(t)).expect_finite()
            rhs = cap.evaluate(float(t)).expect_finite() + br.evaluate(
                float(t)
            ).expect_finite()
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


# --- local (evaluation-point) forms -----------------------------------------


def test_local_forms_match_terminal_forms():
    a = 0.0
    f = series_from_catalog("poly", [1.0, -1.0, 2.0, 0.5], center=a, truncation=10)
    for alpha in (0.4, 1.6, 2.3):
        rl = rl_differintegral(f, alpha)
        cap = caputo_derivative(f, alpha)
        for t in (0.5, 1.0, 1.8):
            f_at_t = series_from_catalog(
                "poly", [1.0, -1.0, 2.0, 0.5], center=t, truncation=10
            )
            loc_rl = rl_local_form(f_at_t, alpha, a).evaluate(t).expect_finite()
            want_rl = rl.evaluate(t).expect_finite()
            assert abs(loc_rl - want_rl) <= 1e-10 * (1.0 + abs(want_rl))

            loc_cap = caputo_local_form(f_at_t, alpha, a).evaluate(t).expect_finite()
            want_cap = cap.evaluate(t).expect_finite()
            assert abs(loc_cap - want_cap) <= 1e-10 * (1.0 + abs(want_cap))


def test_sums_past_the_carried_data_are_refused():
    # truncated data must leave two slots for the tail test
    f = series_from_catalog("exp", [1.0], truncation=8)
    for build in (
        lambda: caputo_derivative(f, 7.5),
        lambda: caputo_derivative(f, 8.5),
        lambda: rl_differintegral(f, 8.0),
        lambda: caputo_local_form(f, 8.5, -1.0),
        lambda: rl_differintegral(TaylorSeries(0.0, (1.0,), None, False), 0.5),
    ):
        with pytest.raises(ValueError, match="truncation"):
            build()
    assert len(caputo_derivative(f, 6.5).terms) == 2
    assert len(rl_differintegral(f, 7.0).terms) == 2
    # the bridge is a finite sum, and complete data is exact however short
    assert rl_caputo_bridge(f, 8.5).complete
    g = series_from_catalog("poly", [1.0, 2.0], truncation=1)
    assert caputo_derivative(g, 1.5).is_zero


def test_local_form_rejects_point_left_of_terminal():
    f = series_from_catalog("poly", [1.0], center=0.0, truncation=2)
    with pytest.raises(ValueError):
        rl_local_form(f, 0.5, a=1.0)


# --- power-series operator ---------------------------------------------------


def test_frac_differintegral_power_rule():
    s = FracPowerSeries(center=0.0, terms=((1.0, 1.5),))
    d = frac_differintegral(s, 0.5)
    assert len(d.terms) == 1
    c, e = d.terms[0]
    assert e == 1.0
    assert c == pytest.approx(math.gamma(2.5) / math.gamma(2.0), rel=1e-14)


def test_frac_differintegral_pole_kill():
    # exponent alpha - m differentiated by alpha hits 1/Gamma(nonpositive)
    s = FracPowerSeries(center=0.0, terms=((3.0, 0.5), (1.0, 1.5)))
    d = frac_differintegral(s, 1.5)
    assert d.terms == ((math.gamma(2.5), 0.0),)


def test_frac_differintegral_semigroup_on_integrals():
    # I^a I^b = I^(a+b) on power terms
    for _ in range(20):
        mu = float(rng.uniform(0.0, 4.0))
        al = float(rng.uniform(0.1, 1.5))
        be = float(rng.uniform(0.1, 1.5))
        s = FracPowerSeries(center=0.0, terms=((1.0, mu),))
        two_step = frac_differintegral(frac_differintegral(s, -al), -be)
        one_step = frac_differintegral(s, -(al + be))
        (c1, e1), (c2, e2) = two_step.terms[0], one_step.terms[0]
        assert e1 == pytest.approx(e2, abs=1e-12)
        assert c1 == pytest.approx(c2, rel=1e-13)


def test_frac_differintegral_rejects_deep_singularity():
    s = FracPowerSeries(center=0.0, terms=((1.0, -1.0),))
    with pytest.raises(ValueError):
        frac_differintegral(s, 0.5)


def test_frac_differintegral_agrees_with_taylor_route():
    f = series_from_catalog("poly", [0.0, 2.0, 1.0], truncation=8)
    s = FracPowerSeries(center=0.0, terms=((2.0, 1.0), (1.0, 2.0)))
    for alpha in (-0.7, 0.3, 1.4):
        via_taylor = rl_differintegral(f, alpha)
        via_power = frac_differintegral(s, alpha)
        for t in (0.5, 1.5):
            a = via_taylor.evaluate(t).expect_finite()
            b = via_power.evaluate(t).expect_finite()
            assert b == pytest.approx(a, rel=1e-13)


# --- integer-limit collapse ---------------------------------------------------


def test_integer_limit_exp_contract():
    f = series_from_catalog("exp", [1.0], truncation=32)
    report = integer_limit_check(f, n=2, eps=1e-6, grid=np.linspace(0.25, 1.0, 7))
    assert report.max_deviation < 1e-3


def test_integer_limit_poly_tight():
    f = series_from_catalog("poly", [1.0, -1.0, 0.5, 2.0], truncation=10)
    report = integer_limit_check(f, n=1, eps=1e-6, grid=np.linspace(0.5, 2.0, 9))
    assert report.max_deviation < 1e-4


def test_integer_limit_constant_caputo_is_exact():
    f = series_from_catalog("const", [4.0], truncation=6)
    report = integer_limit_check(f, n=1, eps=1e-6, grid=[0.5, 1.0])
    assert report.caputo_below == 0.0


def test_integer_limit_validation():
    f = series_from_catalog("const", [1.0], truncation=4)
    with pytest.raises(ValueError):
        integer_limit_check(f, n=0, eps=1e-6, grid=[1.0])
    with pytest.raises(ValueError):
        integer_limit_check(f, n=1, eps=0.5, grid=[1.0])
    with pytest.raises(ValueError):
        integer_limit_check(f, n=1, eps=1e-6, grid=[0.0, 1.0])
