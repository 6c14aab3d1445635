import json
import math

import numpy as np
import pytest
import scipy.integrate

from fracseries.laplace import (
    LaplaceExpr,
    LaplaceTerm,
    classify_lower_terminal,
    frequency_derivative,
    frequency_differentiation_check,
    generalized_laplace,
    initial_value_equivalence,
    laplace_caputo,
    laplace_fps,
    laplace_power,
    laplace_rl_derivative,
    laplace_rl_derivative_fps,
    laplace_rl_integral,
    laplace_rl_integral_fps,
    laplace_series,
    laplace_shifted_series,
)
from fracseries.operators import caputo_derivative, rl_caputo_bridge, rl_differintegral
from fracseries.grammar import parse_function_spec
from fracseries.series import (
    DivergenceError,
    FracPowerSeries,
    TaylorSeries,
    series_from_catalog,
)

rng = np.random.default_rng(55)


def poly(coeffs, center=0.0, truncation=10):
    return series_from_catalog("poly", list(coeffs), center=center, truncation=truncation)


def transform_numerically(func, s, upper=60.0):
    val, err = scipy.integrate.quad(
        lambda t: math.exp(-s * t) * func(t), 0.0, upper, limit=200
    )
    assert err < 1e-7
    return val


# --- expression container -----------------------------------------------------


def test_expr_canonical_form():
    e = LaplaceExpr(
        0.0,
        (
            LaplaceTerm(2.0, 1.5),
            LaplaceTerm(0.0, 3.0),
            LaplaceTerm(1.0, 0.5),
            LaplaceTerm(3.0, 1.5),
        ),
    )
    assert e.terms == (LaplaceTerm(1.0, 0.5), LaplaceTerm(5.0, 1.5))


def test_expr_exact_cancellation():
    e = LaplaceExpr(0.0, (LaplaceTerm(1.0, 0.5), LaplaceTerm(-1.0, 0.5)))
    assert e.is_zero
    assert e.render() == "0"


def test_expr_add_and_scale():
    a = LaplaceExpr(0.0, (LaplaceTerm(1.0, 1.0),))
    b = LaplaceExpr(0.0, (LaplaceTerm(2.0, 2.0),))
    assert (a + b).terms == (LaplaceTerm(1.0, 1.0), LaplaceTerm(2.0, 2.0))
    assert a.scaled(3.0).terms == (LaplaceTerm(3.0, 1.0),)
    shifted = LaplaceExpr(-1.0, (LaplaceTerm(1.0, 1.0, 1.0),))
    with pytest.raises(ValueError):
        a + shifted


def test_expr_singular_is_contagious():
    bad = LaplaceExpr(singular="k=0")
    assert bad.is_singular
    assert bad.render() == "SINGULAR(k=0)"
    with pytest.raises(ValueError):
        bad.evaluate(2.0)
    with pytest.raises(ValueError):
        bad + LaplaceExpr(0.0, (LaplaceTerm(1.0, 1.0),))


def test_expr_evaluate():
    e = LaplaceExpr(0.0, (LaplaceTerm(1.0, 1.0), LaplaceTerm(2.0, 2.0)))
    assert e.evaluate(2.0) == pytest.approx(0.5 + 0.5, rel=1e-15)
    with pytest.raises(ValueError):
        e.evaluate(0.0)


def test_expr_json_round_trip():
    for e in (
        LaplaceExpr(0.0, (LaplaceTerm(2.0, 1.5),)),
        LaplaceExpr(-1.0, (LaplaceTerm(1.0, 1.5, 1.5),)),
        LaplaceExpr(singular="mu=-1.5"),
    ):
        d = e.to_json_dict()
        back = LaplaceExpr.from_json_dict(json.loads(json.dumps(d)))
        assert back == e


def test_expr_render_golden():
    assert LaplaceExpr(0.0, (LaplaceTerm(2.0, 1.5),)).render() == "2 * s^(-1.5)"
    assert laplace_power(1.0).render() == "1 * s^(-2)"


# --- transforms of the catalog pieces -------------------------------------------


def test_power_transform_plain():
    e = laplace_power(0.0)
    assert e.terms == (LaplaceTerm(1.0, 1.0),)
    e = laplace_power(1.5)
    assert e.terms == (LaplaceTerm(math.gamma(2.5), 2.5),)


def test_power_transform_singular_marker():
    e = laplace_power(-1.0)
    assert e.is_singular and e.singular == "mu=-1"
    e = laplace_power(-1.5)
    assert e.is_singular and e.singular == "mu=-1.5"


def test_power_transform_rejects_positive_shift():
    with pytest.raises(ValueError):
        laplace_power(0.5, a=1.0)


def test_power_transform_negative_shift_numeric():
    # (t - a)^mu with a < 0 picks up an exponential and a tail factor
    for mu, a in ((0.5, -1.0), (1.2, -0.5), (-0.5, -2.0)):
        e = laplace_power(mu, a=a)
        assert e.shift == a
        for s in (1.0, 2.5):
            want = transform_numerically(lambda t: (t - a) ** mu, s)
            assert e.evaluate(s) == pytest.approx(want, rel=1e-9)


def test_power_transform_render_shows_tail_factor():
    text = laplace_power(0.5, a=-1.0).render()
    assert "Upsilon(1.5" in text
    assert "e^(-(-1)*s)" in text


def test_series_transform():
    f = poly([1.0, 2.0])
    e = laplace_series(f)
    assert e.terms == (LaplaceTerm(1.0, 1.0), LaplaceTerm(2.0, 2.0))
    with pytest.raises(ValueError):
        laplace_series(poly([1.0], center=1.0))


def test_series_transform_numeric():
    coeffs = [0.5, -1.0, 2.0, 0.25]
    f = poly(coeffs)
    e = laplace_series(f)
    for s in (1.0, 3.0):
        want = transform_numerically(
            lambda t: sum(c * t**i for i, c in enumerate(coeffs)), s, upper=120.0
        )
        assert e.evaluate(s) == pytest.approx(want, rel=1e-8)


def test_rl_integral_transform_is_power_shift():
    f = poly([1.0])
    e = laplace_rl_integral(f, 0.5)
    assert e.terms == (LaplaceTerm(1.0, 1.5),)
    # cross-check: I^(1/2) 1 = t^(1/2)/Gamma(1.5)
    s = 2.0
    want = transform_numerically(lambda t: t**0.5 / math.gamma(1.5), s)
    assert e.evaluate(s) == pytest.approx(want, rel=1e-9)


def test_caputo_transform_cancels_terminal_data():
    # the t^0 data cancels algebraically, leaving a single clean term
    e = laplace_caputo(poly([1.0, 1.0]), 0.5)
    assert e.terms == (LaplaceTerm(1.0, 1.5),)


def test_caputo_transform_of_constant_is_zero():
    e = laplace_caputo(poly([3.0]), 0.5)
    assert e.is_zero


def test_caputo_transform_integer_order():
    e = laplace_caputo(poly([1.0, 2.0]), 1.0)
    assert e.terms == (LaplaceTerm(2.0, 1.0),)


def test_caputo_transform_numeric():
    f = poly([1.0, -2.0, 1.5, 0.5])
    for alpha in (0.5, 1.5):
        e = laplace_caputo(f, alpha)
        series = caputo_derivative(f, alpha)
        s = 2.0
        want = transform_numerically(
            lambda t: series.evaluate(t).expect_finite(), s, upper=40.0
        )
        assert e.evaluate(s) == pytest.approx(want, abs=1e-8)


def test_rl_derivative_transform_low_order_is_regular():
    # below order one there is no room for untransformable data
    e = laplace_rl_derivative(poly([1.0]), 0.5)
    assert e.terms == (LaplaceTerm(1.0, 0.5),)


def test_rl_derivative_transform_names_least_offender():
    e = laplace_rl_derivative(poly([1.0, 1.0]), 1.5)
    assert e.is_singular and e.singular == "k=0"
    e = laplace_rl_derivative(poly([0.0, 1.0, 1.0]), 2.5)
    assert e.is_singular and e.singular == "k=1"


def test_rl_derivative_transform_integer_order():
    # classical rule s F(s) - f(0)
    e = laplace_rl_derivative(poly([1.0, 2.0]), 1.0)
    assert e.terms == (LaplaceTerm(2.0, 1.0),)


def test_rl_derivative_matches_caputo_when_low_data_vanishes():
    # all data below the integer ceiling zero: the two derivatives agree
    f = poly([0.0, 0.0, 1.0])
    alpha = 1.5
    assert laplace_rl_derivative(f, alpha).terms == laplace_caputo(f, alpha).terms


def test_rl_derivative_minus_caputo_is_bridge_transform():
    # only the top slot k = n-1 is occupied: difference d_{n-1} s^(alpha-n)
    f = poly([0.0, 1.0])
    alpha = 1.5
    rl = laplace_rl_derivative(f, alpha)
    cap = laplace_caputo(f, alpha)
    assert not rl.is_singular
    diff = rl + cap.scaled(-1.0)
    bridge = laplace_fps(rl_caputo_bridge(f, alpha))
    assert len(diff.terms) == len(bridge.terms) == 1
    assert diff.terms[0].power == bridge.terms[0].power == 0.5
    assert diff.terms[0].coeff == 1.0
    assert bridge.terms[0].coeff == pytest.approx(1.0, rel=1e-15)


# --- fused real-exponent transforms ----------------------------------------------


def test_fps_transform_exact_coefficients():
    s = FracPowerSeries(0.0, ((1.0, 0.5), (2.0, 0.0)))
    e = laplace_fps(s)
    assert e.terms == (
        LaplaceTerm(2.0, 1.0),
        LaplaceTerm(math.gamma(1.5), 1.5),
    )


def test_fps_transform_singular_markers():
    assert laplace_fps(FracPowerSeries(0.0, ((1.0, -1.0),))).singular == "k=-1"
    assert laplace_fps(FracPowerSeries(0.0, ((1.0, -1.5),))).singular == "mu=-1.5"


def test_fps_rl_derivative_fused():
    s = FracPowerSeries(0.0, ((1.0, 0.5), (2.0, 0.0)))
    e = laplace_rl_derivative_fps(s, 0.5)
    assert e.terms == (
        LaplaceTerm(2.0, 0.5),
        LaplaceTerm(math.gamma(1.5), 1.0),
    )
    assert laplace_rl_derivative_fps(s, 1.5).singular == "k=0"


def test_fps_rl_derivative_pole_kill_skips_term():
    # t^(alpha-1) is annihilated by D^alpha, never flagged singular
    s = FracPowerSeries(0.0, ((1.0, 0.5),))
    assert laplace_rl_derivative_fps(s, 1.5).is_zero


def test_fps_rl_integral_fused():
    s = FracPowerSeries(0.0, ((1.0, 0.5),))
    e = laplace_rl_integral_fps(s, 0.5)
    assert e.terms == (LaplaceTerm(math.gamma(1.5), 2.0),)


# --- frequency differentiation ---------------------------------------------------


def test_frequency_derivative_basic():
    one_over_s = LaplaceExpr(0.0, (LaplaceTerm(1.0, 1.0),))
    d1 = frequency_derivative(one_over_s, 1)
    assert d1.terms == (LaplaceTerm(-1.0, 2.0),)
    assert frequency_derivative(one_over_s, 0) == one_over_s


def test_frequency_derivative_composes_exactly():
    e = LaplaceExpr(0.0, (LaplaceTerm(2.0, 1.5), LaplaceTerm(-1.0, 3.0)))
    twice = frequency_derivative(frequency_derivative(e, 1), 1)
    once = frequency_derivative(e, 2)
    assert twice == once


def test_frequency_derivative_validation():
    with pytest.raises(ValueError):
        frequency_derivative(LaplaceExpr(singular="k=0"), 1)
    with pytest.raises(ValueError):
        frequency_derivative(LaplaceExpr(-1.0, (LaplaceTerm(1.0, 1.5, 1.5),)), 1)
    with pytest.raises(ValueError):
        frequency_derivative(LaplaceExpr(0.0, (LaplaceTerm(1.0, -0.5),)), 1)


def test_frequency_check_trivial_cases():
    f = poly([1.0])
    report = frequency_differentiation_check(f, 0.5, 0)
    assert report.max_discrepancy <= 1e-15

    # m=1, alpha=1: both routes land on -t^2/2
    report = frequency_differentiation_check(f, 1.0, 1)
    assert report.max_discrepancy <= 1e-15
    assert report.right.evaluate(2.0).expect_finite() == pytest.approx(-2.0, rel=1e-14)


def test_frequency_check_random_polynomials():
    for _ in range(20):
        f = poly(rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 7))))
        alpha = float(rng.uniform(0.1, 2.5))
        m = int(rng.integers(0, 4))
        report = frequency_differentiation_check(f, alpha, m)
        assert report.max_discrepancy <= 1e-11


# --- shifted and generalized transforms -------------------------------------------


def test_shifted_series_reduces_at_zero():
    f = poly([1.0, 2.0, 0.5])
    assert laplace_shifted_series(f, "plain", 0.0).terms == laplace_series(f).terms
    assert (
        laplace_shifted_series(f, "rl_integral", 0.7).terms
        == laplace_rl_integral(f, 0.7).terms
    )
    assert (
        laplace_shifted_series(f, "caputo", 0.5).terms
        == laplace_caputo(f, 0.5).terms
    )


def test_shifted_series_plain_numeric():
    a = -1.0
    f = poly([1.0, 2.0, 0.5], center=a)
    e = laplace_shifted_series(f, "plain", 0.0)
    assert e.shift == a
    s = 2.0
    want = transform_numerically(lambda t: 1.0 + 2.0 * t + 0.5 * t * t, s, upper=120.0)
    assert e.evaluate(s) == pytest.approx(want, rel=1e-8)


def test_shifted_series_rl_integral_numeric():
    a = -1.0
    f = poly([0.0, 1.0], center=a)
    alpha = 0.5
    e = laplace_shifted_series(f, "rl_integral", alpha)
    series = rl_differintegral(f, -alpha)
    s = 2.0
    want = transform_numerically(lambda t: series.evaluate(t).expect_finite(), s)
    assert e.evaluate(s) == pytest.approx(want, rel=1e-8)


def test_shifted_series_caputo_numeric():
    a = -0.5
    f = poly([1.0, -1.0, 0.5], center=a)
    alpha = 1.5
    e = laplace_shifted_series(f, "caputo", alpha)
    series = caputo_derivative(f, alpha)
    s = 2.0
    want = transform_numerically(lambda t: series.evaluate(t).expect_finite(), s)
    assert e.evaluate(s) == pytest.approx(want, rel=1e-8)


def test_shifted_series_rejects_right_shift():
    f = poly([1.0], center=1.0)
    with pytest.raises(ValueError):
        laplace_shifted_series(f, "plain", 0.0)


def test_generalized_matches_plain_at_zero():
    f = poly([1.0, 2.0, 0.5])
    assert generalized_laplace(f, "plain", 0.0).terms == laplace_series(f).terms
    assert (
        generalized_laplace(f, "caputo", 0.5).terms == laplace_caputo(f, 0.5).terms
    )


def test_generalized_is_shift_invariant():
    # the a-based transform sees only the shape relative to the terminal
    for a in (-1.0, 0.0, 2.0):
        f = series_from_catalog(
            "shifted-poly", [1.0, 2.0, 0.5], center=a, truncation=10
        )
        e = generalized_laplace(f, "plain", 0.0)
        assert e.terms == (
            LaplaceTerm(1.0, 1.0),
            LaplaceTerm(2.0, 2.0),
            LaplaceTerm(1.0, 3.0),
        )


def test_generalized_caputo_examples():
    a = 2.0
    f = series_from_catalog("shifted-poly", [0.0, 1.0], center=a, truncation=6)
    alpha = 0.5
    e = generalized_laplace(f, "caputo", alpha)
    assert e.terms == (LaplaceTerm(1.0, 2.0 - alpha),)

    g = series_from_catalog("const", [1.0], center=a, truncation=6)
    e = generalized_laplace(g, "rl_integral", alpha)
    assert e.terms == (LaplaceTerm(1.0, 1.0 + alpha),)


def test_taylor_transforms_refuse_data_with_a_finite_radius():
    # power:0.5 about 2 converges only on (0, 4): the termwise transform
    # diverges, and built anyway it read -3.5e27 at s = 4
    a = 2.0
    f = parse_function_spec("power:0.5+exp:1", center=a)
    assert f.radius_hint == a and not f.complete
    for kind, order in (("plain", None), ("rl_integral", 0.5), ("caputo", 1.5)):
        with pytest.raises(DivergenceError, match="convergence radius 2.0"):
            generalized_laplace(f, kind, order)
    zero = TaylorSeries(0.0, (1.0, 0.5, 0.25), radius_hint=3.0, complete=False)
    for build in (
        lambda: laplace_series(zero),
        lambda: laplace_caputo(zero, 0.5),
        lambda: laplace_rl_derivative(zero, 0.5),
        lambda: laplace_shifted_series(zero, "rl_integral", 0.5),
    ):
        with pytest.raises(DivergenceError, match="convergence radius 3.0"):
            build()
    # complete data and data converging everywhere still transform
    for g in (poly([1.0, 2.0], center=a), series_from_catalog("exp", [1.0], center=a)):
        e = generalized_laplace(g, "caputo", 0.5)
        assert not e.is_singular and e.terms
    e = generalized_laplace(series_from_catalog("exp", [-1.0], center=a), "plain")
    assert e.evaluate(4.0) == pytest.approx(math.exp(-a) / 5.0, rel=1e-12)


# --- terminal-value classification -------------------------------------------------


def test_classify_lower_terminal():
    f = series_from_catalog("exp", [1.0], truncation=16)
    r = classify_lower_terminal(f, 0.5)
    assert r.is_infinite and r.sign == 1
    r = classify_lower_terminal(f, 1.5)
    assert r.is_infinite and r.sign == -1

    g = poly([0.0, 0.0, 1.0])
    assert classify_lower_terminal(g, 1.5).value == 0.0
    assert classify_lower_terminal(g, 2.0).value == 2.0
    assert classify_lower_terminal(g, 0.0).value == 0.0

    h = poly([0.0, 1.0])
    assert classify_lower_terminal(h, 1.0).value == 1.0


def test_initial_value_equivalence_examples():
    assert initial_value_equivalence(poly([0.0, 1.0]), 1.5) == (False, False)
    assert initial_value_equivalence(poly([0.0, 0.0, 1.0]), 1.5) == (True, True)
    assert initial_value_equivalence(poly([1.0]), 1.5) == (False, False)
    assert initial_value_equivalence(poly([0.0, 0.0, 0.0, 1.0]), 2.5) == (True, True)


def test_initial_value_equivalence_rejects_integer_order():
    with pytest.raises(ValueError):
        initial_value_equivalence(poly([1.0]), 2.0)
