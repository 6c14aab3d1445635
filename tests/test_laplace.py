import math

import numpy as np
import pytest
import scipy.integrate

from fracseries.laplace import (
    LaplaceExpr,
    classify_lower_terminal,
    generalized_laplace,
    laplace_caputo,
    laplace_fps,
    laplace_rl_derivative,
    laplace_rl_derivative_fps,
    laplace_rl_integral,
    laplace_rl_integral_fps,
    laplace_series,
    laplace_shifted_series,
)
from fracseries.operators import caputo_derivative, rl_caputo_bridge, rl_differintegral
from fracseries.grammar import parse_function_spec
from fracseries.special import GammaRangeError, upsilon_row
from fracseries.series import (
    DivergenceError,
    EvalResult,
    FracPowerSeries,
    TaylorSeries,
    check_tail,
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
            (2.0, 1.5),
            (0.0, 3.0),
            (1.0, 0.5),
            (3.0, 1.5),
        ),
    )
    assert e.terms == ((1.0, 0.5), (5.0, 1.5))


def test_expr_exact_cancellation():
    e = LaplaceExpr(0.0, ((1.0, 0.5), (-1.0, 0.5)))
    assert e == LaplaceExpr()
    assert e.render() == "0"


def test_expr_singular_is_contagious():
    bad = LaplaceExpr(singular="k=0")
    assert bad.is_singular
    assert bad.render() == "SINGULAR(k=0)"
    with pytest.raises(ValueError):
        bad.evaluate(2.0)


def test_expr_evaluate():
    e = LaplaceExpr(0.0, ((1.0, 1.0), (2.0, 2.0)))
    assert e.evaluate(2.0) == pytest.approx(0.5 + 0.5, rel=1e-15)
    with pytest.raises(ValueError):
        e.evaluate(0.0)


def test_positive_shifts_are_refused():
    # a term carries Upsilon exactly at a negative shift; no builder makes a
    # positive one (the generalized transforms have shift 0)
    with pytest.raises(ValueError, match="shift 1.0 > 0"):
        LaplaceExpr(1.0, ((1.0, 1.5),))


def test_expr_render_golden():
    assert LaplaceExpr(0.0, ((2.0, 1.5),)).render() == "2 * s^(-1.5)"
    assert LaplaceExpr(0.0, ((1.0, 2.0),)).render() == "1 * s^(-2)"


# --- transforms of the catalog pieces -------------------------------------------


def test_power_transform_negative_shift_numeric():
    # (t - a)^mu with a < 0 picks up an exponential and a tail factor
    for mu, a in ((0.5, -1.0), (1.2, -0.5), (-0.5, -2.0)):
        e = LaplaceExpr(a, ((1.0, mu + 1.0),))
        assert e.shift == a
        for s in (1.0, 2.5):
            want = transform_numerically(lambda t: (t - a) ** mu, s)
            assert e.evaluate(s) == pytest.approx(want, rel=1e-9)


def test_power_transform_render_shows_tail_factor():
    text = LaplaceExpr(-1.0, ((1.0, 1.5),)).render()
    assert "Upsilon(1.5" in text
    assert "e^(-(-1)*s)" in text


def test_series_transform():
    f = poly([1.0, 2.0])
    e = laplace_series(f)
    assert e.terms == ((1.0, 1.0), (2.0, 2.0))
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
    assert e.terms == ((1.0, 1.5),)
    # cross-check: I^(1/2) 1 = t^(1/2)/Gamma(1.5)
    s = 2.0
    want = transform_numerically(lambda t: t**0.5 / math.gamma(1.5), s)
    assert e.evaluate(s) == pytest.approx(want, rel=1e-9)


def test_caputo_transform_cancels_terminal_data():
    # the t^0 data cancels algebraically, leaving a single clean term
    e = laplace_caputo(poly([1.0, 1.0]), 0.5)
    assert e.terms == ((1.0, 1.5),)


def test_caputo_transform_of_constant_is_zero():
    e = laplace_caputo(poly([3.0]), 0.5)
    assert e == LaplaceExpr()


def test_caputo_transform_integer_order():
    e = laplace_caputo(poly([1.0, 2.0]), 1.0)
    assert e.terms == ((2.0, 1.0),)


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
    assert e.terms == ((1.0, 0.5),)


def test_rl_derivative_transform_names_least_offender():
    e = laplace_rl_derivative(poly([1.0, 1.0]), 1.5)
    assert e.is_singular and e.singular == "k=0"
    e = laplace_rl_derivative(poly([0.0, 1.0, 1.0]), 2.5)
    assert e.is_singular and e.singular == "k=1"


def test_rl_derivative_transform_integer_order():
    # classical rule s F(s) - f(0)
    e = laplace_rl_derivative(poly([1.0, 2.0]), 1.0)
    assert e.terms == ((2.0, 1.0),)


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
    diff = LaplaceExpr(0.0, rl.terms + tuple((-c, p) for c, p in cap.terms))
    bridge = laplace_fps(rl_caputo_bridge(f, alpha))
    assert len(diff.terms) == len(bridge.terms) == 1
    (diff_c, diff_p), (bridge_c, bridge_p) = diff.terms[0], bridge.terms[0]
    assert diff_p == bridge_p == 0.5
    assert diff_c == 1.0
    assert bridge_c == pytest.approx(1.0, rel=1e-15)


# --- fused real-exponent transforms ----------------------------------------------


def test_fps_transform_exact_coefficients():
    s = FracPowerSeries(0.0, ((1.0, 0.5), (2.0, 0.0)))
    e = laplace_fps(s)
    assert e.terms == (
        (2.0, 1.0),
        (math.gamma(1.5), 1.5),
    )


def test_fps_transform_singular_markers():
    assert laplace_fps(FracPowerSeries(0.0, ((1.0, -1.0),))).singular == "k=-1"
    assert laplace_fps(FracPowerSeries(0.0, ((1.0, -1.5),))).singular == "mu=-1.5"


def test_fps_rl_derivative_fused():
    s = FracPowerSeries(0.0, ((1.0, 0.5), (2.0, 0.0)))
    e = laplace_rl_derivative_fps(s, 0.5)
    assert e.terms == (
        (2.0, 0.5),
        (math.gamma(1.5), 1.0),
    )
    assert laplace_rl_derivative_fps(s, 1.5).singular == "k=0"


def test_fps_rl_derivative_pole_kill_skips_term():
    # t^(alpha-1) is annihilated by D^alpha, never flagged singular
    s = FracPowerSeries(0.0, ((1.0, 0.5),))
    assert laplace_rl_derivative_fps(s, 1.5) == LaplaceExpr()


def test_fps_rl_integral_fused():
    s = FracPowerSeries(0.0, ((1.0, 0.5),))
    e = laplace_rl_integral_fps(s, 0.5)
    assert e.terms == ((math.gamma(1.5), 2.0),)


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


def test_shifted_caputo_takes_integer_orders():
    # it refused them, where laplace_caputo and generalized_laplace did not
    f0 = series_from_catalog("exp", [1.0], truncation=16)
    for m in (1, 2, 3):
        assert laplace_shifted_series(f0, "caputo", m) == laplace_caputo(f0, m)
    # at a < 0 the integer Caputo derivative is the classical one
    f = series_from_catalog("exp", [-1.0], center=-1.0)
    for m in (1, 2):
        e = laplace_shifted_series(f, "caputo", m)
        assert e == laplace_shifted_series(f.nth_derivative(m), "plain")
        assert e.evaluate(2.0) == pytest.approx((-1.0) ** m / 3.0, rel=1e-14)


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
            (1.0, 1.0),
            (2.0, 2.0),
            (1.0, 3.0),
        )


def test_generalized_caputo_examples():
    a = 2.0
    f = series_from_catalog("shifted-poly", [0.0, 1.0], center=a, truncation=6)
    alpha = 0.5
    e = generalized_laplace(f, "caputo", alpha)
    assert e.terms == ((1.0, 2.0 - alpha),)

    g = series_from_catalog("const", [1.0], center=a, truncation=6)
    e = generalized_laplace(g, "rl_integral", alpha)
    assert e.terms == ((1.0, 1.0 + alpha),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda f: LaplaceExpr(shift=math.nan), "shift must be finite"),
        (lambda f: generalized_laplace(f, "bogus"),
         "unknown kind 'bogus' (expected plain, rl_integral, caputo)"),
        (lambda f: laplace_shifted_series(f, "caputo"), "kind='caputo' needs an order"),
        (lambda f: laplace_rl_integral(f, None), "kind='rl_integral' needs an order"),
        (lambda f: laplace_caputo(f, None), "kind='caputo' needs an order"),
    ],
)
def test_malformed_transform_requests_are_refused_by_name(build, message):
    f = series_from_catalog("exp", [1.0], truncation=8)
    with pytest.raises(ValueError) as excinfo:
        build(f)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message


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
    assert classify_lower_terminal(f, 0.5) == EvalResult.infinite(1)
    assert classify_lower_terminal(f, 1.5) == EvalResult.infinite(-1)

    g = poly([0.0, 0.0, 1.0])
    assert classify_lower_terminal(g, 1.5) == EvalResult.finite(0.0)
    assert classify_lower_terminal(g, 2.0) == EvalResult.finite(2.0)
    assert classify_lower_terminal(g, 0.0) == EvalResult.finite(0.0)

    h = poly([0.0, 1.0])
    assert classify_lower_terminal(h, 1.0) == EvalResult.finite(1.0)


def test_taylor_transforms_refuse_sums_past_the_carried_data():
    # the sum starts at k = n: at n > truncation it has no terms and read 0,
    # at n = truncation it had one unchecked term
    f = series_from_catalog("exp", [1.0])
    for build, order, first in (
        (lambda: laplace_caputo(f, 70.5), 70.5, 71),
        (lambda: laplace_caputo(f, 63.5), 63.5, 64),
        (lambda: generalized_laplace(f, "caputo", 70.5), 70.5, 71),
        (lambda: laplace_rl_derivative(f, 70.0), 70.0, 70),
    ):
        with pytest.raises(ValueError, match=f"order {order} .*k >= {first}.*truncation 64"):
            build()
    # complete data carries every slot: the Caputo transform of a line is 0
    assert laplace_caputo(poly([1.0, 2.0]), 70.5) == LaplaceExpr()


def test_power_transforms_beyond_the_gamma_range_name_the_argument():
    with pytest.raises(GammaRangeError, match=r"Gamma\(172\.5\)"):
        laplace_fps(FracPowerSeries(0.0, ((1.0, 171.5),)))
    with pytest.raises(GammaRangeError, match=r"Gamma\(201\.5\)"):
        laplace_rl_integral_fps(FracPowerSeries(0.0, ((1.0, 200.5),)), 0.5)
    # 1/Gamma(200.5) underflows to 0.0; this read as a pole and returned 0
    with pytest.raises(GammaRangeError, match=r"Gamma\(201\.0\)"):
        laplace_rl_derivative_fps(FracPowerSeries(0.0, ((1.0, 200.0),)), 0.5)


def test_rl_integral_of_a_power_at_or_below_minus_one_is_refused():
    # it returned SINGULAR(mu=-1.5), as if the integral existed
    with pytest.raises(ValueError, match="-1.5 <= -1 has no differintegral"):
        laplace_rl_integral_fps(FracPowerSeries(0.0, ((1.0, -1.5),)), 0.5)
    assert laplace_fps(FracPowerSeries(0.0, ((1.0, -1.5),))).singular == "mu=-1.5"


def test_laplace_expressions_reject_non_finite_coefficients():
    with pytest.raises(ValueError, match=r"term \(inf, 51.0\) is not finite"):
        LaplaceExpr(0.0, ((1.0, 1.0), (math.inf, 51.0)))
    # c Gamma(e + 1) of the last coefficient overflows
    fps = FracPowerSeries(0.0, ((1.0e300, 50.0),))
    with pytest.raises(ValueError, match="is not finite"):
        laplace_fps(fps)
    assert LaplaceExpr(0.0, ((0.0, math.inf),)) == LaplaceExpr()


@pytest.mark.parametrize(
    "build, s, match",
    [
        # the termwise sums diverge for s < 3 and s < 1; they returned -6.07e10
        # (the transform is 0.3264) and 9.9796 (it is 10)
        (lambda: laplace_caputo(series_from_catalog("sin", [3.0]), 0.5), 2.0, "tail terms"),
        (lambda: laplace_series(series_from_catalog("exp", [1.0])), 1.1, "tail terms"),
        # this raised a bare OverflowError
        (lambda: laplace_series(series_from_catalog("exp", [1.0])), 1e-10, "s = 1e-10"),
    ],
)
def test_transform_values_beyond_the_sum_are_refused(build, s, match):
    with pytest.raises(DivergenceError, match=match):
        build().evaluate(s)


def test_shifted_transforms_carry_e_to_the_minus_a_s_inside_upsilon():
    # at s = 800, e^(-a*s) = e^800 overflows and every Upsilon(p, 800)
    # underflows; these were refused as leaving the double range
    g = series_from_catalog("exp", [1.0], center=-1.0)
    assert laplace_shifted_series(g, "plain").evaluate(800.0) == pytest.approx(1 / 799, rel=1e-15)
    mpmath = pytest.importorskip("mpmath")
    # both are e^t P(1/2, t + 1), P the regularized lower incomplete gamma
    with mpmath.workdps(30):
        want = mpmath.quad(
            lambda t: mpmath.exp(-799 * t) * mpmath.gammainc(0.5, 0, t + 1, regularized=True),
            [0, mpmath.inf],
        )
    for kind in ("rl_integral", "caputo"):
        got = laplace_shifted_series(g, kind, 0.5).evaluate(800.0)
        assert got == pytest.approx(float(want), rel=1e-14)


def test_transforms_of_complete_data_skip_the_tail_test():
    e = laplace_series(poly([1.0, 2.0]))
    assert e.complete and "complete" not in e.to_json_dict()
    assert e.evaluate(0.5) == 10.0
    truncated = laplace_series(series_from_catalog("exp", [1.0]))
    assert truncated.to_json_dict()["complete"] is False


# --- evaluation, rendering and terms bit for bit ----------------------------------


def _evaluate_term_by_term(expr, s):
    """LaplaceExpr.evaluate as one loop over the terms that calls
    a one-element scaled Upsilon row afresh for each term, without a memo."""
    if expr.is_singular:
        raise ValueError(f"singular transform has no value: {expr.singular}")
    if not s > 0:
        raise ValueError(f"s must be > 0, got {s!r}")
    q = -expr.shift * s
    total = 0.0
    values = []
    try:
        for c, p in expr.terms:
            v = c * s ** (-p)
            if expr.shift:
                v *= next(upsilon_row((p,), q, True))
            total += v
            values.append(v)
    except (OverflowError, GammaRangeError):
        total = math.inf
    if not math.isfinite(total):
        raise DivergenceError(f"the transform leaves the double range at s = {s!r}")
    check_tail(values, total, expr.complete)
    return total


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


SHIFTED_KINDS = [("plain", None), ("rl_integral", 0.5), ("caputo", 0.5), ("caputo", 2.0)]


def test_shifted_evaluate_matches_a_fresh_upsilon_per_term():
    # past truncation 170 the integer powers leave the closed form for the
    # routes of non-integer p; s = 800 at a = -3 puts q at 2400
    truncations = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 170, 171, 172, 200)
    s_values = (1e-3, 0.1, 1.0, 3.0, 10.0, 50.0, 200.0, 800.0)
    compared = values = 0
    for a in (-0.25, -1.0, -3.0):
        for spec in ("exp:1", "sin:2"):
            for trunc in truncations:
                f = parse_function_spec(spec, center=a, truncation=trunc)
                for kind, order in SHIFTED_KINDS:
                    try:
                        expr = laplace_shifted_series(f, kind, order)
                    except ValueError:  # fewer than two slots carried
                        continue
                    for s in s_values:
                        want = _outcome(_evaluate_term_by_term, expr, s)
                        assert _outcome(expr.evaluate, s) == want, (a, spec, trunc, kind, s)
                        compared += 1
                        values += isinstance(want, str)
    assert compared > 2500 and values > 500


def test_evaluate_refuses_in_term_order():
    # the first term's s^300 overflows at s = 800 before the second term's
    # Upsilon(-0.5, q) would refuse its p; at s = 2 the first term's Upsilon refuses
    expr = LaplaceExpr(-1.0, ((1.0, -300.0), (1.0, -0.5)))
    for s, error, match in (
        (800.0, DivergenceError, "the transform leaves the double range at s = 800.0"),
        (2.0, ValueError, r"p must be > 0, got -300.0"),
    ):
        assert _outcome(expr.evaluate, s) == _outcome(_evaluate_term_by_term, expr, s)
        with pytest.raises(error, match=match):
            expr.evaluate(s)


def test_render_strings_are_pinned():
    g = series_from_catalog("exp", [1.0], center=-0.25, truncation=3)
    h = series_from_catalog("poly", [1.0, -2.5, 1e17], center=-3.0)
    upsilon = "e^(-(-0.25)*s) * Upsilon({0}, -(-0.25)*s)"
    assert laplace_shifted_series(g, "plain").render() == " + ".join(
        f"{c} * s^(-{p}) * " + upsilon.format(p)
        for c, p in (("0.7788007830714049", 1), ("0.7788007830714049", 2),
                     ("0.38940039153570244", 3), ("0.1298001305119008", 4))
    )
    assert laplace_shifted_series(g, "rl_integral", 0.5).render() == " + ".join(
        f"{c} * s^(-{p}) * " + upsilon.format(p)
        for c, p in (("0.8787825789354448", 1.5), ("0.5858550526236298", 2.5),
                     ("0.234342021049452", 3.5), ("0.06695486315698629", 4.5))
    )
    assert laplace_shifted_series(h, "caputo", 1.0).render() == (
        "-6e+17 * s^(-1) * e^(-(-3)*s) * Upsilon(1, -(-3)*s) + "
        "2e+17 * s^(-2) * e^(-(-3)*s) * Upsilon(2, -(-3)*s)"
    )
    assert laplace_series(poly([1.0, -2.5, 1e17])).render() == (
        "1 * s^(-1) + -2.5 * s^(-2) + 2e+17 * s^(-3)"
    )
    assert laplace_rl_derivative(poly([2.0, 1.0 / 3.0]), 0.5).render() == (
        "2 * s^(-0.5) + 0.3333333333333333 * s^(-1.5)"
    )
