import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracseries.series import (
    DivergenceError,
    EvalResult,
    FracPowerSeries,
    Order,
    TaylorSeries,
    as_order,
    eval_frac_series,
    series_from_catalog,
    taylor_arith,
)

rng = np.random.default_rng(7)


# --- EvalResult -----------------------------------------------------------


def test_eval_result_constructors():
    r = EvalResult.finite(2.5)
    assert r.is_finite and r.value == 2.5
    assert str(r) == "Finite(2.5)"

    r = EvalResult.infinite(-1)
    assert r.is_infinite and r.sign == -1
    assert str(r) == "Infinite(-1)"

    r = EvalResult.singular("k=0")
    assert r.is_singular and r.reason == "k=0"
    assert str(r) == "Singular(k=0)"


def test_expect_finite_raises_on_infinite():
    with pytest.raises(ValueError):
        EvalResult.infinite(1).expect_finite()
    with pytest.raises(ValueError):
        EvalResult.singular("k=1").expect_finite()


# --- Order ----------------------------------------------------------------


def test_order_from_alpha():
    assert Order.from_alpha(0.5).n == 1
    assert Order.from_alpha(1.5).n == 2
    assert Order.from_alpha(2.0).n == 2
    assert Order.from_alpha(0.0).n == 0
    assert Order.from_alpha(-0.5).n == 0
    assert Order.from_alpha(-2.0).n == 0


def test_order_is_integer():
    assert Order.from_alpha(3.0).is_integer
    assert not Order.from_alpha(2.999999).is_integer
    assert as_order(1.5) == Order.from_alpha(1.5)


# --- TaylorSeries basics ---------------------------------------------------


def test_taylor_validation():
    with pytest.raises(ValueError):
        TaylorSeries(center=0.0, derivs=())
    with pytest.raises(ValueError):
        TaylorSeries(center=0.0, derivs=(1.0, float("nan")))
    with pytest.raises(ValueError):
        TaylorSeries(center=float("inf"), derivs=(1.0,))


def test_taylor_evaluate_polynomial():
    # f(t) = 1 + 2t + 3t^2, derivative data (1, 2, 6)
    f = TaylorSeries(center=0.0, derivs=(1.0, 2.0, 6.0))
    for t in (-1.0, 0.0, 0.5, 2.0):
        assert f.evaluate(t) == pytest.approx(1 + 2 * t + 3 * t * t, rel=1e-15)


def test_taylor_nth_derivative_shift():
    f = TaylorSeries(center=0.0, derivs=(1.0, 2.0, 6.0, 12.0))
    g = f.nth_derivative(2)
    assert g.derivs == (6.0, 12.0)
    assert f.nth_derivative(0).derivs == f.derivs
    # differentiating past the data leaves the zero function
    z = f.nth_derivative(7)
    assert z.derivs == (0.0,)


def test_taylor_recentered_exact_for_polynomials():
    f = TaylorSeries(center=0.0, derivs=(1.0, 2.0, 6.0, 12.0))
    g = f.recentered(1.5)
    for t in (0.0, 1.0, 3.0):
        assert g.evaluate(t) == pytest.approx(f.evaluate(t), rel=1e-14)
    # round trip restores the original data
    h = g.recentered(0.0)
    for a, b in zip(h.derivs, f.derivs):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_taylor_add_and_mul():
    f = TaylorSeries(center=0.0, derivs=(0.0, 1.0, 0.0, 0.0))  # t
    g = TaylorSeries(center=0.0, derivs=(1.0, 1.0, 0.0, 0.0))  # 1 + t
    s = f + g
    assert s.derivs == (1.0, 2.0, 0.0, 0.0)
    p = f * g
    # t + t^2 has derivative data (0, 1, 2, 0)
    assert p.derivs == (0.0, 1.0, 2.0, 0.0)


def test_taylor_mul_matches_pointwise():
    fd = rng.standard_normal(7)
    gd = rng.standard_normal(7)
    f = TaylorSeries(center=0.0, derivs=tuple(fd))
    g = TaylorSeries(center=0.0, derivs=tuple(gd))
    p = taylor_arith(f, g, "mul")
    assert not p.complete  # degree sum exceeds the shared truncation
    for t in np.linspace(-0.5, 0.5, 7):
        wf = sum(d / math.factorial(k) * t**k for k, d in enumerate(fd))
        wg = sum(d / math.factorial(k) * t**k for k, d in enumerate(gd))
        # truncated product only matches through order 6
        got = p.evaluate(float(t))
        trunc_err = abs(t) ** 7 * 200
        assert abs(got - wf * wg) <= 1e-10 + trunc_err


def test_taylor_mul_degree_within_truncation_is_complete():
    f = series_from_catalog("poly", [0.0, 1.0], truncation=8)  # t
    g = series_from_catalog("poly", [1.0, 2.0], truncation=8)  # 1 + 2t
    p = f * g
    assert p.complete
    for t in (-2.0, 0.3, 1.7):
        assert p.evaluate(t) == pytest.approx(t * (1 + 2 * t), rel=1e-14, abs=1e-14)


def test_taylor_json_round_trip():
    f = TaylorSeries(center=1.0, derivs=(2.0, 0.5), radius_hint=1.0, complete=False)
    d = f.to_json_dict()
    g = TaylorSeries.from_json_dict(json.loads(json.dumps(d)))
    assert g == f


# --- FracPowerSeries canonical form ----------------------------------------


def test_fps_sorts_merges_and_drops_zeros():
    s = FracPowerSeries(
        center=0.0,
        terms=((2.0, 1.5), (0.0, 3.0), (1.0, 0.5), (3.0, 1.5 + 1e-14)),
        radius_hint=None,
    )
    assert s.terms == ((1.0, 0.5), (5.0, 1.5))


def test_fps_drops_cancelling_pairs():
    s = FracPowerSeries(center=0.0, terms=((1.0, 0.5), (-1.0, 0.5)))
    assert s.is_zero
    assert eval_frac_series(s, 2.0) == EvalResult.finite(0.0)


@given(
    st.permutations(
        [(1.0, 0.25), (-2.0, 1.0), (0.5, 2.75), (4.0, 0.0), (-0.25, 1.5)]
    )
)
def test_fps_canonical_form_ignores_term_order(perm):
    base = FracPowerSeries(center=0.0, terms=tuple(perm))
    ref = FracPowerSeries(
        center=0.0,
        terms=((1.0, 0.25), (-2.0, 1.0), (0.5, 2.75), (4.0, 0.0), (-0.25, 1.5)),
    )
    assert base.terms == ref.terms


def test_fps_arithmetic():
    a = FracPowerSeries(center=0.0, terms=((1.0, 0.5),))
    b = FracPowerSeries(center=0.0, terms=((2.0, 1.5),))
    assert (a + b).terms == ((1.0, 0.5), (2.0, 1.5))
    assert (a - a).is_zero
    assert a.scaled(3.0).terms == ((3.0, 0.5),)
    with pytest.raises(ValueError):
        a + FracPowerSeries(center=1.0, terms=((1.0, 0.5),))


# --- evaluation and classification -----------------------------------------


def test_eval_left_of_center_rejected():
    s = FracPowerSeries(center=1.0, terms=((1.0, 0.5),))
    with pytest.raises(ValueError):
        eval_frac_series(s, 0.5)


def test_eval_at_center_three_way():
    a = FracPowerSeries(center=1.0, terms=((3.0, 0.5),))
    assert eval_frac_series(a, 1.0) == EvalResult.finite(0.0)

    b = FracPowerSeries(center=1.0, terms=((3.0, 0.0), (1.0, 0.5)))
    assert eval_frac_series(b, 1.0) == EvalResult.finite(3.0)

    c = FracPowerSeries(center=1.0, terms=((3.0, -0.5), (1.0, 0.5)))
    r = eval_frac_series(c, 1.0)
    assert r.is_infinite and r.sign == 1

    d = FracPowerSeries(center=1.0, terms=((-3.0, -0.5),))
    r = eval_frac_series(d, 1.0)
    assert r.is_infinite and r.sign == -1


def test_eval_sums_power_terms():
    s = FracPowerSeries(center=0.0, terms=((2.0, 0.5), (1.0, 2.0)))
    t = 2.25
    want = 2.0 * t**0.5 + t**2
    assert eval_frac_series(s, t).expect_finite() == pytest.approx(want, rel=1e-15)


def test_incomplete_series_radius_enforced():
    f = series_from_catalog("power", [0.5], center=1.0)
    s = FracPowerSeries(
        center=1.0,
        terms=tuple((d / math.factorial(k), float(k)) for k, d in enumerate(f.derivs)),
        radius_hint=f.radius_hint,
        complete=False,
    )
    with pytest.raises(DivergenceError):
        eval_frac_series(s, 2.5)  # on the circle of convergence


def test_incomplete_series_tail_test_flags_slow_convergence():
    # geometric-rate tail at x/R = 0.9 is far from spent after 12 terms
    terms = tuple((0.9**k, float(k)) for k in range(12))
    s = FracPowerSeries(center=0.0, terms=terms, radius_hint=1.2, complete=False)
    with pytest.raises(DivergenceError):
        eval_frac_series(s, 1.0)


def test_eval_beyond_double_range_names_point_and_exponent():
    # x**e itself overflows
    s = FracPowerSeries(center=0.0, terms=((1.0, 0.5), (2.0, 3.5)))
    with pytest.raises(DivergenceError, match=r"\^3\.5 .* t - center = 1e\+100"):
        eval_frac_series(s, 1.0e100)
    # every term is finite, but the running sum is not
    s = FracPowerSeries(center=0.0, terms=((1.0e308, 0.0), (1.0e308, 1.0), (1.0, 2.0)))
    with pytest.raises(DivergenceError, match=r"\^1\.0 .* t - center = 1\.0"):
        eval_frac_series(s, 1.0)
    # a complete series that stays in range is unaffected
    assert eval_frac_series(s, 1.0e-10).expect_finite() == 1.0e308 + 1.0e298 + 1.0e-20


# --- catalog ----------------------------------------------------------------


def test_catalog_poly_uses_absolute_coefficients():
    # coefficients are in t itself, whatever the center
    f = series_from_catalog("poly", [0.0, 0.0, 1.0], center=2.0, truncation=6)
    assert f.derivs[:3] == (4.0, 4.0, 2.0)
    assert all(d == 0.0 for d in f.derivs[3:])
    assert f.complete


def test_catalog_shifted_poly_matches_poly_route():
    a = 2.0
    via_poly = series_from_catalog("poly", [0.0, 0.0, 1.0], center=a, truncation=6)
    via_shift = series_from_catalog(
        "shifted-poly", [a * a, 2 * a, 1.0], center=a, truncation=6
    )
    assert via_shift.derivs == via_poly.derivs


def test_catalog_const_is_flat():
    f = series_from_catalog("const", [3.0], center=1.0, truncation=4)
    assert f.derivs == (3.0, 0.0, 0.0, 0.0, 0.0)


def test_catalog_poly_truncation_too_small():
    with pytest.raises(ValueError):
        series_from_catalog("poly", [0.0, 0.0, 1.0], truncation=1)


def test_catalog_exp():
    f = series_from_catalog("exp", [1.0], center=0.0, truncation=5)
    assert f.derivs == (1.0,) * 6
    assert not f.complete

    g = series_from_catalog("exp", [-2.0], center=0.5, truncation=4)
    scale = math.exp(-1.0)
    for k, d in enumerate(g.derivs):
        assert d == pytest.approx((-2.0) ** k * scale, rel=1e-15)


def test_catalog_trig():
    f = series_from_catalog("sin", [1.0], center=0.0, truncation=6)
    assert f.derivs[0] == 0.0
    assert f.derivs[1] == pytest.approx(1.0)
    assert f.derivs[2] == pytest.approx(0.0, abs=1e-15)
    g = series_from_catalog("cos", [2.0], center=0.0, truncation=6)
    assert g.derivs[0] == 1.0
    assert g.derivs[2] == pytest.approx(-4.0)
    t = 0.4
    f12 = series_from_catalog("sin", [1.0], center=0.0, truncation=12)
    g12 = series_from_catalog("cos", [2.0], center=0.0, truncation=12)
    assert f12.evaluate(t) == pytest.approx(math.sin(t), abs=1e-11)
    assert g12.evaluate(t) == pytest.approx(math.cos(2 * t), abs=1e-9)


def test_catalog_power_integer_exponent_is_polynomial():
    f = series_from_catalog("power", [3.0], center=0.0, truncation=8)
    assert f.complete
    assert f.evaluate(2.0) == 8.0


def test_catalog_power_fractional_exponent():
    f = series_from_catalog("power", [0.5], center=4.0, truncation=40)
    assert not f.complete
    assert f.radius_hint == 4.0
    for t in (3.0, 4.0, 5.5):
        assert f.evaluate(t) == pytest.approx(math.sqrt(t), rel=1e-12)
    with pytest.raises(ValueError):
        series_from_catalog("power", [0.5], center=0.0)


def test_catalog_unknown_name():
    with pytest.raises(ValueError):
        series_from_catalog("sinh", [1.0])


def test_catalog_rejects_taylor_data_beyond_double_range():
    for name in ("exp", "sin", "cos"):
        with pytest.raises(ValueError, match="double range"):
            series_from_catalog(name, [1e300])
    with pytest.raises(ValueError, match="double range"):
        series_from_catalog("exp", [1.0], center=1e300)
