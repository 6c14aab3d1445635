import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracseries.series import (
    DEFAULT_TRUNCATION,
    DivergenceError,
    EvalResult,
    FracPowerSeries,
    TaylorSeries,
    branch,
    check_order,
    check_slots,
    eval_frac_series,
    positive_order,
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


def test_expect_finite_raises_on_infinite():
    with pytest.raises(ValueError):
        EvalResult.infinite(1).expect_finite()


# --- orders ---------------------------------------------------------------


def test_order_from_alpha():
    assert branch(0.5) == 1
    assert branch(1.5) == 2
    assert branch(2.0) == 2
    assert branch(2.5) == 3
    assert branch(0.0) == 0
    assert branch(-0.5) == 0
    assert branch(-2.0) == 0


def test_order_is_integer():
    # an int order is coerced to a float: int.is_integer needs Python 3.12
    assert check_order(3) == 3.0 and type(check_order(3)) is float
    assert check_order(3).is_integer()
    assert not check_order(2.999999).is_integer()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as excinfo:
            check_order(bad)
        assert str(excinfo.value) == f"order must be finite, got {bad!r}"
    assert positive_order(2) == 2.0 and type(positive_order(2)) is float
    with pytest.raises(ValueError, match=r"^order must be > 0 and not an integer, got 2.0$"):
        positive_order(2, non_integer=True)
    with pytest.raises(ValueError, match=r"^order must be finite, got nan$"):
        positive_order(math.nan)


def test_order_derives_its_branch():
    # the slot refusal names the branch derived from alpha, not the k0 passed
    f = TaylorSeries(0.0, (1.0, 1.0), complete=False)
    with pytest.raises(ValueError, match=r"^order 0\.5 \(n = 1\) sums the slots k >= 0, "):
        check_slots(f, 0.5, 0, 1, f.complete)


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


def test_recentering_skips_zero_data_past_the_overflow_of_h_to_the_i():
    # h^i overflows at i = 26 for h = 1e12; 0 * inf made every value NaN
    g = series_from_catalog("poly", [1.0]).recentered(1e12)
    assert g.center == 1e12 and g.derivs == (1.0,) + (0.0,) * DEFAULT_TRUNCATION
    line = series_from_catalog("poly", [1.0, 2.0]).recentered(1e12)
    assert line.derivs[:3] == (1.0 + 2e12, 2.0, 0.0)


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


def test_taylor_arith_pads_a_shorter_complete_operand_with_its_zeros():
    f = series_from_catalog("exp", [1.0], truncation=32)
    g = series_from_catalog("poly", [1.0, 2.0, -0.5], truncation=12)
    padded = series_from_catalog("poly", [1.0, 2.0, -0.5], truncation=32)
    for op in ("add", "mul"):
        for h in (taylor_arith(f, g, op), taylor_arith(g, f, op)):
            assert h.truncation == 32 and not h.complete
        # complete data is exactly 0 past its truncation
        assert taylor_arith(f, g, op).derivs == taylor_arith(f, padded, op).derivs
        assert taylor_arith(g, f, op).derivs == taylor_arith(padded, f, op).derivs
    # two complete or two truncated operands keep the shorter truncation
    short = series_from_catalog("exp", [1.0], truncation=12)
    assert taylor_arith(short, f, "mul").truncation == 12
    assert taylor_arith(padded, g, "mul").truncation == 12


# --- FracPowerSeries canonical form ----------------------------------------


def test_fps_sorts_merges_and_drops_zeros():
    s = FracPowerSeries(
        center=0.0,
        terms=((2.0, 1.5), (0.0, 3.0), (1.0, 0.5), (3.0, 1.5 + 1e-14)),
        radius_hint=math.inf,
    )
    assert s.terms == ((1.0, 0.5), (5.0, 1.5))


def test_fps_drops_cancelling_pairs():
    s = FracPowerSeries(center=0.0, terms=((1.0, 0.5), (-1.0, 0.5)))
    assert s.terms == ()
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda f: FracPowerSeries(math.nan), "center must be finite"),
        (lambda f: taylor_arith(f, f, "div"), "unknown op 'div' (expected 'add' or 'mul')"),
    ],
)
def test_malformed_series_requests_are_refused_by_name(build, message):
    f = series_from_catalog("exp", [1.0], truncation=8)
    with pytest.raises(ValueError) as excinfo:
        build(f)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message


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


def test_no_finite_radius_is_spelled_inf():
    from fracseries.laplace import laplace_series
    from fracseries.operators import operator_value, rl_differintegral

    # None used to mean "no finite radius"; it is refused by name
    for build in (lambda r: TaylorSeries(0.0, (1.0,) * 33, r, False),
                  lambda r: FracPowerSeries(0.0, ((1.0, 0.5),), r, False)):
        with pytest.raises(ValueError, match=r"^radius_hint must be positive, got None$"):
            build(None)
        assert build(math.inf).radius_hint == math.inf
    # truncated e^t data at 0 with the default radius: at every finite t the
    # tail test decides, the operator value takes the slot sum, and the
    # termwise transform exists
    f = TaylorSeries(0.0, (1.0,) * 33, complete=False)
    assert f.radius_hint == math.inf
    half = rl_differintegral(f, 0.5)
    values = half.evaluate_grid([0.5, 1.0, 2.0])
    assert values == [operator_value(f, 0.5, t) for t in (0.5, 1.0, 2.0)]
    with pytest.raises(DivergenceError, match="^tail terms"):
        half.evaluate_grid([30.0])
    assert not laplace_series(f).is_singular
    # inf is the neutral radius of Taylor sums and products
    assert (f * TaylorSeries(0.0, (1.0,) * 33, 2.5, False)).radius_hint == 2.5
    assert (f + series_from_catalog("poly", [1.0], truncation=32)).radius_hint == math.inf


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


def test_eval_names_a_term_that_overflows_by_multiplication():
    # c * x**e overflows to inf without an OverflowError
    s = FracPowerSeries(0.0, ((1.0e300, 0.0), (1.0e300, 2.0)))
    with pytest.raises(DivergenceError, match=r"\^2\.0 .* t - center = 100000\.0"):
        eval_frac_series(s, 1.0e5)


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


def test_catalog_rejects_data_that_underflows_to_zero():
    # every datum would be 0.0, and the function would read as f = 0
    for name, param, center in (("exp", 1.0, -1e3), ("exp", -2.0, 400.0), ("power", 300.5, 1e-5)):
        with pytest.raises(ValueError, match=f"{name} with parameter {param} underflows to 0 at center {center}"):
            series_from_catalog(name, [param], center=center)
    assert series_from_catalog("exp", [1.0], center=-700.0).derivs[0] > 0.0


def test_catalog_arity_is_shared_with_the_power_grammar():
    from fracseries.grammar import GrammarError, parse_power_spec

    for name, params, msg in (
        ("power", [1.0, 2.0], "power takes a single exponent"),
        ("const", [], "const takes a single value"),
        ("poly", [], "poly needs at least one coefficient"),
    ):
        with pytest.raises(ValueError, match=msg):
            series_from_catalog(name, params)
        with pytest.raises(GrammarError, match=msg):
            parse_power_spec(f"{name}:{','.join(map(str, params))}" if params else name)
    with pytest.raises(ValueError, match="exp takes a single rate"):
        series_from_catalog("exp", [1.0, 2.0])
    with pytest.raises(ValueError, match="sin takes a single angular frequency"):
        series_from_catalog("sin", [])


def test_taylor_coefficients_are_computed_once_and_immutable():
    f = series_from_catalog("exp", [2.0], center=0.5, truncation=20)
    assert isinstance(f.coeffs, tuple)
    assert f.coeffs is f.coeffs
    assert f.coeffs[3] == f.derivs[3] / 6.0
    # not a field: equality and hashing still see the data only
    g = series_from_catalog("exp", [2.0], center=0.5, truncation=20)
    g.evaluate(1.0)
    assert f == g and hash(f) == hash(g)


def test_non_finite_terms_are_named():
    with pytest.raises(ValueError, match=r"term \(inf, 2.0\) is not finite"):
        FracPowerSeries(0.0, ((1.0, 1.0), (math.inf, 2.0)))
    # zero coefficients are dropped before the check
    assert FracPowerSeries(0.0, ((0.0, math.inf), (1.0, 1.0))).terms == ((1.0, 1.0),)


# --- grid evaluation ---------------------------------------------------------


def _pointwise(series, ts):
    """A literal reference for evaluate_grid: at each t in turn, the vetting
    of t, the value at the center, the radius, then total += c * x**e left to
    right, naming the first term that takes it beyond the double range, and
    the relative tail test on the last two terms; the first refusal propagates."""
    a, terms = series.center, series.terms
    out = []
    for t in ts:
        if not t >= a:
            where = "left of" if t < a else "not comparable with"
            raise ValueError(f"t={t!r} is {where} the center {a!r}")
        x = t - a
        if x == 0.0:
            c0, e0 = terms[0] if terms else (0.0, 1.0)
            if abs(e0) <= 1e-12:
                out.append(c0)
            else:
                out.append(math.copysign(math.inf, c0) if e0 < 0.0 else 0.0)
            continue
        if terms and not series.complete and not x < series.radius_hint:
            raise DivergenceError(
                f"t - center = {x!r} is outside the convergence radius {series.radius_hint!r}")
        total, added = 0.0, []
        for c, e in terms:
            try:
                term = c * x**e
            except OverflowError:
                term = math.inf
            total += term
            added.append(term)
            if not math.isfinite(total):
                raise DivergenceError(
                    f"the term {c!r} * (t - center)^{e!r} takes the sum beyond the double "
                    f"range at t - center = {x!r}")
        if not series.complete and len(added) >= 2:
            bound = 1e-12 * (abs(total) + 1e-300)
            if not (abs(added[-2]) < bound and abs(added[-1]) < bound):
                raise DivergenceError(
                    f"tail terms {added[-2]:.3e}, {added[-1]:.3e} fail the convergence test "
                    f"against the sum {total:.6e} (relative tolerance 1e-12)")
        out.append(total)
    return out


def _outcome(call):
    try:
        values = call()
    except (ValueError, DivergenceError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in values]


_GRID_CASES = [
    # t = center with a lead exponent of 0, below 0 and above 0
    (FracPowerSeries(1.0, ((3.0, 0.0), (1.0, 0.5))), [1.0, 1.5, 2.0]),
    (FracPowerSeries(1.0, ((3.0, -0.5), (1.0, 0.5))), [1.0, 1.25]),
    (FracPowerSeries(1.0, ((-3.0, -0.5),)), [1.0, 4.0]),
    (FracPowerSeries(1.0, ((3.0, 0.5),)), [1.0, 2.0]),
    # the empty series, at and right of the center
    (FracPowerSeries(0.5), [0.5, 1.0, 1e300]),
    # the radius edge: the last point sits on it
    (FracPowerSeries(0.0, tuple((0.5**k, float(k)) for k in range(80)),
                     radius_hint=2.0, complete=False), [0.0, 0.5, 1.0, 2.0]),
    # an overflowing term, after points that sum
    (FracPowerSeries(0.0, ((1.0e300, 0.0), (1.0e300, 2.0))), [0.0, 1.0, 1.0e5, 2.0]),
    # a failing tail test at the second point
    (FracPowerSeries(0.0, tuple((0.9**k, float(k)) for k in range(12)),
                     radius_hint=1.2, complete=False), [0.01, 1.0, 0.02]),
    # t < center in the middle of the grid, after a terminal point
    (FracPowerSeries(1.0, ((2.0, -0.5), (1.0, 1.5))), [1.0, 2.0, 0.5, 3.0]),
    # a refusal at the first point comes before a later one
    (FracPowerSeries(0.0, tuple((0.9**k, float(k)) for k in range(12)),
                     radius_hint=1.2, complete=False), [1.0, -1.0]),
    # truncated series of 1, 2 and 3 terms, at the edge of the tail unpacking:
    # one term takes no tail test, two always fail it, three pass, then fail
    (FracPowerSeries(0.0, ((-2.5, 0.5),), radius_hint=4.0, complete=False), [0.0, 1.0, 3.0]),
    (FracPowerSeries(0.0, ((1.0, 0.0), (1e-13, 1.0)), radius_hint=4.0, complete=False),
     [0.0, 1.0]),
    (FracPowerSeries(0.0, ((1.0, 0.0), (1e-14, 1.0), (-1e-15, 2.0)), radius_hint=1e9,
                     complete=False), [0.0, 1.0, 3.0, 100.0]),
    (FracPowerSeries(0.5, ((1.0, -0.5), (3.0, 1.0), (-1e-15, 2.0))), [0.5, 1.5, 4.0]),
    # the empty truncated series past its radius
    (FracPowerSeries(0.0, (), radius_hint=0.5, complete=False), [0.0, 1.0]),
    # an overflow at a middle point names its term: a power, then a product
    (FracPowerSeries(0.0, ((1.0, 0.0), (2.0, 1.5), (1.0, 200.0), (1.0, 201.0))),
     [0.5, 1.0e3, 2.0]),
    (FracPowerSeries(0.0, ((1.0, 0.0), (1.0e300, 3.0), (1.0, 4.0))), [0.5, 1.0e3, 2.0]),
    # complete data summed past its radius_hint
    (FracPowerSeries(0.0, tuple((0.5**k, float(k)) for k in range(5)), radius_hint=0.5),
     [0.25, 1.0, 3.0]),
]


@pytest.mark.parametrize("series, ts", _GRID_CASES)
def test_grid_evaluation_is_pointwise_evaluation(series, ts):
    assert _outcome(lambda: series.evaluate_grid(ts)) == _outcome(lambda: _pointwise(series, ts))


def test_grid_evaluation_refuses_at_the_first_failing_point():
    s = FracPowerSeries(1.0, ((2.0, -0.5), (1.0, 1.5)))
    with pytest.raises(ValueError, match=r"t=0\.5 is left of the center 1\.0"):
        s.evaluate_grid([1.0, 2.0, 0.5, 0.25])
    tail = FracPowerSeries(0.0, tuple((0.9**k, float(k)) for k in range(12)),
                           radius_hint=1.2, complete=False)
    with pytest.raises(DivergenceError, match="tail terms"):
        tail.evaluate_grid([0.01, 1.0, -1.0])
    assert tail.evaluate_grid([]) == []
    # a NaN t read as a divergence: a sum leaving the double range "at
    # t - center = nan", or "t - center = nan is outside the convergence radius"
    for series in (s, tail):
        with pytest.raises(ValueError, match=r"^t=nan is not comparable with the center"):
            series.evaluate_grid([series.center, math.nan, -1.0])
