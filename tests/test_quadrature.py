import math

import numpy as np
import pytest

from fracseries.operators import caputo_derivative, rl_differintegral
from fracseries.quadrature import (
    QuadratureError,
    caputo_quad,
    rl_derivative_quad,
    rl_integral_fixed,
    rl_integral_quad,
)
from fracseries.series import series_from_catalog

rng = np.random.default_rng(909)


# --- memory integral of a callable -------------------------------------------


def test_integral_of_one():
    got = rl_integral_quad(lambda t: 1.0, 0.5, 0.0, 1.0)
    assert got == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)


def test_integral_order_one_is_plain():
    got = rl_integral_quad(lambda t: 1.0, 1.0, 0.0, 2.0)
    assert got == pytest.approx(2.0, rel=1e-13)


def test_integral_of_monomial():
    # I^alpha (t-a)^2 = 2 (t-a)^(2+alpha) / Gamma(3+alpha)
    a = 1.0
    for alpha in (0.3, 0.8, 1.6):
        for t in (1.5, 2.5):
            got = rl_integral_quad(lambda u: (u - a) ** 2, alpha, a, t)
            want = 2.0 * (t - a) ** (2.0 + alpha) / math.gamma(3.0 + alpha)
            assert got == pytest.approx(want, rel=1e-11)


def test_integral_of_exp_against_closed_form():
    # I^(1/2) e^t = e^t erf(sqrt t)
    for t in (0.5, 1.0, 2.0):
        got = rl_integral_quad(math.exp, 0.5, 0.0, t)
        want = math.exp(t) * math.erf(math.sqrt(t))
        assert got == pytest.approx(want, rel=1e-10)


def test_fixed_rule_converges_spectrally():
    f = lambda u: math.exp(5.0 * u)
    want = rl_integral_quad(f, 0.5, 0.0, 2.0, nodes=64)
    err8 = abs(rl_integral_fixed(f, 0.5, 0.0, 2.0, 8) - want) / abs(want)
    err16 = abs(rl_integral_fixed(f, 0.5, 0.0, 2.0, 16) - want) / abs(want)
    assert err16 < err8 * 1e-3
    assert err16 < 1e-11


def test_integral_flags_nonsmooth_integrand():
    with pytest.raises(QuadratureError):
        rl_integral_quad(lambda t: abs(t - 0.5) ** 0.3, 0.5, 0.0, 1.0, max_doublings=4)


def test_integral_validation():
    with pytest.raises(ValueError):
        rl_integral_quad(lambda t: 1.0, -0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        rl_integral_quad(lambda t: 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        rl_integral_quad(lambda t: 1.0, 0.5, 0.0, 1.0, nodes=4)


# --- Caputo and RL values from Taylor data ----------------------------------------


def test_caputo_quad_linear():
    a = 1.0
    f = series_from_catalog("shifted-poly", [0.0, 1.0], center=a, truncation=8)
    for t in (1.5, 2.0):
        got = caputo_quad(f, 0.5, t)
        want = (t - a) ** 0.5 / math.gamma(1.5)
        assert got == pytest.approx(want, rel=1e-11)


def test_caputo_quad_constant_is_zero():
    f = series_from_catalog("const", [5.0], truncation=4)
    assert caputo_quad(f, 0.5, 1.0) == 0.0


def test_caputo_quad_square_high_order():
    f = series_from_catalog("poly", [0.0, 0.0, 1.0], truncation=8)
    t = 2.0
    got = caputo_quad(f, 1.5, t)
    want = 2.0 * t**0.5 / math.gamma(1.5)
    assert got == pytest.approx(want, rel=1e-11)


def test_caputo_quad_integer_orders_are_exact():
    f = series_from_catalog("poly", [1.0, 2.0, 3.0], truncation=8)
    t = 1.5
    assert caputo_quad(f, 0.0, t) == pytest.approx(1 + 2 * t + 3 * t * t, rel=1e-14)
    assert caputo_quad(f, 1.0, t) == pytest.approx(2 + 6 * t, rel=1e-14)
    assert caputo_quad(f, 2.0, t) == pytest.approx(6.0, rel=1e-14)
    # negative integers take the integral route
    got = caputo_quad(f, -1.0, t)
    want = t + t * t + t**3
    assert got == pytest.approx(want, rel=1e-11)


def test_caputo_quad_matches_series_route():
    for _ in range(10):
        coeffs = rng.uniform(-1.0, 1.0, size=5)
        f = series_from_catalog("poly", list(coeffs), truncation=10)
        alpha = float(rng.uniform(0.1, 2.9))
        if abs(alpha - round(alpha)) < 1e-3:
            continue
        t = float(rng.uniform(0.3, 2.0))
        got = caputo_quad(f, alpha, t)
        want = caputo_derivative(f, alpha).evaluate(t).expect_finite()
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_rl_derivative_quad_of_constant():
    f = series_from_catalog("const", [1.0], truncation=4)
    got = rl_derivative_quad(f, 0.5, 1.0)
    assert got == pytest.approx(0.5641895835477563, rel=1e-12)


def test_rl_derivative_quad_matches_series_route():
    f = series_from_catalog("exp", [1.0], truncation=48)
    for alpha in (0.5, 1.5, 2.7):
        for t in (0.5, 1.0):
            got = rl_derivative_quad(f, alpha, t)
            want = rl_differintegral(f, alpha).evaluate(t).expect_finite()
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_rl_derivative_quad_negative_order_integrates():
    f = series_from_catalog("poly", [0.0, 1.0], truncation=6)
    got = rl_derivative_quad(f, -0.5, 1.7)
    want = 1.7**1.5 / math.gamma(2.5)
    assert got == pytest.approx(want, rel=1e-11)


def test_sin_cross_check():
    f = series_from_catalog("sin", [1.0], truncation=32)
    t = 1.2
    for alpha in (0.5, 1.5):
        got = caputo_quad(f, alpha, t)
        want = caputo_derivative(f, alpha).evaluate(t).expect_finite()
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_truncated_data_vetted_before_integration():
    # 8 sine terms are nowhere near spent at t = 3
    f = series_from_catalog("sin", [1.0], truncation=8)
    with pytest.raises(ValueError):
        caputo_quad(f, 0.5, 3.0)


# --- failure reporting and the rule cache ----------------------------------------


def test_doubling_failure_reports_the_last_change():
    # rel_tol 0 can only be met by bitwise agreement, which never comes
    with pytest.raises(QuadratureError) as info:
        rl_integral_quad(math.exp, 0.5, 0.0, 0.5, rel_tol=0.0)
    message = str(info.value)
    change = float(message.split("last change ")[1].split(",")[0])
    assert 0.0 < change < 1e-10
    assert "1024 nodes" in message
    assert "rel_tol 0.000e+00" in message


def test_doubling_needs_at_least_one_doubling():
    with pytest.raises(ValueError):
        rl_integral_quad(math.exp, 0.5, 0.0, 0.5, max_doublings=0)


def test_jacobi_rule_cache_is_bounded():
    from fracseries.quadrature import JACOBI_CACHE_SIZE, _jacobi_rule

    for i in range(JACOBI_CACHE_SIZE + 20):
        _jacobi_rule(0.3 + i * 1e-3, 8)
    info = _jacobi_rule.cache_info()
    assert info.maxsize == JACOBI_CACHE_SIZE
    assert info.currsize <= JACOBI_CACHE_SIZE
