import math
import random
import re

import numpy as np
import pytest

from fracseries.operators import (
    caputo_derivative,
    operator_terms,
    operator_value,
    rl_caputo_bridge,
    rl_differintegral,
)
from fracseries.grammar import GrammarError, parse_function_spec
from fracseries.series import (
    DivergenceError,
    TaylorSeries,
    check_order,
    series_from_catalog,
    sum_grid,
)
from fracseries.special import GammaRangeError

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
    assert rl_caputo_bridge(f, 2.0).terms == ()


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


def test_sums_past_the_carried_data_are_refused():
    # truncated data must leave two slots for the tail test
    f = series_from_catalog("exp", [1.0], truncation=8)
    for build in (
        lambda: caputo_derivative(f, 7.5),
        lambda: caputo_derivative(f, 8.5),
        lambda: rl_differintegral(f, 8.0),
        lambda: rl_differintegral(TaylorSeries(0.0, (1.0,), math.inf, False), 0.5),
    ):
        with pytest.raises(ValueError, match="truncation"):
            build()
    assert len(caputo_derivative(f, 6.5).terms) == 2
    assert len(rl_differintegral(f, 7.0).terms) == 2
    # the bridge is a finite sum, and complete data is exact however short
    assert rl_caputo_bridge(f, 8.5).complete
    g = series_from_catalog("poly", [1.0, 2.0], truncation=1)
    assert caputo_derivative(g, 1.5).terms == ()


# --- power-series operator ---------------------------------------------------


def test_zero_datum_still_refuses_a_reciprocal_gamma_beyond_the_double_range():
    # k = 0 holds a zero datum, yet 1/Gamma(1 - 172.5) is beyond the range
    f = series_from_catalog("poly", [0.0, 0.0, 0.0, 1.0], 0.0, 8)
    with pytest.raises(GammaRangeError, match=r"Gamma\(-171\.5\)"):
        rl_differintegral(f, 172.5)


def test_a_term_beyond_the_double_range_is_named_after_the_gamma_checks():
    # 1e100 / Gamma(-149.5) overflows at k = 0; Gamma(172.5) at k = 322
    # still refuses first, and without it the k = 0 term is named
    for n, error, match in (
        (330, GammaRangeError, r"f\^\(322\) by Gamma\(172\.5\)"),
        (100, ValueError, r"term \(inf, -150\.5\) is not finite"),
    ):
        f = TaylorSeries(0.0, [1.0e100] * n, math.inf, False)
        with pytest.raises(error, match=match):
            operator_value(f, 150.5, 0.5)


def test_operator_value_names_a_term_that_overflows_by_multiplication():
    f = series_from_catalog("poly", [1.0e300, 1.0e300], 0.0, 4)
    with pytest.raises(DivergenceError, match=r"\^0\.5 "):
        operator_value(f, 0.5, 1.0e20)


@pytest.mark.parametrize("order", [0.5, -0.5, 2, -1, 150.5])
@pytest.mark.parametrize("t", [0.5, 0.0, -3.0])
def test_operator_value_refuses_t_at_or_left_of_the_terminal(order, t):
    # t < a summed complex powers (TypeError), and t = a divided by zero at
    # negative exponents or returned a value
    f = series_from_catalog("exp", [1.0], 0.5, 8)
    with pytest.raises(ValueError, match=re.escape(f"t={t!r} must lie right of the terminal 0.5")):
        operator_value(f, order, t)


def _outcome(thunk):
    """A value as its bits, or a refusal as its type and message."""
    try:
        return thunk().hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


_DIFF_DATA = [
    *(
        (spec, a)
        for spec in ("exp:1", "exp:-2", "sin:3", "cos:-2+poly:0,1", "poly:1,2,3", "const:2",
                     "shifted-poly:0,0,1")
        for a in (-1.0, 0.0, 0.5, 1.0)
    ),
    # power data about a has radius a: most t lie at or past it
    *((spec, a) for spec in ("power:0.5", "exp:-1+power:2.5") for a in (0.5, 1.0)),
]


@pytest.mark.parametrize("spec, a", _DIFF_DATA)
def test_operator_value_is_the_term_list_sum_bit_for_bit(spec, a):
    # the term-list route is the reference for the one-pass sum: the same
    # value bit for bit, or the same refusal, with the data's memo at t
    # shared by every order, as a product-rule report shares it
    orders = (0, 3, -2, 0.5, -0.5, 1.5, 2.25, -2.75, 150.5, -178.5, 171.3)
    for trunc in (1, 2, 7, 33, 64):
        try:
            f = parse_function_spec(spec, a, trunc)
        except GrammarError:  # a polynomial of higher degree than the truncation
            continue
        for dt in (1e-3, 0.5, 1.0, 2.5, 40.0, 1e20):
            t = a + dt
            for order in orders:
                for caputo in (False, True):
                    want = _outcome(lambda: sum_grid(
                        operator_terms(f, check_order(order), caputo), a, (t,), f.radius_hint,
                        f.complete)[0])
                    got = _outcome(lambda: operator_value(f, order, t, caputo))
                    assert got == want, (spec, a, trunc, t, order, caputo)


@pytest.mark.parametrize("seed", range(4))
def test_operator_value_matches_the_term_list_sum_on_extreme_data(seed):
    # zeros, +-1e300 and subnormals: terms that are not finite, sums that
    # leave the double range and powers that overflow take the term-list
    # route, which must refuse exactly as before
    r = random.Random(seed)
    for _ in range(150):
        derivs = [r.choice([0.0, 1.0, -3.0, 1.0e300, -1.0e300, 5.0e-324, r.uniform(-9.0, 9.0)])
                  for _ in range(r.randint(1, 40))]
        a = r.choice([-1.0, 0.0, 0.5, 1.0])
        f = TaylorSeries(a, derivs, r.choice([math.inf, 0.5, 2.0]), r.random() < 0.3)
        t = a + r.choice([1e-3, 0.4, 1.0, 3.0, 1e20])
        order = r.choice([1, -2, 0.5, -0.5, 2.25, 150.5, -178.5, 171.3])
        caputo = r.random() < 0.5
        want = _outcome(lambda: sum_grid(
            operator_terms(f, check_order(order), caputo), a, (t,), f.radius_hint, f.complete)[0])
        assert _outcome(lambda: operator_value(f, order, t, caputo)) == want, (derivs, a, t, order)


# --- integer-limit collapse ---------------------------------------------------


def _integer_limit_dev(f, n, eps, grid):
    """Max deviation on *grid* of RL at n +/- eps and Caputo at n - eps from the
    exact n-th derivative, and of RL at -(n +/- eps) from the exact n-fold integral."""
    exact_d, exact_i = rl_differintegral(f, n), rl_differintegral(f, -n)
    pairs = [(rl_differintegral(f, n + eps), exact_d), (rl_differintegral(f, n - eps), exact_d),
             (caputo_derivative(f, n - eps), exact_d), (rl_differintegral(f, -(n + eps)), exact_i),
             (rl_differintegral(f, -(n - eps)), exact_i)]
    return max(abs(near.evaluate(t).expect_finite() - exact.evaluate(t).expect_finite())
               for near, exact in pairs for t in map(float, grid))


def test_integer_limit_exp_contract():
    f = series_from_catalog("exp", [1.0], truncation=32)
    assert _integer_limit_dev(f, 2, 1e-6, np.linspace(0.25, 1.0, 7)) < 1e-3


def test_integer_limit_poly_tight():
    f = series_from_catalog("poly", [1.0, -1.0, 0.5, 2.0], truncation=10)
    assert _integer_limit_dev(f, 1, 1e-6, np.linspace(0.5, 2.0, 9)) < 1e-4


def test_integer_limit_constant_caputo_is_exact():
    f = series_from_catalog("const", [4.0], truncation=6)
    assert caputo_derivative(f, 1 - 1e-6).terms == ()
