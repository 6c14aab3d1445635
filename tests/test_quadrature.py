import hashlib
import math
import random

import numpy as np
import pytest

from fracseries.leibniz import leibniz_report
from fracseries.operators import caputo_derivative, rl_differintegral
from fracseries.quadrature import (
    QuadratureError,
    caputo_quad,
    rl_derivative_quad,
    rl_integral_fixed,
    rl_integral_quad,
)
from fracseries.series import series_from_catalog
from fracseries.special import GammaRangeError

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
    want = rl_integral_fixed(f, 0.5, 0.0, 2.0, 64)
    err8 = abs(rl_integral_fixed(f, 0.5, 0.0, 2.0, 8) - want) / abs(want)
    err16 = abs(rl_integral_fixed(f, 0.5, 0.0, 2.0, 16) - want) / abs(want)
    assert err16 < err8 * 1e-3
    assert err16 < 1e-11


def test_integral_flags_nonsmooth_integrand():
    with pytest.raises(QuadratureError):
        rl_integral_quad(lambda t: abs(t - 0.5) ** 0.3, 0.5, 0.0, 1.0)


def test_integral_past_the_gamma_range_is_refused():
    # 1/Gamma(200) underflows to 0.0, and the integral read 0 (it is 2.26e-115)
    with pytest.raises(GammaRangeError, match=r"Gamma\(200\.0\)"):
        rl_integral_quad(math.exp, 200.0, 0.0, 20.0)


def test_integral_validation():
    with pytest.raises(ValueError):
        rl_integral_quad(lambda t: 1.0, -0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        rl_integral_quad(lambda t: 1.0, 0.5, 1.0, 1.0)
    # nan and -1 doubled to 1024 nodes and then failed as non-convergence;
    # at integer orders the oracle answered without taking an integral
    f = series_from_catalog("exp", [1.0], truncation=32)
    for rel_tol in (math.nan, -1.0):
        for call in (
            lambda: rl_integral_quad(lambda t: 1.0, 0.5, 0.0, 1.0, rel_tol=rel_tol),
            lambda: caputo_quad(f, 2, 1.0, rel_tol=rel_tol),
            lambda: rl_derivative_quad(f, 1, 1.0, rel_tol=rel_tol),
        ):
            with pytest.raises(ValueError, match=f"^rel_tol must be >= 0, got {rel_tol!r}$"):
                call()


def test_oracle_tolerance_is_keyword_only():
    # a positional fourth (fifth for the memory integral) argument was the
    # node count; it must not become a tolerance
    with pytest.raises(TypeError):
        rl_integral_quad(math.exp, 0.5, 0.0, 1.0, 16)
    f = series_from_catalog("exp", [1.0], truncation=32)
    for quad in (caputo_quad, rl_derivative_quad):
        with pytest.raises(TypeError):
            quad(f, 0.5, 1.0, 16)
        assert quad(f, 0.5, 1.0, rel_tol=1e-9) == quad(f, 0.5, 1.0)


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
    # negative integers take the integral route, which the RL oracle reaches
    # (caputo_quad refuses alpha < 0)
    got = rl_derivative_quad(f, -1.0, t)
    want = t + t * t + t**3
    assert got == pytest.approx(want, rel=1e-11)


def test_caputo_quad_refuses_a_negative_order_as_the_caputo_reports_do():
    # it integrated there, as the RL oracle does; integer orders >= 0 answer
    f = series_from_catalog("exp", [1.0], truncation=32)
    g = series_from_catalog("sin", [1.0], truncation=32)
    for alpha in (-0.5, -1.0, -2, -1e-300):
        with pytest.raises(ValueError) as quad:
            caputo_quad(f, alpha, 1.0)
        with pytest.raises(ValueError) as report:
            leibniz_report(f, g, alpha, 1.0)
        assert str(quad.value) == str(report.value)
        assert str(quad.value).startswith("order must be > 0 and not an integer")
    assert rl_derivative_quad(f, -0.5, 1.0) == 2.2906982523032386
    assert caputo_quad(f, -0.0, 1.0) == caputo_quad(f, 0.0, 1.0) == f.evaluate(1.0)


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
    # rel_tol 0 can only be met by bitwise agreement; sqrt has its branch
    # point at the terminal, so successive rules converge only algebraically
    # (the 512- and 1024-node values differ by 1.9e-10)
    with pytest.raises(QuadratureError) as info:
        rl_integral_quad(math.sqrt, 0.5, 0.0, 0.5, rel_tol=0.0)
    message = str(info.value)
    change = float(message.split("last change ")[1].split(",")[0])
    assert 0.0 < change < 1e-9
    assert "1024 nodes" in message
    assert "rel_tol 0.000e+00" in message


def test_jacobi_rule_cache_is_bounded():
    from fracseries.quadrature import JACOBI_CACHE_SIZE, _jacobi_rule

    for i in range(JACOBI_CACHE_SIZE + 20):
        _jacobi_rule(0.3 + i * 1e-3, 8)
    info = _jacobi_rule.cache_info()
    assert info.maxsize == JACOBI_CACHE_SIZE
    assert info.currsize <= JACOBI_CACHE_SIZE


def test_float_nodes_sum_like_numpy_scalar_nodes(monkeypatch):
    # the rule is cached as Python floats; numpy float64 scalars round the
    # same way, so the integral keeps its bits
    import fracseries.quadrature as quadrature

    f = series_from_catalog("exp", [1.3], center=0.5, truncation=40)
    integrands = [f.evaluate, lambda tau: 1.0 / (1.0 + tau * tau)]
    cases = [(0.37, 0.5, 1.7, 24), (1.5, 0.5, 2.25, 16), (0.9, -1.0, 0.0, 32)]
    floats = [rl_integral_fixed(g, *case) for g in integrands for case in cases]
    x, _ = quadrature._jacobi_rule(0.37, 24)
    assert type(x[0]) is float
    rule = quadrature._jacobi_rule
    monkeypatch.setattr(
        quadrature, "_jacobi_rule",
        lambda alpha, nodes: tuple(np.array(v) for v in rule(alpha, nodes)),
    )
    scalars = [rl_integral_fixed(g, *case) for g in integrands for case in cases]
    assert type(quadrature._jacobi_rule(0.37, 24)[0][0]) is np.float64
    assert floats == scalars


# --- the Gauss-Jacobi rule against scipy and mpmath ------------------------------


@pytest.mark.parametrize("alpha", [0.05, 0.37, 1.0, 3.5, 8.0])
def test_jacobi_nodes_match_scipy_at_every_doubling(alpha):
    special = pytest.importorskip("scipy.special")
    from fracseries.quadrature import _jacobi_rule

    for nodes in (16, 32, 64, 128, 256, 512, 1024):
        x, w = _jacobi_rule(alpha, nodes)
        ref, _ = special.roots_jacobi(nodes, alpha - 1.0, 0.0)
        assert max(abs(a - b) for a, b in zip(x, ref[::-1])) <= 1e-15
        # the weights integrate (1-x)^(alpha-1) itself, to the rounding of
        # a recurrence of `nodes` steps (1.8e-13 at alpha 0.05, 1024 nodes)
        assert math.fsum(w) == pytest.approx(2.0**alpha / alpha, rel=5e-13)


def test_jacobi_rule_rejects_bad_orders_and_node_counts():
    for alpha, nodes in ((0.5, 0), (0.5, -3), (0.0, 4), (-0.5, 4), (math.nan, 4), (math.inf, 4)):
        with pytest.raises(ValueError):
            rl_integral_fixed(math.exp, alpha, 0.0, 1.0, nodes)


def test_jacobi_nodes_for_few_nodes_and_large_orders():
    # poor asymptotic starts (alpha > 12) must not find a root twice
    special = pytest.importorskip("scipy.special")
    from fracseries.quadrature import _jacobi_rule

    for alpha in (0.5, 20.0, 50.0):
        for nodes in (1, 2, 3, 5, 8, 16, 64):
            x, _ = _jacobi_rule(alpha, nodes)
            ref, _ = special.roots_jacobi(nodes, alpha - 1.0, 0.0)
            assert max(abs(a - b) for a, b in zip(x, ref[::-1])) <= 1e-15


def jacobi_panel() -> list[tuple[float, float]]:
    """Seeded (alpha, t) samples of the Gauss-Jacobi panel."""
    r = random.Random(20261019)
    alphas = [0.05, 0.5, 1.0, 7.95] + [r.uniform(0.05, 8.0) for _ in range(36)]
    return [(alpha, t) for alpha in alphas for t in (0.25, 1.0, 3.0)]


#: Largest relative error of I^alpha e^t over the panel, by node count; each
#: is at most that of scipy's roots_jacobi rule on the same samples.
JACOBI_PANEL_TOL = {16: 2e-15, 32: 3e-15, 64: 5e-15}


def jacobi_panel_errors(nodes: int) -> list[float]:
    """Relative errors of the order-alpha integral of e^t from 0 against
    40-digit mpmath: it is e^t P(alpha, t), P the regularized lower
    incomplete gamma function."""
    import mpmath

    errors = []
    with mpmath.workdps(40):
        for alpha, t in jacobi_panel():
            want = mpmath.exp(t) * mpmath.gammainc(alpha, 0, t, regularized=True)
            got = rl_integral_fixed(math.exp, alpha, 0.0, t, nodes)
            errors.append(float(abs((got - want) / want)))
    return errors


@pytest.mark.parametrize("nodes", sorted(JACOBI_PANEL_TOL))
def test_jacobi_panel_against_mpmath(nodes):
    pytest.importorskip("mpmath")
    assert max(jacobi_panel_errors(nodes)) <= JACOBI_PANEL_TOL[nodes]


#: SHA-256 of the float.hex of the nodes and weights of the 16-, 32- and
#: 64-node rules at the panel's orders and at three orders that need the
#: deflated Newton start. The Newton step sums left to right, not with the
#: builtin sum(), which is compensated from Python 3.12 on, so the same bits
#: are due on every interpreter the package supports.
JACOBI_GOLDEN = "8b91cd15bd30731126e7c16c0c7da82160994b714bd5fce4f0771d359cf902c2"


def test_jacobi_rule_bits_do_not_depend_on_the_interpreter():
    from fracseries.quadrature import _jacobi_rule

    orders = sorted({alpha for alpha, _ in jacobi_panel()}) + [12.5, 20.0, 50.0]
    digest = hashlib.sha256()
    for alpha in orders:
        for nodes in (16, 32, 64):
            x, w = _jacobi_rule.__wrapped__(alpha, nodes)
            digest.update(" ".join(v.hex() for v in x + w).encode())
    assert digest.hexdigest() == JACOBI_GOLDEN
