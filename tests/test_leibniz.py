import math
import sys

import numpy as np
import pytest

from fracseries.leibniz import leibniz_report
from fracseries import quadrature
from fracseries.grammar import parse_function_spec
from fracseries.operators import caputo_derivative, rl_differintegral
from fracseries.quadrature import rl_integral_fixed
from fracseries.series import (
    DivergenceError,
    TaylorSeries,
    check_tail,
    series_from_catalog,
    taylor_arith,
)
from fracseries.special import gen_binom, recip_gamma

rng = np.random.default_rng(4242)


def poly(coeffs, center=0.0, truncation=12):
    return series_from_catalog("poly", list(coeffs), center=center, truncation=truncation)


def shifted(coeffs, center, truncation=12):
    return series_from_catalog(
        "shifted-poly", list(coeffs), center=center, truncation=truncation
    )


def unit(center=0.0):
    return series_from_catalog("const", [1.0], center=center, truncation=12)


def rule_value(f, g, order, t, rule, trunc=32):
    """The named rule's value alone, which answers where its reference refuses."""
    return leibniz_report(f, g, order, t, rule, trunc).rule_value.expect_finite()


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


def test_three_reports_build_one_product_and_one_recentering(monkeypatch):
    # the product and the lead factor at t are kept on the data: the
    # reports after the first build no series
    built = []
    original = TaylorSeries.__post_init__

    def counting(self):
        built.append(self.center)
        original(self)

    f = series_from_catalog("exp", [1.0], truncation=32)
    g = series_from_catalog("sin", [1.0], truncation=32)
    monkeypatch.setattr(TaylorSeries, "__post_init__", counting)
    for rule in ("rl", "wrong", "corrected"):
        leibniz_report(f, g, 0.5, 0.75, rule=rule)
    assert built == [0.0, 0.75]
    assert f * g is taylor_arith(f, g, "mul")


@pytest.mark.parametrize("swap", [False, True])
def test_complete_factors_of_different_truncations_keep_a_complete_product(swap):
    # the product of poly:1 at truncation 1 and poly:1,0.5,0.25 at truncation
    # 12 was cut to truncation 1 and marked truncated, so its reference
    # failed the tail test
    f = series_from_catalog("poly", [1.0], truncation=1)
    g = series_from_catalog("poly", [1.0, 0.5, 0.25], truncation=12)
    lead, other = (g, f) if swap else (f, g)
    product = taylor_arith(lead, other, "mul")
    assert product.derivs == g.derivs and product.complete
    report = leibniz_report(lead, other, 0.6, 1.4, "rl", 1)
    want = rl_differintegral(g, 0.6).evaluate(1.4).expect_finite()
    assert report.reference_value.value.hex() == want.hex()


def test_rl_quadrature_after_caputo_quadrature_takes_no_new_pass(monkeypatch):
    passes = []

    def counting(*args):
        passes.append(args[4])
        return rl_integral_fixed(*args)

    monkeypatch.setattr(quadrature, "rl_integral_fixed", counting)
    f = series_from_catalog("cos", [2.0], truncation=32)
    caputo = quadrature.caputo_quad(f, 1.5, 0.8)
    assert passes
    taken = len(passes)
    rl = quadrature.rl_derivative_quad(f, 1.5, 0.8)
    assert len(passes) == taken
    fresh = series_from_catalog("cos", [2.0], truncation=32)
    assert rl.hex() == quadrature.rl_derivative_quad(fresh, 1.5, 0.8).hex()
    assert caputo.hex() == quadrature.caputo_quad(fresh, 1.5, 0.8).hex()


@pytest.mark.parametrize("rule", ["rl", "corrected"])
def test_report_evaluates_each_reciprocal_gamma_once(monkeypatch, rule):
    # the 65 factors' slots divide by 129 distinct Gamma(k + 1 - (alpha - j))
    # and the reference, read here, by 65 more; evaluated per slot that was
    # 4290 calls
    calls = []

    def counting(x):
        calls.append(x)
        return recip_gamma(x)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fracseries"]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is recip_gamma:
                monkeypatch.setattr(mod, attr, counting)
    f = series_from_catalog("exp", [0.75], truncation=64)
    g = series_from_catalog("cos", [1.0], truncation=64)
    leibniz_report(f, g, 0.734521, 1.25, rule=rule, trunc=64).residual
    assert 0 < len(calls) <= 200


def test_rl_rule_square_closed_form():
    # D^(1/2) t*t = Gamma(3)/Gamma(2.5) t^(3/2)
    f = poly([0.0, 1.0])
    t = 1.3
    got = rule_value(f, f, 0.5, t, "rl")
    want = math.gamma(3.0) / math.gamma(2.5) * t**1.5
    assert got == pytest.approx(want, rel=1e-13)


def test_rl_rule_matches_product_operator():
    for alpha in (0.3, 0.7, 1.5, 2.2):
        for _ in range(10):
            f = poly(rng.uniform(-1.0, 1.0, size=4))
            g = poly(rng.uniform(-1.0, 1.0, size=4))
            product = taylor_arith(f, g, "mul")
            for t in (0.4, 1.1):
                got = rule_value(f, g, alpha, t, "rl")
                want = rl_differintegral(product, alpha).evaluate(t).expect_finite()
                assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_rl_rule_unit_series_factor_collapses():
    g = poly([1.0, 2.0, -0.5])
    t = 0.9
    got = rule_value(unit(), g, 0.4, t, "rl")
    want = rl_differintegral(g, 0.4).evaluate(t).expect_finite()
    assert got == pytest.approx(want, rel=1e-14)


def test_rl_rule_unit_cofactor_is_local_form():
    f = poly([1.0, 2.0, -0.5])
    t = 0.9
    got = rule_value(f, unit(), 0.4, t, "rl")
    want = rl_differintegral(f, 0.4).evaluate(t).expect_finite()
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_rl_rule_integer_order_is_classical():
    f = poly([0.0, 1.0])
    g = poly([1.0, 1.0])
    t = 2.0
    got = rule_value(f, g, 1.0, t, "rl")
    # (t + t^2)' = 1 + 2t
    assert got == pytest.approx(1.0 + 2.0 * t, rel=1e-14)


def test_rl_rule_validation():
    f = poly([1.0])
    with pytest.raises(ValueError):
        leibniz_report(f, f, 0.5, 0.0, "rl")
    with pytest.raises(ValueError):
        leibniz_report(f, f, 0.5, 1.0, "rl", trunc=0)


# --- monomial-cofactor rule ---------------------------------------------------


def monomial(m):
    """t^m as Taylor data at the terminal 0: its data at t end at j = m."""
    return series_from_catalog("poly", [0.0] * m + [1.0], 0.0, max(m, 1))


def test_monomial_rule_identity_factor():
    g = poly([1.0, 0.5, 0.25])
    t = 1.4
    got = rule_value(monomial(0), g, 0.6, t, "rl", trunc=1)
    want = rl_differintegral(g, 0.6).evaluate(t).expect_finite()
    assert got == pytest.approx(want, rel=1e-14)


def test_monomial_rule_linear_times_one():
    # D^alpha t = t^(1-alpha)/Gamma(2-alpha)
    t = 1.8
    for alpha in (0.25, 0.5, 0.75):
        got = rule_value(monomial(1), unit(), alpha, t, "rl", trunc=1)
        want = t ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        assert got == pytest.approx(want, rel=1e-13)


def test_monomial_rule_square_integral():
    # I^alpha t^2 = 2 t^(2+alpha)/Gamma(3+alpha)
    t = 1.8
    for alpha in (0.5, 1.3):
        got = rule_value(monomial(2), unit(), -alpha, t, "rl", trunc=2)
        want = 2.0 * t ** (2.0 + alpha) / math.gamma(3.0 + alpha)
        assert got == pytest.approx(want, rel=1e-13)


def test_monomial_rule_general_cofactor():
    f = series_from_catalog("exp", [1.0], truncation=40)
    product = taylor_arith(poly([0.0, 0.0, 1.0], truncation=40), f, "mul")
    t = 0.8
    for alpha in (0.5, 1.5):
        got = rule_value(monomial(2), f, alpha, t, "rl", trunc=2)
        want = rl_differintegral(product, alpha).evaluate(t).expect_finite()
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("trunc", [32, 64])
def test_monomial_rule_through_the_report(trunc):
    # I^5.2 of t^4 e^(-t/2) at t = 3, pinned bit for bit: the rule value is
    # 2.9e-12 (relative) off the 50-digit quadrature 0.50699224131668312,
    # and the reference, the RL integral of the product, is not
    f = parse_function_spec("poly:0,0,0,0,1", 0.0, trunc)
    g = parse_function_spec("exp:-0.5", 0.0, trunc)
    report = leibniz_report(f, g, -5.2, 3.0, rule="rl", trunc=trunc)
    assert report.rule_value.expect_finite().hex() == "0x1.03947caf93080p-1"
    assert report.reference_value.expect_finite() == 0.5069922413166837


def test_monomial_rule_beyond_the_double_range_is_refused():
    # (1e120)^3 raised a bare OverflowError
    with pytest.raises(ValueError, match="beyond the double range at center 1e\\+120"):
        series_from_catalog("poly", [0.0, 0.0, 0.0, 1.0], 1e120, 3)


# --- the naive Caputo transplant ----------------------------------------------


def test_wrong_rule_linear_closed_form():
    # f = t - a, g = 1: the transplant gives alpha (t-a)^(1-alpha)/Gamma(2-alpha)
    for a in (0.0, 1.0):
        f = shifted([0.0, 1.0], center=a)
        g = unit(center=a)
        for alpha in (0.25, 0.5, 0.75):
            for t in (a + 0.5, a + 1.0, a + 2.0):
                got = rule_value(f, g, alpha, t, "wrong")
                want = alpha * (t - a) ** (1.0 - alpha) / math.gamma(2.0 - alpha)
                assert got == pytest.approx(want, rel=1e-13)


def test_wrong_rule_square_closed_form():
    # f = g = t from terminal a:
    # (t-a)^(1-alpha)/Gamma(3-alpha) * (2t + a alpha - a alpha^2)
    a = 1.0
    f = poly([0.0, 1.0], center=a)
    for alpha in (0.25, 0.5, 0.75):
        for t in (1.5, 2.0, 3.0):
            got = rule_value(f, f, alpha, t, "wrong")
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
        got = rule_value(f, g, alpha, t, "wrong")
        want = caputo_derivative(product, alpha).evaluate(t).expect_finite()
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_wrong_rule_misses_terminal_data():
    # with g(a) != 0 the transplant provably disagrees
    a = 1.0
    f = shifted([0.0, 1.0], center=a)
    g = unit(center=a)
    t = 2.0
    alpha = 0.5
    got = rule_value(f, g, alpha, t, "wrong")
    truth = 1.0 / math.gamma(1.5)
    assert abs(got - truth) > 1e-2


def test_wrong_rule_near_integer_order_loses_the_limit():
    # as alpha -> 1 from above the transplant's terms all carry a factor
    # (alpha - 1) and die; the Caputo derivative tends to f'(t) instead
    alpha = 1.0 + 1e-6
    f = series_from_catalog("exp", [1.0], truncation=32)
    g = unit()
    t = 1.0
    wrong = rule_value(f, g, alpha, t, "wrong")
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
    report = leibniz_report(f, g, alpha, t)
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
    report = leibniz_report(f, f, alpha, t)
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
        report = leibniz_report(f, g, alpha, t)
        ref = report.reference_value.value
        assert report.residual <= 1e-10 * (1.0 + abs(ref))


def test_corrected_rule_swap_symmetry():
    for _ in range(10):
        a = 0.25
        f = poly(rng.uniform(-1.0, 1.0, size=4), center=a)
        g = poly(rng.uniform(-1.0, 1.0, size=4), center=a)
        alpha = float(rng.uniform(0.1, 0.9))
        t = 1.5
        r1 = leibniz_report(f, g, alpha, t)
        r2 = leibniz_report(g, f, alpha, t)
        # R2's reference is that of g * f, whose data sum f's and g's in the
        # other order: the two references agree to rounding
        assert r2.reference_value.value == pytest.approx(r1.reference_value.value, rel=1e-14)
        assert abs(r1.rule_value.value - r2.rule_value.value) <= 1e-10 * (
            1.0 + abs(r1.reference_value.value)
        )


def test_corrected_rule_integer_order_collapses():
    f = poly([1.0, 2.0])
    g = poly([0.0, 1.0])
    t = 1.5
    report = leibniz_report(f, g, 1.0, t)
    assert report.correction_value == 0.0
    # (t + 2t^2)' = 1 + 4t
    assert report.rule_value.value == pytest.approx(1.0 + 4.0 * t, rel=1e-14)
    assert report.residual <= 1e-13


def test_correction_vanishes_with_flat_cofactor():
    a = 0.0
    f = poly(rng.uniform(-1.0, 1.0, size=4), center=a)
    g = shifted([0.0, 0.0, 1.0], center=a)  # (t-a)^2: data 0 below k=2
    report = leibniz_report(f, g, 1.5, 1.0)
    assert report.correction_value == 0.0


def test_corrected_rule_transcendental_factors():
    f = series_from_catalog("exp", [1.0], truncation=24)
    g = series_from_catalog("sin", [1.0], truncation=24)
    report = leibniz_report(f, g, 0.5, 0.8, trunc=24)
    assert report.residual <= 1e-8 * (1.0 + abs(report.reference_value.value))


def test_corrected_rule_center_mismatch():
    with pytest.raises(ValueError):
        leibniz_report(poly([1.0]), poly([1.0], center=1.0), 0.5, 2.0)


def test_corrected_rule_with_a_shorter_complete_factor():
    # the product was cut to g's truncation 12 and failed its tail test
    f = series_from_catalog("exp", [1.0], truncation=32)
    g = poly([1.0, 2.0, -0.5], truncation=12)
    # 40-digit mpmath value of C D^0.3 {e^t (1 + 2t - t^2/2)} at t = 0.5
    want = 2.992387555082328762347
    for lead, other in ((f, g), (g, f)):
        report = leibniz_report(lead, other, 0.3, 0.5)
        assert report.reference_value.value == pytest.approx(want, rel=1e-15)
        assert report.residual <= 1e-14


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


def test_caputo_reports_refuse_every_negative_order_and_the_rl_report_answers():
    f = series_from_catalog("exp", [1.0], truncation=32)
    g = series_from_catalog("sin", [1.0], truncation=32)
    for alpha in (-0.5, -1, -1.0, -2.0):
        message = f"order must be > 0 and not an integer, got {float(alpha)}"
        for rule in ("wrong", "corrected"):
            with pytest.raises(ValueError) as excinfo:
                leibniz_report(f, g, alpha, 1.0, rule=rule)
            assert str(excinfo.value) == message
        rl = leibniz_report(f, g, alpha, 1.0, rule="rl")
        assert rl.residual <= 1e-14
    # at 0 and at positive integers a Caputo report is the RL one
    for alpha in (0.0, -0.0, 1.0, 2.0):
        rl = leibniz_report(f, g, alpha, 1.0, rule="rl")
        for rule in ("wrong", "corrected"):
            report = leibniz_report(f, g, alpha, 1.0, rule=rule)
            assert report == rl
            assert report.reference_value == rl.reference_value


# --- bit-for-bit reference: one operator series per factor ----------------------


def _series_rule(f, g, alpha, t, rule, trunc):
    """The product rules written with one public operator series per factor:
    every D^(alpha-j) value is rl_differintegral or caputo_derivative of the
    factor, evaluated at t. Returns rule, reference, correction, residual."""

    def rl_value(h, beta):
        return rl_differintegral(h, beta).evaluate(t).expect_finite()

    def caputo_value(h, beta):
        if beta > 0 and not float(beta).is_integer():
            return caputo_derivative(h, beta).evaluate(t).expect_finite()
        return rl_value(h, beta)

    product = taylor_arith(f, g, "mul")
    lead, other = f, g
    lead_t = lead if lead.center == t else lead.recentered(t)
    value = rl_value if rule == "rl" else caputo_value
    terms = []
    for j in range(min(trunc, lead_t.truncation) + 1):
        b = gen_binom(alpha, j)
        if b == 0.0 or lead_t.derivs[j] == 0.0:
            terms.append(0.0)
        else:
            terms.append(b * lead_t.derivs[j] * value(other, alpha - j))
    total = math.fsum(terms)
    check_tail(terms, total, lead_t.complete)

    rl_reading = rule == "rl" or float(alpha).is_integer()
    correction = 0.0
    if not rl_reading:
        # k < n, the branch integer of the non-integer alpha (none below 0)
        for k in range(math.ceil(alpha)):
            rg = recip_gamma(k + 1 - alpha)
            if rg == 0.0:
                continue
            inner = 0.0
            for j in range(k + 1):
                gv = other.derivs[k - j] if k - j <= other.truncation else 0.0
                if gv == 0.0:
                    continue
                ft = lead_t.derivs[j] if j <= lead_t.truncation else 0.0
                fa = lead.derivs[j] if j <= lead.truncation else 0.0
                inner += (gen_binom(alpha, j) * ft - math.comb(k, j) * fa) * gv
            correction += inner * (t - other.center) ** (k - alpha) * rg
    if rule == "corrected":
        total += correction
    operator = rl_differintegral if rl_reading else caputo_derivative
    ref = operator(product, alpha).evaluate(t).expect_finite()
    return total, ref, correction, abs(total - ref)


def _fields(report):
    return (report.rule_value.value, report.reference_value.value,
            report.correction_value, report.residual)


@pytest.mark.parametrize(
    "fspec, gspec, a, trunc",
    [
        ("poly:1,2,3", "poly:0,1,0.5", 0.0, 12),  # complete data
        ("poly:1,-1,0.5,0.25", "poly:2,0,1", 1.0, 12),
        ("exp:1", "sin:1.3", 0.0, 32),  # truncated data
        ("cos:2", "exp:-0.7", 1.0, 64),
        ("exp:0.5+sin:1", "poly:1,2", -0.5, 40),
    ],
)
@pytest.mark.parametrize("alpha", [0.4, 1.6, 2.3, 1.0, 2.0])
def test_product_rules_match_the_operator_series_bit_for_bit(fspec, gspec, a, trunc, alpha):
    f = parse_function_spec(fspec, a, trunc)
    g = parse_function_spec(gspec, a, trunc)
    t = a + 0.75
    for rule in ("rl", "wrong", "corrected"):
        for rule_trunc in (24, 32):
            want = _series_rule(f, g, alpha, t, rule, rule_trunc)
            assert _fields(leibniz_report(f, g, alpha, t, rule, rule_trunc)) == want
    for rule in ("rl", "wrong", "corrected"):
        want = _series_rule(g, f, alpha, t, rule, 32)
        assert _fields(leibniz_report(g, f, alpha, t, rule)) == want


@pytest.mark.parametrize("rule", ["rl", "wrong", "corrected"])
def test_product_rules_refuse_a_failing_factor_like_its_series(rule):
    # g's data is too short at t: the j = 0 factor D^alpha g fails its tail test
    f = series_from_catalog("exp", [1.0], truncation=12)
    g = series_from_catalog("exp", [3.0], truncation=12)
    alpha, t = 0.6, 2.0
    with pytest.raises(DivergenceError) as series_exc:
        rl_differintegral(g, alpha).evaluate(t)
    assert "tail terms" in str(series_exc.value)
    with pytest.raises(Exception) as want:
        _series_rule(f, g, alpha, t, rule, 12)
    with pytest.raises(Exception) as got:
        leibniz_report(f, g, alpha, t, rule, 12)
    assert type(got.value) is type(want.value) is DivergenceError
    assert str(got.value) == str(want.value)


def test_a_refused_reference_keeps_the_rule_value():
    # crosscheck seed 5001: the RL reference of the product fails its tail
    # test at t = 2, which refused the whole call; the rule value is that of
    # the bare RL rule before it was folded into the report
    f = parse_function_spec("exp:-1.0", 0.0, 32)
    g = parse_function_spec("exp:-0.25+exp:-1.0", 0.0, 32)
    report = leibniz_report(f, g, 1.300554, 2.0, rule="rl", trunc=32)
    assert report.rule_value.value.hex() == "0x1.5b0febfd2d4bcp-8"
    message = ("tail terms -1.969e-14, 2.565e-15 fail the convergence test against "
               "the sum 5.295749e-03 (relative tolerance 1e-12)")
    for field in ("reference_value", "residual", "reference_value"):
        with pytest.raises(DivergenceError) as excinfo:
            getattr(report, field)
        assert str(excinfo.value) == message
