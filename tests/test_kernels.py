"""The Taylor-data kernels against the loops they replaced.

Each reference below is the earlier loop, copied as it stood. A kernel
must give the same floats, compared by float.hex, and the same refusals,
compared by type and message.
"""

import math
import random
from itertools import accumulate

import pytest

from fracseries.grammar import parse_function_spec
from fracseries.leibniz import (
    _binomial_weights, _compensation, _rule_sum, leibniz_report
)
from fracseries.operators import check_right_of_terminal, operator_value
from fracseries.series import (
    DivergenceError,
    TaylorSeries,
    check_tail,
    positive_order,
    series_from_catalog,
    taylor_arith,
)
from fracseries.special import GammaRangeError, gen_binom


def outcome(fn, *args):
    """What a call gives: its floats as hex strings, or its refusal."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return ("raises", type(exc).__name__, str(exc))
    if isinstance(value, TaylorSeries):
        return (value.center.hex(), tuple(d.hex() for d in value.derivs),
                value.radius_hint, value.complete)
    if isinstance(value, tuple):  # rule_sum: (total, length, data at t)
        return (value[0].hex(), value[1], outcome(lambda: value[2]))
    return value.hex()


# --- taylor_arith(..., "mul") ------------------------------------------------------


def taylor_arith_loop(f: TaylorSeries, g: TaylorSeries, op: str) -> TaylorSeries:
    if f.center != g.center:
        raise ValueError(f"center mismatch: {f.center!r} vs {g.center!r}")
    fd, gd = f.derivs, g.derivs
    n = min(f.truncation, g.truncation)
    if f.complete != g.complete:
        n = (g if f.complete else f).truncation
        fd, gd = fd + (0.0,) * (n - f.truncation), gd + (0.0,) * (n - g.truncation)
    radius = min(f.radius_hint, g.radius_hint)
    complete = f.complete and g.complete

    if op == "add":
        derivs = [fd[k] + gd[k] for k in range(n + 1)]
    elif op == "mul":
        derivs = []
        for k in range(n + 1):
            acc = 0.0
            binom = 1.0
            for j in range(k + 1):
                if j > 0:
                    binom = binom * (k - j + 1) / j
                acc += binom * fd[j] * gd[k - j]
            derivs.append(acc)
        if complete:
            df, dg = f.degree(), g.degree()
            if df is not None and dg is not None and df + dg > n:
                # the data cannot hold the full product; it is a truncation
                complete = False
    else:
        raise ValueError(f"unknown op {op!r} (expected 'add' or 'mul')")
    for k, d in enumerate(derivs):
        if not math.isfinite(d):
            raise ValueError(
                f"the {'sum' if op == 'add' else 'product'} of Taylor data at center "
                f"{f.center!r} is beyond the double range: its datum k = {k} is {d!r}"
            )
    return TaylorSeries(f.center, tuple(derivs), radius, complete)


def random_data(r: random.Random, truncation: int, complete: bool, scale: float) -> TaylorSeries:
    """Taylor data with a share of exact zeros (trailing ones too, so that a
    complete operand's degree sits below its truncation)."""
    derivs = [0.0 if r.random() < 0.2 else r.uniform(-1.0, 1.0) * scale**k
              for k in range(truncation + 1)]
    if complete:
        for k in range(max(truncation - r.randint(0, 2), 1), truncation + 1):
            derivs[k] = 0.0
    radius = math.inf if complete else r.choice((math.inf, 2.5, math.inf))
    return TaylorSeries(0.25, tuple(derivs), radius, complete)


TRUNCATIONS = (1, 2, 5, 17, 32, 64, 170)


@pytest.mark.parametrize("f_complete, g_complete",
                         [(True, True), (False, False), (True, False), (False, True)])
def test_product_matches_the_loop(f_complete, g_complete):
    r = random.Random(f"{f_complete}{g_complete}")
    for nf in TRUNCATIONS:
        for ng in TRUNCATIONS:
            # scale 40 takes the long products beyond the double range
            for scale in (0.5, 2.0, 40.0):
                f = random_data(r, nf, f_complete, scale)
                g = random_data(r, ng, g_complete, scale)
                assert outcome(taylor_arith, f, g, "mul") == outcome(taylor_arith_loop, f, g, "mul")


def test_product_of_catalog_data_matches_the_loop():
    specs = [("exp", [1.0]), ("sin", [2.0]), ("cos", [-1.5]), ("poly", [1.0, -2.0, 0.5]),
             ("shifted-poly", [0.0, 0.0, 3.0])]
    for trunc_f, trunc_g in ((32, 32), (64, 64), (12, 40), (170, 170), (170, 3)):
        for name_f, pf in specs:
            for name_g, pg in specs:
                f = series_from_catalog(name_f, pf, 0.5, trunc_f)
                g = series_from_catalog(name_g, pg, 0.5, trunc_g)
                assert outcome(taylor_arith, f, g, "mul") == outcome(taylor_arith_loop, f, g, "mul")


# --- TaylorSeries.recentered ------------------------------------------------------


def recentered_loop(self: TaylorSeries, new_center: float) -> TaylorSeries:
    h = new_center - self.center
    d = self.derivs
    n = len(d)
    powers = list(accumulate(range(1, n), lambda p, _: p * h, initial=1.0))
    facts = list(accumulate(range(1, n), lambda f, i: f * i, initial=1.0))
    derivs = []
    for j in range(n):
        acc = 0.0
        for i in range(n - j):
            # zero data adds nothing, even where the power has overflowed
            if d[j + i]:
                acc += d[j + i] * powers[i] / facts[i]
        derivs.append(acc)
    for k, dk in enumerate(derivs):
        if not math.isfinite(dk):
            raise ValueError(
                f"the re-expansion of Taylor data about {new_center!r} is beyond the "
                f"double range: its datum k = {k} is {dk!r}"
            )
    return TaylorSeries(new_center, tuple(derivs), self.radius_hint, self.complete)


def test_recentered_matches_the_loop():
    r = random.Random(7)
    for truncation in TRUNCATIONS:
        for complete in (True, False):
            f = random_data(r, truncation, complete, 1.5)
            for new_center in (0.25, 0.3, -1.75, 3.0, 40.0):
                assert outcome(f.recentered, new_center) == outcome(recentered_loop, f, new_center)


def test_recentered_past_an_overflowing_power_matches_the_loop():
    # h^k overflows from k = 31 on: zero data there adds nothing, and a
    # nonzero datum makes the data non-finite, which is refused by name
    h = 1.0e10
    zero_tail = TaylorSeries(0.0, (1.0, -2.0, 0.5) + (0.0,) * 62, math.inf, True)
    live_tail = TaylorSeries(0.0, (1.0,) * 65, math.inf, False)
    for f in (zero_tail, live_tail):
        assert outcome(f.recentered, h) == outcome(recentered_loop, f, h)
    assert outcome(zero_tail.recentered, h)[0] != "raises"
    assert outcome(live_tail.recentered, h)[0] == "raises"


# --- the product-rule weights -----------------------------------------------------


ALPHAS = (0.0, 1.0, 3.0, 170.0, 0.5, 1.3005, 1.0 + 1e-12, 2.0 - 2.0**-40,
          -0.5, -3.0, -2.7, -1e-9)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_running_weights_are_gen_binom(alpha):
    weights = _binomial_weights(alpha)
    for j in range(171):
        assert next(weights).hex() == gen_binom(alpha, j).hex()
    if alpha.is_integer() and alpha >= 0:
        # past 170! an integer alpha's product is an exact zero, signed as gen_binom's
        for j in range(171, 175):
            assert gen_binom(alpha, j) == 0.0
            assert next(weights).hex() == gen_binom(alpha, j).hex()
        return
    with pytest.raises(GammaRangeError) as exc:
        next(weights)
    with pytest.raises(GammaRangeError) as ref:
        gen_binom(alpha, 171)
    assert str(exc.value) == str(ref.value)


def rule_sum(lead, other, alpha, t, trunc, caputo):
    """leibniz_report's vetting and the kernel, in the shape of the loop below."""
    check_right_of_terminal(t, other.center)
    lead_t = lead.recentered(t)
    j_max = min(trunc, lead_t.truncation)
    return _rule_sum(lead_t, other, alpha, t, j_max, caputo), j_max + 1, lead_t


def rule_sum_loop(lead, other, alpha, t, trunc, caputo):
    lead_t = lead if lead.center == t else lead.recentered(t)
    check_right_of_terminal(t, other.center)
    if trunc < 1:
        raise ValueError(f"truncation must be >= 1, got {trunc}")
    j_max = min(trunc, lead_t.truncation)
    terms = []
    for j in range(j_max + 1):
        b = gen_binom(alpha, j)
        if b == 0.0 or lead_t.derivs[j] == 0.0:
            terms.append(0.0)
            continue
        value = operator_value(other, alpha - j, t, caputo)
        terms.append(b * lead_t.derivs[j] * value)
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # intermediate overflow, or inf - inf
        total = math.inf
    if not math.isfinite(total):
        j = max(range(len(terms)), key=lambda i: abs(terms[i]))
        raise DivergenceError(
            f"the product-rule sum leaves the double range at t = {t!r}; its "
            f"largest term, j = {j}, is {terms[j]!r}"
        )
    check_tail(terms, total, lead_t.complete)
    return total, j_max + 1, lead_t


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0 - 2.0**-40, -0.5, -3.0, 1.3005])
@pytest.mark.parametrize("caputo", [False, True])
def test_rule_sum_matches_the_loop(alpha, caputo):
    specs = [("exp", [1.0]), ("sin", [2.0]), ("poly", [1.0, -2.0, 0.5])]
    for lead_trunc, other_trunc, trunc in ((32, 32, 32), (64, 64, 64), (64, 12, 64),
                                           (200, 2, 200), (200, 64, 200)):
        for name_f, pf in specs:
            for name_g, pg in specs:
                lead = series_from_catalog(name_f, pf, 0.0, lead_trunc)
                other = series_from_catalog(name_g, pg, 0.0, other_trunc)
                args = (lead, other, alpha, 0.75, trunc, caputo)
                assert outcome(rule_sum, *args) == outcome(rule_sum_loop, *args)


def test_weight_refusal_keeps_its_precedence():
    # a constant factor leaves every operator value finite: the weight at
    # j = 171 refuses
    lead = series_from_catalog("exp", [1.0], 0.0, 200)
    const = series_from_catalog("poly", [1.0], 0.0, 1)
    got = outcome(rule_sum, lead, const, 0.5, 1.0, 200, False)
    assert got == outcome(rule_sum_loop, lead, const, 0.5, 1.0, 200, False)
    assert got[1] == "GammaRangeError" and "gen_binom(0.5, 171)" in got[2]
    # truncated data at truncation 64 divides by Gamma(k + 1 - alpha + j),
    # which leaves the double range before j = 171: that refusal comes first
    other = series_from_catalog("exp", [1.0], 0.0, 64)
    got = outcome(rule_sum, lead, other, 0.5, 1.0, 200, False)
    assert got == outcome(rule_sum_loop, lead, other, 0.5, 1.0, 200, False)
    assert got[1] == "GammaRangeError" and "gen_binom" not in got[2]


def report_loop(f, g, alpha, t, rule, trunc):
    """leibniz_report from the loop: the order vetted first, then the rule
    sum, R1 and the reference on fresh data."""
    caputo = rule != "rl"
    compensated = caputo and not alpha.is_integer()
    if compensated or caputo and alpha < 0:
        positive_order(alpha, non_integer=True)
    product = taylor_arith_loop(f, g, "mul")
    value, terms_used, f_t = rule_sum_loop(f, g, alpha, t, trunc, caputo)
    correction = _compensation(f, f_t, g, alpha, t) if compensated else 0.0
    if rule == "corrected":
        value += correction
    reference = operator_value(product, alpha, t, caputo)
    return value, reference, correction, abs(value - reference), terms_used


def report_outcome(thunk):
    try:
        got = thunk()
        if not isinstance(got, tuple):  # a LeibnizReport, whose reference is read here
            got = (got.rule_value.value, got.reference_value.value, got.correction_value,
                   got.residual, got.terms_used)
    except (ArithmeticError, ValueError) as exc:
        return ("raises", type(exc).__name__, str(exc))
    return tuple(v.hex() for v in got[:4]) + got[4:]


@pytest.mark.parametrize(
    "f_spec, g_spec, a, alpha, t, trunc",
    [
        # j = 1 takes the order 1e-17 - 1, which rounds onto -1.0: an integer shift
        ("exp:1", "cos:1", 0.0, 1e-17, 0.75, 32),
        ("exp:1", "cos:2", 0.0, 2.0, 0.75, 32),
        ("exp:1", "cos:2", 0.0, -1.0, 0.75, 32),
        # power:0.5 at a = 1 has radius 1: summed past it, and inside it
        ("exp:1", "power:0.5", 1.0, 0.5, 3.0, 32),
        ("exp:1", "power:0.5", 1.0, 1.5, 2.5, 32),
        ("exp:1", "power:0.5", 1.0, 0.5, 1.5, 32),
        # too few slots for the Caputo factor at j = 0
        ("exp:1", "sin:1", 0.0, 0.5, 0.75, 1),
        # a slot's power overflows: the slot sum is not finite
        ("poly:1,1", "poly:1,1,1,1", 0.0, 1.5, 1e130, 32),
        ("poly:1,1", "poly:1,1,1,1", 0.0, 1.5, 1e100, 32),
    ],
)
def test_rule_factors_fall_back_as_the_operator_value_loop(f_spec, g_spec, a, alpha, t, trunc):
    def data():
        return parse_function_spec(f_spec, a, trunc), parse_function_spec(g_spec, a, trunc)

    got = outcome(lambda: leibniz_report(*data(), alpha, t, "rl", trunc).rule_value.value)
    want = outcome(lambda: rule_sum_loop(*data(), alpha, t, trunc, False)[0])
    assert got == want
    for rule in ("rl", "wrong", "corrected"):
        got = report_outcome(lambda: leibniz_report(*data(), alpha, t, rule, trunc))
        assert got == report_outcome(lambda: report_loop(*data(), alpha, t, rule, trunc)), rule


# --- TaylorSeries.evaluate --------------------------------------------------------


def horner_loop(self: TaylorSeries, t: float) -> float:
    x = t - self.center
    acc = 0.0
    for c in reversed(self.coeffs):
        acc = acc * x + c
    return acc


def test_evaluate_matches_the_loop():
    r = random.Random(11)
    for truncation in TRUNCATIONS:
        for complete in (True, False):
            f = random_data(r, truncation, complete, 3.0)
            for t in (0.25, 0.3, -1.0, 2.5, 1e3, 1e300, -1e300):
                assert outcome(f.evaluate, t) == outcome(horner_loop, f, t)
