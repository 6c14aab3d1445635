"""Acceptance gate: the headline claims, one pass/fail line per criterion.

Run standalone (python3 tests/test_acceptance.py) for the 11-line summary,
or under pytest where each criterion is its own test.
"""
import math
import sys
import time

import numpy as np
import scipy.integrate

from fracseries.laplace import (
    frequency_differentiation_check,
    initial_value_equivalence,
    laplace_caputo,
    laplace_rl_derivative_fps,
)
from fracseries.leibniz import leibniz_report
from fracseries.operators import (
    caputo_derivative,
    integer_limit_check,
    rl_caputo_bridge,
    rl_differintegral,
)
from fracseries.quadrature import rl_derivative_quad
from fracseries.series import FracPowerSeries, series_from_catalog
from fracseries.special import gen_binom

ALPHAS = (0.25, 0.5, 0.75)
TERMINALS = (0.0, 1.0)


def t_grid(a, count=8):
    return [a + x for x in np.linspace(0.25, 2.0, count)]


def crit_01_linear_example():
    start = time.perf_counter()
    worst_rule = 0.0
    worst_gap = 0.0
    for a in TERMINALS:
        f = series_from_catalog("shifted-poly", [0.0, 1.0], center=a, truncation=10)
        g = series_from_catalog("const", [1.0], center=a, truncation=10)
        for alpha in ALPHAS:
            for t in t_grid(a):
                rep = leibniz_report(f, g, alpha, t)
                ref = rep.reference_value.value
                worst_rule = max(worst_rule, rep.residual / (1.0 + abs(ref)))

                wrong = leibniz_report(f, g, alpha, t, rule="wrong").rule_value.expect_finite()
                gap_want = (
                    (1.0 - alpha)
                    * (t - a) ** (1.0 - alpha)
                    / math.gamma(2.0 - alpha)
                )
                gap_got = ref - wrong
                worst_gap = max(
                    worst_gap, abs(gap_got - gap_want) / (1.0 + abs(gap_want))
                )
    elapsed = time.perf_counter() - start
    ok = worst_rule <= 1e-12 and worst_gap <= 1e-12 and elapsed < 1.0
    return ok, (
        f"rule dev {worst_rule:.2e}, gap dev {worst_gap:.2e}, {elapsed:.2f}s"
    )


def crit_02_square_example():
    worst = 0.0
    for a in TERMINALS:
        f = series_from_catalog("poly", [0.0, 1.0], center=a, truncation=10)
        for alpha in ALPHAS:
            for t in t_grid(a):
                rep = leibniz_report(f, f, alpha, t, rule="wrong")
                truth_closed = (
                    2.0
                    * (t - a) ** (1.0 - alpha)
                    * (t + a - a * alpha)
                    / math.gamma(3.0 - alpha)
                )
                repaired = rep.rule_value.value + rep.correction_value
                ref = rep.reference_value.value
                worst = max(
                    worst,
                    abs(repaired - ref) / (1.0 + abs(ref)),
                    abs(ref - truth_closed) / (1.0 + abs(truth_closed)),
                )
    ok = worst <= 1e-12
    return ok, f"max rel dev {worst:.2e}"


def crit_03_transform_example():
    f = FracPowerSeries(0.0, ((1.0, 0.5), (2.0, 0.0)))
    regular = laplace_rl_derivative_fps(f, 0.5)
    want = ((2.0, 0.5), (math.gamma(1.5), 1.0))
    got = regular.terms
    singular = laplace_rl_derivative_fps(f, 1.5)
    ok = got == want and singular.is_singular and singular.singular == "k=0"
    return ok, f"terms {got}, marker {singular.singular!r}"


def crit_04_bridge_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    worst = 0.0
    done = 0
    while done < 200:
        alpha = float(rng.uniform(0.01, 2.99))
        if abs(alpha - round(alpha)) < 1e-6:
            continue
        done += 1
        a = float(rng.uniform(-1.0, 1.0))
        deg = int(rng.integers(0, 9))
        f = series_from_catalog(
            "poly", list(rng.uniform(-2.0, 2.0, size=deg + 1)), center=a,
            truncation=12,
        )
        rl = rl_differintegral(f, alpha)
        cap = caputo_derivative(f, alpha)
        br = rl_caputo_bridge(f, alpha)
        for t in t_grid(a, count=10):
            lhs = rl.evaluate(t).expect_finite()
            rhs = cap.evaluate(t).expect_finite() + br.evaluate(t).expect_finite()
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    return ok, f"200 instances, max rel dev {worst:.2e}, {elapsed:.2f}s"


def crit_05_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(50)
    functions = [
        series_from_catalog(
            "poly", list(rng.uniform(-2.0, 2.0, size=7)), truncation=14
        ),
        series_from_catalog("exp", [1.0], truncation=64),
        series_from_catalog("sin", [1.0], truncation=48),
    ]
    worst = 0.0
    for f in functions:
        for alpha in (0.3, 0.5, 1.5, 2.7):
            series = rl_differintegral(f, alpha)
            for t in np.linspace(0.25, 2.0, 8):
                want = rl_derivative_quad(f, alpha, float(t))
                got = series.evaluate(float(t)).expect_finite()
                worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    return ok, f"max rel dev {worst:.2e}, {elapsed:.2f}s"


def crit_06_falsification_suite():
    rng = np.random.default_rng(60)
    a = 0.0
    t = 1.0
    accepted = 0
    attempts = 0
    ok = True
    min_residual = math.inf
    worst_repair = 0.0
    while accepted < 100 and attempts < 2000:
        attempts += 1
        fc = rng.uniform(-1.0, 1.0, size=4)
        gc = rng.uniform(-1.0, 1.0, size=4)
        gc[0] = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 1.5))
        f = series_from_catalog("poly", list(fc), center=a, truncation=10)
        g = series_from_catalog("poly", list(gc), center=a, truncation=10)
        alpha = float(rng.uniform(0.05, 0.95))
        rep = leibniz_report(f, g, alpha, t, rule="wrong")
        if abs(rep.correction_value) <= 1e-3:
            continue  # too close to the measure-zero agreement set
        accepted += 1
        ref = rep.reference_value.value
        repair = abs(rep.rule_value.value + rep.correction_value - ref)
        min_residual = min(min_residual, rep.residual)
        worst_repair = max(worst_repair, repair / (1.0 + abs(ref)))
        if rep.residual <= 1e-6 or repair > 1e-10 * (1.0 + abs(ref)):
            ok = False
    ok = ok and accepted >= 100
    return ok, (
        f"{accepted} pairs, min residual {min_residual:.2e}, "
        f"max repaired dev {worst_repair:.2e}"
    )


def crit_07_integer_limits():
    eps = 1e-6
    worst = 0.0
    cases = [
        ("poly", [1.0, -1.0, 0.5, 2.0], 12),
        ("exp", [1.0], 48),
        ("sin", [1.0], 48),
    ]
    for name, params, trunc in cases:
        f = series_from_catalog(name, params, truncation=trunc)
        for n in (1, 2):
            report = integer_limit_check(f, n, eps, np.linspace(0.25, 1.0, 7))
            worst = max(worst, report.max_deviation)

    # at alpha just above n-1 the naive product rule collapses to ~0 while
    # the Caputo derivative tends to the difference of (n-1)-th derivatives
    f = series_from_catalog("exp", [1.0], truncation=48)
    g = series_from_catalog("const", [1.0], truncation=48)
    contrast_dev = 0.0
    t = 1.0
    for n in (1, 2):
        alpha = (n - 1) + eps
        wrong = leibniz_report(f, g, alpha, t, rule="wrong").rule_value.expect_finite()
        truth = caputo_derivative(f, alpha).evaluate(t).expect_finite()
        want_truth = math.exp(t) - 1.0
        contrast_dev = max(contrast_dev, abs(wrong), abs(truth - want_truth))
    ok = worst <= 1e-4 and contrast_dev <= 1e-3
    return ok, f"limit dev {worst:.2e}, contrast dev {contrast_dev:.2e}"


def crit_08_transform_numeric():
    rng = np.random.default_rng(80)
    s = 2.0
    worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(1, 7))
        f = series_from_catalog(
            "poly", list(rng.uniform(-2.0, 2.0, size=deg + 1)), truncation=12
        )
        alpha = float(rng.uniform(0.05, 1.95))
        if abs(alpha - 1.0) < 1e-3:
            alpha = 0.5
        closed = laplace_caputo(f, alpha).evaluate(s)
        series = caputo_derivative(f, alpha)
        numeric, _ = scipy.integrate.quad(
            lambda t: math.exp(-s * t) * series.evaluate(t).expect_finite(),
            0.0,
            40.0,
            limit=300,
        )
        worst = max(worst, abs(closed - numeric))
    ok = worst <= 1e-6
    return ok, f"20 polynomials, max abs dev {worst:.2e}"


def crit_09_frequency_identity():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 7))
        f = series_from_catalog(
            "poly", list(rng.uniform(-2.0, 2.0, size=deg + 1)), truncation=14
        )
        alpha = float(rng.uniform(0.1, 2.9))
        m = int(rng.integers(0, 4))
        report = frequency_differentiation_check(f, alpha, m)
        worst = max(worst, report.max_discrepancy)
    ok = worst <= 1e-11
    return ok, f"100 instances, max discrepancy {worst:.2e}"


def crit_10_initial_value_sweep():
    matches = 0
    total = 0
    for alpha in (1.3, 2.5, 3.7):
        for j in range(7):
            coeffs = [0.0] * j + [1.0]
            f = series_from_catalog("poly", coeffs, truncation=10)
            left, right = initial_value_equivalence(f, alpha)
            total += 1
            matches += left == right
    ok = matches == total == 21
    return ok, f"{matches}/{total} boolean matches"


def crit_11_special_function_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    n = 10_000

    worst_rec = 0.0
    for x in rng.uniform(-20.0, 20.0, size=n):
        if x < 0.5 and abs(x - round(x)) < 1e-3:
            continue
        want = x * math.gamma(x)
        left = math.gamma(x + 1.0)
        worst_rec = max(worst_rec, abs(left - want) / abs(want))

    worst_ref = 0.0
    for x in rng.uniform(-10.0, 10.0, size=n):
        if abs(x - round(x)) < 1e-3:
            continue
        prod = math.gamma(x) * math.gamma(1.0 - x)
        want = math.pi / math.sin(math.pi * x)
        worst_ref = max(worst_ref, abs(prod - want) / abs(want))

    worst_conv = 0.0
    alphas = rng.uniform(-5.0, 5.0, size=n)
    ii = rng.integers(0, 11, size=n)
    jj = rng.integers(0, 11, size=n)
    for alpha, i, j in zip(alphas, ii, jj):
        i = int(i)
        j = int(j)
        left = gen_binom(alpha, i + j) * gen_binom(float(i + j), j)
        right = gen_binom(alpha, j) * gen_binom(alpha - j, i)
        scale = max(abs(left), abs(right), 1.0)
        worst_conv = max(worst_conv, abs(left - right) / scale)

    elapsed = time.perf_counter() - start
    ok = (
        worst_rec <= 1e-12
        and worst_ref <= 1e-11
        and worst_conv <= 1e-11
        and elapsed < 2.0
    )
    return ok, (
        f"recurrence {worst_rec:.2e}, reflection {worst_ref:.2e}, "
        f"convolution {worst_conv:.2e}, {elapsed:.2f}s"
    )


CRITERIA = [
    ("corrected product rule on the linear example", crit_01_linear_example),
    ("naive rule plus correction on the square example", crit_02_square_example),
    ("transform of sqrt-plus-constant, regular and singular", crit_03_transform_example),
    ("derivative-definition bridge on random polynomials", crit_04_bridge_identity),
    ("series values against quadrature oracle", crit_05_oracle_equivalence),
    ("naive rule falsified yet exactly repairable", crit_06_falsification_suite),
    ("integer-order limits and the near-integer contrast", crit_07_integer_limits),
    ("caputo transform against numerical integral", crit_08_transform_numeric),
    ("frequency-differentiation identity", crit_09_frequency_identity),
    ("initial-value equivalence sweep", crit_10_initial_value_sweep),
    ("special-function identities at scale", crit_11_special_function_suite),
]


def _run(index):
    name, func = CRITERIA[index - 1]
    ok, detail = func()
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {index:02d} {name}: {detail}  {verdict}")
    assert ok, f"criterion {index} failed: {detail}"


def test_criterion_01_linear_example():
    _run(1)


def test_criterion_02_square_example():
    _run(2)


def test_criterion_03_transform_example():
    _run(3)


def test_criterion_04_bridge_identity():
    _run(4)


def test_criterion_05_oracle_equivalence():
    _run(5)


def test_criterion_06_falsification_suite():
    _run(6)


def test_criterion_07_integer_limits():
    _run(7)


def test_criterion_08_transform_numeric():
    _run(8)


def test_criterion_09_frequency_identity():
    _run(9)


def test_criterion_10_initial_value_sweep():
    _run(10)


def test_criterion_11_special_function_suite():
    _run(11)


if __name__ == "__main__":
    failures = 0
    for k in range(1, len(CRITERIA) + 1):
        try:
            _run(k)
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
