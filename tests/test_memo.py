"""The work a Taylor series keeps at its latest evaluation point.

A series keeps its operator values, its re-expansion and its Caputo
quadrature value for the latest t, and its latest product; a product
keeps the rule sums and compensations of its factors' reports. Every value
must be the one that fresh data gives, compared by float.hex, and every
refusal must be raised again with the same type and message.
"""

import math
import random
from itertools import permutations
import sys
import threading
import time

import pytest

from fracseries.grammar import parse_function_spec
from fracseries import leibniz
from fracseries.leibniz import leibniz_report
from fracseries.operators import operator_value
from fracseries.quadrature import caputo_quad, rl_derivative_quad
from fracseries.series import DivergenceError, TaylorSeries, series_from_catalog, taylor_arith

RULES = ("rl", "wrong", "corrected")

#: Rounds each thread of the thread test runs.
ROUNDS = 300


def outcome(thunk):
    """A value as its bits (a report as the bits of its four numbers), or a
    refusal as its type and message."""
    try:
        value = thunk()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, float):
        return value.hex()
    return (value.rule_value.value.hex(), value.reference_value.value.hex(),
            value.correction_value.hex(), value.residual.hex(), value.terms_used)


def random_spec(r: random.Random, a: float) -> str:
    atoms = [f"exp:{r.choice([-2.0, -0.5, 0.75, 1.0, 3.0])}",
             f"sin:{r.choice([0.5, 1.0, 2.0])}",
             f"cos:{r.choice([-1.5, 1.0, 4.0])}",
             f"poly:{r.uniform(-2.0, 2.0)!r},{r.uniform(-2.0, 2.0)!r},1"]
    if a > 0.0:
        atoms.append(f"power:{r.choice([0.5, 1.5, -0.25])}")
    return "+".join(r.sample(atoms, r.randint(1, 2)))


def random_case(r: random.Random):
    a = r.choice([0.0, 0.0, -1.0, 0.5])
    alpha = r.choice([1.0, r.uniform(0.0, 2.0), r.uniform(0.0, 2.0), r.uniform(0.0, 2.0)])
    # most t lie right of a, some at it, some far enough to fail a tail test
    ts = [a + r.choice([0.0, 1e-3, r.uniform(0.05, 3.0), r.uniform(0.05, 3.0), 12.0])
          for _ in range(2)]
    return a, random_spec(r, a), random_spec(r, a), alpha, ts, r.choice([16, 32, 64])


def parse_pair(f_spec, g_spec, a, trunc):
    return parse_function_spec(f_spec, a, trunc), parse_function_spec(g_spec, a, trunc)


@pytest.mark.parametrize("seed", range(6))
def test_rules_on_shared_data_match_fresh_data(seed):
    # the three rules at t1, again at t2, and again at t1, all on one pair of
    # series: each outcome is that of the rule on freshly parsed data
    r = random.Random(seed)
    for _ in range(10):
        a, f_spec, g_spec, alpha, (t1, t2), trunc = random_case(r)
        f, g = parse_pair(f_spec, g_spec, a, trunc)
        for t in (t1, t2, t1):
            for rule in RULES:
                shared = outcome(lambda: leibniz_report(f, g, alpha, t, rule=rule, trunc=trunc))
                f0, g0 = parse_pair(f_spec, g_spec, a, trunc)
                fresh = outcome(lambda: leibniz_report(f0, g0, alpha, t, rule=rule, trunc=trunc))
                assert shared == fresh, (f_spec, g_spec, a, alpha, t, rule, trunc)


@pytest.mark.parametrize("alpha", [0.7, 1.6, 0.0, -0.0])
def test_kept_rule_sums_match_fresh_data(alpha):
    # every order of the three rules, the factors' order alternating from call
    # to call and two truncations, on one pair at one t: the reports share the
    # products' kept rule sums and compensations, and each outcome is that of
    # fresh data
    specs, t = ("exp:1+sin:2", "cos:1.5+poly:0.5,1"), 0.8
    f, g = parse_pair(*specs, 0.0, 32)
    for order in permutations(RULES):
        for trunc in (16, 32):
            for rule in order:
                for swap in (False, True):
                    shared = outcome(lambda: leibniz_report(
                        *((g, f) if swap else (f, g)), alpha, t, rule=rule, trunc=trunc))
                    f0, g0 = parse_pair(*specs, 0.0, 32)
                    fresh = outcome(lambda: leibniz_report(
                        *((g0, f0) if swap else (f0, g0)), alpha, t, rule=rule, trunc=trunc))
                    assert shared == fresh, (order, rule, swap, trunc)


def test_kept_rule_sum_refusals_match_fresh_data():
    # truncated exp data at t = 40 fail the tail test; the refusal is not kept
    f, g = parse_pair("exp:1", "sin:1", 0.0, 16)
    for rule in ("wrong", "corrected", "wrong", "rl"):
        shared = outcome(lambda: leibniz_report(f, g, 0.5, 40.0, rule=rule, trunc=16))
        f0, g0 = parse_pair("exp:1", "sin:1", 0.0, 16)
        fresh = outcome(lambda: leibniz_report(f0, g0, 0.5, 40.0, rule=rule, trunc=16))
        assert shared == fresh and shared[0] == "DivergenceError"


def test_corrected_after_wrong_reads_the_kept_rule_sum(monkeypatch):
    calls = []
    for name in ("_rule_sum", "_compensation"):
        original = getattr(leibniz, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(leibniz, name, counting)
    f, g = parse_pair("exp:1+sin:2", "cos:1.5", 0.0, 32)
    steps = [
        (dict(rule="wrong"), ["_rule_sum", "_compensation"]),
        (dict(rule="corrected"), []),
        (dict(rule="wrong"), []),
        (dict(rule="corrected", trunc=16), ["_rule_sum", "_compensation"]),
        (dict(rule="corrected", swap=True), ["_rule_sum", "_compensation"]),
        (dict(rule="wrong", swap=True), []),
        (dict(rule="corrected", t=0.9), ["_rule_sum", "_compensation"]),
        (dict(rule="rl", t=0.9), ["_rule_sum"]),
        (dict(rule="rl", t=0.9), []),
    ]
    for kwargs, expected in steps:
        calls.clear()
        kwargs = dict(kwargs)
        t = kwargs.pop("t", 0.8)
        leibniz_report(*((g, f) if kwargs.pop("swap", False) else (f, g)), 1.3, t, **kwargs)
        assert calls == expected, kwargs


@pytest.mark.parametrize("seed", range(4))
def test_quadrature_on_shared_data_matches_fresh_data(seed):
    # caputo_quad, then rl_derivative_quad, which reads the Caputo value
    # caputo_quad kept, at t1, t2 and t1 again on one series and its product
    r = random.Random(100 + seed)
    for _ in range(6):
        a, f_spec, g_spec, alpha, (t1, t2), trunc = random_case(r)
        f, g = parse_pair(f_spec, g_spec, a, trunc)
        for t in (t1, t2, t1):
            for quad in (caputo_quad, rl_derivative_quad):
                shared = [outcome(lambda: quad(data, alpha, t)) for data in (f, f * g)]
                f0, g0 = parse_pair(f_spec, g_spec, a, trunc)
                fresh = [outcome(lambda: quad(data, alpha, t)) for data in (f0, f0 * g0)]
                assert shared == fresh, (f_spec, g_spec, a, alpha, t, quad.__name__, trunc)


def test_rl_quadrature_after_caputo_quadrature_vets_the_data_once(monkeypatch):
    # the kept Caputo value has passed the tail test, which takes f^(n)
    calls = []
    original = TaylorSeries.nth_derivative

    def counting(self, n):
        calls.append(n)
        return original(self, n)

    monkeypatch.setattr(TaylorSeries, "nth_derivative", counting)
    f = series_from_catalog("exp", [1.0], 0.0, 32)
    caputo_quad(f, 1.5, 0.8)
    rl = rl_derivative_quad(f, 1.5, 0.8)
    assert calls == [2]
    fresh = series_from_catalog("exp", [1.0], 0.0, 32)
    assert rl.hex() == rl_derivative_quad(fresh, 1.5, 0.8).hex()


def test_the_latest_product_is_keyed_by_the_factor_and_the_op():
    f = series_from_catalog("exp", [1.0], 0.0, 16)
    g = series_from_catalog("sin", [2.0], 0.0, 16)
    h = series_from_catalog("sin", [2.0], 0.0, 16)  # equal to g, but not g
    products = [(f * g, g, "mul"), (f * h, h, "mul"), (f + g, g, "add"), (f * g, g, "mul")]
    for got, other, op in products:
        fresh = taylor_arith(series_from_catalog("exp", [1.0], 0.0, 16), other, op)
        assert got.derivs == fresh.derivs
    assert products[0][0] is not products[1][0]
    assert products[-1][0] is not products[0][0]  # the sum came between them
    assert f * g is products[-1][0]


def test_a_series_keeps_one_point():
    f = series_from_catalog("exp", [1.0], 0.0, 32)
    ts = [0.001 * (i + 1) for i in range(1000)]
    for t in ts:
        for order in (0.5, -0.5, 1.5):
            operator_value(f, order, t)
        f.recentered(t)
        caputo_quad(f, 0.5, t)
    key, kept = vars(f)["_latest"]
    assert key[1] == ts[-1]
    # as much as one evaluation at that t leaves on fresh data
    fresh = series_from_catalog("exp", [1.0], 0.0, 32)
    for order in (0.5, -0.5, 1.5):
        operator_value(fresh, order, ts[-1])
    fresh.recentered(ts[-1])
    caputo_quad(fresh, 0.5, ts[-1])
    assert kept.keys() == fresh._memo(ts[-1]).keys()


def test_a_refused_operator_value_is_refused_again():
    # truncated exp data at t = 40 fails its tail test
    f = series_from_catalog("exp", [1.0], 0.0, 16)
    messages = []
    for _ in range(2):
        with pytest.raises(DivergenceError) as exc:
            operator_value(f, 0.5, 40.0)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "tail terms" in messages[0]


def test_recentering_keeps_the_sign_of_a_zero_center():
    f = series_from_catalog("sin", [1.0], 1.0, 16)
    for zero in (0.0, -0.0, 0.0, -0.0, -0.0, 0.0):
        got = f.recentered(zero)
        assert math.copysign(1.0, got.center) == math.copysign(1.0, zero)
        assert got.derivs == series_from_catalog("sin", [1.0], 1.0, 16).recentered(zero).derivs


def test_threads_at_different_points_match_a_serial_run():
    # four threads (more than the cores a test machine is assumed to have)
    # evaluate one series, each at its own t, and yield after each call, so
    # each replaces the point another keeps, again and again
    f = series_from_catalog("exp", [0.75], 0.0, 32)
    points = (0.8, 1.3, 1.9, 2.4)

    def run(data, t):
        calls = [lambda: data.recentered(t).derivs[-1], lambda: rl_derivative_quad(data, 0.5, t)]
        for order in (0.5, 1.25, -0.5, 1.0, 1.75):
            calls += [lambda order=order: operator_value(data, order, t),
                      lambda order=order: operator_value(data, order, t, True)]
        out = []
        for call in calls:
            out.append(outcome(call))
            time.sleep(0)
        return out

    serial = {t: run(series_from_catalog("exp", [0.75], 0.0, 32), t) for t in points}
    results = {t: [] for t in points}
    barrier = threading.Barrier(len(points), timeout=60)

    def worker(t):
        barrier.wait()
        for _ in range(ROUNDS):
            results[t].append(run(f, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in points]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for t in points:
        assert len(results[t]) == ROUNDS
        assert all(got == serial[t] for got in results[t]), t
