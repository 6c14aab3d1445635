"""The numeric rules that several modules share, read at their boundaries.

k! is a double up to 170!: every route that divides by k! takes k = 170
and turns at 171, each in its own way past it. Every operator and oracle
that is evaluated right of its terminal refuses t at it, left of it and
NaN with one message, and an infinite t or terminal by name.
"""

import math

import pytest

from fracseries.cli import main
from fracseries.leibniz import leibniz_report
from fracseries.operators import integer_limit_check, operator_value, rl_differintegral
from fracseries.quadrature import caputo_quad, rl_derivative_quad, rl_integral_quad
from fracseries.series import series_from_catalog
from fracseries.special import GammaRangeError, gen_binom


def exp_data(truncation):
    return series_from_catalog("exp", [1.0], 0.0, truncation)


def refusal(thunk):
    """The message of the GammaRangeError that *thunk* raises, or None."""
    try:
        thunk()
    except GammaRangeError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("k", [169, 170, 171, 172])
def test_each_division_by_k_factorial_turns_past_170(k):
    past = k > 170
    # a binomial weight over k!: a nonzero product is refused past 170!, and
    # the exact zero of an integer alpha below k is kept
    message = refusal(lambda: gen_binom(0.5, k))
    assert (message is not None) == past
    assert not past or f"gen_binom(0.5, {k}) divides by {k}!" in message
    for alpha in (0.0, 1.0, float(min(k - 1, 170))):
        assert gen_binom(alpha, k) == 0.0
    # the integer integral of order -1 divides f^(k-1) by k!, and refuses
    message = refusal(lambda: rl_differintegral(exp_data(k - 1), -1))
    assert (message is not None) == past
    assert not past or "order -1 divides f^(170) by (171)!" in message
    # the integer derivative divides down to exact zeros, and sums to e
    for truncation in (k + 1, 200):
        value = rl_differintegral(exp_data(truncation), 1).evaluate(1.0).expect_finite()
        assert value == 2.7182818284590455
    # the oracle's tail test divides the last slot of f' by its truncation!
    message = refusal(lambda: caputo_quad(exp_data(k + 1), 0.5, 1.0))
    assert (message is not None) == past
    assert not past or f"divide f^({k + 1}) by {k}!" in message


@pytest.mark.parametrize("alpha, code", [("1", 0), ("2", 0), ("0.5", 2), ("-1", 2)])
def test_eval_and_oracle_agree_past_170_factorial(alpha, code, capsys):
    # an integer derivative's slots, and so the oracle's tail terms, divide
    # down to exact zeros; the other orders are refused by both commands
    for command in ("eval", "oracle"):
        argv = [command, "exp:1", "--alpha", alpha, "--grid", "1:1:1", "--trunc", "200"]
        assert main(argv) == code, command
        out, err = capsys.readouterr()
        if code:
            assert out == "" and "beyond the double range" in err, command
        else:
            assert out.startswith("t,value\n1,") and err == "", command
            value = float(out.splitlines()[1].split(",")[1])
            assert abs(value - math.e) <= 2 * math.ulp(math.e), command


def _caputo(t):
    return caputo_quad(exp_data(16), 0.5, t)


def _rl(t):
    return rl_derivative_quad(exp_data(16), 0.5, t)


def _integral(t):
    return rl_integral_quad(math.exp, 0.5, 0.0, t)


def _integer_limit(t):
    return integer_limit_check(exp_data(16), 1, 0.01, (0.5, t))


@pytest.mark.parametrize("route", [_caputo, _rl, _integral, _integer_limit])
@pytest.mark.parametrize("t", [0.0, -0.5, math.nan])
def test_each_operator_refuses_t_not_right_of_the_terminal(route, t):
    with pytest.raises(ValueError, match=rf"^t={t!r} must lie right of the terminal 0\.0$"):
        route(t)


def _report(t):
    return leibniz_report(exp_data(16), exp_data(16), 0.5, t)


def _value(t):
    return operator_value(exp_data(16), 0.5, t)


@pytest.mark.parametrize("route", [_caputo, _rl, _integral, _integer_limit, _report, _value])
def test_each_operator_refuses_an_infinite_t_by_name(route):
    # these blamed the re-expansion about inf, the truncation, the
    # convergence radius or a Gauss-Jacobi sum
    with pytest.raises(ValueError, match=r"^t=inf must be finite$"):
        route(math.inf)


@pytest.mark.parametrize("a", [-math.inf, math.inf, math.nan])
def test_the_memory_integral_refuses_a_non_finite_terminal_by_name(a):
    with pytest.raises(ValueError, match=rf"^a must be finite, got {a!r}$"):
        rl_integral_quad(math.exp, 0.5, a, 1.0)
