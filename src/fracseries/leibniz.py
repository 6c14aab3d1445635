"""Product-rule evaluators for fractional orders.

:func:`leibniz_report` is the one product-rule entry. It evaluates one of
three rules: the correct Riemann-Liouville series rule, the naive Caputo
transplant of the RL rule (kept deliberately, as the thing to falsify),
and the corrected Caputo rule whose compensation term R1 accounts exactly
for the naive rule's error; R2, the rule with the roles exchanged, is
``leibniz_report(g, f, ...)``. The reference is the Caputo (or RL)
operator applied to the product's Taylor data, never another rule, so
comparisons stay non-circular; it is summed only when it is read, and the
rule value answers where it refuses. At alpha < 0 the naive rule is the
RL rule, bit for bit.

The finite RL rule for a factor t^m is the ``rule="rl"`` rule value with
``series_from_catalog("poly", [0.0] * m + [1.0], 0.0, max(m, 1))`` as the
lead, whose data at t end at j = m, and ``trunc=max(m, 1)``; order -alpha
gives the integral.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property, partial
from itertools import count
from typing import Callable

from .series import (
    DivergenceError,
    EvalResult,
    TaylorSeries,
    branch,
    check_order,
    check_tail,
    positive_order,
    taylor_arith,
)
from .operators import _kept_value, check_right_of_terminal, operator_value
from .special import FACTORIALS, check_count, gen_binom, recip_gamma

__all__ = ["LeibnizReport", "leibniz_report"]


@dataclass(frozen=True)
class LeibnizReport:
    """Rule value vs operator truth for one product-rule evaluation. The
    truth is *reference*(), called when reference_value or residual is
    first read and kept; a refusal is raised at each read. Equality and
    repr take the three stored fields."""

    rule_value: EvalResult
    correction_value: float
    terms_used: int
    reference: InitVar[Callable[[], float]]

    def __post_init__(self, reference: Callable[[], float]) -> None:
        object.__setattr__(self, "_reference", reference)

    @cached_property
    def reference_value(self) -> EvalResult:
        return EvalResult.finite(self._reference())

    @property
    def residual(self) -> float:
        return abs(self.rule_value.value - self.reference_value.value)


def _binomial_weights(alpha: float):
    """Yield gen_binom(alpha, j) for j = 0, 1, ... bit for bit: the same
    falling-factorial product over j!, kept running across j. Past the j! of
    special.FACTORIALS, an exact zero product (integer alpha >= 0 below the
    table's length) is yielded as it is, and gen_binom refuses any other."""
    num = 1.0
    for j, fact in enumerate(FACTORIALS):
        yield num / fact
        num *= alpha - j
    if num:
        yield gen_binom(alpha, len(FACTORIALS))
    for j in count(len(FACTORIALS)):
        yield num
        num *= alpha - j


def _rule_sum(
    lead_t: TaylorSeries,
    other: TaylorSeries,
    alpha: float,
    t: float,
    j_max: int,
    caputo: bool,
) -> float:
    """sum_{j <= j_max} gen_binom(alpha, j) lead^(j)(t) D^(alpha - j) other(t),
    with t and j_max vetted by :func:`leibniz_report`.

    The factors are RL values, or with *caputo* Caputo values (RL values
    at orders alpha - j <= 0): :func:`operators.operator_value` bit for bit,
    refusals included, read from *other*'s work at t or summed into it by
    :func:`operators._kept_value`. Their slots' Gamma arguments and powers
    repeat along k + j, and the work keeps them, so each is evaluated once
    and a second rule at the same t reads its factors there.

    Raises:
        DivergenceError: when a term or the sum leaves the double range,
            naming t and the largest term, or when the sum of truncated
            data fails the tail test.
    """
    memo, x = other._memo(t), t - other.center
    inside = other.complete or x < other.radius_hint
    derivs = lead_t.derivs
    terms = []
    for j, b in zip(range(j_max + 1), _binomial_weights(alpha)):
        d = derivs[j]
        if b == 0.0 or d == 0.0:
            terms.append(0.0)
        else:
            terms.append(b * d * _kept_value(other, alpha - j, caputo, x, memo, inside))
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
    return total


def _compensation(
    f: TaylorSeries, f_t: TaylorSeries, g: TaylorSeries, alpha: float, t: float
) -> float:
    """The R1 double sum of the corrected rule over k < n = branch(alpha).

    Every summand carries a g^(k-j)(a) factor and a 1/Gamma(k+1-alpha)
    denominator, so it vanishes exactly when g's low derivatives vanish
    or alpha is the integer n. Its weights gen_binom(alpha, j) are those of
    the rule sum, read from :func:`_binomial_weights` as far as a summand
    with g^(k-j)(a) != 0 needs them. A sum or a power (t - a)^(k - alpha)
    beyond the double range raises DivergenceError, naming k and k - alpha.
    """
    a = g.center
    weights, binoms = _binomial_weights(alpha), []
    total = 0.0
    for k in range(branch(alpha)):
        rg = recip_gamma(k + 1 - alpha)
        inner = 0.0
        for j in range(k + 1):
            gv = g.derivs[k - j] if k - j <= g.truncation else 0.0
            if gv == 0.0:
                continue
            while len(binoms) <= j:
                binoms.append(next(weights))
            ft = f_t.derivs[j] if j <= f_t.truncation else 0.0
            fa = f.derivs[j] if j <= f.truncation else 0.0
            inner += (binoms[j] * ft - math.comb(k, j) * fa) * gv
        try:
            total += inner * (t - a) ** (k - alpha) * rg
        except OverflowError:  # the power, whatever the summand it scales
            total = math.inf
        if not math.isfinite(total):
            raise DivergenceError(
                f"the compensation R1 leaves the double range at t = {t!r}: its sum "
                f"through k = {k}, k - alpha = {k - alpha!r}, is {total!r}"
            )
    return total


def leibniz_report(
    f: TaylorSeries,
    g: TaylorSeries,
    order: float,
    t: float,
    rule: str = "corrected",
    trunc: int = 32,
) -> LeibnizReport:
    """Evaluate one named rule against its operator reference.

    rule="rl" compares the RL series rule with the RL differintegral of
    the product; "wrong" and "corrected" compare the naive and corrected
    Caputo rules with the Caputo derivative of the product, which exists
    only at alpha > 0: a Caputo rule at alpha < 0, integer or not, is
    refused right after the order is read, before any sum. The corrected
    rule is the naive sum plus the compensation R1; the "wrong" report
    carries that compensation too, so callers can see that residual and
    compensation cancel. The rules with the roles exchanged (g
    differentiated in the series, compensation R2) are
    ``leibniz_report(g, f, ...)``, checked against the reference of g * f.

    The call sums the rule and R1; the reference, the operator value of
    the product at t, is summed when the report's reference_value or
    residual is first read and raises its refusal there, so the rule
    value and R1 answer where the reference refuses. The product f * g
    keeps the rule sum and R1 in its work at t
    (:meth:`TaylorSeries._memo`), keyed by alpha, the last j summed and
    the convention, so "corrected" after "wrong" (or the reverse) at
    the same t computes neither again. Only values are kept: a refusal is
    computed and raised again at each call.

    Raises:
        ValueError: in this order, for the rule, the order, the centres, t,
            the re-expansion and trunc.
        GammaRangeError, DivergenceError: as the rule sum and R1.
    """
    if rule not in ("rl", "wrong", "corrected"):
        raise ValueError(f"unknown rule {rule!r} (expected rl, wrong, corrected)")
    alpha = check_order(order)
    caputo = rule != "rl"
    if caputo and alpha < 0:
        # the reference, C D^alpha of the product, needs alpha > 0
        positive_order(alpha, non_integer=True)
    product = taylor_arith(f, g, "mul")
    check_right_of_terminal(t, g.center)
    f_t = f.recentered(t)
    j_max = min(check_count(trunc, 1, "trunc"), f_t.truncation)
    memo, key = product._memo(t), ("rule", alpha, j_max, caputo)
    if (kept := memo.get(key)) is None:
        value = _rule_sum(f_t, g, alpha, t, j_max, caputo)
        correction = 0.0
        # at integer orders Caputo is RL: every R1 denominator sits on a pole
        if caputo and not alpha.is_integer():
            correction = _compensation(f, f_t, g, alpha, t)
        kept = memo[key] = (value, correction)
    value, correction = kept
    if rule == "corrected":
        value += correction
    return LeibnizReport(
        rule_value=EvalResult.finite(value),
        correction_value=correction,
        terms_used=j_max + 1,
        reference=partial(operator_value, product, alpha, t, caputo),
    )
