"""Product-rule evaluators for fractional orders.

:func:`leibniz_report` evaluates one of three rules against its
operator reference: the correct Riemann-Liouville series rule, the
naive Caputo transplant of the RL rule (kept deliberately, as the thing
to falsify), and the corrected Caputo rule whose compensation term R1
accounts exactly for the naive rule's error; R2, the rule with the roles
exchanged, is ``leibniz_report(g, f, ...)``. Reference values always
come from the Caputo (or RL) operator applied to the product's Taylor
data, never from another rule, so comparisons stay non-circular.

:func:`leibniz_rl` and :func:`leibniz_caputo_wrong` return the first two
rule values alone, from one body, so they answer where the reference
refuses: where the product's data fails its tail test, or at alpha < 0,
where no Caputo derivative exists. The finite RL rule for a factor t^m is
:func:`leibniz_rl` with ``series_from_catalog("poly", [0.0] * m + [1.0],
t, max(m, 1))`` as the lead, data taken at t that ends at j = m, and
``trunc=max(m, 1)``; order -alpha gives the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

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

__all__ = [
    "LeibnizReport",
    "leibniz_caputo_wrong",
    "leibniz_report",
    "leibniz_rl",
]


@dataclass(frozen=True)
class LeibnizReport:
    """Rule value vs operator truth for one product-rule evaluation."""

    rule_value: EvalResult
    reference_value: EvalResult
    residual: float
    correction_value: float
    terms_used: int


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


def _lead_at(
    lead: TaylorSeries, other: TaylorSeries, t: float, trunc: int
) -> tuple[TaylorSeries, int]:
    """The data of *lead* at t (*lead* itself when centred there) and the
    last j a rule sums, vetted in this order: t right of *other*'s
    terminal, the re-expansion, trunc.

    Raises:
        ValueError: for t at or left of the terminal, for a re-expansion
            beyond the double range, then for trunc that is not an
            integer >= 1.
    """
    check_right_of_terminal(t, other.center)
    lead_t = lead if lead.center == t else lead.recentered(t)
    return lead_t, min(check_count(trunc, 1, "trunc"), lead_t.truncation)


def _rule_sum(
    lead_t: TaylorSeries,
    other: TaylorSeries,
    alpha: float,
    t: float,
    j_max: int,
    caputo: bool,
) -> float:
    """sum_{j <= j_max} gen_binom(alpha, j) lead^(j)(t) D^(alpha - j) other(t),
    with t and j_max vetted by :func:`_lead_at`.

    The factors are RL values, or with *caputo* Caputo values (which are
    RL values at orders alpha - j <= 0): :func:`operators.operator_value`
    bit for bit, refusals included. *other*'s work at t and the radius
    test are taken once per rule, and each factor is read from that work
    or summed by :func:`operators._kept_value`, which keeps it there. Its
    slots k divide by Gamma(k + 1 - (alpha - j)) and take t - a to the
    power k - (alpha - j), both of which repeat along k + j: the slot sum
    keeps them in the same work, so each distinct argument and power is
    evaluated once, and a second rule at the same t reads its factors there.

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


def _bare_rule(f, g, order, t, trunc, caputo: bool) -> EvalResult:
    """:func:`leibniz_rl` or, with *caputo*, :func:`leibniz_caputo_wrong`."""
    alpha = check_order(order)
    f_t, j_max = _lead_at(f, g, t, trunc)
    return EvalResult.finite(_rule_sum(f_t, g, alpha, t, j_max, caputo))


def leibniz_rl(
    f: TaylorSeries, g: TaylorSeries, order: float, t: float, trunc: int = 32
) -> EvalResult:
    """The RL product rule sum_j gen_binom(alpha,j) f^(j)(t) D^(alpha-j) g(t).

    *f* may be supplied at the terminal or already at *t*; *g* must be
    at the terminal. Orders alpha - j <= 0 are RL integrals. For
    polynomial *f* the sum is exact once j exceeds the degree.
    """
    return _bare_rule(f, g, order, t, trunc, False)


def leibniz_caputo_wrong(
    f: TaylorSeries, g: TaylorSeries, order: float, t: float, trunc: int = 32
) -> EvalResult:
    """The naive Caputo transplant of the RL product rule.

    Factors C D^(alpha-j) g with j >= n are read as RL integrals of
    order j - alpha (the reading under which the rule circulates).
    The result is deliberately NOT the Caputo derivative of f g in
    general; :func:`leibniz_report` with rule="corrected" adds what is
    missing.
    """
    return _bare_rule(f, g, order, t, trunc, True)


def _compensation(
    f: TaylorSeries, f_t: TaylorSeries, g: TaylorSeries, alpha: float, t: float
) -> float:
    """The R1 double sum of the corrected rule over k < n = branch(alpha).

    Every summand carries a g^(k-j)(a) factor and a 1/Gamma(k+1-alpha)
    denominator, so it vanishes exactly when g's low derivatives vanish
    or alpha is the integer n. A power (t - a)^(k - alpha) beyond the double
    range raises DivergenceError, whatever the summand it scales.
    """
    a = g.center
    total = 0.0
    for k in range(branch(alpha)):
        rg = recip_gamma(k + 1 - alpha)
        inner = 0.0
        for j in range(k + 1):
            gv = g.derivs[k - j] if k - j <= g.truncation else 0.0
            if gv == 0.0:
                continue
            ft = f_t.derivs[j] if j <= f_t.truncation else 0.0
            fa = f.derivs[j] if j <= f.truncation else 0.0
            inner += (gen_binom(alpha, j) * ft - math.comb(k, j) * fa) * gv
        try:
            power = (t - a) ** (k - alpha)
        except OverflowError:
            raise DivergenceError(
                f"the compensation R1 leaves the double range at t = {t!r}: "
                f"(t - a)^(k - alpha) overflows at k = {k}, k - alpha = {k - alpha!r}"
            ) from None
        total += inner * power * rg
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

    The product f * g keeps the rule sum and R1 in its work at t
    (:meth:`TaylorSeries._memo`), keyed by alpha, the last j summed and
    the convention, so "corrected" after "wrong" (or the reverse) at
    the same t computes neither again. Only values are kept: a refusal is
    computed and raised again at each call.
    """
    if rule not in ("rl", "wrong", "corrected"):
        raise ValueError(f"unknown rule {rule!r} (expected rl, wrong, corrected)")
    alpha = check_order(order)
    caputo = rule != "rl"
    if caputo and alpha < 0:
        # the reference, C D^alpha of the product, needs alpha > 0
        positive_order(alpha, non_integer=True)
    product = taylor_arith(f, g, "mul")
    f_t, j_max = _lead_at(f, g, t, trunc)
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
    ref_value = operator_value(product, alpha, t, caputo)
    return LeibnizReport(
        rule_value=EvalResult.finite(value),
        reference_value=EvalResult.finite(ref_value),
        residual=abs(value - ref_value),
        correction_value=correction,
        terms_used=j_max + 1,
    )
