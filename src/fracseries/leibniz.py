"""Product-rule evaluators for fractional orders.

:func:`leibniz_report` evaluates one of three rules against its
operator reference: the correct Riemann-Liouville series rule, the
naive Caputo transplant of the RL rule (kept deliberately, as the thing
to falsify), and the corrected Caputo rule whose compensation term R1
accounts exactly for the naive rule's error. Reference values always
come from the Caputo (or RL) operator applied to the product's Taylor
data, never from another rule, so comparisons stay non-circular.

:func:`leibniz_rl` and :func:`leibniz_caputo_wrong` return the first two
rule values alone, so they answer where the reference refuses: where the
product's data fails its tail test, or at a non-integer alpha < 0, where
no Caputo derivative exists. The finite RL rule for a factor t^m is
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
from .operators import check_right_of_terminal, operator_value
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


def _rule_sum(
    lead: TaylorSeries,
    other: TaylorSeries,
    alpha: float,
    t: float,
    trunc: int,
    caputo: bool,
) -> tuple[float, int, TaylorSeries]:
    """sum_j gen_binom(alpha, j) lead^(j)(t) D^(alpha - j) other(t), its
    length, and the data of *lead* at t (*lead* itself when centred there).

    The factors are RL values, or with *caputo* Caputo values (which are
    RL values at orders alpha - j <= 0). Their slots k divide by
    Gamma(k + 1 - (alpha - j)) and take t - a to the power k - (alpha - j),
    both of which repeat along k + j: :func:`operators.operator_value`
    keeps them, and each factor value, as *other*'s work at t, so each
    distinct argument and power is evaluated once, and a second rule at
    the same t reads its factors there. *lead* keeps its data at t.

    Raises:
        ValueError: for t at or left of the terminal, before anything else.
        DivergenceError: when a term or the sum leaves the double range,
            naming t and the largest term, or when the sum of truncated
            data fails the tail test.
    """
    check_right_of_terminal(t, other.center)
    lead_t = lead if lead.center == t else lead.recentered(t)
    j_max = min(check_count(trunc, 1, "trunc"), lead_t.truncation)
    terms = []
    for j, b in zip(range(j_max + 1), _binomial_weights(alpha)):
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


def leibniz_rl(
    f: TaylorSeries,
    g: TaylorSeries,
    order: float,
    t: float,
    trunc: int = 32,
) -> EvalResult:
    """The RL product rule sum_j gen_binom(alpha,j) f^(j)(t) D^(alpha-j) g(t).

    *f* may be supplied at the terminal or already at *t*; *g* must be
    at the terminal. Orders alpha - j <= 0 are RL integrals. For
    polynomial *f* the sum is exact once j exceeds the degree.
    """
    alpha = check_order(order)
    value = _rule_sum(f, g, alpha, t, trunc, False)[0]
    return EvalResult.finite(value)


def leibniz_caputo_wrong(
    f: TaylorSeries,
    g: TaylorSeries,
    order: float,
    t: float,
    trunc: int = 32,
) -> EvalResult:
    """The naive Caputo transplant of the RL product rule.

    Factors C D^(alpha-j) g with j >= n are read as RL integrals of
    order j - alpha (the reading under which the rule circulates).
    The result is deliberately NOT the Caputo derivative of f g in
    general; :func:`leibniz_report` with rule="corrected" adds what is
    missing.
    """
    alpha = check_order(order)
    value = _rule_sum(f, g, alpha, t, trunc, True)[0]
    return EvalResult.finite(value)


def _compensation(
    f: TaylorSeries,
    f_t: TaylorSeries,
    g: TaylorSeries,
    alpha: float,
    n: int,
    t: float,
) -> float:
    """The R1 double sum of the corrected rule.

    Every summand carries a g^(k-j)(a) factor and a 1/Gamma(k+1-alpha)
    denominator, so it vanishes exactly when g's low derivatives vanish
    or alpha is the integer n. A power (t - a)^(k - alpha) beyond the double
    range raises DivergenceError, whatever the summand it scales.
    """
    a = g.center
    total = 0.0
    for k in range(n):
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
    swap: bool = False,
) -> LeibnizReport:
    """Evaluate one named rule against its operator reference.

    rule="rl" compares the RL series rule with the RL differintegral of
    the product; "wrong" and "corrected" compare the naive and corrected
    Caputo rules with the Caputo derivative of the product. The corrected
    rule is the naive sum plus the compensation R1; the "wrong" report
    carries that compensation too, so callers can see that residual and
    compensation cancel. With ``swap=True`` the roles are exchanged for
    every rule (g differentiated in the series, compensation R2); both
    variants must agree with the same reference.
    """
    if rule not in ("rl", "wrong", "corrected"):
        raise ValueError(f"unknown rule {rule!r} (expected rl, wrong, corrected)")
    alpha = check_order(order)
    product = taylor_arith(f, g, "mul")
    lead, other = (g, f) if swap else (f, g)
    caputo = rule != "rl"
    value, terms_used, lead_t = _rule_sum(lead, other, alpha, t, trunc, caputo)
    correction = 0.0
    # at integer orders Caputo is RL: every R1 denominator sits on a pole
    if caputo and not alpha.is_integer():
        correction = _compensation(lead, lead_t, other, alpha, branch(alpha), t)
        # the reference, C D^alpha of the product, needs alpha > 0
        positive_order(alpha, non_integer=True)
    if rule == "corrected":
        value += correction
    ref_value = operator_value(product, alpha, t, caputo)
    return LeibnizReport(
        rule_value=EvalResult.finite(value),
        reference_value=EvalResult.finite(ref_value),
        residual=abs(value - ref_value),
        correction_value=correction,
        terms_used=terms_used,
    )
