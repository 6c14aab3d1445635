"""Product-rule evaluators for fractional orders.

Four variants are exposed: the correct Riemann-Liouville series rule,
its finite monomial corollary, the naive Caputo transplant of the RL
rule (kept deliberately, as the thing to falsify), and the corrected
Caputo rule whose compensation term R1 accounts exactly for the naive
rule's error. Reference values always come from the Caputo (or RL)
operator applied to the product series, never from another rule, so
comparisons stay non-circular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import EvalResult, Order, TaylorSeries, as_order, check_tail, taylor_arith
from .operators import caputo_derivative, rl_differintegral
from .special import gen_binom, pochhammer, recip_gamma

__all__ = [
    "LeibnizReport",
    "leibniz_caputo_corrected",
    "leibniz_caputo_wrong",
    "leibniz_monomial",
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


def _data_at(f: TaylorSeries, t: float) -> TaylorSeries:
    """Derivative data of f at the evaluation point t."""
    return f if f.center == t else f.recentered(t)


def _rl_value(g: TaylorSeries, beta: float, t: float) -> float:
    return rl_differintegral(g, beta).evaluate(t).expect_finite()


def _caputo_value(g: TaylorSeries, beta: float, t: float) -> float:
    """C D^beta g at t, reading negative orders as RL integrals."""
    if beta > 0 and not float(beta).is_integer():
        return caputo_derivative(g, beta).evaluate(t).expect_finite()
    return _rl_value(g, beta, t)


def _rule_sum(
    lead_t: TaylorSeries, other: TaylorSeries, alpha: float, t: float, trunc: int, value
) -> tuple[float, int]:
    """sum_j gen_binom(alpha, j) lead^(j)(t) value(other, alpha - j, t), and its length.

    *value* is the operator that reads the factor orders: RL throughout,
    or Caputo for positive non-integer orders.
    """
    if not t > other.center:
        raise ValueError(f"t={t!r} must lie right of the terminal {other.center!r}")
    if trunc < 1:
        raise ValueError(f"truncation must be >= 1, got {trunc}")
    j_max = min(trunc, lead_t.truncation)
    terms = []
    for j in range(j_max + 1):
        b = gen_binom(alpha, j)
        if b == 0.0 or lead_t.derivs[j] == 0.0:
            terms.append(0.0)
            continue
        terms.append(b * lead_t.derivs[j] * value(other, alpha - j, t))
    total = math.fsum(terms)
    check_tail(terms, total, lead_t.complete)
    return total, j_max + 1


def leibniz_rl(
    f: TaylorSeries,
    g: TaylorSeries,
    order: Order | float,
    t: float,
    trunc: int = 32,
) -> EvalResult:
    """The RL product rule sum_j gen_binom(alpha,j) f^(j)(t) D^(alpha-j) g(t).

    *f* may be supplied at the terminal or already at *t*; *g* must be
    at the terminal. Orders alpha - j <= 0 are RL integrals. For
    polynomial *f* the sum is exact once j exceeds the degree.
    """
    alpha = as_order(order).alpha
    value, _ = _rule_sum(_data_at(f, t), g, alpha, t, trunc, _rl_value)
    return EvalResult.finite(value)


def leibniz_monomial(
    f: TaylorSeries,
    m: int,
    order: Order | float,
    t: float,
    kind: str = "derivative",
) -> EvalResult:
    """Finite product rule for a monomial factor t^m.

    kind="derivative": RL D^alpha {t^m f} as
    sum_k (-1)^k C(m,k) poch(-alpha,k) t^(m-k) D^(alpha-k) f(t);
    kind="integral": RL I^alpha {t^m f} with poch(alpha,k) and
    I^(alpha+k). Both need alpha > 0.
    """
    ord_ = as_order(order)
    alpha = ord_.alpha
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if not t > f.center:
        raise ValueError(f"t={t!r} must lie right of the terminal {f.center!r}")
    if kind not in ("derivative", "integral"):
        raise ValueError(f"kind must be 'derivative' or 'integral', got {kind!r}")

    total = 0.0
    for k in range(m + 1):
        sign = -1.0 if k % 2 else 1.0
        binom = math.comb(m, k)
        if kind == "derivative":
            factor = pochhammer(-alpha, k)
            value = _rl_value(f, alpha - k, t)
        else:
            factor = pochhammer(alpha, k)
            value = _rl_value(f, -(alpha + k), t)
        total += sign * binom * factor * t ** (m - k) * value
    return EvalResult.finite(total)


def leibniz_caputo_wrong(
    f: TaylorSeries,
    g: TaylorSeries,
    order: Order | float,
    t: float,
    trunc: int = 32,
) -> EvalResult:
    """The naive Caputo transplant of the RL product rule.

    Factors C D^(alpha-j) g with j >= n are read as RL integrals of
    order j - alpha (the reading under which the rule circulates).
    The result is deliberately NOT the Caputo derivative of f g in
    general; see :func:`leibniz_caputo_corrected` for what is missing.
    """
    alpha = as_order(order).alpha
    value, _ = _rule_sum(_data_at(f, t), g, alpha, t, trunc, _caputo_value)
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
    or alpha is the integer n.
    """
    a = g.center
    total = 0.0
    for k in range(n):
        rg = recip_gamma(k + 1 - alpha)
        if rg == 0.0:
            continue
        inner = 0.0
        for j in range(k + 1):
            gv = g.derivs[k - j] if k - j <= g.truncation else 0.0
            if gv == 0.0:
                continue
            ft = f_t.derivs[j] if j <= f_t.truncation else 0.0
            fa = f.derivs[j] if j <= f.truncation else 0.0
            inner += (gen_binom(alpha, j) * ft - math.comb(k, j) * fa) * gv
        total += inner * (t - a) ** (k - alpha) * rg
    return total


def leibniz_caputo_corrected(
    f: TaylorSeries,
    g: TaylorSeries,
    order: Order | float,
    t: float,
    trunc: int = 32,
    swap: bool = False,
) -> LeibnizReport:
    """Corrected Caputo product rule: naive sum plus the compensation R1.

    With ``swap=True`` the roles are exchanged (g differentiated in the
    series, compensation R2); both variants must agree with the same
    reference, the Caputo derivative of the product series.
    """
    return _report(f, g, as_order(order), t, trunc, "corrected", swap)


def leibniz_report(
    f: TaylorSeries,
    g: TaylorSeries,
    order: Order | float,
    t: float,
    rule: str = "corrected",
    trunc: int = 32,
) -> LeibnizReport:
    """Evaluate one named rule against its operator reference.

    rule="rl" compares the RL series rule with the RL differintegral of
    the product; "wrong" and "corrected" compare the naive/corrected
    Caputo rules with the Caputo derivative of the product. The "wrong"
    report carries the compensation the naive rule is missing, so
    callers can see that residual and compensation cancel.
    """
    if rule not in ("rl", "wrong", "corrected"):
        raise ValueError(f"unknown rule {rule!r} (expected rl, wrong, corrected)")
    return _report(f, g, as_order(order), t, trunc, rule)


def _report(
    f: TaylorSeries,
    g: TaylorSeries,
    ord_: Order,
    t: float,
    trunc: int,
    rule: str,
    swap: bool = False,
) -> LeibnizReport:
    """One rule against the operator applied to the product series."""
    product = taylor_arith(f, g, "mul")
    alpha = ord_.alpha
    lead, other = (g, f) if swap else (f, g)
    lead_t = _data_at(lead, t)
    rl = rule == "rl"
    value, terms_used = _rule_sum(
        lead_t, other, alpha, t, trunc, _rl_value if rl else _caputo_value
    )
    correction = 0.0 if rl else _compensation(lead, lead_t, other, alpha, ord_.n, t)
    if rule == "corrected":
        value += correction
    operator = rl_differintegral if rl or ord_.is_integer else caputo_derivative
    ref_value = operator(product, ord_).evaluate(t).expect_finite()
    return LeibnizReport(
        rule_value=EvalResult.finite(value),
        reference_value=EvalResult.finite(ref_value),
        residual=abs(value - ref_value),
        correction_value=correction,
        terms_used=terms_used,
    )
