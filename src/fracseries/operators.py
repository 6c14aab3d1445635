"""Differintegral operators on Taylor data.

The Riemann-Liouville and Caputo series live here, both expansions
about the lower terminal (coefficients from f^(k)(a)), together with the
bridge series that converts between the two conventions and the
integer-limit diagnostics.

Integer orders never go through gamma-pole arithmetic: they are routed
to exact factorial shifts of the Taylor data, so classical calculus
falls out bitwise where the fractional formulas only reach it in the
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import (
    FracPowerSeries,
    TaylorSeries,
    branch,
    check_finite,
    check_order,
    check_slots,
    check_tail,
    positive_order,
    sum_grid,
)
from .special import (
    FACTORIALS, GammaRangeError, _check_finite, check_count, gamma_ratio, over_factorial,
    recip_gamma,
)

__all__ = [
    "IntegerLimitReport",
    "caputo_derivative",
    "frac_differintegral",
    "integer_limit_check",
    "rl_caputo_bridge",
    "rl_differintegral",
]


def operator_terms(
    f: TaylorSeries, alpha: float, caputo: bool = False
) -> list[tuple[float, float]]:
    """The nonzero terms of the RL (or, with *caputo*, the Caputo) series of
    f: the exact factorial shift at integer orders, else :func:`slot_terms`
    from k = n (Caputo) or k = 0 (RL), which agree at alpha < 0, where n = 0."""
    if alpha.is_integer():
        return _integer_shift(f, int(alpha))
    k0 = branch(alpha) if caputo else 0
    return slot_terms(f, alpha, k0, f.truncation + 1, f.complete)


def check_right_of_terminal(t: float, a: float) -> None:
    """The one strict terminal test: the operators, product rules and
    quadrature values are evaluated only at a finite t right of a finite a."""
    _check_finite(a, "a")
    if not t > a:
        raise ValueError(f"t={t!r} must lie right of the terminal {a!r}")
    if math.isinf(t):
        raise ValueError(f"t={t!r} must be finite")


def operator_value(f: TaylorSeries, order: float, t: float, caputo: bool = False) -> float:
    """The value at t > a of :func:`operator_terms`, summed without a series.

    It is :func:`series.sum_grid` of :func:`operator_terms` at t, bit for
    bit, refusals included: the order and t are vetted here, and
    :func:`_kept_value` reads or sums the value.

    Raises:
        ValueError: for t not finite and right of the terminal f.center, and
            as :func:`slot_terms`.
        GammaRangeError: as :func:`slot_terms`.
        DivergenceError: as :func:`series.sum_grid`.
    """
    check_right_of_terminal(t, f.center)
    alpha = check_order(order)
    x = t - f.center
    return _kept_value(f, alpha, caputo, x, f._memo(t), f.complete or x < f.radius_hint)


def _kept_value(
    f: TaylorSeries, alpha: float, caputo: bool, x: float, memo: dict, inside: bool
) -> float:
    """:func:`operator_value` past its vetting, at x = t - a: *memo* is f's
    work at t (:meth:`TaylorSeries._memo`), and *inside* says that the data
    are complete or x lies inside their radius.

    The value is kept in *memo* by order and first slot (Caputo is RL at
    orders <= 0). A non-integer order inside the radius takes
    :func:`_slot_sum`; a sum that it cannot finish, and data summed at or
    past its radius, take the term-list route, which states the refusal.
    """
    k0 = branch(alpha) if caputo else 0
    key = ("operator", alpha, k0)
    if (value := memo.get(key)) is not None:
        return value
    if inside and not alpha.is_integer():
        value = _slot_sum(f, alpha, k0, x, memo)
    if value is None:
        terms = operator_terms(f, alpha, caputo)
        (value,) = sum_grid(terms, 0.0, (x,), f.radius_hint, f.complete)
    memo[key] = value
    return value


def _slot_sum(f: TaylorSeries, alpha: float, k0: int, x: float, memo: dict) -> float | None:
    """The sum over k >= k0 of f^(k)(a)/Gamma(k+1-alpha) * x^(k-alpha) in one
    pass that keeps no term list, or None when it is not finite.

    Each slot with a nonzero coefficient adds its term with the float
    operations of :func:`series.sum_grid` over :func:`slot_terms`, in the
    same order, and the tail test reads the last two of them. *memo*, f's
    work at the point x past its center, maps a Gamma argument k+1-alpha
    to ``(1/Gamma(arg), x**arg)``, and slot k's exponent k-alpha is slot
    k-1's argument, so only the first slot's power is computed directly.
    Every order summed at one point reads it, the operator values and the
    factors of every product-rule row alike, so that each argument is
    evaluated once per series and point.

    Raises:
        ValueError: for truncated data that keeps fewer than two slots.
        GammaRangeError: as :func:`slot_terms`, in slot order.
        DivergenceError: when the sum of truncated data fails the tail test.
    """
    k1 = f.truncation + 1
    check_slots(f, alpha, k0, k1, f.complete)
    derivs = f.derivs
    get = memo.get
    power = _power(x, k0 - alpha)
    total = 0.0
    prev = last = None
    for k in range(k0, k1):
        arg = k + 1 - alpha
        if (entry := get(arg)) is None:
            entry = memo[arg] = (recip_gamma(arg), _power(x, arg))
        rg, next_power = entry
        d = derivs[k]
        if rg == 0.0 and d != 0.0 and arg > 0.0:
            raise _gamma_range_error(alpha, k, arg)
        c = d * rg
        if c != 0.0:
            prev, last = last, c * power
            total += last
        power = next_power
    if not math.isfinite(total):  # a term is not finite, or a power overflowed
        return None
    if prev is not None:
        check_tail([prev, last], total, f.complete)
    return total


def _power(x: float, e: float) -> float:
    """x**e, with inf for a power that overflows: a nonzero term that uses
    it makes the sum non-finite."""
    try:
        return x**e
    except OverflowError:
        return math.inf


def _gamma_range_error(alpha: float, k: int, arg: float) -> GammaRangeError:
    return GammaRangeError(
        f"order {alpha} divides f^({k}) by Gamma({arg!r}), which is beyond the double range"
    )


def _integer_shift(f: TaylorSeries, m: int) -> list[tuple[float, float]]:
    """Exact integer derivative (m > 0) or integral (m < 0) of Taylor data.
    A slot divides by (k - m)! (special.over_factorial), past the table down
    to an exact 0.0 for a derivative; an integral refuses there."""
    k0 = max(m, 0)
    check_slots(f, m, k0, f.truncation + 1, f.complete)
    terms = []
    for k in range(k0, f.truncation + 1):
        d = f.derivs[k]
        if d == 0.0:
            continue
        if m < 0 and k - m >= len(FACTORIALS):
            raise GammaRangeError(
                f"order {m} divides f^({k}) by ({k - m:.6g})!, which is beyond the "
                "double range"
            )
        c = over_factorial(d, k - m)
        if c != 0.0:
            terms.append((c, float(k - m)))
    return terms


def rl_differintegral(f: TaylorSeries, order: float) -> FracPowerSeries:
    """Riemann-Liouville differintegral of any real order as a power series.

    Produces the terms f^(k)(a)/Gamma(k+1-alpha) * (t-a)^(k-alpha) for
    k = 0..N. Negative orders are the fractional integral; terms whose
    denominator gamma sits on a pole are dropped exactly. Integer orders
    take the exact factorial route.

    Raises:
        GammaRangeError: when the gamma that divides a nonzero datum, or
            the factorial of an integer integral, is beyond the double
            range.
    """
    terms = operator_terms(f, check_order(order))
    return FracPowerSeries(f.center, tuple(terms), f.radius_hint, f.complete)


def slot_terms(
    f: TaylorSeries, alpha: float, k0: int, k1: int, complete: bool
) -> list[tuple[float, float]]:
    """The nonzero terms f^(k)(a)/Gamma(k+1-alpha) * (t-a)^(k-alpha) for
    k0 <= k < k1.

    Their exponents rise by about 1, so no two of them merge: dropping
    the zeros (pole slots and zero data) is the whole canonical form.

    Raises:
        ValueError: for truncated data that keeps fewer than two slots.
        GammaRangeError: when Gamma(k+1-alpha) of a nonzero datum is
            beyond the double range (1/Gamma would read as 0.0 and drop
            the term), or 1/Gamma(k+1-alpha) is, even for a zero datum.
        ValueError: naming the first term that is not finite, once every
            slot has passed the Gamma checks.
    """
    check_slots(f, alpha, k0, k1, complete)
    terms = []
    for k in range(k0, k1):
        arg = k + 1 - alpha
        rg = recip_gamma(arg)
        d = f.derivs[k]
        if rg == 0.0 and d != 0.0 and arg > 0.0:
            raise _gamma_range_error(alpha, k, arg)
        c = d * rg
        if c != 0.0:
            terms.append((c, k - alpha))
    check_finite(terms)
    return terms


def caputo_derivative(f: TaylorSeries, order: float) -> FracPowerSeries:
    """Caputo derivative as a power series; the sum starts at k = n.

    Only non-integer positive orders are accepted: the integer case is
    classical differentiation and negative orders coincide with the RL
    integral, both available through :func:`rl_differintegral`.
    """
    terms = operator_terms(f, positive_order(order, non_integer=True), caputo=True)
    return FracPowerSeries(f.center, tuple(terms), f.radius_hint, f.complete)


def rl_caputo_bridge(f: TaylorSeries, order: float) -> FracPowerSeries:
    """Correction series with rl = caputo + bridge, termwise exactly.

    The bridge collects the k = 0..n-1 terms f^(k)(a)(t-a)^(k-alpha)
    / Gamma(k+1-alpha). At integer orders it is empty (each denominator
    sits on a pole).
    """
    alpha = check_order(order)
    # a finite explicit sum: complete regardless of the source data
    terms = slot_terms(f, alpha, 0, min(branch(alpha), f.truncation + 1), True)
    return FracPowerSeries(f.center, tuple(terms), f.radius_hint, True)


def frac_differintegral(
    series: FracPowerSeries, alpha: float
) -> FracPowerSeries:
    """Termwise power rule on a fractional power series.

    c (t-a)^mu maps to c Gamma(mu+1)/Gamma(mu-alpha+1) (t-a)^(mu-alpha),
    valid for mu > -1 (the memory integral of t^mu with mu <= -1 does
    not exist). Pole denominators drop the term exactly.

    Raises:
        ValueError: for an order that is not finite, then for a term
            exponent <= -1.
    """
    alpha = check_order(alpha)
    terms = []
    for c, e in series.terms:
        if e <= -1.0:
            raise ValueError(
                f"term with exponent {e} <= -1 has no differintegral "
                "(kernel integral diverges at the terminal)"
            )
        terms.append((c * gamma_ratio(e + 1.0, e + 1.0 - alpha), e - alpha))
    return FracPowerSeries(
        series.center, tuple(terms), series.radius_hint, series.complete
    )


@dataclass(frozen=True)
class IntegerLimitReport:
    """Max pointwise deviations of near-integer orders from exact calculus.

    Derivative side: RL at n +/- eps and Caputo at n - eps against the
    exact n-th derivative. Integral side: RL at -(n +/- eps) against the
    exact n-fold integral.
    """

    n: int
    eps: float
    grid: tuple[float, ...]
    rl_above: float
    rl_below: float
    caputo_below: float
    integral_above: float
    integral_below: float

    @property
    def max_deviation(self) -> float:
        return max(
            self.rl_above,
            self.rl_below,
            self.caputo_below,
            self.integral_above,
            self.integral_below,
        )


def _max_dev(series: FracPowerSeries, exact: FracPowerSeries, grid) -> float:
    dev = 0.0
    for t in grid:
        got = series.evaluate(t).expect_finite()
        want = exact.evaluate(t).expect_finite()
        dev = max(dev, abs(got - want))
    return dev


def integer_limit_check(
    f: TaylorSeries, n: int, eps: float, grid: tuple[float, ...] | list[float]
) -> IntegerLimitReport:
    """Check that the fractional operators collapse onto integer calculus.

    Raises:
        ValueError: for n that is not an integer >= 1 (an int or an
            integral float), eps outside (0, 0.1), or a grid point that is
            not finite and right of the center (NaN included).
    """
    n = check_count(n, 1, "n")
    if not 0.0 < eps < 0.1:
        raise ValueError(f"eps must lie in (0, 0.1), got {eps}")
    grid = tuple(float(t) for t in grid)
    for t in grid:
        check_right_of_terminal(t, f.center)

    exact_d = rl_differintegral(f, n)
    exact_i = rl_differintegral(f, -n)
    return IntegerLimitReport(
        n=n,
        eps=eps,
        grid=grid,
        rl_above=_max_dev(rl_differintegral(f, n + eps), exact_d, grid),
        rl_below=_max_dev(rl_differintegral(f, n - eps), exact_d, grid),
        caputo_below=_max_dev(caputo_derivative(f, n - eps), exact_d, grid),
        integral_above=_max_dev(rl_differintegral(f, -(n + eps)), exact_i, grid),
        integral_below=_max_dev(rl_differintegral(f, -(n - eps)), exact_i, grid),
    )
