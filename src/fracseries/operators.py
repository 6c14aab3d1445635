"""Differintegral operators on Taylor data.

All four series forms live here: the two expansions about the lower
terminal (coefficients from f^(k)(a)) and the two local forms
(coefficients from f^(k)(t) with binomial weights), together with the
bridge series that converts between the Riemann-Liouville and Caputo
conventions and the integer-limit diagnostics.

Integer orders never go through gamma-pole arithmetic: they are routed
to exact factorial shifts of the Taylor data, so classical calculus
falls out bitwise where the fractional formulas only reach it in the
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import FracPowerSeries, Order, TaylorSeries, as_order
from .special import gamma_ratio, gen_binom, recip_gamma

__all__ = [
    "IntegerLimitReport",
    "caputo_derivative",
    "caputo_local_form",
    "frac_differintegral",
    "integer_limit_check",
    "rl_caputo_bridge",
    "rl_differintegral",
    "rl_local_form",
]


def _integer_shift(f: TaylorSeries, m: int) -> FracPowerSeries:
    """Exact integer derivative (m > 0) or integral (m < 0) of Taylor data."""
    k0 = max(m, 0)
    _check_slots(f, m, k0, k0, f.truncation + 1, f.complete)
    terms = tuple(
        (f.derivs[k] / math.factorial(k - m), float(k - m))
        for k in range(k0, f.truncation + 1)
    )
    return FracPowerSeries(f.center, terms, f.radius_hint, f.complete)


def _check_slots(
    f: TaylorSeries, alpha: float, n: int, k0: int, k1: int, complete: bool
) -> None:
    """Truncated data must leave at least two slots k0 <= k < k1 for the
    tail test; fewer would be an unchecked sum of what the data carries."""
    if not complete and k1 - k0 < 2:
        raise ValueError(
            f"order {alpha} (n = {n}) sums the slots k >= {k0}, and truncated "
            f"Taylor data of truncation {f.truncation} carries {max(k1 - k0, 0)} of "
            f"them; the tail test needs two (truncation >= {k0 + 1})"
        )


def rl_differintegral(f: TaylorSeries, order: Order | float) -> FracPowerSeries:
    """Riemann-Liouville differintegral of any real order as a power series.

    Produces the terms f^(k)(a)/Gamma(k+1-alpha) * (t-a)^(k-alpha) for
    k = 0..N. Negative orders are the fractional integral; terms whose
    denominator gamma sits on a pole are dropped exactly. Integer orders
    take the exact factorial route.
    """
    ord_ = as_order(order)
    if ord_.is_integer:
        return _integer_shift(f, int(ord_.alpha))
    return _rl_slots(f, ord_, 0, f.truncation + 1, f.complete)


def _rl_slots(
    f: TaylorSeries, ord_: Order, k0: int, k1: int, complete: bool
) -> FracPowerSeries:
    """The terms f^(k)(a)/Gamma(k+1-alpha) * (t-a)^(k-alpha) for k0 <= k < k1."""
    alpha = ord_.alpha
    _check_slots(f, alpha, ord_.n, k0, k1, complete)
    terms = tuple(
        (f.derivs[k] * recip_gamma(k + 1 - alpha), k - alpha) for k in range(k0, k1)
    )
    return FracPowerSeries(f.center, terms, f.radius_hint, complete)


def caputo_derivative(f: TaylorSeries, order: Order | float) -> FracPowerSeries:
    """Caputo derivative as a power series; the sum starts at k = n.

    Only non-integer positive orders are accepted: the integer case is
    classical differentiation and negative orders coincide with the RL
    integral, both available through :func:`rl_differintegral`.
    """
    ord_ = as_order(order)
    alpha = ord_.alpha
    if alpha <= 0 or ord_.is_integer:
        raise ValueError(
            f"Caputo derivative needs a positive non-integer order, got {alpha}; "
            "use rl_differintegral for integer orders and integrals"
        )
    return _rl_slots(f, ord_, ord_.n, f.truncation + 1, f.complete)


def rl_local_form(
    f_at_t: TaylorSeries, order: Order | float, a: float
) -> FracPowerSeries:
    """RL differintegral from derivative data taken at the evaluation point.

    The coefficients are gen_binom(alpha, k) f^(k)(t)/Gamma(k-alpha+1)
    and the series is in powers of (t - a); it is only meaningful when
    evaluated at the same t the data was taken at (f_at_t.center).
    """
    return _local_form(f_at_t, as_order(order), 0, a)


def caputo_local_form(
    f_at_t: TaylorSeries, order: Order | float, a: float
) -> FracPowerSeries:
    """Caputo counterpart of :func:`rl_local_form`; the sum starts at k = n."""
    ord_ = as_order(order)
    if ord_.alpha <= 0 or ord_.is_integer:
        raise ValueError(
            f"Caputo form needs a positive non-integer order, got {ord_.alpha}"
        )
    return _local_form(f_at_t, ord_, ord_.n, a)


def _local_form(
    f_at_t: TaylorSeries, ord_: Order, n: int, a: float
) -> FracPowerSeries:
    """gen_binom(alpha-n, k-n) f^(k)(t)/Gamma(k-alpha+1) (t-a)^(k-alpha), k >= n."""
    alpha = ord_.alpha
    if f_at_t.center < a:
        raise ValueError(
            f"evaluation point {f_at_t.center!r} lies left of the terminal {a!r}"
        )
    k1 = f_at_t.truncation + 1
    _check_slots(f_at_t, alpha, ord_.n, n, k1, f_at_t.complete)
    d = f_at_t.derivs
    terms = tuple(
        (gen_binom(alpha - n, k - n) * d[k] * recip_gamma(k - alpha + 1), k - alpha)
        for k in range(n, k1)
    )
    return FracPowerSeries(float(a), terms, f_at_t.radius_hint, f_at_t.complete)


def rl_caputo_bridge(f: TaylorSeries, order: Order | float) -> FracPowerSeries:
    """Correction series with rl = caputo + bridge, termwise exactly.

    The bridge collects the k = 0..n-1 terms f^(k)(a)(t-a)^(k-alpha)
    / Gamma(k+1-alpha). At integer orders it is empty (each denominator
    sits on a pole).
    """
    ord_ = as_order(order)
    # a finite explicit sum: complete regardless of the source data
    return _rl_slots(f, ord_, 0, min(ord_.n, f.truncation + 1), True)


def frac_differintegral(
    series: FracPowerSeries, alpha: float
) -> FracPowerSeries:
    """Termwise power rule on a fractional power series.

    c (t-a)^mu maps to c Gamma(mu+1)/Gamma(mu-alpha+1) (t-a)^(mu-alpha),
    valid for mu > -1 (the memory integral of t^mu with mu <= -1 does
    not exist). Pole denominators drop the term exactly.
    """
    alpha = float(alpha)
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
        ValueError: for n < 1 or eps outside (0, 0.1), or a grid point
            at or left of the center.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < eps < 0.1:
        raise ValueError(f"eps must lie in (0, 0.1), got {eps}")
    grid = tuple(float(t) for t in grid)
    if any(t <= f.center for t in grid):
        raise ValueError("grid points must lie strictly right of the center")

    exact_d = _integer_shift(f, n)
    exact_i = _integer_shift(f, -n)
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
