"""Quadrature evaluation of the memory-integral operator definitions.

This is the series engine's independent cross-check: the weakly
singular kernel (t - tau)^(alpha-1) is absorbed into a Gauss-Jacobi
rule, so analytic integrands converge spectrally and a single node
doubling certifies the result.

scipy (and with it numpy) is imported by the first call that needs it,
so importing this module stays cheap.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .operators import rl_caputo_bridge
from .series import Order, TaylorSeries, as_order
from .special import recip_gamma

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadratureError",
    "caputo_quad",
    "rl_derivative_quad",
    "rl_integral_fixed",
    "rl_integral_quad",
]

#: Relative node-doubling agreement required to accept a quadrature value.
DOUBLING_TOL = 1.0e-9

#: Relative size allowed for the last carried Taylor terms of the integrand.
EVAL_ACCURACY_TOL = 1.0e-12

#: Gauss-Jacobi rules kept, keyed by (alpha, nodes); least recently used go.
JACOBI_CACHE_SIZE = 256


class QuadratureError(ArithmeticError):
    """Raised when node doubling fails to stabilize the integral."""


@lru_cache(maxsize=JACOBI_CACHE_SIZE)
def _jacobi_rule(alpha: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(nodes, alpha - 1.0, 0.0)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def rl_integral_fixed(
    f: Callable[[float], float], alpha: float, a: float, t: float, nodes: int
) -> float:
    """One Gauss-Jacobi pass at a fixed node count (no convergence check).

    With tau = (a+t)/2 + (t-a)x/2 the memory integral becomes
    ((t-a)/2)^alpha / Gamma(alpha) * sum w_i f(tau_i), the kernel being
    exactly the Jacobi weight (1-x)^(alpha-1).
    """
    x, w = _jacobi_rule(float(alpha), int(nodes))
    mid = 0.5 * (a + t)
    half = 0.5 * (t - a)
    total = math.fsum(wi * f(mid + half * xi) for xi, wi in zip(x, w))
    return half**alpha * total * recip_gamma(alpha)


def rl_integral_quad(
    f: Callable[[float], float],
    alpha: float,
    a: float,
    t: float,
    nodes: int = 16,
    rel_tol: float = DOUBLING_TOL,
    max_doublings: int = 6,
) -> float:
    """Memory integral of order alpha > 0 of f over [a, t], to rel_tol.

    Nodes are doubled until two successive rules agree to rel_tol
    relative; analytic integrands settle after one or two doublings.

    Raises:
        QuadratureError: if doubling never stabilizes (f not analytic on
            the interval, or rel_tol beyond double precision).
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not t > a:
        raise ValueError(f"t must exceed the terminal, got t={t!r}, a={a!r}")
    if nodes < 8:
        raise ValueError(f"nodes must be >= 8, got {nodes}")
    if max_doublings < 1:
        raise ValueError(f"max_doublings must be >= 1, got {max_doublings}")
    prev = rl_integral_fixed(f, alpha, a, t, nodes)
    for _ in range(max_doublings):
        nodes *= 2
        cur = rl_integral_fixed(f, alpha, a, t, nodes)
        change = abs(cur - prev)
        if change <= rel_tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"node doubling did not stabilize by {nodes} nodes "
        f"(last change {change:.3e}, rel_tol {rel_tol:.3e})"
    )


def _checked_callable(f: TaylorSeries, n: int, t: float) -> Callable[[float], float]:
    """Evaluation closure for the n-th derivative of f, vetted on [center, t].

    Truncated data must carry enough terms that the dropped tail is
    negligible at the far end of [center, t]; the last two carried terms
    stand in for the tail and must be tiny relative to the value there.
    """
    g = f.nth_derivative(n)
    if not g.complete:
        x = t - g.center
        if g.truncation < 2:
            raise ValueError(
                f"the derivative of order n = {n} keeps {max(f.truncation + 1 - n, 0)} "
                f"of the terms of truncated Taylor data of truncation {f.truncation}; "
                f"an accuracy assessment needs 3 (truncation >= {n + 2})"
            )
        scale = abs(g.evaluate(t)) + 1.0
        fact = math.factorial(g.truncation)
        last = abs(g.derivs[-1]) * x**g.truncation / fact
        second = abs(g.derivs[-2]) * x ** (g.truncation - 1) * g.truncation / fact
        if not (last <= EVAL_ACCURACY_TOL * scale and second <= EVAL_ACCURACY_TOL * scale):
            raise ValueError(
                f"Taylor truncation {g.truncation} is too short for "
                f"1e-12-accurate evaluation on [{g.center}, {t}] "
                f"(tail terms {second:.3e}, {last:.3e})"
            )
    return g.evaluate


def caputo_quad(
    f: TaylorSeries,
    order: Order | float,
    t: float,
    nodes: int = 16,
    rel_tol: float = DOUBLING_TOL,
) -> float:
    """Caputo value at t by integrating the n-th derivative of f.

    The derivative order n - alpha lies in (0, 1) for non-integer alpha,
    so this is a genuine memory integral; integer orders collapse to the
    exact classical derivative. Negative orders fall through to the
    plain memory integral (n = 0).
    """
    ord_ = as_order(order)
    if not t > f.center:
        raise ValueError(
            f"t must exceed the terminal, got t={t!r}, a={f.center!r}"
        )
    if ord_.is_integer and ord_.alpha >= 0:
        return f.nth_derivative(int(ord_.alpha)).evaluate(t)
    g = _checked_callable(f, ord_.n, t)
    return rl_integral_quad(g, ord_.n - ord_.alpha, f.center, t, nodes, rel_tol)


def rl_derivative_quad(
    f: TaylorSeries,
    order: Order | float,
    t: float,
    nodes: int = 16,
    rel_tol: float = DOUBLING_TOL,
) -> float:
    """RL value at t as Caputo plus the lower-terminal bridge series.

    Differentiating the quadrature n times would be hopeless numerically;
    the bridge identity converts the task into caputo_quad plus an
    explicit finite sum.
    """
    ord_ = as_order(order)
    base = caputo_quad(f, ord_, t, nodes, rel_tol)
    bridge = rl_caputo_bridge(f, ord_).evaluate(t).expect_finite()
    return base + bridge
