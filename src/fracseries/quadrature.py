"""Quadrature evaluation of the memory-integral operator definitions.

This is the series engine's independent cross-check: the weakly
singular kernel (t - tau)^(alpha-1) is absorbed into a Gauss-Jacobi
rule, so analytic integrands converge spectrally and a single node
doubling certifies the result.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add
from typing import Callable

from .operators import check_right_of_terminal, rl_caputo_bridge
from .series import (
    TAIL_TOL, DivergenceError, TaylorSeries, branch, check_order, check_slots, positive_order
)
from .special import FACTORIALS, GammaRangeError, check_count, over_factorial, recip_gamma

__all__ = [
    "QuadratureError",
    "caputo_quad",
    "rl_derivative_quad",
    "rl_integral_fixed",
    "rl_integral_quad",
]

#: Relative node-doubling agreement required to accept a quadrature value.
DOUBLING_TOL = 1.0e-9

#: Nodes of the first Gauss-Jacobi pass of :func:`rl_integral_quad`.
START_NODES = 16

#: Node doublings :func:`rl_integral_quad` takes before it gives up.
MAX_DOUBLINGS = 6

#: Gauss-Jacobi rules kept, keyed by (alpha, nodes); least recently used go.
JACOBI_CACHE_SIZE = 256

#: Newton steps allowed per Gauss-Jacobi node; two or three suffice from the
#: asymptotic start up to order 12, and under 20 up to order 50.
NEWTON_MAX_STEPS = 100


class QuadratureError(ArithmeticError):
    """Raised when node doubling fails to stabilize the integral."""


@lru_cache(maxsize=JACOBI_CACHE_SIZE)
def _jacobi_rule(alpha: float, nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Jacobi nodes (descending) and weights for the weight
    (1-x)^(alpha-1) on [-1, 1], as Python floats.

    Each node is a Newton root of the orthonormal polynomial of degree
    `nodes`, evaluated with its derivative by the three-term recurrence
    (Golub and Welsch, Math. Comp. 23, 1969). Newton starts from the
    asymptotic node of Gatteschi and Pittaluga (Hale and Townsend, SIAM J.
    Sci. Comput. 35(2), 2013, eq. 3.4) and divides out the nodes already
    found, so no root is found twice where the start is poor (alpha > 12).
    The weight is the Christoffel number mu0 / sum_{k<nodes} p_k(x)^2, with
    p_0 = 1 and mu0 the weight's integral. Against a 40-digit rule its
    largest relative error at 16 to 64 nodes is 30-400x below that of
    scipy's roots_jacobi, whose weights come from the derivative formula.
    """
    a = alpha - 1.0
    steps = _jacobi_recurrence(alpha, nodes)
    mu0 = 2.0**alpha / alpha
    rho = nodes + 0.5 * alpha
    # the last step is taken to first order in the weight too: the sum
    # moves by its derivative, since near x = 1 a weight changes by up to
    # nodes^2 times its size per unit of x; below this step the second-order
    # remainder is under 1e-17 of the weight
    tol = 1.0e-9 / nodes**2
    xs: list[float] = []
    ws: list[float] = []
    for k in range(1, nodes + 1):
        t = (k + 0.5 * a - 0.25) * math.pi / rho
        half = math.tan(0.5 * t)
        z = math.cos(t + ((0.25 - a * a) / half - 0.25 * half) / (4.0 * rho * rho))
        for _ in range(NEWTON_MAX_STEPS):
            p, dp, norm, dnorm = _orthonormal_at(z, steps)
            # summed left to right, as the builtin sum() does not from 3.12 on:
            # its compensated sum moved 6 values of the order-50 rules
            dz = p / (dp - p * reduce(add, [1.0 / (z - x) for x in xs], 0.0))
            if abs(dz) <= tol:
                break
            z -= dz
        else:
            raise QuadratureError(
                f"Newton did not find node {k} of the {nodes}-node Gauss-Jacobi rule "
                f"of order {alpha!r} in {NEWTON_MAX_STEPS} steps (last step {dz:.3e})"
            )
        xs.append(z - dz)
        ws.append(mu0 / (norm - 2.0 * dnorm * dz))
    order = sorted(range(nodes), key=xs.__getitem__, reverse=True)
    return tuple([xs[i] for i in order]), tuple([ws[i] for i in order])


def _orthonormal_at(
    z: float, steps: list[tuple[float, float, float]]
) -> tuple[float, float, float, float]:
    """p_n(z) and p_n'(z) for the recurrence `steps` (p_0 = 1), with
    sum_{k<n} p_k(z)^2 and half its derivative."""
    p, p_prev, dp, dp_prev, norm, dnorm = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
    for diag, inv, ratio in steps:
        norm += p * p
        dnorm += p * dp
        u = (z - diag) * inv
        # dp first, as it reads p before this step
        dp_prev, dp = dp, u * dp + inv * p - ratio * dp_prev
        p_prev, p = p, u * p - ratio * p_prev
    return p, dp, norm, dnorm


def _jacobi_recurrence(alpha: float, n: int) -> list[tuple[float, float, float]]:
    """(alpha_k, 1/beta_{k+1}, beta_k/beta_{k+1}) for k < n: the orthonormal
    recurrence beta_{k+1} p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1} of
    the weight (1-x)^(alpha-1), with the entries of the Jacobi matrix.
    They are written in alpha, not in alpha - 1, so that a small alpha
    keeps its digits."""
    a = alpha - 1.0
    out = []
    beta_prev = 0.0
    for k in range(n):
        m = 2.0 * k + alpha
        diag = (1.0 - alpha) / (1.0 + alpha) if k == 0 else -a * a / ((m - 1.0) * (m + 1.0))
        beta = 2.0 * (k + 1) * (k + alpha) / ((m + 1.0) * math.sqrt(m * (m + 2.0)))
        out.append((diag, 1.0 / beta, beta_prev / beta))
        beta_prev = beta
    return out


def rl_integral_fixed(
    f: Callable[[float], float], alpha: float, a: float, t: float, nodes: int
) -> float:
    """One Gauss-Jacobi pass at a fixed node count (no convergence check).

    With tau = (a+t)/2 + (t-a)x/2 the memory integral becomes
    ((t-a)/2)^alpha / Gamma(alpha) * sum w_i f(tau_i), the kernel being
    exactly the Jacobi weight (1-x)^(alpha-1).

    Raises:
        ValueError: for an order not > 0 (:func:`series.positive_order`),
            then for nodes that is not an integer >= 1.
        GammaRangeError: when Gamma(alpha) is beyond the double range.
        DivergenceError: when the weighted sum, ((t - a)/2)^alpha or the
            value is.
    """
    alpha = positive_order(alpha)
    rg = recip_gamma(alpha)
    if rg == 0.0:
        raise GammaRangeError(
            f"order {alpha!r} divides the memory integral by Gamma({alpha!r}), which is "
            "beyond the double range"
        )
    nodes = check_count(nodes, 1, "nodes")
    x, w = _jacobi_rule(alpha, nodes)
    mid = 0.5 * (a + t)
    half = 0.5 * (t - a)
    try:
        total = math.fsum(wi * f(mid + half * xi) for xi, wi in zip(x, w))
    except OverflowError:  # an intermediate sum overflowed
        total = math.inf
    try:
        scale = half**alpha
    except OverflowError:
        raise DivergenceError(
            f"((t - a)/2)^alpha = {half!r}^{alpha!r} is beyond the double range"
        ) from None
    value = scale * total * rg
    if not math.isfinite(value):
        raise DivergenceError(
            f"the {nodes}-node Gauss-Jacobi sum of order {alpha!r} at t = {t!r} is "
            "beyond the double range"
        )
    return value


def rl_integral_quad(
    f: Callable[[float], float],
    alpha: float,
    a: float,
    t: float,
    *,
    rel_tol: float = DOUBLING_TOL,
) -> float:
    """Memory integral of order alpha > 0 of f over [a, t], to rel_tol.

    From START_NODES, nodes are doubled up to MAX_DOUBLINGS times until
    two successive rules agree to rel_tol relative; analytic integrands
    settle after one or two doublings.

    Raises:
        ValueError: for a not finite, then t not finite and right of a.
        QuadratureError: if doubling never stabilizes (f not analytic on
            the interval, or rel_tol beyond double precision).
        GammaRangeError, DivergenceError: as :func:`rl_integral_fixed`.
    """
    check_right_of_terminal(t, a)
    _check_rel_tol(rel_tol)
    nodes = START_NODES
    prev = rl_integral_fixed(f, alpha, a, t, nodes)
    for _ in range(MAX_DOUBLINGS):
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


def _check_rel_tol(rel_tol: float) -> None:
    if not rel_tol >= 0.0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol!r}")


def _checked_callable(f: TaylorSeries, alpha: float, t: float) -> Callable[[float], float]:
    """Evaluation closure for the n-th derivative of f, vetted on [center, t].

    Truncated data must carry two of the slots k >= n
    (:func:`series.check_slots`), and so many that the dropped tail is
    negligible at the far end of [center, t]: the last two carried terms
    stand in for the tail and must be below TAIL_TOL of the value there.
    """
    n = branch(alpha)
    check_slots(f, alpha, n, f.truncation + 1, f.complete)
    g = f.nth_derivative(n)
    if not g.complete:
        x = t - g.center
        scale = abs(g.evaluate(t)) + 1.0
        try:
            power = x**g.truncation
            power_second = x ** (g.truncation - 1)
        except OverflowError:
            raise DivergenceError(
                f"the tail terms of the order-{n} derivative overflow at t - center = "
                f"{x!r}: (t - center)^{g.truncation} is beyond the double range "
                f"(Taylor truncation {f.truncation})"
            ) from None
        if g.truncation >= len(FACTORIALS) and not (alpha.is_integer() and alpha >= 0):
            # past the table only an integer order's terms divide down to an
            # exact 0.0, as its integer shift does: eval refuses the others too
            raise GammaRangeError(
                f"the tail terms of the order-{n} derivative divide f^({f.truncation}) "
                f"by {g.truncation}!, which is beyond the double range "
                f"(Taylor truncation {f.truncation})"
            )
        last = over_factorial(abs(g.derivs[-1]) * power, g.truncation)
        second = over_factorial(abs(g.derivs[-2]) * power_second * g.truncation, g.truncation)
        if not (last <= TAIL_TOL * scale and second <= TAIL_TOL * scale):
            raise ValueError(
                f"Taylor truncation {g.truncation} is too short for "
                f"{TAIL_TOL:g}-accurate evaluation on [{g.center}, {t}] "
                f"(tail terms {second:.3e}, {last:.3e})"
            )
    return g.evaluate


def caputo_quad(
    f: TaylorSeries,
    order: float,
    t: float,
    *,
    rel_tol: float = DOUBLING_TOL,
) -> float:
    """Caputo value at t by integrating the n-th derivative of f.

    The derivative order n - alpha lies in (0, 1) for non-integer alpha,
    so this is a genuine memory integral; integer orders collapse to the
    exact classical derivative; alpha < 0 is refused, as the Caputo
    product-rule reports refuse it. Every order faces the same vetting of
    the data (:func:`_checked_callable`) and of rel_tol; then the value is
    kept as f's work at t (:meth:`TaylorSeries._memo`), keyed by the order
    and rel_tol, and read back before the vetting, which it has passed.

    Raises:
        ValueError: for alpha < 0, then for t not finite and right of the terminal.
        DivergenceError: when an integer order's derivative at t is beyond
            the double range, and as :func:`rl_integral_quad`.
    """
    alpha = check_order(order)
    if alpha < 0:
        positive_order(alpha, non_integer=True)
    return _memory_value(f, alpha, t, rel_tol)


def _memory_value(f: TaylorSeries, alpha: float, t: float, rel_tol: float) -> float:
    """:func:`caputo_quad` past its order vetting; alpha < 0 integrates (n = 0)."""
    check_right_of_terminal(t, f.center)
    memo, key = f._memo(t), ("caputo_quad", alpha, rel_tol)
    if (value := memo.get(key)) is not None:
        return value
    g = _checked_callable(f, alpha, t)
    _check_rel_tol(rel_tol)
    if alpha.is_integer() and alpha >= 0:
        value = g(t)
        if not math.isfinite(value):
            raise DivergenceError(
                f"the derivative of order {alpha!r} at t = {t!r} is beyond the "
                "double range"
            )
    else:
        value = rl_integral_quad(g, branch(alpha) - alpha, f.center, t, rel_tol=rel_tol)
    memo[key] = value
    return value


def rl_derivative_quad(
    f: TaylorSeries,
    order: float,
    t: float,
    *,
    rel_tol: float = DOUBLING_TOL,
) -> float:
    """RL value at t as Caputo plus the lower-terminal bridge series.

    Differentiating the quadrature n times would be hopeless numerically;
    the bridge identity converts the task into :func:`caputo_quad`'s value
    plus an explicit finite sum, which is empty at alpha < 0.

    Raises:
        DivergenceError: when the sum is beyond the double range, and as
            :func:`caputo_quad`.
    """
    alpha = check_order(order)
    base = _memory_value(f, alpha, t, rel_tol)
    bridge = rl_caputo_bridge(f, alpha).evaluate(t).expect_finite()
    value = base + bridge
    if not math.isfinite(value):
        raise DivergenceError(
            f"the Caputo value {base!r} plus the bridge {bridge!r} of order {alpha!r} "
            f"at t = {t!r} is beyond the double range"
        )
    return value
