"""Formal Laplace transforms of the fractional operators.

Transforms are built directly in their final closed form, so
coefficients that cancel algebraically on paper cancel bitwise here. A
term is (coeff, power), read as coeff * s^(-power); at a negative
initial instant a every term also carries e^(-a*s) Upsilon(power, -a*s),
the transform of (t - a)^(power - 1) from 0. A transform that does not exist
classically is represented by a singular marker carrying the offending
term, not by an exception: callers decide what to do with it.
"""

from __future__ import annotations

import math

from .series import (
    DivergenceError,
    EvalResult,
    FracPowerSeries,
    TaylorSeries,
    _Frozen,
    _set,
    branch,
    canonical_terms,
    check_order,
    check_slots,
    check_tail,
    positive_order,
)
from .operators import rl_differintegral
from .special import (
    GammaRangeError, gamma, is_gamma_pole, recip_gamma, upsilon_row
)

__all__ = [
    "LaplaceExpr",
    "classify_lower_terminal",
    "generalized_laplace",
    "laplace_caputo",
    "laplace_fps",
    "laplace_rl_derivative",
    "laplace_rl_derivative_fps",
    "laplace_rl_integral",
    "laplace_rl_integral_fps",
    "laplace_series",
    "laplace_shifted_series",
]


def _fmt_num(x: float) -> str:
    """Shortest round-trip rendering; integers lose the trailing .0."""
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


class LaplaceExpr(_Frozen):
    """A formal transform: a sum of terms, or a singular marker.

    At ``shift == 0`` a term is coeff * s^(-power). A ``shift = a < 0``
    multiplies every term by e^(-a*s) Upsilon(power, -a*s); a positive
    shift is refused. Construction canonicalizes the ``(coeff, power)``
    pairs once (:func:`series.canonical_terms`), so structurally equal
    expressions compare equal. A transform of truncated data has
    ``complete=False``: its values face the tail test, and it compares and
    hashes as the same expression of complete data.
    """

    _fields = ("shift", "terms", "singular", "complete")

    def __init__(self, shift: float = 0.0, terms: tuple[tuple[float, float], ...] = (),
                 singular: str | None = None, complete: bool = True) -> None:
        _set(self, "shift", shift)
        _set(self, "terms", terms)
        _set(self, "singular", singular)
        _set(self, "complete", complete)
        self.__post_init__()

    def _key(self) -> tuple:
        return self.shift, self.terms, self.singular

    def __post_init__(self) -> None:
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")
        if self.shift > 0:
            raise ValueError(
                f"shift {self.shift!r} > 0 has no standard transform; "
                "use generalized_laplace"
            )
        terms = canonical_terms((float(c), float(p)) for c, p in self.terms)
        object.__setattr__(self, "terms", terms)

    @property
    def is_singular(self) -> bool:
        return self.singular is not None

    def evaluate(self, s: float) -> float:
        """Numeric value at real s > 0; refused for singular expressions.

        Raises:
            DivergenceError: beyond the double range, or when the terms of
                truncated data fail the tail test (:func:`series.check_tail`).
        """
        if self.is_singular:
            raise ValueError(f"singular transform has no value: {self.singular}")
        if not s > 0:
            raise ValueError(f"s must be > 0, got {s!r}")
        # a shifted term carries e^q Upsilon(p, q), q = -shift*s, which stays in
        # range where e^q and Upsilon(p, q) alone do not; the terms share one row
        # of these factors, which raises a refusal when the loop reaches its term
        if self.shift:
            factors = upsilon_row([p for _, p in self.terms], -self.shift * s, True)
        total = 0.0
        prev = last = None
        try:
            for c, p in self.terms:
                v = c * s ** (-p)
                if self.shift:
                    v *= next(factors)
                total += v
                prev, last = last, v
        except (OverflowError, GammaRangeError):
            total = math.inf
        if not math.isfinite(total):
            raise DivergenceError(f"the transform leaves the double range at s = {s!r}")
        if prev is not None:  # the tail test reads the last two terms
            check_tail([prev, last], total, self.complete)
        return total

    def render(self) -> str:
        """Stable textual form: c * s^(-p) [* e^(-a*s) * Upsilon(p, -a*s)]."""
        if self.is_singular:
            return f"SINGULAR({self.singular})"
        if not self.terms:
            return "0"
        pieces = [(_fmt_num(c), _fmt_num(p)) for c, p in self.terms]
        if not self.shift:
            return " + ".join([f"{c} * s^(-{p})" for c, p in pieces])
        a = _fmt_num(float(self.shift))  # the terms are floats; the shift is as given
        factor, arg = f" * e^(-({a})*s) * Upsilon(", f", -({a})*s)"
        return " + ".join([f"{c} * s^(-{p}){factor}{p}{arg}" for c, p in pieces])

    def to_json_dict(self) -> dict:
        """The document that ``fracseries laplace --format json`` writes."""
        if self.is_singular:
            return {"shift": self.shift, "terms": [], "singular": self.singular}
        terms = []
        for c, p in self.terms:
            item = {"coeff": c, "power": p}
            if self.shift:
                item["upsilon_arg"] = p
            terms.append(item)
        out = {"shift": self.shift, "terms": terms}
        if not self.complete:
            out["complete"] = False
        return out


def _require_center_zero(f: TaylorSeries | FracPowerSeries, what: str) -> None:
    if f.center != 0.0:
        raise ValueError(f"{what} requires center 0, got {f.center!r}")


# ------------------------------------------------------------------
# Elementary transforms
# ------------------------------------------------------------------


def _taylor_transform(
    f: TaylorSeries, beta: float, k0: int, shift: float = 0.0
) -> LaplaceExpr:
    """The termwise transform sum_{k >= k0} f^(k) s^-(k+1-beta).

    This is the transform of the order-beta RL differintegral of the
    Taylor data with the slots k < k0 removed (beta = 0 is F(s) itself).
    A slot with power p = k+1-beta <= 0 holds t^(p-1), which has no
    classical transform: if its datum is nonzero the whole transform is
    a singular marker naming the least such k. With shift = a < 0 each
    power p is the transform of (t-a)^(p-1) from 0:
    f^(k)(a)/Gamma(p) s^-p Upsilon(p, -a*s), times e^(-a*s).

    Raises:
        DivergenceError: for truncated data with a finite convergence
            radius, whose termwise transform is divergent.
        ValueError: for truncated data that carries fewer than two of
            the slots k >= k0 (:func:`series.check_slots`).
    """
    radius = f.radius_hint
    if not f.complete and radius < math.inf:
        raise DivergenceError(
            f"truncated Taylor data with convergence radius {radius!r} has a "
            "divergent termwise transform; it needs data that converges on "
            "the whole half line"
        )
    check_slots(f, beta, k0, f.truncation + 1, f.complete)
    tail = shift < 0.0
    terms = []
    for k in range(k0, f.truncation + 1):
        p = k + 1.0 - beta
        if p <= 0.0 and f.derivs[k] != 0.0:
            return LaplaceExpr(singular=f"k={k}")
        terms.append((f.derivs[k] * recip_gamma(p) if tail else f.derivs[k], p))
    return LaplaceExpr(shift if tail else 0.0, tuple(terms), complete=f.complete)


def laplace_series(f: TaylorSeries) -> LaplaceExpr:
    """Termwise transform of Taylor data at 0: sum f^(k)(0) s^-(k+1)."""
    _require_center_zero(f, "laplace_series")
    return _taylor_transform(f, *_kind_slots("plain", None))


def laplace_rl_integral(f: TaylorSeries, alpha: float) -> LaplaceExpr:
    """Transform of the RL integral: s^(-alpha) F(s), termwise."""
    slots = _kind_slots("rl_integral", alpha)
    _require_center_zero(f, "laplace_rl_integral")
    return _taylor_transform(f, *slots)


def laplace_caputo(f: TaylorSeries, order: float) -> LaplaceExpr:
    """Transform of the Caputo derivative with initial values materialized.

    s^alpha F(s) minus the n subtraction terms s^(alpha-k-1) f^(k)(0)
    removes exactly the slots k < n, which is what makes the Caputo
    transform regular where the RL one is singular.
    """
    slots = _kind_slots("caputo", order)
    _require_center_zero(f, "laplace_caputo")
    return _taylor_transform(f, *slots)


def laplace_rl_derivative(f: TaylorSeries, order: float) -> LaplaceExpr:
    """Transform of the RL derivative, or a singular marker.

    The time-domain series has terms f^(k)(0) t^(k-alpha)/Gamma(k+1-alpha);
    those with k - alpha < -1 (that is, k <= n-2) are not classically
    transformable, so any nonzero f^(k)(0) there marks the whole
    transform singular, naming the least offending k. Otherwise the
    result is s^alpha F(s). Integer orders take the classical route,
    which drops the slots k < n.
    """
    alpha = positive_order(order)
    _require_center_zero(f, "laplace_rl_derivative")
    return _taylor_transform(f, alpha, branch(alpha) if alpha.is_integer() else 0)


def _power_sum_transform(series: FracPowerSeries, delta: float, name: str) -> LaplaceExpr:
    """sum c Gamma(e+1) s^-(e+delta+1) over the terms c t^e.

    This is the transform of the order -delta RL differintegral: the
    image c Gamma(e+1)/Gamma(e+delta+1) t^(e+delta) is never formed, so
    the Gamma(e+delta+1) pair cancels algebraically, and an image is 0 exactly
    where its denominator sits on a pole (:func:`special.is_gamma_pole`), never
    because 1/Gamma underflowed. An exponent e <= -1 makes the plain
    transform (delta = 0) singular and leaves the operator images
    without a meaning.
    """
    _require_center_zero(series, name)
    terms = []
    for c, e in series.terms:
        if e <= -1.0:
            if delta:
                raise ValueError(f"term exponent {e} <= -1 has no differintegral")
            return LaplaceExpr(singular=_offender(e))
        p = e + delta + 1.0
        if is_gamma_pole(p):
            continue
        if e + delta <= -1.0:
            return LaplaceExpr(singular=_offender(e))
        terms.append((c * gamma(e + 1.0), p))
    return LaplaceExpr(0.0, tuple(terms), complete=series.complete)


def laplace_fps(series: FracPowerSeries) -> LaplaceExpr:
    """Termwise transform of a fractional power series centered at 0."""
    return _power_sum_transform(series, 0.0, "laplace_fps")


def _offender(e: float) -> str:
    if float(e).is_integer():
        return f"k={int(e)}"
    return f"mu={_fmt_num(e)}"


def laplace_rl_derivative_fps(
    series: FracPowerSeries, alpha: float
) -> LaplaceExpr:
    """Transform of the RL differintegral of a real-exponent sum.

    A term c t^mu maps to c Gamma(mu+1) s^-(mu-alpha+1). Terms whose
    image dies on a gamma pole are skipped; terms landing at exponent
    <= -1 make the transform singular.

    Raises:
        ValueError: for an order that is not finite, and for a term
            exponent mu <= -1 at alpha != 0.
        GammaRangeError: when Gamma(mu+1) is beyond the double range.
    """
    return _power_sum_transform(series, -check_order(alpha), "laplace_rl_derivative_fps")


def laplace_rl_integral_fps(series: FracPowerSeries, alpha: float) -> LaplaceExpr:
    """Transform of the RL integral of a real-exponent sum.

    c t^mu maps to c Gamma(mu+1) s^-(mu+alpha+1).

    Raises:
        ValueError: for a term exponent mu <= -1, whose RL integral does
            not exist.
        GammaRangeError: when Gamma(mu+1) is beyond the double range.
    """
    alpha = positive_order(alpha)
    return _power_sum_transform(series, alpha, "laplace_rl_integral_fps")


# ------------------------------------------------------------------
# Nonzero initial instant
# ------------------------------------------------------------------


def laplace_shifted_series(
    f: TaylorSeries, kind: str = "plain", order: float | None = None
) -> LaplaceExpr:
    """Standard transform of Taylor data at a negative initial instant.

    Expanding f about a <= 0 and transforming (t-a)^mu termwise yields
    Upsilon-bearing terms with prefactor e^(-a*s):

    - "plain":        sum f^(k)(a)/Gamma(k+1)       s^-(k+1)     Upsilon(k+1, -as)
    - "rl_integral":  sum f^(k)(a)/Gamma(k+1+alpha) s^-(k+1+alpha) Upsilon(...)
    - "caputo":       sum over k >= n with powers k+1-alpha; an integer
                      alpha gives the classical derivative.

    At a = 0 the Upsilon factors reduce to plain gammas and the zero-
    instant constructions are returned instead.
    """
    a = f.center
    if a > 0:
        raise ValueError(
            f"standard transform needs center <= 0, got {a!r}; "
            "use generalized_laplace"
        )
    return _taylor_transform(f, *_kind_slots(kind, order), a)


def generalized_laplace(
    f: TaylorSeries, kind: str = "plain", order: float | None = None
) -> LaplaceExpr:
    """Transform with kernel e^(-s(t-a)) integrated from the terminal a.

    This transform sees only the shifted variable, so the results match
    the zero-instant formulas with f^(k)(a) in place of f^(k)(0) and no
    Upsilon factors, for any a.
    """
    return _taylor_transform(f, *_kind_slots(kind, order))


def _kind_slots(kind: str, order: float | None) -> tuple[float, int]:
    """(beta, k0) of every Taylor transform but the RL derivative's, by kind."""
    if kind == "plain":
        return 0.0, 0
    if kind not in ("rl_integral", "caputo"):
        raise ValueError(f"unknown kind {kind!r} (expected plain, rl_integral, caputo)")
    if order is None:
        raise ValueError(f"kind={kind!r} needs an order")
    alpha = positive_order(order)
    if kind == "rl_integral":
        return -alpha, 0
    return alpha, branch(alpha)


# ------------------------------------------------------------------
# Lower-terminal behaviour
# ------------------------------------------------------------------


def classify_lower_terminal(
    f: TaylorSeries, order: float
) -> EvalResult:
    """Limit of the RL differintegral as t approaches the terminal.

    Decided by the leading surviving term: negative exponent blows up
    with the sign of its coefficient f^(k0)(a)/Gamma(k0+1-alpha), zero
    exponent gives that coefficient, positive exponent gives 0.
    """
    series = rl_differintegral(f, order)
    return series.evaluate(series.center)
