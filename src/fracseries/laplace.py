"""Formal Laplace transforms of the fractional operators.

Transforms are built directly in their final closed form (sums of
c * s^(-p), an optional e^(-a*s) prefactor and Upsilon tail factors for
a negative initial instant), so coefficients that cancel algebraically
on paper cancel bitwise here. A transform that does not exist
classically is represented by a singular marker carrying the offending
term, not by an exception: callers decide what to do with it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .series import (
    EXPONENT_MERGE_TOL,
    DivergenceError,
    EvalResult,
    FracPowerSeries,
    Order,
    TaylorSeries,
    as_order,
)
from .operators import frac_differintegral, rl_differintegral
from .special import pochhammer, recip_gamma, upsilon

__all__ = [
    "FreqDiffReport",
    "LaplaceExpr",
    "LaplaceTerm",
    "classify_lower_terminal",
    "frequency_derivative",
    "frequency_differentiation_check",
    "generalized_laplace",
    "initial_value_equivalence",
    "laplace_caputo",
    "laplace_fps",
    "laplace_power",
    "laplace_rl_derivative",
    "laplace_rl_derivative_fps",
    "laplace_rl_integral",
    "laplace_rl_integral_fps",
    "laplace_series",
    "laplace_shifted_series",
]


def _fmt_num(x: float) -> str:
    """Shortest round-trip rendering; integers lose the trailing .0."""
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


@dataclass(frozen=True)
class LaplaceTerm:
    """One term coeff * s^(-power), optionally times Upsilon(upsilon_arg, -a*s)."""

    coeff: float
    power: float
    upsilon_arg: float | None = None


@dataclass(frozen=True)
class LaplaceExpr:
    """A formal transform: e^(-shift*s) * sum of terms, or a singular marker.

    Construction canonicalizes the term list (sorted by power then
    upsilon argument, near-equal powers merged, zero coefficients
    dropped), so structurally equal expressions compare equal.
    """

    shift: float = 0.0
    terms: tuple[LaplaceTerm, ...] = ()
    singular: str | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")
        cleaned = [
            LaplaceTerm(float(t.coeff), float(t.power), t.upsilon_arg)
            for t in self.terms
            if float(t.coeff) != 0.0
        ]
        cleaned.sort(
            key=lambda t: (
                t.power,
                t.upsilon_arg is not None,
                t.upsilon_arg if t.upsilon_arg is not None else 0.0,
            )
        )
        merged: list[LaplaceTerm] = []
        for term in cleaned:
            if merged and _same_slot(merged[-1], term):
                prev = merged[-1]
                merged[-1] = LaplaceTerm(
                    prev.coeff + term.coeff, prev.power, prev.upsilon_arg
                )
            else:
                merged.append(term)
        object.__setattr__(
            self, "terms", tuple(t for t in merged if t.coeff != 0.0)
        )

    @property
    def is_singular(self) -> bool:
        return self.singular is not None

    @property
    def is_zero(self) -> bool:
        return not self.is_singular and not self.terms

    def __add__(self, other: LaplaceExpr) -> LaplaceExpr:
        if self.is_singular or other.is_singular:
            raise ValueError("cannot add singular transforms")
        if self.shift != other.shift and self.terms and other.terms:
            raise ValueError(
                f"shift mismatch: {self.shift!r} vs {other.shift!r}"
            )
        shift = self.shift if self.terms else other.shift
        return LaplaceExpr(shift, self.terms + other.terms)

    def scaled(self, factor: float) -> LaplaceExpr:
        if self.is_singular:
            raise ValueError("cannot scale a singular transform")
        return LaplaceExpr(
            self.shift,
            tuple(
                LaplaceTerm(t.coeff * factor, t.power, t.upsilon_arg)
                for t in self.terms
            ),
        )

    def power_shifted(self, delta: float) -> LaplaceExpr:
        """Multiply by s^(-delta): every power increases by delta."""
        if self.is_singular:
            raise ValueError("cannot shift a singular transform")
        return LaplaceExpr(
            self.shift,
            tuple(
                LaplaceTerm(t.coeff, t.power + delta, t.upsilon_arg)
                for t in self.terms
            ),
        )

    def evaluate(self, s: float) -> float:
        """Numeric value at real s > 0; refused for singular expressions."""
        if self.is_singular:
            raise ValueError(f"singular transform has no value: {self.singular}")
        if not s > 0:
            raise ValueError(f"s must be > 0, got {s!r}")
        total = 0.0
        for t in self.terms:
            v = t.coeff * s ** (-t.power)
            if t.upsilon_arg is not None:
                v *= upsilon(t.upsilon_arg, -self.shift * s)
            total += v
        return total * math.exp(-self.shift * s)

    def render(self) -> str:
        """Stable textual form: c * s^(-p) [* e^(-a*s)] [* Upsilon(p', -a*s)]."""
        if self.is_singular:
            return f"SINGULAR({self.singular})"
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            piece = f"{_fmt_num(t.coeff)} * s^(-{_fmt_num(t.power)})"
            if self.shift != 0.0:
                piece += f" * e^(-({_fmt_num(self.shift)})*s)"
            if t.upsilon_arg is not None:
                piece += (
                    f" * Upsilon({_fmt_num(t.upsilon_arg)}, "
                    f"-({_fmt_num(self.shift)})*s)"
                )
            parts.append(piece)
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        if self.is_singular:
            return {"shift": self.shift, "terms": [], "singular": self.singular}
        terms = []
        for t in self.terms:
            item = {"coeff": t.coeff, "power": t.power}
            if t.upsilon_arg is not None:
                item["upsilon_arg"] = t.upsilon_arg
            terms.append(item)
        return {"shift": self.shift, "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> LaplaceExpr:
        return cls(
            shift=float(data.get("shift", 0.0)),
            terms=tuple(
                LaplaceTerm(
                    float(t["coeff"]), float(t["power"]), t.get("upsilon_arg")
                )
                for t in data.get("terms", [])
            ),
            singular=data.get("singular"),
        )

    @classmethod
    def from_json(cls, text: str) -> LaplaceExpr:
        return cls.from_json_dict(json.loads(text))


def _same_slot(a: LaplaceTerm, b: LaplaceTerm) -> bool:
    if abs(a.power - b.power) > EXPONENT_MERGE_TOL:
        return False
    if (a.upsilon_arg is None) != (b.upsilon_arg is None):
        return False
    if a.upsilon_arg is None:
        return True
    return abs(a.upsilon_arg - b.upsilon_arg) <= EXPONENT_MERGE_TOL


def _require_center_zero(f: TaylorSeries, what: str) -> None:
    if f.center != 0.0:
        raise ValueError(f"{what} requires Taylor data at 0, center={f.center!r}")


# ------------------------------------------------------------------
# Elementary transforms
# ------------------------------------------------------------------


def laplace_power(mu: float, a: float = 0.0) -> LaplaceExpr:
    """Transform of (t - a)^mu for a <= 0.

    mu <= -1 has no classical transform (singular marker); a > 0 puts
    the branch point inside the integration range and is rejected — the
    generalized transform handles that regime.
    """
    mu = float(mu)
    a = float(a)
    if a > 0:
        raise ValueError(
            f"a={a} > 0 is outside the standard transform's domain; "
            "use generalized_laplace"
        )
    if mu <= -1.0:
        return LaplaceExpr(singular=f"mu={_fmt_num(mu)}")
    if a == 0.0:
        return LaplaceExpr(0.0, (LaplaceTerm(math.gamma(mu + 1.0), mu + 1.0),))
    return LaplaceExpr(a, (LaplaceTerm(1.0, mu + 1.0, upsilon_arg=mu + 1.0),))


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
    """
    radius = f.radius_hint
    if not f.complete and radius is not None and radius < math.inf:
        raise DivergenceError(
            f"truncated Taylor data with convergence radius {radius!r} has a "
            "divergent termwise transform; it needs data that converges on "
            "the whole half line"
        )
    tail = shift < 0.0
    terms = []
    for k in range(k0, f.truncation + 1):
        p = k + 1.0 - beta
        if p <= 0.0 and f.derivs[k] != 0.0:
            return LaplaceExpr(singular=f"k={k}")
        if tail:
            terms.append(LaplaceTerm(f.derivs[k] * recip_gamma(p), p, upsilon_arg=p))
        else:
            terms.append(LaplaceTerm(f.derivs[k], p))
    return LaplaceExpr(shift if tail else 0.0, tuple(terms))


def _positive_order(order: Order | float) -> Order:
    ord_ = as_order(order)
    if not ord_.alpha > 0:
        raise ValueError(f"alpha must be > 0, got {ord_.alpha}")
    return ord_


def laplace_series(f: TaylorSeries) -> LaplaceExpr:
    """Termwise transform of Taylor data at 0: sum f^(k)(0) s^-(k+1)."""
    _require_center_zero(f, "laplace_series")
    return _taylor_transform(f, 0.0, 0)


def laplace_rl_integral(f: TaylorSeries, alpha: float) -> LaplaceExpr:
    """Transform of the RL integral: s^(-alpha) F(s), termwise."""
    alpha = _positive_order(alpha).alpha
    _require_center_zero(f, "laplace_rl_integral")
    return _taylor_transform(f, -alpha, 0)


def laplace_caputo(f: TaylorSeries, order: Order | float) -> LaplaceExpr:
    """Transform of the Caputo derivative with initial values materialized.

    s^alpha F(s) minus the n subtraction terms s^(alpha-k-1) f^(k)(0)
    removes exactly the slots k < n, which is what makes the Caputo
    transform regular where the RL one is singular.
    """
    ord_ = _positive_order(order)
    _require_center_zero(f, "laplace_caputo")
    return _taylor_transform(f, ord_.alpha, ord_.n)


def laplace_rl_derivative(f: TaylorSeries, order: Order | float) -> LaplaceExpr:
    """Transform of the RL derivative, or a singular marker.

    The time-domain series has terms f^(k)(0) t^(k-alpha)/Gamma(k+1-alpha);
    those with k - alpha < -1 (that is, k <= n-2) are not classically
    transformable, so any nonzero f^(k)(0) there marks the whole
    transform singular, naming the least offending k. Otherwise the
    result is s^alpha F(s). Integer orders take the classical route,
    which drops the slots k < n.
    """
    ord_ = _positive_order(order)
    _require_center_zero(f, "laplace_rl_derivative")
    return _taylor_transform(f, ord_.alpha, ord_.n if ord_.is_integer else 0)


def _power_sum_transform(
    series: FracPowerSeries, delta: float, name: str, derivative: bool = False
) -> LaplaceExpr:
    """sum c Gamma(e+1) s^-(e+delta+1) over the terms c t^e.

    This is the transform of the order -delta RL differintegral: the
    image c Gamma(e+1)/Gamma(e+delta+1) t^(e+delta) is never formed, so
    the Gamma(e+delta+1) pair cancels algebraically. On the derivative
    route only its pole-kill is evaluated, and an exponent e <= -1 is an
    error rather than a singular transform.
    """
    if series.center != 0.0:
        raise ValueError(f"{name} requires center 0, got {series.center!r}")
    terms = []
    for c, e in series.terms:
        if e <= -1.0:
            if derivative:
                raise ValueError(f"term exponent {e} <= -1 has no differintegral")
            return LaplaceExpr(singular=_offender(e))
        p = e + delta + 1.0
        if derivative and recip_gamma(p) == 0.0:
            continue
        if e + delta <= -1.0:
            return LaplaceExpr(singular=_offender(e))
        terms.append(LaplaceTerm(c * math.gamma(e + 1.0), p))
    return LaplaceExpr(0.0, tuple(terms))


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
    """
    return _power_sum_transform(
        series, -float(alpha), "laplace_rl_derivative_fps", derivative=True
    )


def laplace_rl_integral_fps(series: FracPowerSeries, alpha: float) -> LaplaceExpr:
    """Transform of the RL integral of a real-exponent sum.

    c t^mu maps to c Gamma(mu+1) s^-(mu+alpha+1).
    """
    alpha = _positive_order(alpha).alpha
    return _power_sum_transform(series, alpha, "laplace_rl_integral_fps")


# ------------------------------------------------------------------
# Frequency differentiation
# ------------------------------------------------------------------


def frequency_derivative(expr: LaplaceExpr, m: int) -> LaplaceExpr:
    """m-th s-derivative: c s^(-p) maps to (-1)^m c poch(p, m) s^-(p+m).

    Only plain zero-shift expressions with positive powers qualify
    (differentiating through Upsilon factors is out of scope).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if expr.is_singular:
        raise ValueError("cannot differentiate a singular transform")
    if expr.shift != 0.0 or any(t.upsilon_arg is not None for t in expr.terms):
        raise ValueError(
            "frequency differentiation is only supported for plain "
            "zero-instant expressions"
        )
    if any(t.power <= 0 for t in expr.terms):
        raise ValueError("all powers must be positive")
    sign = -1.0 if m % 2 else 1.0
    return LaplaceExpr(
        0.0,
        tuple(
            LaplaceTerm(sign * t.coeff * pochhammer(t.power, m), t.power + m)
            for t in expr.terms
        ),
    )


@dataclass(frozen=True)
class FreqDiffReport:
    """Both sides of the weighted-integral identity, as time-domain series.

    left  = termwise inverse of s^(-alpha) F^(m)(s)
    right = RL integral of order alpha applied to (-t)^m f(t)
    """

    left: FracPowerSeries
    right: FracPowerSeries
    max_discrepancy: float


def frequency_differentiation_check(
    f: TaylorSeries, alpha: float, m: int
) -> FreqDiffReport:
    """Verify that s^(-alpha) F^(m)(s) inverts to I^alpha{(-t)^m f(t)}.

    Both sides are built as fractional power series at 0 and compared
    coefficient by coefficient on the merged exponent grid.
    """
    alpha = _positive_order(alpha).alpha
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    _require_center_zero(f, "frequency_differentiation_check")

    weighted = frequency_derivative(laplace_series(f), m).power_shifted(alpha)
    left = FracPowerSeries(
        0.0,
        tuple(
            (t.coeff * recip_gamma(t.power), t.power - 1.0)
            for t in weighted.terms
        ),
        complete=f.complete,
    )

    sign = -1.0 if m % 2 else 1.0
    fact = 1.0
    moment_terms = []
    for k, d in enumerate(f.derivs):
        if k > 0:
            fact *= k
        moment_terms.append((sign * d / fact, float(k + m)))
    right = frac_differintegral(
        FracPowerSeries(0.0, tuple(moment_terms), complete=f.complete), -alpha
    )

    disc = 0.0
    li, ri = 0, 0
    lt, rt = left.terms, right.terms
    while li < len(lt) or ri < len(rt):
        if ri >= len(rt):
            disc = max(disc, abs(lt[li][0])); li += 1
        elif li >= len(lt):
            disc = max(disc, abs(rt[ri][0])); ri += 1
        elif abs(lt[li][1] - rt[ri][1]) <= 1.0e-9:
            disc = max(disc, abs(lt[li][0] - rt[ri][0])); li += 1; ri += 1
        elif lt[li][1] < rt[ri][1]:
            disc = max(disc, abs(lt[li][0])); li += 1
        else:
            disc = max(disc, abs(rt[ri][0])); ri += 1
    return FreqDiffReport(left=left, right=right, max_discrepancy=disc)


# ------------------------------------------------------------------
# Nonzero initial instant
# ------------------------------------------------------------------


def laplace_shifted_series(
    f: TaylorSeries, kind: str = "plain", order: Order | float | None = None
) -> LaplaceExpr:
    """Standard transform of Taylor data at a negative initial instant.

    Expanding f about a <= 0 and transforming (t-a)^mu termwise yields
    Upsilon-bearing terms with prefactor e^(-a*s):

    - "plain":        sum f^(k)(a)/Gamma(k+1)       s^-(k+1)     Upsilon(k+1, -as)
    - "rl_integral":  sum f^(k)(a)/Gamma(k+1+alpha) s^-(k+1+alpha) Upsilon(...)
    - "caputo":       sum over k >= n with powers k+1-alpha.

    At a = 0 the Upsilon factors reduce to plain gammas and the zero-
    instant constructions are returned instead.
    """
    a = f.center
    if a > 0:
        raise ValueError(
            f"standard transform needs center <= 0, got {a!r}; "
            "use generalized_laplace"
        )
    beta, k0 = _kind_slots(kind, order)
    if kind == "caputo" and beta.is_integer():
        raise ValueError("caputo kind needs a non-integer order")
    return _taylor_transform(f, beta, k0, a)


def generalized_laplace(
    f: TaylorSeries, kind: str = "plain", order: Order | float | None = None
) -> LaplaceExpr:
    """Transform with kernel e^(-s(t-a)) integrated from the terminal a.

    This transform sees only the shifted variable, so the results match
    the zero-instant formulas with f^(k)(a) in place of f^(k)(0) and no
    Upsilon factors, for any a.
    """
    return _taylor_transform(f, *_kind_slots(kind, order))


def _kind_slots(kind: str, order: Order | float | None) -> tuple[float, int]:
    """(beta, k0) of the Taylor transform behind a named kind."""
    if kind == "plain":
        return 0.0, 0
    if kind not in ("rl_integral", "caputo"):
        raise ValueError(f"unknown kind {kind!r} (expected plain, rl_integral, caputo)")
    if order is None:
        raise ValueError(f"kind={kind!r} needs an order")
    ord_ = _positive_order(order)
    if kind == "rl_integral":
        return -ord_.alpha, 0
    return ord_.alpha, ord_.n


# ------------------------------------------------------------------
# Lower-terminal behaviour
# ------------------------------------------------------------------


def classify_lower_terminal(
    f: TaylorSeries, order: Order | float
) -> EvalResult:
    """Limit of the RL differintegral as t approaches the terminal.

    Decided by the leading surviving term: negative exponent blows up
    with the sign of its coefficient f^(k0)(a)/Gamma(k0+1-alpha), zero
    exponent gives that coefficient, positive exponent gives 0.
    """
    series = rl_differintegral(f, order)
    return series.evaluate(series.center)


def initial_value_equivalence(
    f: TaylorSeries, order: Order | float
) -> tuple[bool, bool]:
    """Two readings of "the initial data vanish", evaluated independently.

    Left: the RL differintegrals of orders alpha, alpha-1, ..., alpha-n
    all tend to 0 at the lower terminal (the derivative's own limit is
    included; for Taylor data this is exactly what makes the two
    conditions match). Right: f^(k)(a) = 0 for k = 0..n-1. Returned as
    (left, right); they agree for every Taylor-representable f.
    """
    ord_ = as_order(order)
    if ord_.is_integer or ord_.alpha <= 0:
        raise ValueError(
            f"needs a positive non-integer order, got {ord_.alpha}"
        )
    left = True
    for k in range(-1, ord_.n):
        outcome = classify_lower_terminal(f, ord_.alpha - 1.0 - k)
        if not (outcome.is_finite and outcome.value == 0.0):
            left = False
            break
    right = all(
        f.derivs[k] == 0.0 for k in range(min(ord_.n, f.truncation + 1))
    )
    return left, right
