"""Value types for the series engine.

Analytic functions are carried around as Taylor data (raw derivative
values ``f^(k)(a)``, not divided by ``k!``), and the fractional operators
produce formal sums of real-exponent powers of ``(t - a)``. Evaluation of
such a sum returns an :class:`EvalResult` so that the blow-up at the
lower terminal is a value, not an exception.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from itertools import accumulate

__all__ = [
    "DivergenceError",
    "EvalResult",
    "FracPowerSeries",
    "Order",
    "ResultKind",
    "TaylorSeries",
    "eval_frac_series",
    "series_from_catalog",
    "taylor_arith",
]

#: Exponents closer than this are considered equal when merging terms.
EXPONENT_MERGE_TOL = 1.0e-12

#: Relative tail threshold for accepting a truncated-series evaluation.
TAIL_TOL = 1.0e-12

#: Default truncation order for catalog series.
DEFAULT_TRUNCATION = 64


class DivergenceError(ArithmeticError):
    """Raised when a series sum fails the tail test or leaves the double range."""


class ResultKind(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    SINGULAR = "singular"


@dataclass(frozen=True)
class EvalResult:
    """Outcome of evaluating a series or transform.

    Exactly one of the payload fields is meaningful: *value* for
    ``FINITE``, *sign* for ``INFINITE``, *reason* for ``SINGULAR``.
    """

    kind: ResultKind
    value: float = 0.0
    sign: int = 0
    reason: str = ""

    @classmethod
    def finite(cls, value: float) -> EvalResult:
        if not math.isfinite(value):
            raise ValueError(f"finite result requires a finite value, got {value!r}")
        return cls(ResultKind.FINITE, value=float(value))

    @classmethod
    def infinite(cls, sign: int) -> EvalResult:
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        return cls(ResultKind.INFINITE, sign=sign)

    @classmethod
    def singular(cls, reason: str) -> EvalResult:
        return cls(ResultKind.SINGULAR, reason=reason)

    @property
    def is_finite(self) -> bool:
        return self.kind is ResultKind.FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind is ResultKind.INFINITE

    @property
    def is_singular(self) -> bool:
        return self.kind is ResultKind.SINGULAR

    def expect_finite(self) -> float:
        """Return the finite value or raise.

        Raises:
            ValueError: if the result is not finite.
        """
        if not self.is_finite:
            raise ValueError(f"expected a finite result, got {self}")
        return self.value

    def __str__(self) -> str:
        if self.is_finite:
            return f"Finite({self.value!r})"
        if self.is_infinite:
            return "Infinite(+1)" if self.sign > 0 else "Infinite(-1)"
        return f"Singular({self.reason})"


@dataclass(frozen=True)
class Order:
    """A differintegration order with its branch integer.

    For non-integer ``alpha > 0`` the branch satisfies
    ``n - 1 < alpha < n``. Integer ``alpha >= 0`` keeps ``n = alpha``
    (the classical branch). ``alpha <= 0`` marks the integral branch,
    where *n* is unused and stored as 0.
    """

    alpha: float
    n: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValueError(f"order must be finite, got {self.alpha!r}")

    @classmethod
    def from_alpha(cls, alpha: float) -> Order:
        alpha = float(alpha)
        if not math.isfinite(alpha):
            raise ValueError(f"order must be finite, got {alpha!r}")
        if alpha.is_integer():
            n = int(alpha) if alpha >= 0 else 0
        else:
            n = max(math.ceil(alpha), 0)
        return cls(alpha=alpha, n=n)

    @property
    def is_integer(self) -> bool:
        return float(self.alpha).is_integer()


def as_order(order: Order | float) -> Order:
    """Coerce a bare float into an :class:`Order`."""
    if isinstance(order, Order):
        return order
    return Order.from_alpha(order)


@dataclass(frozen=True)
class TaylorSeries:
    """An analytic function given by derivative values at a center.

    ``derivs[k]`` holds the raw ``f^(k)(center)``. With ``complete=True``
    the data fully determines the function (a polynomial of degree
    ``< len(derivs)``); otherwise it is a truncation of an infinite
    expansion and evaluations are subject to the tail test.
    """

    center: float
    derivs: tuple[float, ...]
    radius_hint: float | None = None
    complete: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "derivs", tuple(float(d) for d in self.derivs))
        if len(self.derivs) == 0:
            raise ValueError("derivs must contain at least f(center)")
        if not all(math.isfinite(d) for d in self.derivs):
            raise ValueError("derivative values must be finite")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")
        if self.radius_hint is not None and not self.radius_hint > 0:
            raise ValueError(f"radius_hint must be positive, got {self.radius_hint!r}")

    @property
    def truncation(self) -> int:
        """Highest derivative index N carried by this data."""
        return len(self.derivs) - 1

    def degree(self) -> int | None:
        """Index of the last nonzero derivative, or None for the zero function."""
        for k in range(len(self.derivs) - 1, -1, -1):
            if self.derivs[k] != 0.0:
                return k
        return None

    def evaluate(self, t: float) -> float:
        """Horner evaluation of the (truncated) Taylor polynomial at *t*."""
        x = t - self.center
        acc = 0.0
        for c in reversed(self._coeffs()):
            acc = acc * x + c
        return acc

    def _coeffs(self) -> list[float]:
        out = []
        fact = 1.0
        for k, d in enumerate(self.derivs):
            if k > 0:
                fact *= k
            out.append(d / fact)
        return out

    def nth_derivative(self, n: int) -> TaylorSeries:
        """Taylor data of the n-th derivative (a shift of the value list)."""
        if n < 0:
            raise ValueError(f"derivative order must be >= 0, got {n}")
        derivs = self.derivs[n:] if n <= self.truncation else (0.0,)
        return TaylorSeries(self.center, derivs, self.radius_hint, self.complete)

    def recentered(self, new_center: float) -> TaylorSeries:
        """Re-expand about *new_center* (exact for complete data).

        For truncated data the result is the truncated re-expansion; its
        high-order values are only as good as the original truncation.
        """
        h = new_center - self.center
        n = len(self.derivs)
        derivs = []
        for j in range(n):
            acc = 0.0
            power = 1.0
            fact = 1.0
            for i, k in enumerate(range(j, n)):
                if i > 0:
                    power *= h
                    fact *= i
                acc += self.derivs[k] * power / fact
            derivs.append(acc)
        return TaylorSeries(new_center, tuple(derivs), self.radius_hint, self.complete)

    def __add__(self, other: TaylorSeries) -> TaylorSeries:
        return taylor_arith(self, other, "add")

    def __mul__(self, other: TaylorSeries) -> TaylorSeries:
        return taylor_arith(self, other, "mul")

    def to_json_dict(self) -> dict:
        out: dict = {"center": self.center, "derivs": list(self.derivs)}
        if self.radius_hint is not None:
            out["radius_hint"] = self.radius_hint
        if not self.complete:
            out["complete"] = False
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> TaylorSeries:
        return cls(
            center=float(data["center"]),
            derivs=tuple(float(d) for d in data["derivs"]),
            radius_hint=data.get("radius_hint"),
            complete=bool(data.get("complete", True)),
        )

    @classmethod
    def from_json(cls, text: str) -> TaylorSeries:
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class FracPowerSeries:
    """A formal sum sum_k c_k (t - center)^{e_k} with real exponents.

    Construction canonicalizes: terms sorted by exponent, exponents
    within ``1e-12`` merged, exact-zero coefficients dropped. Any
    permutation of the same term multiset builds the identical tuple.
    """

    center: float
    terms: tuple[tuple[float, float], ...] = field(default=())
    radius_hint: float | None = None
    complete: bool = True

    def __post_init__(self) -> None:
        cleaned = [
            (float(c), float(e))
            for (c, e) in self.terms
            if float(c) != 0.0
        ]
        for c, e in cleaned:
            if not (math.isfinite(c) and math.isfinite(e)):
                raise ValueError(f"term ({c!r}, {e!r}) is not finite")
        cleaned.sort(key=lambda ce: ce[1])
        merged: list[tuple[float, float]] = []
        for c, e in cleaned:
            if merged and e - merged[-1][1] <= EXPONENT_MERGE_TOL:
                prev_c, prev_e = merged[-1]
                merged[-1] = (prev_c + c, prev_e)
            else:
                merged.append((c, e))
        object.__setattr__(
            self, "terms", tuple((c, e) for (c, e) in merged if c != 0.0)
        )
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> tuple[float, float] | None:
        """The (coeff, exponent) pair of least exponent, or None."""
        return self.terms[0] if self.terms else None

    def evaluate(self, t: float) -> EvalResult:
        return eval_frac_series(self, t)

    def scaled(self, factor: float) -> FracPowerSeries:
        return FracPowerSeries(
            self.center,
            tuple((c * factor, e) for (c, e) in self.terms),
            self.radius_hint,
            self.complete,
        )

    def __add__(self, other: FracPowerSeries) -> FracPowerSeries:
        if other.center != self.center:
            raise ValueError(
                f"center mismatch: {self.center!r} vs {other.center!r}"
            )
        radius = _min_radius(self.radius_hint, other.radius_hint)
        return FracPowerSeries(
            self.center,
            self.terms + other.terms,
            radius,
            self.complete and other.complete,
        )

    def __sub__(self, other: FracPowerSeries) -> FracPowerSeries:
        return self + other.scaled(-1.0)


def _min_radius(a: float | None, b: float | None) -> float | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def eval_frac_series(series: FracPowerSeries, t: float) -> EvalResult:
    """Evaluate a fractional power series at ``t >= center``.

    At the center itself the result is classified by the least exponent:
    all positive -> Finite(0); zero -> Finite(leading coeff);
    negative -> Infinite with the sign of the leading coefficient.

    Raises:
        ValueError: for t < center (the operators never look left of
            the lower terminal).
        DivergenceError: when a truncated series fails the tail test,
            t lies outside the known convergence radius, or a term or the
            sum leaves the double range.
    """
    if t < series.center:
        raise ValueError(f"t={t!r} is left of the center {series.center!r}")

    if not series.terms:
        return EvalResult.finite(0.0)

    x = t - series.center
    if x == 0.0:
        c0, e0 = series.terms[0]
        if abs(e0) <= EXPONENT_MERGE_TOL:
            return EvalResult.finite(c0)
        if e0 < 0.0:
            return EvalResult.infinite(1 if c0 > 0 else -1)
        return EvalResult.finite(0.0)

    radius = series.radius_hint
    if not series.complete and radius is not None and not x < radius:
        raise DivergenceError(
            f"t - center = {x!r} is outside the convergence radius {radius!r}"
        )

    total = 0.0
    term_values = []
    try:
        for c, e in series.terms:
            v = c * x**e
            term_values.append(v)
            total += v
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        # the first running sum that leaves the double range names the term
        sums = accumulate(term_values + [math.inf])
        c, e = series.terms[next(i for i, v in enumerate(sums) if not math.isfinite(v))]
        raise DivergenceError(
            f"the term {c!r} * (t - center)^{e!r} takes the sum beyond the double "
            f"range at t - center = {x!r}"
        )
    check_tail(term_values, total, series.complete)
    return EvalResult.finite(total)


def check_tail(terms: list[float], total: float, complete: bool) -> None:
    """Raise DivergenceError unless the sum is of complete data or its last
    two terms, standing in for the dropped tail, are below TAIL_TOL of it."""
    if complete or len(terms) < 2:
        return
    bound = TAIL_TOL * (abs(total) + 1.0e-300)
    if not (abs(terms[-1]) < bound and abs(terms[-2]) < bound):
        raise DivergenceError(
            f"tail terms {terms[-2]:.3e}, {terms[-1]:.3e} fail the convergence "
            f"test against the sum {total:.6e} (relative tolerance {TAIL_TOL:g})"
        )


# ------------------------------------------------------------------
# Catalog constructors
# ------------------------------------------------------------------

_CATALOG = ("poly", "shifted-poly", "const", "power", "exp", "sin", "cos")


def series_from_catalog(
    name: str,
    params: list[float],
    center: float = 0.0,
    truncation: int = DEFAULT_TRUNCATION,
) -> TaylorSeries:
    """Build Taylor data for a named function family.

    Families: ``poly`` (coefficients of t^i, re-expanded exactly about
    the center), ``shifted-poly`` (coefficients of (t-center)^i),
    ``const``, ``power`` (t^p, needs center > 0 for non-integer p),
    ``exp`` (e^{rate t}), ``sin``/``cos`` (angular frequency omega).

    Raises:
        ValueError: unknown family, bad parameters, or Taylor data
            beyond the double range (e.g. ``exp`` with rate 1e300).
    """
    try:
        return _catalog_series(name, params, center, truncation)
    except OverflowError:
        raise ValueError(
            f"{name} with parameters {params} has Taylor data beyond the "
            f"double range at center {center} (truncation {truncation})"
        ) from None


def _catalog_series(
    name: str, params: list[float], center: float, truncation: int
) -> TaylorSeries:
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    params = [float(p) for p in params]
    if not all(math.isfinite(p) for p in params):
        raise ValueError("catalog parameters must be finite")
    a = float(center)
    size = truncation + 1

    if name == "const":
        if len(params) != 1:
            raise ValueError("const takes a single value")
        name, params = "poly", params[:1]

    if name == "poly":
        if not params:
            raise ValueError("poly needs at least one coefficient")
        deg = len(params) - 1
        if truncation < deg:
            raise ValueError(
                f"truncation {truncation} is below the polynomial degree {deg}"
            )
        derivs = [0.0] * size
        # k-th derivative of sum c_i t^i at a: sum_i c_i * i!/(i-k)! * a^(i-k)
        for k in range(min(deg, truncation) + 1):
            acc = 0.0
            for i in range(k, deg + 1):
                ff = 1.0
                for j in range(k):
                    ff *= i - j
                acc += params[i] * ff * a ** (i - k)
            derivs[k] = acc
        return TaylorSeries(a, tuple(derivs), radius_hint=None, complete=True)

    if name == "shifted-poly":
        if not params:
            raise ValueError("shifted-poly needs at least one coefficient")
        deg = len(params) - 1
        if truncation < deg:
            raise ValueError(
                f"truncation {truncation} is below the polynomial degree {deg}"
            )
        derivs = [0.0] * size
        fact = 1.0
        for k in range(deg + 1):
            if k > 0:
                fact *= k
            derivs[k] = params[k] * fact
        return TaylorSeries(a, tuple(derivs), radius_hint=None, complete=True)

    if name == "power":
        if len(params) != 1:
            raise ValueError("power takes a single exponent")
        p = params[0]
        if p.is_integer() and p >= 0:
            coeffs = [0.0] * int(p) + [1.0]
            return series_from_catalog("poly", coeffs, a, max(truncation, int(p)))
        if a <= 0:
            raise ValueError(
                f"power with non-integer exponent {p} needs center > 0 "
                "(derivatives do not exist at the branch point)"
            )
        derivs = []
        coeff = a**p
        for k in range(size):
            derivs.append(coeff)
            coeff *= (p - k) / a
        return TaylorSeries(a, tuple(derivs), radius_hint=a, complete=False)

    if name == "exp":
        if len(params) != 1:
            raise ValueError("exp takes a single rate")
        rate = params[0]
        base = math.exp(rate * a)
        derivs = [base * rate**k for k in range(size)]
        return TaylorSeries(a, tuple(derivs), radius_hint=math.inf, complete=False)

    if name in ("sin", "cos"):
        if len(params) != 1:
            raise ValueError(f"{name} takes a single angular frequency")
        omega = params[0]
        phase = omega * a + (math.pi / 2 if name == "cos" else 0.0)
        derivs = [
            omega**k * math.sin(phase + k * math.pi / 2) for k in range(size)
        ]
        return TaylorSeries(a, tuple(derivs), radius_hint=math.inf, complete=False)

    raise ValueError(f"unknown catalog name {name!r} (expected one of {_CATALOG})")


def taylor_arith(f: TaylorSeries, g: TaylorSeries, op: str) -> TaylorSeries:
    """Pointwise sum or product of Taylor data with a common center.

    Truncation of the result is the minimum of the inputs; callers that
    need an exact polynomial product must supply adequately padded data.
    """
    if f.center != g.center:
        raise ValueError(f"center mismatch: {f.center!r} vs {g.center!r}")
    n = min(f.truncation, g.truncation)
    radius = _min_radius(f.radius_hint, g.radius_hint)
    complete = f.complete and g.complete

    if op == "add":
        derivs = tuple(f.derivs[k] + g.derivs[k] for k in range(n + 1))
        return TaylorSeries(f.center, derivs, radius, complete)
    if op == "mul":
        derivs = []
        for k in range(n + 1):
            acc = 0.0
            binom = 1.0
            for j in range(k + 1):
                if j > 0:
                    binom = binom * (k - j + 1) / j
                acc += binom * f.derivs[j] * g.derivs[k - j]
            derivs.append(acc)
        if complete:
            df, dg = f.degree(), g.degree()
            if df is not None and dg is not None and df + dg > n:
                # the data cannot hold the full product; it is a truncation
                complete = False
        return TaylorSeries(f.center, tuple(derivs), radius, complete)
    raise ValueError(f"unknown op {op!r} (expected 'add' or 'mul')")
