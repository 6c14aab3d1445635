"""Value types for the series engine.

Analytic functions are carried around as Taylor data (raw derivative
values ``f^(k)(a)``, not divided by ``k!``), and the fractional operators
produce formal sums of real-exponent powers of ``(t - a)``. Evaluation of
such a sum returns an :class:`EvalResult` (on a grid, a float that is
inf or -inf there) so that the blow-up at the lower terminal is a value,
not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, islice
from operator import itemgetter

from .special import _check_finite, check_count

__all__ = [
    "DEFAULT_TRUNCATION",
    "DivergenceError",
    "EvalResult",
    "FracPowerSeries",
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


@dataclass(frozen=True)
class EvalResult:
    """Outcome of evaluating a series or transform.

    *sign* is 0 for a finite result, whose number is *value*, and +1 or
    -1 for an infinite one.
    """

    value: float = 0.0
    sign: int = 0

    @classmethod
    def finite(cls, value: float) -> EvalResult:
        if not math.isfinite(value):
            raise ValueError(f"finite result requires a finite value, got {value!r}")
        return cls(value=float(value))

    @classmethod
    def infinite(cls, sign: int) -> EvalResult:
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        return cls(sign=sign)

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    @property
    def is_infinite(self) -> bool:
        return self.sign != 0

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
        return "Infinite(+1)" if self.sign > 0 else "Infinite(-1)"


def branch(alpha: float) -> int:
    """The branch integer n of the order *alpha*.

    For non-integer ``alpha > 0`` it satisfies ``n - 1 < alpha < n``.
    Integer ``alpha >= 0`` has ``n = alpha`` (the classical branch).
    ``alpha <= 0`` marks the integral branch, where n is 0.
    """
    return max(math.ceil(alpha), 0)


def check_order(order: float) -> float:
    """*order* as a float; raise ValueError unless it is finite."""
    return _check_finite(order, "order")


def positive_order(order: float, non_integer: bool = False) -> float:
    """:func:`check_order`; raise ValueError unless alpha > 0 and, with
    *non_integer*, alpha is not an integer."""
    alpha = check_order(order)
    if not alpha > 0 or (non_integer and alpha.is_integer()):
        domain = "> 0 and not an integer" if non_integer else "> 0"
        raise ValueError(f"order must be {domain}, got {alpha}")
    return alpha


@dataclass(frozen=True)
class TaylorSeries:
    """An analytic function given by derivative values at a center.

    ``derivs[k]`` holds the raw ``f^(k)(center)``. With ``complete=True``
    the data fully determines the function (a polynomial of degree
    ``< len(derivs)``); otherwise it is a truncation of an infinite
    expansion and evaluations are subject to the tail test and to the
    convergence radius *radius_hint* (math.inf where it is not finite).
    """

    center: float
    derivs: tuple[float, ...]
    radius_hint: float = math.inf
    complete: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "derivs", tuple(map(float, self.derivs)))
        if len(self.derivs) == 0:
            raise ValueError("derivs must contain at least f(center)")
        if not all(map(math.isfinite, self.derivs)):
            raise ValueError("derivative values must be finite")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")
        check_radius(self.radius_hint)

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
        for c in self._descending:
            acc = acc * x + c
        return acc

    @cached_property
    def _descending(self) -> tuple[float, ...]:
        """:attr:`coeffs` from the highest order down, the order Horner reads."""
        return self.coeffs[::-1]

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        """The Taylor coefficients ``f^(k)(center)/k!``, computed once."""
        out = []
        fact = 1.0
        for k, d in enumerate(self.derivs):
            if k > 0:
                fact *= k
            out.append(d / fact)
        return tuple(out)

    def nth_derivative(self, n: int) -> TaylorSeries:
        """Taylor data of the n-th derivative (a shift of the value list).

        Each n is built once per series, so that its coefficients are too."""
        n = check_count(n, 0, "n")
        derivative = self._derivatives.get(n)
        if derivative is None:
            derivs = self.derivs[n:] if n <= self.truncation else (0.0,)
            derivative = TaylorSeries(self.center, derivs, self.radius_hint, self.complete)
            self._derivatives[n] = derivative
        return derivative

    @cached_property
    def _derivatives(self) -> dict[int, TaylorSeries]:
        """The series :meth:`nth_derivative` has built, by n."""
        return {}

    def _memo(self, t: float) -> dict:
        """The work this series keeps for t, its latest evaluation point.

        A call at another t replaces the dict, so the series holds one
        point's work; a thread keeps the dict it was given, so a replacement
        costs work, never a value. t is keyed by its type, value and sign
        (-0.0 and 0.0 keep apart). Callers store only values they return.
        """
        key = (type(t), t, math.copysign(1.0, t))
        latest = vars(self).get("_latest")
        if latest is None or latest[0] != key:
            latest = vars(self)["_latest"] = (key, {})
        return latest[1]

    def recentered(self, new_center: float) -> TaylorSeries:
        """Re-expand about *new_center* (exact for complete data), kept by :meth:`_memo`.

        For truncated data the result is the truncated re-expansion; its
        high-order values are only as good as the original truncation.

        Raises:
            ValueError: naming the first datum of the re-expansion that is
                beyond the double range.
        """
        h = new_center - self.center
        memo = self._memo(new_center)
        if (kept := memo.get("recentered")) is not None:
            return kept
        d = self.derivs
        n = len(d)
        powers = list(accumulate(range(1, n), lambda p, _: p * h, initial=1.0))
        facts = list(accumulate(range(1, n), lambda f, i: f * i, initial=1.0))
        derivs = []
        for j in range(n):
            acc = 0.0
            for dv, power, fact in zip(islice(d, j, None), powers, facts):
                # zero data adds nothing, even where the power has overflowed
                if dv:
                    acc += dv * power / fact
            derivs.append(acc)
        check_data(derivs, f"the re-expansion of Taylor data about {new_center!r}")
        kept = TaylorSeries(new_center, tuple(derivs), self.radius_hint, self.complete)
        memo["recentered"] = kept
        return kept

    def __add__(self, other: TaylorSeries) -> TaylorSeries:
        return taylor_arith(self, other, "add")

    def __mul__(self, other: TaylorSeries) -> TaylorSeries:
        return taylor_arith(self, other, "mul")


@dataclass(frozen=True)
class FracPowerSeries:
    """A formal sum sum_k c_k (t - center)^{e_k} with real exponents.

    Construction canonicalizes: terms sorted by exponent, exponents
    within ``1e-12`` merged, exact-zero coefficients dropped. Any
    permutation of the same term multiset builds the identical tuple.
    """

    center: float
    terms: tuple[tuple[float, float], ...] = field(default=())
    radius_hint: float = math.inf
    complete: bool = True

    def __post_init__(self) -> None:
        terms = [(float(c), float(e)) for (c, e) in self.terms]
        object.__setattr__(self, "terms", canonical_terms(terms))
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")
        check_radius(self.radius_hint)

    def evaluate(self, t: float) -> EvalResult:
        return eval_frac_series(self, t)

    def evaluate_grid(self, ts) -> list[float]:
        """The values at the points *ts*, vetted and summed in order (:func:`sum_grid`)."""
        return sum_grid(self.terms, self.center, ts, self.radius_hint, self.complete)


def canonical_terms(terms) -> tuple[tuple[float, float], ...]:
    """Canonical form of ``(coeff, exponent)`` pairs: the terms with a
    nonzero coefficient, stably sorted by exponent, each term added into the
    one before it when their exponents are within EXPONENT_MERGE_TOL, and
    the zeros this leaves dropped.

    Raises:
        ValueError: naming the first nonzero term whose coefficient or
            exponent is not finite (:func:`check_finite`).
    """
    nonzero = [term for term in terms if term[0] != 0.0]
    check_finite(nonzero)
    merged: list[tuple[float, float]] = []
    for term in sorted(nonzero, key=itemgetter(1)):
        if merged and term[1] - merged[-1][1] <= EXPONENT_MERGE_TOL:
            merged[-1] = (merged[-1][0] + term[0], merged[-1][1])
        else:
            merged.append(term)
    return tuple([t for t in merged if t[0] != 0.0])


def check_finite(terms) -> None:
    """Raise ValueError naming the first ``(coeff, exponent)`` pair whose
    coefficient or exponent is not finite."""
    for term in terms:
        if not (math.isfinite(term[0]) and math.isfinite(term[1])):
            raise ValueError(f"term {term!r} is not finite")


def check_data(derivs: list[float], what: str) -> None:
    """Raise ValueError naming *what* and its first datum k that is not finite."""
    for k, d in enumerate(derivs):
        if not math.isfinite(d):
            raise ValueError(f"{what} is beyond the double range: its datum k = {k} is {d!r}")


def check_radius(radius: float) -> None:
    """Raise ValueError unless the convergence radius is a number > 0;
    data without a finite radius has math.inf."""
    if not (isinstance(radius, (int, float)) and radius > 0):
        raise ValueError(f"radius_hint must be positive, got {radius!r}")


def eval_frac_series(series: FracPowerSeries, t: float) -> EvalResult:
    """Evaluate a fractional power series at ``t >= center``: the one-point
    case of :meth:`FracPowerSeries.evaluate_grid`, whose infinite value at
    the center becomes ``Infinite``.

    Raises:
        ValueError: for t < center.
        DivergenceError: when a truncated series fails the tail test,
            t lies outside the known convergence radius, or a term or the
            sum leaves the double range.
    """
    (value,) = series.evaluate_grid((t,))
    if math.isinf(value):
        return EvalResult.infinite(1 if value > 0.0 else -1)
    return EvalResult.finite(value)


def sum_grid(terms, a: float, ts, radius: float, complete: bool) -> list[float]:
    """The sums of c * (t - a)**e over canonical terms at the points *ts*,
    each vetted and summed in turn, left to right.

    At t = a the value is classified by the least exponent: all positive
    -> 0.0; zero -> the leading coefficient; negative -> inf with the sign
    of the leading coefficient. Elsewhere the terms are summed in order in
    one loop that keeps no term list, and the tail test (:func:`check_tail`)
    reads the last two terms as the sum computed them. The head and the
    last two terms are unpacked once for the grid; a series of fewer than
    two terms is led by (0.0, 0.0) terms, which add an exact 0.0 and are
    not tested.

    Raises:
        ValueError: at the first t not >= a, NaN or left of it (the
            operators never look left of the lower terminal).
        DivergenceError: at the first point where truncated terms are
            summed outside the convergence radius, a term or the sum leaves
            the double range, or the sum fails the tail test.
    """
    head = terms[:-2]
    (c1, e1), (c2, e2) = ((0.0, 0.0), (0.0, 0.0), *terms[-2:])[-2:]
    c0, e0 = terms[0] if terms else (0.0, 0.0)
    lead = c0 if abs(e0) <= EXPONENT_MERGE_TOL else 0.0 if e0 > 0.0 else math.copysign(math.inf, c0)
    bounded = not complete and bool(terms)
    tested = not complete and len(terms) > 1
    values = []
    for t in ts:
        if not t >= a:
            where = "left of" if t < a else "not comparable with"
            raise ValueError(f"t={t!r} is {where} the center {a!r}")
        x = t - a
        if x == 0.0:
            values.append(lead)
            continue
        if bounded and not x < radius:
            raise DivergenceError(
                f"t - center = {x!r} is outside the convergence radius {radius!r}"
            )
        total = 0.0
        try:
            for c, e in head:
                total += c * x**e
            prev = c1 * x**e1
            last = c2 * x**e2
        except OverflowError:
            total = math.inf
        else:
            total += prev
            total += last
        if not math.isfinite(total):
            c, e = _diverging_term(terms, x)
            raise DivergenceError(
                f"the term {c!r} * (t - center)^{e!r} takes the sum beyond the double "
                f"range at t - center = {x!r}"
            )
        if tested:  # check_tail's test, so that a point that passes makes no call
            bound = TAIL_TOL * (abs(total) + 1.0e-300)
            if not (abs(last) < bound and abs(prev) < bound):
                check_tail([prev, last], total, complete)
        values.append(total)
    return values


def _diverging_term(terms, x: float) -> tuple[float, float]:
    """The first of the terms whose power overflows or whose running sum
    leaves the double range at x; only a sum that did so asks for it."""
    total = 0.0
    for c, e in terms:
        try:
            total += c * x**e
        except OverflowError:
            break
        if not math.isfinite(total):
            break
    return c, e


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


def check_slots(f: TaylorSeries, alpha: float, k0: int, k1: int, complete: bool) -> None:
    """Truncated data must leave at least two slots k0 <= k < k1 of a sum of
    the order-alpha operator; fewer would be an unchecked sum of what the
    data carries (no tail test could see the dropped slots)."""
    if not complete and k1 - k0 < 2:
        raise ValueError(
            f"order {alpha} (n = {branch(alpha)}) sums the slots k >= {k0}, and "
            f"truncated Taylor data of truncation {f.truncation} carries "
            f"{max(k1 - k0, 0)} of them; the tail test needs two "
            f"(truncation >= {k0 + 1})"
        )


# ------------------------------------------------------------------
# Catalog constructors
# ------------------------------------------------------------------

#: Each catalog family with the parameter it takes once, or None for the
#: polynomial families, which take one or more coefficients.
_CATALOG = {"poly": None, "shifted-poly": None, "const": "value", "power": "exponent",
            "exp": "rate", "sin": "angular frequency", "cos": "angular frequency"}


def check_arity(name: str, params: list[float]) -> None:
    """Raise ValueError for an unknown catalog family or a wrong number of
    parameters for a known one."""
    if name not in _CATALOG:
        raise ValueError(
            f"unknown catalog name {name!r} (expected one of {tuple(_CATALOG)})"
        )
    single = _CATALOG[name]
    if single is None and not params:
        raise ValueError(f"{name} needs at least one coefficient")
    if single is not None and len(params) != 1:
        raise ValueError(f"{name} takes a single {single}")


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
        ValueError: a truncation that is not an integer >= 1, unknown
            family, bad parameters, a centre that is not finite, or Taylor
            data beyond the double range (e.g. ``exp`` with rate 1e300).
    """
    truncation = check_count(truncation, 1, "truncation")
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
    single = _CATALOG.get(name, "parameter")
    params = [_check_finite(p, single or f"coefficient {i}") for i, p in enumerate(params)]
    a = _check_finite(center, "center")
    check_arity(name, params)
    size = truncation + 1

    if name == "const":
        name = "poly"
    deg = len(params) - 1
    if name in ("poly", "shifted-poly") and truncation < deg:
        raise ValueError(f"truncation {truncation} is below the polynomial degree {deg}")

    if name == "poly":
        derivs = [0.0] * size
        # k-th derivative of sum c_i t^i at a: sum_i c_i * i!/(i-k)! * a^(i-k)
        for k in range(deg + 1):
            acc = 0.0
            for i in range(k, deg + 1):
                ff = 1.0
                for j in range(k):
                    ff *= i - j
                acc += params[i] * ff * a ** (i - k)
            derivs[k] = acc
        return TaylorSeries(a, tuple(derivs))

    if name == "shifted-poly":
        derivs = [0.0] * size
        fact = 1.0
        for k in range(deg + 1):
            if k > 0:
                fact *= k
            derivs[k] = params[k] * fact
        return TaylorSeries(a, tuple(derivs))

    if name == "power":
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
        _check_no_underflow(coeff, name, p, a)
        for k in range(size):
            derivs.append(coeff)
            coeff *= (p - k) / a
        return TaylorSeries(a, tuple(derivs), radius_hint=a, complete=False)

    if name == "exp":
        rate = params[0]
        base = math.exp(rate * a)
        _check_no_underflow(base, name, rate, a)
        derivs = [base * rate**k for k in range(size)]
        return TaylorSeries(a, tuple(derivs), complete=False)

    # sin or cos
    omega = params[0]
    phase = omega * a + (math.pi / 2 if name == "cos" else 0.0)
    derivs = [omega**k * math.sin(phase + k * math.pi / 2) for k in range(size)]
    return TaylorSeries(a, tuple(derivs), complete=False)


def _check_no_underflow(value: float, name: str, param: float, center: float) -> None:
    """f(center) of exp or power data is never 0; a 0.0 there is an
    underflow that would make every later datum 0 too."""
    if value == 0.0:
        raise ValueError(
            f"{name} with parameter {param} underflows to 0 at center {center}; "
            "its Taylor data would read as the zero function"
        )


@cache
def _binomial_row(k: int) -> tuple[float, ...]:
    """The binomial coefficients binom(k, j), j <= k, as floats by the
    recurrence binom(k, j) = binom(k, j - 1) * (k - j + 1) / j."""
    row = [1.0]
    binom = 1.0
    for j in range(1, k + 1):
        binom = binom * (k - j + 1) / j
        row.append(binom)
    return tuple(row)


def taylor_arith(f: TaylorSeries, g: TaylorSeries, op: str) -> TaylorSeries:
    """Pointwise sum or product of Taylor data with a common center.

    The radius of the result is the lesser of the inputs', and so is its
    truncation, unless just one is complete: its data is exactly 0 past its
    truncation, so the result has the other's. Callers that need an exact polynomial product must
    supply adequately padded data. *f* keeps its latest result, keyed by
    the identity of *g* and by *op*.
    """
    latest = vars(f).get("_latest_arith")
    if latest is not None and latest[0] is g and latest[1] == op:
        return latest[2]
    if f.center != g.center:
        raise ValueError(f"center mismatch: {f.center!r} vs {g.center!r}")
    fd, gd = f.derivs, g.derivs
    n = min(f.truncation, g.truncation)
    if f.complete != g.complete:
        n = (g if f.complete else f).truncation
        fd, gd = fd + (0.0,) * (n - f.truncation), gd + (0.0,) * (n - g.truncation)
    radius = min(f.radius_hint, g.radius_hint)
    complete = f.complete and g.complete

    if op == "add":
        derivs = [fd[k] + gd[k] for k in range(n + 1)]
    elif op == "mul":
        # datum k is sum_j binom(k, j) fd[j] gd[k - j], summed from j = 0 up;
        # gd is reversed once and read from k down, since a slice per k
        # would allocate a tuple per k
        gd_desc = gd[::-1]
        top = len(gd) - 1
        derivs = []
        for k in range(n + 1):
            acc = 0.0
            for binom, x, y in zip(_binomial_row(k), fd, islice(gd_desc, top - k, None)):
                acc += binom * x * y
            derivs.append(acc)
        if complete:
            df, dg = f.degree(), g.degree()
            if df is not None and dg is not None and df + dg > n:
                # the data cannot hold the full product; it is a truncation
                complete = False
    else:
        raise ValueError(f"unknown op {op!r} (expected 'add' or 'mul')")
    check_data(derivs, f"the {'sum' if op == 'add' else 'product'} of Taylor data at center "
               f"{f.center!r}")
    result = TaylorSeries(f.center, tuple(derivs), radius, complete)
    vars(f)["_latest_arith"] = (g, op, result)
    return result
