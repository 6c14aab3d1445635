"""Reciprocal gamma, generalized binomials, and the tail integral.

Every operator in this package divides by gamma values at negative
non-integer arguments as a matter of course, and relies on exact zeros
where a gamma pole lands in a denominator. The helpers here make both
behaviours explicit instead of leaving them to IEEE accidents.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from functools import cache
from itertools import accumulate
from operator import truediv

__all__ = [
    "GammaRangeError",
    "gen_binom",
    "recip_gamma",
    "upsilon",
]

#: Left of this argument math.gamma can underflow between its poles into
#: subnormals or 0.0, so quotients of it lose digits or divide by zero.
GAMMA_UNDERFLOW_X = -170.0

#: float(k!), rounded once from the exact integer, for every k! that is a
#: double: its length is where every division by k! stops.
FACTORIALS = tuple([float(math.factorial(k)) for k in range(171)])


def over_factorial(x: float, k: int) -> float:
    """x / k!. Past :data:`FACTORIALS` it is x / 170! divided by each further
    factor up to k, which reaches an exact 0.0 within a few factors."""
    if k < len(FACTORIALS):
        return x / FACTORIALS[k]
    x /= FACTORIALS[-1]
    for i in range(len(FACTORIALS), k + 1):
        if x == 0.0:
            break
        x /= i
    return x


class GammaRangeError(ValueError):
    """Raised when a gamma quotient lies beyond the double range."""


def _check_finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def check_count(value, least: int, name: str) -> int:
    """*value* as an int, the vetting of every count in the package; raise
    ValueError unless it is an int or an integral float, and at least *least*."""
    count = int(value) if isinstance(value, float) and value.is_integer() else value
    if not isinstance(count, int) or count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def is_gamma_pole(x: float) -> bool:
    """Whether Gamma has a pole at x: x is an integer <= 0."""
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma(x); GammaRangeError, naming exp(lgamma(x)), past the double range."""
    try:
        return math.gamma(x)
    except OverflowError:
        raise GammaRangeError(
            f"Gamma({x!r}) has magnitude exp({math.lgamma(x):.6g}), beyond the double range"
        ) from None


def recip_gamma(x: float) -> float:
    """1/Gamma(x), with exact 0.0 at the poles.

    This is the form the series coefficients actually need: the term is
    dropped exactly when the denominator gamma sits on a pole.

    Raises:
        GammaRangeError: if 1/Gamma(x) exceeds the double range (x far
            left on the negative axis, e.g. x = -179.5).
    """
    x = _check_finite(x)
    if x <= 0.0:
        if x == math.floor(x):
            return 0.0
        if x < GAMMA_UNDERFLOW_X:
            return _recip_tiny_gamma(x)
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def _recip_tiny_gamma(x: float) -> float:
    # a finite 1/g needs |g| >= 5.6e-309, where gradual underflow costs
    # g at most one part in 1e15; past that the magnitude is out of range
    g = math.gamma(x)
    if g != 0.0:
        r = 1.0 / g
        if not math.isinf(r):
            return r
    # log space, with the sign Gamma alternates between its negative poles
    log_r = -math.lgamma(x)
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    try:
        return sign * math.exp(log_r)
    except OverflowError:
        raise GammaRangeError(
            f"1/Gamma({x!r}) has magnitude exp({log_r:.6g}), beyond the double range"
        ) from None


def gen_binom(alpha: float, k: int) -> float:
    """Generalized binomial coefficient via the falling-factorial product.

    Computed as alpha(alpha-1)...(alpha-k+1)/k!, never as a ratio of
    gammas, so that a non-negative integer *alpha* with k > alpha yields
    a bitwise 0.0 (one factor is exactly alpha - alpha). Past the
    :data:`FACTORIALS` table, whose k! are beyond the double range, that
    zero product is returned as it is.

    Raises:
        GammaRangeError: for k past the table and a product that is not zero.
    """
    alpha = _check_finite(alpha, "alpha")
    k = check_count(k, 0, "k")
    num = 1.0
    for j in range(k):
        num *= alpha - j
    if k >= len(FACTORIALS) and num:
        raise GammaRangeError(
            f"gen_binom({alpha!r}, {k}) divides by {k}!, which is beyond the double range"
        )
    return over_factorial(num, k)


#: Relative size of the last term or step at which the sums and the
#: continued fraction behind upsilon stop.
_UPSILON_EPS = sys.float_info.epsilon

#: Below this q, non-integer p < 1 takes the small-p series: above it the
#: continued fraction loses fewer digits (both stay under 1e-14 relative).
_SMALL_P_Q = 1.5

#: Largest integer p that takes the closed form: (p-1)! must be a double.
#: Integer p beyond it takes the routes of non-integer p.
_CLOSED_FORM_P_MAX = len(FACTORIALS)

#: Terms allowed to the continued fraction. For q >= p + 1 or q >= 1.5 it
#: converges in under 100 terms while p stays below 1000; near q = p it
#: needs about sqrt(p)/3.
_FRACTION_MAX_TERMS = 100_000

#: Taylor coefficients c_2, c_3, ... of 1/Gamma(z) = sum_k c_k z^k (DLMF
#: 5.7.1), enough for the double range on |z| <= 1.
_RECIP_GAMMA_SERIES = (
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
    -1.1812593016974588e-16, 1.1866922547516004e-18, 1.4123806553180319e-18,
)


def upsilon(p: float, q: float) -> float:
    """Tail integral of the gamma integrand: int_q^inf tau^(p-1) e^(-tau) dtau.

    Normalized so that upsilon(p, 0) = Gamma(p). The domain is p > 0 and
    q >= 0, -0.0 included: a transform at an initial instant a <= 0 forms
    it only at q = -a*s with s > 0. The one-element case of
    :func:`upsilon_row`.

    Raises:
        GammaRangeError: if the value is beyond the double range.
        ValueError: for p or q not finite, p <= 0 or q < 0.
    """
    return next(upsilon_row((p,), q, False))


def upsilon_row(ps, q: float, scaled: bool) -> Iterator[float]:
    """Yield e^q Upsilon(p, q) (*scaled*) or Upsilon(p, q) for each p of *ps*
    in order, raising a refusal (as :func:`upsilon`) when its p is reached.
    q is vetted after the first p, as in a single call, so a q < 0 refuses
    the row there; e^q, e^-q and the powers q**i of the integer closed form
    are taken once per row.

    The scaled row is a shifted transform's factor e^(-a*s) Upsilon(p, -a*s),
    formed without e^q where q is large (e^800 overflows, Upsilon underflows).
    """
    powers = [1.0]  # q**i, i < the largest integer p so far
    for i, p in enumerate(ps):
        p = _check_finite(p, "p")
        if i == 0:
            q = _check_finite(q, "q")
            exp_q, exp_neg_q = _exp(q), _exp(-q)
        if p <= 0:
            raise ValueError(f"p must be > 0, got {p}")
        if q < 0:
            raise ValueError(f"q must be >= 0 (got p={p}, q={q})")
        try:
            value = _upsilon_kernel(p, q, scaled, exp_q, exp_neg_q, powers)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            what = "e^q * Upsilon" if scaled else "Upsilon"
            raise GammaRangeError(f"{what}({p!r}, {q!r}) is beyond the double range")
        yield value


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _upsilon_kernel(
    p: float, q: float, scaled: bool, exp_q: float, exp_neg_q: float, powers: list[float]
) -> float:
    # exp_q and exp_neg_q are e^q and e^-q, inf past the double range
    if p.is_integer() and p <= _CLOSED_FORM_P_MAX:
        try:
            acc = _closed_form(int(p), q, powers)
        except OverflowError:
            acc = math.inf
        if scaled or acc < math.inf:
            return acc if scaled else exp_neg_q * acc
        # e^q Upsilon(p, q) is beyond the double range where Upsilon(p, q)
        # need not be: take the routes of non-integer p
    if q == 0.0:
        return math.gamma(p)
    if p < 1.0 and q < _SMALL_P_Q:
        value = _small_p_upsilon(p, q)
    elif p < 1.0 or q >= p + 1.0:
        h = _legendre_fraction(p, q)
        return (q**p if scaled else _power_exp(p, q, exp_neg_q)) * h
    else:
        # Gamma(p) - gamma(p, q): for p >= 1 and q < p + 1 the upper part
        # is at least e^-2 of Gamma(p), so the difference loses under 3 bits,
        # and the series stops once its terms are below 1/8 ulp of Gamma(p)
        gamma_p = math.gamma(p)
        lead = _power_exp(p, q, exp_neg_q)
        value = gamma_p
        if lead:
            value -= lead * _lower_series(p, q, _UPSILON_EPS * gamma_p / (8.0 * lead))
    return value * exp_q if scaled else value


@cache
def _closed_form_row(m: int) -> tuple[float, ...]:
    """The closed form's coefficients (m-1)!/i!, i < m, each the one before
    it divided by i."""
    return tuple(accumulate(range(1, m), truediv, initial=FACTORIALS[m - 1]))


def _closed_form(m: int, q: float, powers: list[float]) -> float:
    """sum_{i<m} (m-1)!/i! q^i from i = 0 up, which is e^q Upsilon(m, q): its
    derivative -d/dq [e^-q sum_{i<m} (m-1)!/i! q^i] is q^(m-1) e^-q. The
    powers q**i come from the list *powers*, which grows to the largest m."""
    if len(powers) < m:
        powers.extend([q**i for i in range(len(powers), m)])
    acc = 0.0
    for coeff, power in zip(_closed_form_row(m), powers):
        acc += coeff * power
    return acc


def _power_exp(p: float, q: float, exp_neg_q: float) -> float:
    """q^p e^-q to a few ulps, given e^-q: the product of the two factors
    or, where one of them alone leaves the normal range, the k-th power of
    q^(p/k) e^(-q/k) for k = 2 or 4. Only where even those do is it
    exp(p ln q - q), which loses about |p ln q| ulps."""
    for k in (1, 2, 4):
        try:
            power = q ** (p / k)
        except OverflowError:
            continue
        damp = exp_neg_q if k == 1 else math.exp(-q / k)
        if damp >= sys.float_info.min:
            return (power * damp) ** k
    return math.exp(p * math.log(q) - q)


def _lower_series(p: float, q: float, stop: float) -> float:
    """sum_k q^k / (p (p+1) ... (p+k)) up to the first term below `stop`,
    so that gamma(p, q) is e^-q q^p times it (DLMF 8.7.1). Every term is
    positive."""
    term = total = 1.0 / p
    denom = p
    while term > stop:
        denom += 1.0
        term *= q / denom
        total += term
    return total


def _small_p_upsilon(p: float, q: float) -> float:
    """Upsilon(p, q) for p < 1 and small q without the cancellation of
    Gamma(p) - gamma(p, q): with gamma(p, q) = sum_k (-1)^k q^(p+k) /
    (k! (p+k)) (DLMF 8.7.3), its k = 0 term q^p/p and Gamma(p) =
    Gamma(1+p)/p combine to [(Gamma(1+p) - 1) - (q^p - 1)]/p, each bracket
    computed without subtracting near-equal numbers."""
    lead = (_gamma1pm1(p) - math.expm1(p * math.log(q))) / p
    term, rest, k = 1.0, 0.0, 0
    while True:
        k += 1
        term *= -q / k
        step = term / (k + p)
        rest += step
        if abs(step) <= abs(rest) * _UPSILON_EPS:
            return lead - q**p * rest


def _gamma1pm1(x: float) -> float:
    """Gamma(1+x) - 1 for |x| <= 1, from the series of 1/Gamma (DLMF 5.7.1)."""
    acc = 0.0
    for c in reversed(_RECIP_GAMMA_SERIES):
        acc = acc * x + c
    r = acc * x  # 1/Gamma(1+x) - 1
    return -r / (1.0 + r)


def _legendre_fraction(p: float, q: float) -> float:
    """h in Upsilon(p, q) = e^-q q^p h: the continued fraction of DLMF
    8.9.2 in its even form, h = 1/(q+1-p - 1(1-p)/(q+3-p - 2(2-p)/(q+5-p -
    ...))). Modified Lentz (Numerical Recipes, 3rd ed., 5.2) finds the depth
    at which it has converged; the fraction is then summed from that depth
    back to the top, which rounds less than Lentz's running product (4e-15
    against 7e-16 relative, worst case for p < 1 and q in [1.5, 12])."""
    tiny = 1.0e-300
    b = q + 1.0 - p
    c, d = 1.0 / tiny, 1.0 / b
    for depth in range(1, _FRACTION_MAX_TERMS):
        a = depth * (p - depth)
        b += 2.0
        d = a * d + b
        d = 1.0 / (d if d != 0.0 else tiny)
        c = b + a / c
        if c == 0.0:
            c = tiny
        if abs(c * d - 1.0) <= _UPSILON_EPS:
            break
    else:
        # only q near a p past about 1e11 needs this many terms, where the value
        # is near Gamma(p) and beyond the double range
        raise OverflowError
    tail = 0.0
    for k in range(depth, 0, -1):
        tail = k * (p - k) / (q + 2.0 * k + 1.0 - p + tail)
    return 1.0 / (q + 1.0 - p + tail)
