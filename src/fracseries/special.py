"""Real-argument gamma, generalized binomials, and the tail integral.

Every operator in this package divides by gamma values at negative
non-integer arguments as a matter of course, and relies on exact zeros
where a gamma pole lands in a denominator. The helpers here make both
behaviours explicit instead of leaving them to IEEE accidents.
"""

from __future__ import annotations

import math
import sys

from .series import EvalResult

__all__ = [
    "GammaRangeError",
    "gamma_ratio",
    "gamma_real",
    "gen_binom",
    "pochhammer",
    "recip_gamma",
    "upsilon",
]

#: Left of this argument math.gamma can underflow between its poles into
#: subnormals or 0.0, so quotients of it lose digits or divide by zero.
GAMMA_UNDERFLOW_X = -170.0


class GammaRangeError(ValueError):
    """Raised when a gamma quotient lies beyond the double range."""


# scipy.special.gammaincc, loaded by the first non-integer upsilon call so
# that importing the package does not load scipy
_gammaincc = None


def _load_gammaincc():
    global _gammaincc
    from scipy.special import gammaincc

    _gammaincc = gammaincc
    return gammaincc


def _check_finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma_real(x: float) -> EvalResult:
    """Gamma on the real line with poles as signed-infinity markers.

    The sign at the pole ``x = -m`` is the one-sided limit from the
    right, ``(-1)^m``. Arguments beyond the overflow threshold
    (~171.62) also report Infinite(+1) rather than raising.
    """
    x = _check_finite(x)
    if _is_nonpositive_integer(x):
        m = int(round(-x))
        return EvalResult.infinite(1 if m % 2 == 0 else -1)
    try:
        return EvalResult.finite(math.gamma(x))
    except OverflowError:
        return EvalResult.infinite(1)


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
    return _log_gamma_ratio(1.0, x)


def gen_binom(alpha: float, k: int) -> float:
    """Generalized binomial coefficient via the falling-factorial product.

    Computed as alpha(alpha-1)...(alpha-k+1)/k!, never as a ratio of
    gammas, so that a non-negative integer *alpha* with k > alpha yields
    a bitwise 0.0 (one factor is exactly alpha - alpha).
    """
    alpha = _check_finite(alpha, "alpha")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    num = 1.0
    for j in range(k):
        num *= alpha - j
    return num / math.factorial(k)


def pochhammer(x: float, k: int) -> float:
    """Rising factorial x(x+1)...(x+k-1) = Gamma(x+k)/Gamma(x).

    The product form stays finite where the gamma ratio would be a
    pole-over-pole expression (integer x <= 0 with x + k > 0).
    """
    x = _check_finite(x)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    acc = 1.0
    for j in range(k):
        acc *= x + j
    return acc


def _gamma_sign(x: float) -> float:
    # sign of gamma away from poles: alternates on the negative axis
    if x > 0:
        return 1.0
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


def _log_gamma_ratio(num: float, den: float) -> float:
    log_ratio = math.lgamma(num) - math.lgamma(den)
    try:
        return _gamma_sign(num) * _gamma_sign(den) * math.exp(log_ratio)
    except OverflowError:
        what = f"1/Gamma({den!r})" if num == 1.0 else f"Gamma({num!r})/Gamma({den!r})"
        raise GammaRangeError(
            f"{what} has magnitude exp({log_ratio:.6g}), beyond the double range"
        ) from None


def _deep_gamma_ratio(num: float, den: float) -> float:
    # an argument lies left of GAMMA_UNDERFLOW_X: keep the direct quotient
    # while both gammas are normal floats, else go to log space with the
    # signs taken apart
    try:
        g_num, g_den = math.gamma(num), math.gamma(den)
    except OverflowError:
        return _log_gamma_ratio(num, den)
    if abs(g_num) >= sys.float_info.min and abs(g_den) >= sys.float_info.min:
        return g_num / g_den
    return _log_gamma_ratio(num, den)


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den); exactly 0.0 when *den* sits on a pole.

    Falls back to log space when a gamma alone would overflow or
    underflow while the ratio is still representable.

    Raises:
        GammaRangeError: if the ratio itself exceeds the double range.
    """
    if _is_nonpositive_integer(den):
        return 0.0
    if _is_nonpositive_integer(num):
        raise ValueError(f"gamma pole in the numerator at {num}")
    if num < GAMMA_UNDERFLOW_X or den < GAMMA_UNDERFLOW_X:
        return _deep_gamma_ratio(num, den)
    try:
        return math.gamma(num) / math.gamma(den)
    except OverflowError:
        return _log_gamma_ratio(num, den)


def upsilon(p: float, q: float) -> float:
    """Tail integral of the gamma integrand: int_q^inf tau^(p-1) e^(-tau) dtau.

    Normalized so that upsilon(p, 0) = Gamma(p). Integer p admits any
    real q through the exact finite antiderivative; non-integer p
    requires q >= 0 (negative bases have no real power).
    """
    p = _check_finite(p, "p")
    q = _check_finite(q, "q")
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")

    if p.is_integer():
        # -d/dtau [e^-tau * sum_{i<p} (p-1)!/i! tau^i] = tau^(p-1) e^-tau
        m = int(p)
        acc = 0.0
        coeff = float(math.factorial(m - 1))
        for i in range(m):
            if i > 0:
                coeff /= i
            acc += coeff * q**i
        return math.exp(-q) * acc

    if q < 0:
        raise ValueError(
            f"q must be >= 0 for non-integer p (got p={p}, q={q})"
        )
    # regularized upper incomplete gamma, rescaled; scipy uses the
    # standard series/continued-fraction split around q ~ p
    gammaincc = _gammaincc or _load_gammaincc()
    return float(gammaincc(p, q)) * math.gamma(p)
