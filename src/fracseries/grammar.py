"""Tiny textual grammar for naming functions on the command line.

A spec is a ``+``-separated list of catalog atoms, each ``name:params``
with comma-separated numeric parameters:

    poly:0,1        coefficients of t^i (absolute variable)
    shifted-poly:0,1  coefficients of (t-a)^i
    const:2         constant
    power:0.5       t^p
    exp:1           e^(rate*t)
    sin:2  cos:1    angular frequency

``poly:1,-2+sin:1`` is (1 - 2t) + sin(t). The ``+`` splits only in
front of a letter, so exponent notation like ``1e+3`` survives.
"""

from __future__ import annotations

import math
import re

from .series import DEFAULT_TRUNCATION, FracPowerSeries, TaylorSeries, check_arity, series_from_catalog

__all__ = ["GrammarError", "parse_function_spec", "parse_power_spec"]


class GrammarError(ValueError):
    """Raised for malformed function specs."""


_ATOM_SPLIT = re.compile(r"\+(?=[A-Za-z])")


def _atoms(text: str) -> list[tuple[str, list[float]]]:
    if not text or not text.strip():
        raise GrammarError("empty function spec")
    out = []
    for piece in _ATOM_SPLIT.split(text.strip()):
        name, sep, params = piece.partition(":")
        name = name.strip()
        if not name:
            raise GrammarError(f"atom {piece!r} has no name")
        values = []
        if sep:
            for tok in params.split(","):
                try:
                    values.append(float(tok))
                except ValueError:
                    raise GrammarError(
                        f"bad numeric parameter {tok!r} in atom {piece!r}"
                    ) from None
        out.append((name, values))
    return out


def parse_function_spec(
    text: str, center: float = 0.0, truncation: int = DEFAULT_TRUNCATION
) -> TaylorSeries:
    """Parse a spec into Taylor data about *center*.

    Raises:
        GrammarError: unknown atom, bad parameters, or an atom that has
            no Taylor expansion at this center.
    """
    total: TaylorSeries | None = None
    for name, params in _atoms(text):
        try:
            atom = series_from_catalog(name, params, center, truncation)
        except ValueError as exc:
            raise GrammarError(str(exc)) from None
        total = atom if total is None else total + atom
    assert total is not None
    return total


def parse_power_spec(text: str) -> FracPowerSeries | None:
    """Parse a spec as a plain power sum about 0, if it is one.

    Only ``power``, ``const`` and ``poly`` atoms qualify; anything else
    returns None so callers can fall back to the Taylor route. Exponents
    must exceed -1 for the operators downstream to exist.
    """
    terms = []
    for name, params in _atoms(text):
        if name not in ("power", "const", "poly"):
            return None
        try:
            check_arity(name, params)
        except ValueError as exc:
            raise GrammarError(str(exc)) from None
        if name == "power":
            p = params[0]
            if not math.isfinite(p) or p <= -1.0:
                raise GrammarError(f"power exponent must be > -1, got {p}")
            terms.append((1.0, p))
        elif name == "const":
            terms.append((params[0], 0.0))
        else:
            terms.extend((c, float(i)) for i, c in enumerate(params))
    return FracPowerSeries(0.0, tuple(terms))
