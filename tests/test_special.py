import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracseries.special import (
    GammaRangeError,
    gen_binom,
    recip_gamma,
    upsilon,
    upsilon_row,
)


def upsilon_scaled(p, q):
    """e^q * upsilon(p, q): the one-element scaled row."""
    return next(upsilon_row((p,), q, True))


RECURRENCE_TOL = 1e-12
REFLECTION_TOL = 1e-11
CONVOLUTION_TOL = 1e-11

rng = np.random.default_rng(20260814)


# --- Gamma, through recip_gamma ------------------------------------------


def test_gamma_known_values():
    assert recip_gamma(4.0) == 1.0 / 6.0
    assert math.isclose(recip_gamma(0.5), 1.0 / 1.7724538509055160, rel_tol=1e-15)
    assert math.isclose(recip_gamma(-0.5), 1.0 / -3.5449077018110320, rel_tol=1e-15)
    assert recip_gamma(1.0) == 1.0


def test_gamma_recurrence_sweep():
    # 1/gamma(x) == x / gamma(x+1) away from poles
    xs = rng.uniform(-20.0, 20.0, size=2000)
    for x in xs:
        if abs(x - round(x)) < 1e-3 and x < 0.5:
            continue
        left = recip_gamma(x)
        want = x * recip_gamma(x + 1.0)
        assert abs(left - want) <= RECURRENCE_TOL * abs(want)


def test_gamma_reflection_sweep():
    # 1/(gamma(x) gamma(1-x)) == sin(pi x) / pi for non-integer x
    xs = rng.uniform(-10.0, 10.0, size=2000)
    for x in xs:
        if abs(x - round(x)) < 1e-3:
            continue
        prod = recip_gamma(x) * recip_gamma(1.0 - x)
        want = math.sin(math.pi * x) / math.pi
        assert abs(prod - want) <= REFLECTION_TOL * abs(want)


def test_recip_gamma_zero_at_poles():
    for m in range(0, 12):
        assert recip_gamma(-float(m)) == 0.0


def test_recip_gamma_matches_inverse():
    for x in (0.3, 1.0, 2.5, 7.0, -0.5, -3.7):
        assert recip_gamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-14)


def test_recip_gamma_overflow_underflows_to_zero():
    assert recip_gamma(500.0) == 0.0


# --- generalized binomial ------------------------------------------------


def test_gen_binom_known_values():
    assert gen_binom(3.0, 1) == 3.0
    assert gen_binom(0.5, 2) == -0.125
    assert gen_binom(2.0, 5) == 0.0
    assert gen_binom(4.2, 0) == 1.0


def test_gen_binom_integer_alpha_vanishes_exactly():
    # falling factorial crosses zero, so the result is bitwise 0.0
    for n in range(0, 6):
        for k in range(n + 1, n + 6):
            assert gen_binom(float(n), k) == 0.0


def test_gen_binom_matches_comb_for_integers():
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert gen_binom(float(n), k) == float(math.comb(n, k))


def test_gen_binom_past_170_is_a_gamma_range_error():
    # k! is beyond the double range from k = 171 on: it was a bare
    # OverflowError from the int-to-float conversion
    want = math.gamma(1.5) / (math.gamma(171) * math.gamma(-168.5))
    assert gen_binom(0.5, 170) == pytest.approx(want, rel=1e-12)
    for alpha, k in ((0.5, 171), (200.0, 171), (-1.5, 200)):
        with pytest.raises(GammaRangeError, match=rf"gen_binom\({alpha!r}, {k}\) divides by {k}!"):
            gen_binom(alpha, k)
    # an integer alpha in [0, k) has the exact zero product, past 170! too
    assert gen_binom(2.0, 171) == 0.0


def test_gen_binom_negative_k():
    with pytest.raises(ValueError):
        gen_binom(0.5, -1)


def test_binom_convolution_identity_sweep():
    # C(a, i+j) * C(i+j, j) == C(a, j) * C(a-j, i)
    alphas = rng.uniform(-5.0, 5.0, size=400)
    for alpha in alphas:
        i = int(rng.integers(0, 11))
        j = int(rng.integers(0, 11))
        left = gen_binom(alpha, i + j) * gen_binom(float(i + j), j)
        right = gen_binom(alpha, j) * gen_binom(alpha - j, i)
        scale = max(abs(left), abs(right), 1.0)
        assert abs(left - right) <= CONVOLUTION_TOL * scale


@given(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
)
def test_binom_convolution_identity_property(alpha, i, j):
    left = gen_binom(alpha, i + j) * gen_binom(float(i + j), j)
    right = gen_binom(alpha, j) * gen_binom(alpha - j, i)
    scale = max(abs(left), abs(right), 1.0)
    assert abs(left - right) <= CONVOLUTION_TOL * scale


# --- upsilon (upper incomplete gamma) ------------------------------------


def test_upsilon_at_zero_is_gamma():
    for p in (0.5, 1.0, 2.0, 3.7):
        assert upsilon(p, 0.0) == pytest.approx(math.gamma(p), rel=1e-13)


def test_upsilon_known_values():
    assert upsilon(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)
    assert upsilon(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)


def test_upsilon_strictly_decreasing_in_q():
    for p in (0.5, 1.0, 2.5):
        qs = np.linspace(0.0, 6.0, 25)
        vals = [upsilon(p, float(q)) for q in qs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_upsilon_recurrence():
    # Y(p+1, q) == p * Y(p, q) + q^p * exp(-q)
    for p in (0.5, 1.0, 1.8, 3.0):
        for q in (0.1, 0.5, 1.0, 4.0):
            left = upsilon(p + 1.0, q)
            right = p * upsilon(p, q) + q**p * math.exp(-q)
            assert left == pytest.approx(right, rel=1e-12)


def test_upsilon_rejects_bad_arguments():
    with pytest.raises(ValueError):
        upsilon(0.0, 1.0)
    with pytest.raises(ValueError):
        upsilon(-1.0, 1.0)
    # every q < 0 is refused, for integer and non-integer p alike
    for p in (0.5, 1.0, 2.0, 200.0):
        for q in (-1.0, -1e-300):
            message = re.escape(f"q must be >= 0 (got p={p}, q={q})")
            for fn in (upsilon, upsilon_scaled):
                with pytest.raises(ValueError, match=message):
                    fn(p, q)


def test_upsilon_at_negative_zero_is_its_value_at_zero():
    # -0.0 is not below 0: it takes the routes of q = 0, bit for bit
    for p in (0.5, 1.0, 2.0, 3.5, 171.0):
        for fn in (upsilon, upsilon_scaled):
            assert fn(p, -0.0).hex() == fn(p, 0.0).hex(), (p, fn)


def test_upsilon_integer_p_where_e_to_the_q_upsilon_is_beyond_the_double_range():
    # the closed form is e^q Upsilon(p, q), which overflows here; these were
    # refused as beyond the double range
    for p, q, want in ((171.0, 10.0, 7.2574156153079989674e306),
                       (168.0, 25.25, 1.5036165148649990402e300)):
        assert upsilon(p, q) == pytest.approx(want, rel=1e-15)
    with pytest.raises(GammaRangeError, match=r"e\^q \* Upsilon\(171.0, 10.0\)"):
        upsilon_scaled(171.0, 10.0)


def _hex_or_error(fn, *args):
    try:
        return fn(*args).hex()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _closed_form_term_by_term(p, q):
    """e^q Upsilon(p, q) for integer p: the sum over i < p of (p-1)!/i! q^i,
    each power taken afresh."""
    acc = 0.0
    coeff = float(math.factorial(int(p) - 1))
    for i in range(int(p)):
        if i > 0:
            coeff /= i
        acc += coeff * q**i
    return acc


def _row_prefix(ps, q, scaled):
    """The values a row yields before it stops, and its refusal (or None)."""
    values = []
    try:
        for value in upsilon_row(ps, q, scaled):
            values.append(value.hex())
    except ValueError as exc:
        return values, (type(exc).__name__, str(exc))
    return values, None


def _row_outcomes(ps, q, scaled):
    """The outcome of each p, from rows that start again after each refusal."""
    got = []
    while ps:
        values, refusal = _row_prefix(ps, q, scaled)
        got += values + ([refusal] if refusal else [])
        ps = ps[len(values) + 1:]
    return got


def test_upsilon_scaled_memo_matches_fresh_calls_in_any_order():
    # the memo is now a row, which shares q, e^q, e^-q and the powers of q
    # among its p, and the closed form's coefficient rows grow on demand,
    # whatever order p comes in
    r = random.Random(7)
    ps = [float(p) for p in range(1, 176)] + [p + 0.5 for p in range(0, 175, 7)]
    for q in (0.0, 1e-9, 0.75, 3.0, 25.0, 120.0, 800.0, 2400.0, -1e-9, -0.75, -3.0, -40.0):
        for order in (ps, ps[::-1], r.sample(ps, len(ps))):
            for scaled, fn in ((True, upsilon_scaled), (False, upsilon)):
                got = _row_outcomes(order, q, scaled)
                assert got == [_hex_or_error(fn, p, q) for p in order], (q, scaled)
                if scaled and q >= 0.0:
                    assert all(
                        value == _closed_form_term_by_term(p, q).hex()
                        for p, value in zip(order, got)
                        if p.is_integer() and p <= 171 and isinstance(value, str)
                    ), q


@pytest.mark.parametrize("bad, q, scaled", [
    (0.0, 2.0, True),
    (-1.5, 2.0, False),
    (math.nan, 2.0, True),
    (171.0, 10.0, True),
    # at q < 0 the row refuses at its first p, before it reaches the bad one
    (2.5, -0.5, True),
    (2.5, -0.5, False),
])
def test_upsilon_row_stops_at_the_first_refusal(bad, q, scaled):
    fn = upsilon_scaled if scaled else upsilon
    ps = [1.0, 3.0, bad, 4.0, -1.0]
    stop = 0 if q < 0.0 else 2
    values, refusal = _row_prefix(ps, q, scaled)
    assert values == [fn(p, q).hex() for p in ps[:stop]]
    assert refusal == _hex_or_error(fn, ps[stop], q)
    assert isinstance(refusal, tuple)


def test_upsilon_row_vets_q_after_its_first_p():
    # as a single call does: a row without p vets nothing
    assert _row_prefix([], math.nan, True) == ([], None)
    for ps, q, match in (([1.0, 2.0], math.inf, "q must be finite"),
                         ([math.nan], math.nan, "p must be finite")):
        values, refusal = _row_prefix(ps, q, True)
        assert values == [] and refusal[0] == "ValueError" and refusal[1].startswith(match)
        with pytest.raises(ValueError, match=match):
            upsilon_scaled(ps[0], q)


def test_upsilon_beyond_the_double_range_raises_and_names_p_and_q():
    from fracseries.special import GammaRangeError

    for p, q in ((200.5, 1.0), (180.0, 2.0), (171.7, 0.0)):
        with pytest.raises(GammaRangeError, match=rf"Upsilon\({p!r}, {q!r}\)"):
            upsilon(p, q)
    with pytest.raises(GammaRangeError, match=r"e\^q \* Upsilon\(200.5, 900.0\)"):
        upsilon_scaled(200.5, 900.0)


def test_upsilon_in_range_where_gamma_p_is_not():
    # Gamma(p) overflows past 171.62, and so did (p-1)! and Gamma(p) * Q(p, q)
    cases = [
        (200.5, 1500.0, 1.7799716898219364266e-18),
        (200.0, 1500.0, 4.5941026278907481014e-20),
        (172.0, 400.0, 2.9874272946325639954e271),
    ]
    for p, q, want in cases:
        assert upsilon(p, q) == pytest.approx(want, rel=1e-14)


def test_upsilon_scaled_stays_in_range_where_its_factors_do_not():
    # e^800 overflows and Upsilon(p, 800) underflows; their product is about
    # 800^(p-1), exactly 1 at p = 1
    assert upsilon_scaled(1.0, 800.0) == 1.0
    assert upsilon_scaled(2.5, 800.0) == pytest.approx(800.0**1.5, rel=1e-2)
    assert upsilon_scaled(0.5, 1.0) == pytest.approx(math.e * upsilon(0.5, 1.0), rel=1e-15)


# --- upsilon against mpmath -------------------------------------------------------


def upsilon_bands() -> dict[str, tuple[bool, list[tuple[float, float]]]]:
    """Seeded (p, q) samples of each panel band, with whether the band goes
    through upsilon_scaled; p is an integer exactly in the bands that say so."""
    r = random.Random(20261018)

    def p_in(lo, hi):
        while True:
            p = r.uniform(lo, hi)
            if not p.is_integer():
                return p

    def band(n, p_lo, p_hi, q_lo, q_hi, log_q=False):
        if log_q:
            lo, hi = math.log(q_lo), math.log(q_hi)
            return [(p_in(p_lo, p_hi), math.exp(r.uniform(lo, hi))) for _ in range(n)]
        return [(p_in(p_lo, p_hi), r.uniform(q_lo, q_hi)) for _ in range(n)]

    bands = {
        "p <= 67, q in [1, 12]": (False, band(150, 0.01, 67.0, 1.0, 12.0)),
        "p < 1, q < 0.5": (
            False, band(75, 0.001, 1.0, 0.0, 0.5) + band(75, 0.001, 1.0, 1e-8, 0.5, log_q=True)
        ),
        "p < 1, q in [0.5, 2]": (False, band(150, 0.001, 1.0, 0.5, 2.0)),
        "p in [1, 30], q in [0, 60]": (False, band(150, 1.0, 30.0, 0.0, 60.0)),
        "p in [67, 170], q in [0, 340]": (False, band(150, 67.0, 170.0, 0.0, 340.0)),
        "scaled, p <= 67, q in [12, 800]": (True, band(150, 0.01, 67.0, 12.0, 800.0, log_q=True)),
    }
    # the draws of a band at q < 0, which upsilon now refuses: the band below
    # keeps the samples its tolerance was set on
    for _ in range(150):
        r.randint(1, 171), r.random()
    bands["integer p <= 171, q in [0, 60]"] = (
        False, [(float(r.randint(1, 171)), r.uniform(0.0, 60.0)) for _ in range(150)]
    )
    return bands


#: Largest relative error allowed in each band against 40-digit mpmath;
#: for non-integer p each is at most that of scipy's gammaincc(p, q) *
#: Gamma(p) on the same samples (the scaled band: e^q times it, where that
#: is finite).
UPSILON_PANEL_TOL = {
    "p <= 67, q in [1, 12]": 1.5e-15,
    "p < 1, q < 0.5": 8e-16,
    "p < 1, q in [0.5, 2]": 5e-15,
    "p in [1, 30], q in [0, 60]": 3e-15,
    "p in [67, 170], q in [0, 340]": 3e-15,
    "scaled, p <= 67, q in [12, 800]": 2e-15,
    "integer p <= 171, q in [0, 60]": 1.5e-15,
}


def upsilon_panel_errors(band: str) -> list[float]:
    """Relative errors of one band against 40-digit mpmath, over the points
    answered. A point may be refused only where its value is beyond the
    double range."""
    import mpmath

    scaled, points = upsilon_bands()[band]
    errors = []
    with mpmath.workdps(40):
        for p, q in points:
            want = mpmath.gammainc(p, q, mpmath.inf)
            if scaled:
                want *= mpmath.exp(q)
            try:
                got = (upsilon_scaled if scaled else upsilon)(p, q)
            except GammaRangeError:
                assert abs(want) > sys.float_info.max, (p, q)
                continue
            errors.append(float(abs((got - want) / want)))
    return errors


@pytest.mark.parametrize("band", sorted(UPSILON_PANEL_TOL))
def test_upsilon_panel_against_mpmath(band):
    pytest.importorskip("mpmath")
    assert max(upsilon_panel_errors(band)) <= UPSILON_PANEL_TOL[band]


# --- arguments where math.gamma underflows ----------------------------------------


def _log_space_recip(x):
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return sign * math.exp(-math.lgamma(x))


def test_recip_gamma_beyond_double_range_raises_and_names_x():
    from fracseries.special import GammaRangeError

    for x in (-171.5, -179.5, -300.25):
        with pytest.raises(GammaRangeError, match=str(x)):
            recip_gamma(x)
    assert issubclass(GammaRangeError, ValueError)


def test_recip_gamma_far_left_but_representable():
    # near a pole, and in the band where math.gamma is subnormal
    for x in (-171.001, -172.00001, -170.7):
        assert recip_gamma(x) == pytest.approx(_log_space_recip(x), rel=1e-11)
