"""Every public entry that takes an order refuses a non-finite one with the
same message, and reads an int order as the equal float."""

import math

import pytest

from fracseries import (
    FracPowerSeries,
    caputo_derivative,
    caputo_quad,
    classify_lower_terminal,
    generalized_laplace,
    laplace_caputo,
    laplace_rl_derivative,
    laplace_rl_derivative_fps,
    laplace_rl_integral,
    laplace_rl_integral_fps,
    laplace_shifted_series,
    leibniz_report,
    rl_caputo_bridge,
    rl_derivative_quad,
    rl_differintegral,
    rl_integral_fixed,
    rl_integral_quad,
    series_from_catalog,
)

F = series_from_catalog("exp", [1.0], truncation=32)
G = series_from_catalog("sin", [1.0], truncation=32)
F_AT_1 = series_from_catalog("exp", [1.0], center=1.0, truncation=32)
F_SHIFTED = series_from_catalog("exp", [1.0], center=-1.0, truncation=32)
POWERS = FracPowerSeries(0.0, ((1.0, 0.5), (2.0, 1.0)))

ENTRIES = {
    "rl_differintegral": lambda o: rl_differintegral(F, o),
    "caputo_derivative": lambda o: caputo_derivative(F, o),
    "rl_caputo_bridge": lambda o: rl_caputo_bridge(F, o),
    "leibniz_report": lambda o: leibniz_report(F, G, o, 1.0),
    "laplace_rl_integral": lambda o: laplace_rl_integral(F, o),
    "laplace_caputo": lambda o: laplace_caputo(F, o),
    "laplace_rl_derivative": lambda o: laplace_rl_derivative(F, o),
    "laplace_rl_derivative_fps": lambda o: laplace_rl_derivative_fps(POWERS, o),
    "laplace_rl_integral_fps": lambda o: laplace_rl_integral_fps(POWERS, o),
    "laplace_shifted_series": lambda o: laplace_shifted_series(F_SHIFTED, "caputo", o),
    "generalized_laplace": lambda o: generalized_laplace(F_SHIFTED, "caputo", o),
    "classify_lower_terminal": lambda o: classify_lower_terminal(F, o),
    "caputo_quad": lambda o: caputo_quad(F, o, 1.0),
    "rl_derivative_quad": lambda o: rl_derivative_quad(F, o, 1.0),
    "rl_integral_fixed": lambda o: rl_integral_fixed(math.exp, o, 0.0, 1.0, 16),
    "rl_integral_quad": lambda o: rl_integral_quad(math.exp, o, 0.0, 1.0),
}


def _outcome(thunk):
    try:
        return thunk()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_order_entry_refuses_a_non_finite_order(entry):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as excinfo:
            ENTRIES[entry](bad)
        assert str(excinfo.value) == f"order must be finite, got {bad!r}"


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_order_entry_reads_an_int_order_as_the_equal_float(entry):
    # an int order reaches each integer test as a float: int.is_integer
    # exists only from Python 3.12 on; entries that refuse integer orders
    # refuse 2 and 2.0 alike
    for order in (2, 1, -1, 0):
        assert _outcome(lambda: ENTRIES[entry](order)) == _outcome(
            lambda: ENTRIES[entry](float(order))), order
