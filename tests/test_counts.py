"""Every public entry that takes a count (an index, a power, a branch, a
truncation or a node count) refuses one that is not an integer at least its
least value with the same message, naming the parameter, and reads an
integral float as the equal int."""

import dataclasses
import math

import pytest

from fracseries import (
    frequency_derivative,
    frequency_differentiation_check,
    gen_binom,
    integer_limit_check,
    laplace_series,
    leibniz_report,
    parse_function_spec,
    pochhammer,
    rl_integral_fixed,
    series_from_catalog,
)

F = series_from_catalog("exp", [1.0], truncation=32)
G = series_from_catalog("sin", [1.0], truncation=32)
# complete data: a rule of two or three terms answers without a tail test
P = series_from_catalog("poly", [1.0, 2.0, 3.0], truncation=32)

#: entry -> (parameter name, least value, call)
ENTRIES = {
    "gen_binom": ("k", 0, lambda n: gen_binom(0.5, n)),
    "pochhammer": ("k", 0, lambda n: pochhammer(0.5, n)),
    "TaylorSeries.nth_derivative": ("n", 0, lambda n: F.nth_derivative(n)),
    "integer_limit_check": ("n", 1, lambda n: integer_limit_check(F, n, 1e-3, [0.5, 1.0])),
    "series_from_catalog": ("truncation", 1, lambda n: series_from_catalog("exp", [1.0], 0.0, n)),
    "parse_function_spec": ("truncation", 1, lambda n: parse_function_spec("exp:1", 0.0, n)),
    "leibniz_report": ("trunc", 1, lambda n: leibniz_report(P, G, 0.5, 1.0, trunc=n)),
    "frequency_derivative": ("m", 0, lambda n: frequency_derivative(laplace_series(F), n)),
    "frequency_differentiation_check": (
        "m", 0, lambda n: frequency_differentiation_check(F, 0.5, n)),
    "rl_integral_fixed": ("nodes", 1, lambda n: rl_integral_fixed(math.exp, 0.5, 0.0, 1.0, n)),
}


def bits(value):
    """A value with every float as its hex string, dataclasses as tuples."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    return value


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_count_entry_refuses_a_non_integer_count(entry):
    name, least, call = ENTRIES[entry]
    for bad in (1.5, math.nan, math.inf, least - 1, least - 1.0):
        with pytest.raises(ValueError) as excinfo:
            call(bad)
        assert str(excinfo.value) == f"{name} must be an integer >= {least}, got {bad!r}"


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_count_entry_reads_an_integral_float_as_the_int(entry):
    _, _, call = ENTRIES[entry]
    assert bits(call(2.0)) == bits(call(2))
