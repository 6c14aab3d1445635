"""The five value types keep what callers observe: the repr, equality and
hash, and immutability. The strings and hashes were taken when they were
frozen dataclasses.

A hash of numbers, tuples and these types is the same in every process;
one that holds None (LaplaceExpr.singular) is not before Python 3.12, so
that hash is pinned against the tuple of its compared fields.
"""

import pytest

from fracseries.laplace import LaplaceExpr
from fracseries.leibniz import LeibnizReport
from fracseries.series import EvalResult, FracPowerSeries, TaylorSeries

FPS = FracPowerSeries(0.0, ((2, 1.5), (1.0, 0.5)), 3.0, False)
FPS_REPR = ("FracPowerSeries(center=0.0, terms=((1.0, 0.5), (2.0, 1.5)), radius_hint=3.0, "
            "complete=False)")

#: name -> (build, a build that differs in one compared field, field names,
#: repr, hash or None)
CASES = {
    "EvalResult": (
        lambda: EvalResult.finite(1.5), lambda: EvalResult.finite(2.5), ("value", "sign"),
        "EvalResult(value=1.5, sign=0)", 6660161741276059634),
    "EvalResult-infinite": (
        lambda: EvalResult.infinite(-1), lambda: EvalResult.infinite(1), ("value", "sign"),
        "EvalResult(value=0.0, sign=-1)", 8374038142897728572),
    "TaylorSeries": (
        lambda: TaylorSeries(0.5, (1, 2.0), 2.0, False),
        lambda: TaylorSeries(0.5, (1, 2.0), 2.0, True),
        ("center", "derivs", "radius_hint", "complete"),
        "TaylorSeries(center=0.5, derivs=(1.0, 2.0), radius_hint=2.0, complete=False)",
        6721742979835881585),
    "FracPowerSeries": (
        lambda: FracPowerSeries(0.0, ((2, 1.5), (1.0, 0.5)), 3.0, False),
        lambda: FracPowerSeries(0.0, ((2, 1.5), (1.0, 0.5)), 4.0, False),
        ("center", "terms", "radius_hint", "complete"), FPS_REPR, 4245427289844040934),
    "LaplaceExpr": (
        lambda: LaplaceExpr(-1.0, ((1.0, 1.5), (0.5, 0.5)), complete=False),
        lambda: LaplaceExpr(-1.0, ((1.0, 1.5), (0.25, 0.5)), complete=False),
        ("shift", "terms", "singular", "complete"),
        "LaplaceExpr(shift=-1.0, terms=((0.5, 0.5), (1.0, 1.5)), singular=None, complete=False)",
        None),
    "LeibnizReport": (
        lambda: LeibnizReport(EvalResult.finite(2.0), 0.25, 3, lambda: 1.0),
        lambda: LeibnizReport(EvalResult.finite(2.0), 0.25, 4, lambda: 1.0),
        ("rule_value", "correction_value", "terms_used"),
        "LeibnizReport(rule_value=EvalResult(value=2.0, sign=0), correction_value=0.25, "
        "terms_used=3)",
        -138552253212416268),
}


@pytest.mark.parametrize("name", CASES)
def test_repr_equality_and_hash_are_those_of_the_dataclass(name):
    build, other, _, text, pinned = CASES[name]
    value = build()
    assert repr(value) == text
    assert value == build() and not value != build()
    assert value != other() and not value == other()
    assert hash(value) == hash(build())
    if pinned is not None:
        assert hash(value) == pinned


@pytest.mark.parametrize("name", CASES)
def test_no_field_and_no_new_attribute_can_be_set(name):
    build, _, fields, _, _ = CASES[name]
    value = build()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0.0
    assert repr(value) == CASES[name][3]


def test_a_transform_compares_and_hashes_without_complete():
    truncated = LaplaceExpr(-1.0, ((1.0, 1.5),), complete=False)
    whole = LaplaceExpr(-1.0, ((1.0, 1.5),))
    assert truncated == whole and hash(truncated) == hash(whole)
    assert hash(whole) == hash((-1.0, ((1.0, 1.5),), None))
    assert LaplaceExpr(singular="k=0") != LaplaceExpr(singular="k=1")


@pytest.mark.parametrize("name", ["EvalResult", "TaylorSeries", "FracPowerSeries",
                                  "LaplaceExpr", "LeibnizReport"])
def test_plain_value_types_are_not_tuples(name):
    build, _, fields, _, _ = CASES[name]
    value = build()
    assert value != tuple(getattr(value, field) for field in fields)
    with pytest.raises(TypeError):
        len(value)
    with pytest.raises(TypeError):
        value[0]


def test_taylor_data_keep_their_work_and_a_report_reads_its_reference():
    f = TaylorSeries(0.0, (1.0, 2.0, 6.0))
    assert f.coeffs == (1.0, 2.0, 3.0) and "coeffs" in vars(f)
    assert f._memo(1.0) is f._memo(1.0)
    report = CASES["LeibnizReport"][0]()
    assert report.reference_value == EvalResult.finite(1.0) and report.residual == 1.0
