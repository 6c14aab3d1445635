"""Every narrative script in demos/ runs to the end.

Between them the demos call each Laplace route, the product rules and
the quadrature oracle, so a route that raises shows up here.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert "Traceback" not in out


def test_laplace_demo_shows_cancellation_and_markers(capsys):
    runpy.run_path(str(DEMOS[2]), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert "caputo transform of 1+t, order 1.5 : 0" in lines
    assert "RL transform of 1+t, order 1.5     : SINGULAR(k=0)" in lines
    assert "generalized caputo from a=2       : 1 * s^(-1.3)" in lines
    assert lines[-3:] == [
        "  f = 1    : rl-limits-zero=False  derivs-zero=False  D^1.5 near 0: Infinite(-1)",
        "  f = t    : rl-limits-zero=False  derivs-zero=False  D^1.5 near 0: Infinite(+1)",
        "  f = t^2  : rl-limits-zero=True  derivs-zero=True  D^1.5 near 0: Finite(0.0)",
    ]
