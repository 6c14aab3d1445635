"""Import hygiene: the package runs on the standard library alone.

Runs in a fresh interpreter, because the test modules themselves import
numpy. There ``sys.modules[name] = None`` for numpy and scipy, so any
import of either raises ImportError.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import fracseries

SCRIPT = r"""
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
import fracseries, fracseries.cli

argvs = [
    ["eval", "exp:1", "--alpha", "0.5", "--grid", "0.5:2:4"],
    ["oracle", "exp:1", "--alpha", "0.5", "--grid", "0.5:2:4"],
    ["leibniz", "--f", "exp:1", "--g", "sin:1", "--alpha", "0.5", "--t", "1"],
    ["laplace", "exp:1", "--a=-1", "--op", "caputo", "--alpha", "0.5"],
    ["examples"],
]
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(fracseries.cli.main(argv))
f = fracseries.series_from_catalog("exp", [1.0], 0.0, 32)
g = fracseries.series_from_catalog("exp", [1.0], -1.0, 32)
print(json.dumps({
    "codes": codes,
    "heavy": sorted(m for m in sys.modules
                    if m.partition(".")[0] in ("numpy", "scipy") and sys.modules[m] is not None),
    "upsilon": [fracseries.upsilon(0.5, 1.0), fracseries.upsilon(2.5, 0.3)],
    "caputo_quad": fracseries.caputo_quad(f, 0.5, 1.0),
    "shifted": fracseries.laplace_shifted_series(g, "plain").evaluate(800.0),
}))
"""


@lru_cache(maxsize=1)
def run_fresh() -> dict:
    src = str(Path(fracseries.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def test_every_subcommand_runs_without_numpy_or_scipy():
    got = run_fresh()
    assert got["codes"] == [0, 0, 0, 0, 0]
    assert got["heavy"] == []


def test_import_loads_neither_numpy_nor_scipy_and_values_match_mpmath():
    got = run_fresh()
    assert got["heavy"] == []
    # 30-digit mpmath: Upsilon(0.5, 1) = 0.278805585280661976...,
    # Upsilon(2.5, 0.3) = 1.31339261429814...; the Caputo derivative of
    # order 1/2 of e^t at t = 1 is e*erf(1) = 2.29069825230323823...
    assert got["upsilon"] == [0.27880558528066185, 1.313392614298147]
    assert got["caputo_quad"] == 2.2906982523032386
    # e^t from a = -1 has the transform 1/(s - 1)
    assert got["shifted"] == 0.001251564455569462


MODULES = ("series", "special", "operators", "leibniz", "laplace", "quadrature", "grammar")


def test_package_names_are_the_module_lists():
    import importlib

    modules = [importlib.import_module(f"fracseries.{name}") for name in MODULES]
    assert fracseries.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(fracseries.__all__)) == len(fracseries.__all__) == 45
    for module in modules:
        for name in module.__all__:
            assert getattr(fracseries, name) is getattr(module, name)
