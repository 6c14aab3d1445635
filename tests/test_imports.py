"""Import hygiene: numpy and scipy load only where they are used.

Runs in a fresh interpreter, because the test modules themselves import
numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fracseries

SCRIPT = r"""
import json, sys
import fracseries, fracseries.cli

heavy = sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))
f = fracseries.series_from_catalog("exp", [1.0], 0.0, 32)
print(json.dumps({
    "heavy": heavy,
    "upsilon": [fracseries.upsilon(0.5, 1.0), fracseries.upsilon(2.5, 0.3)],
    "caputo_quad": fracseries.caputo_quad(f, 0.5, 1.0),
}))
"""


def run_fresh() -> dict:
    src = str(Path(fracseries.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def test_import_loads_neither_numpy_nor_scipy_and_values_survive_lazy_load():
    got = run_fresh()
    assert got["heavy"] == []
    # bitwise the values of the eager-import version
    assert got["upsilon"] == [0.27880558528065474, 1.313392614298147]
    assert got["caputo_quad"] == 2.290698252303234
