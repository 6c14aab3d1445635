"""Pin the benchmark worker's outputs: the first gen.CHECKED requests of
seed 1 of each workload, run through worker.run_op and hashed as one
sort_keys JSON list. Any change to a value, a message or an exit code moves
a hash; a change that keeps every output bit for bit keeps all three.

benchmarks/worker.py and gen.py are read from the checkout and executed
here, so nothing under benchmarks/ is written; without benchmarks/ the
tests skip.
"""

import hashlib
import json
import types
from pathlib import Path

import pytest

import fracseries
import fracseries.cli  # worker.op_cli calls fs.cli.main

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

#: sha256(json.dumps(outs, sort_keys=True))[:16] over seed 1's checked ops.
GOLDEN = {
    "grid-eval": "86bdb7edbae7b1a4",
    "symbolic": "2c60cd553d020b94",
    "crosscheck": "403807d198aec898",
}


def _load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    if not path.is_file():
        pytest.skip(f"no {path.name} under {BENCH}")
    module = types.ModuleType(f"benchmarks_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_worker_outputs_of_seed_1_are_pinned(workload):
    worker, gen = _load("worker"), _load("gen")
    stream = gen.STREAMS[workload](1)
    outs = [worker.run_op(fracseries, workload, next(stream))
            for _ in range(gen.CHECKED[workload])]
    assert not [out for out in outs if "exception" in out]
    digest = hashlib.sha256(json.dumps(outs, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == GOLDEN[workload]
