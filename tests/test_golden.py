"""Pin the benchmark worker's outputs, op by op: the first gen.CHECKED
requests of seeds 1, 5001 and 7022 of each workload, run through
worker.run_op in one process, seed after seed.

tests/golden/<workload>.txt holds one line per op:

    <seed> <index> <outcome> <sha256 prefix of the op's sort_keys JSON>

where the outcome is `exit=<code>` for a CLI op, `exception=<type>` for an
undocumented exception and `ok` otherwise. Any change to a value, a message
or an exit code moves a line, and the check names each op that moved. Seed
1's whole list is also pinned by one hash.

benchmarks/worker.py and gen.py are read from the checkout and executed
here, so nothing under benchmarks/ is written; without benchmarks/ the
tests skip. The check needs only the standard library and the package:

    python tests/test_golden.py          # exit 1 and name each moved op
    python tests/test_golden.py --write  # regenerate tests/golden/
"""

import functools
import hashlib
import json
import sys
import types
from pathlib import Path

import fracseries
import fracseries.cli  # worker.op_cli calls fs.cli.main

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "benchmarks"
DIGESTS = HERE / "golden"
SEEDS = (1, 5001, 7022)

#: sha256(json.dumps(outs, sort_keys=True))[:16] over seed 1's checked ops.
GOLDEN = {
    "grid-eval": "86bdb7edbae7b1a4",
    "symbolic": "2c60cd553d020b94",
    "crosscheck": "403807d198aec898",
}


def pytest_generate_tests(metafunc):
    # parametrized here, not by decorator, so that the module imports without pytest
    if "workload" in metafunc.fixturenames:
        metafunc.parametrize("workload", sorted(GOLDEN))


def _load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    if not path.is_file():
        import pytest

        pytest.skip(f"no {path.name} under {BENCH}")
    module = types.ModuleType(f"benchmarks_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _outcome(out: dict) -> str:
    if "exception" in out:
        return "exception=" + out["exception"].split(":", 1)[0]
    if "exit" in out:
        return f"exit={out['exit']}"
    return "ok"


@functools.cache
def _run(workload: str) -> tuple[tuple[str, ...], str]:
    """The digest lines of every seed, and the hash of seed 1's whole list."""
    worker, gen = _load("worker"), _load("gen")
    lines, whole = [], ""
    for seed in SEEDS:
        stream = gen.STREAMS[workload](seed)
        outs = [worker.run_op(fracseries, workload, next(stream))
                for _ in range(gen.CHECKED[workload])]
        lines += [f"{seed} {i} {_outcome(out)} {_digest(json.dumps(out, sort_keys=True))}"
                  for i, out in enumerate(outs)]
        if seed == 1:
            whole = _digest(json.dumps(outs, sort_keys=True))
    return tuple(lines), whole


def _moved(workload: str) -> list[str]:
    """One line per op whose digest line differs from the committed file."""
    want = (DIGESTS / f"{workload}.txt").read_text().splitlines()
    got = _run(workload)[0]
    moved = []
    for w, g in zip(want, got):
        if w != g:
            seed, index, *was = w.split()
            now = g.split()[2:]
            moved.append(f"{workload} seed {seed} op {index}: {' '.join(was)} -> {' '.join(now)}")
    if len(want) != len(got):
        moved.append(f"{workload}: {len(want)} committed lines, {len(got)} ops run")
    return moved


def test_worker_outputs_of_seed_1_are_pinned(workload):
    lines, whole = _run(workload)
    assert not [line for line in lines if " exception=" in line]
    assert whole == GOLDEN[workload]


def test_every_op_of_three_seeds_keeps_its_digest(workload):
    moved = _moved(workload)
    assert not moved, "\n".join(moved)


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        DIGESTS.mkdir(exist_ok=True)
        for workload in sorted(GOLDEN):
            (DIGESTS / f"{workload}.txt").write_text("\n".join(_run(workload)[0]) + "\n")
        return 0
    if argv:
        print("usage: python tests/test_golden.py [--write]", file=sys.stderr)
        return 2
    failed = False
    for workload in sorted(GOLDEN):
        moved = _moved(workload)
        print(f"{workload}: {len(_run(workload)[0])} ops, {len(moved)} moved")
        print("\n".join(moved), end="\n" if moved else "")
        failed = failed or bool(moved)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
