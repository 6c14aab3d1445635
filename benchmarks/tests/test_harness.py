"""Tests of the benchmark harness itself (not of fracseries).

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from run import tail  # noqa: E402


@pytest.fixture(scope="module")
def fs():
    return worker.import_package()


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.STREAMS)
def test_same_seed_same_inputs(workload):
    assert gen.fixed_requests(workload, 7) == gen.fixed_requests(workload, 7)
    assert gen.fixed_requests(workload, 7) != gen.fixed_requests(workload, 8)
    n = 3 * gen.FIXED[workload]
    assert gen.take(gen.STREAMS[workload](3), n) == gen.take(gen.STREAMS[workload](3), n)


@pytest.mark.parametrize("workload", ["grid-eval", "symbolic"])
def test_streams_draw_fresh_orders_and_cover_every_cell(workload):
    reqs = gen.take(gen.STREAMS[workload](5), 4 * gen.FIXED[workload])
    fractional = [r["alpha"] for r in reqs if not float(r["alpha"]).is_integer()]
    assert len(set(fractional)) == len(fractional) > len(reqs) // 2
    if workload == "grid-eval":
        assert {r["atoms"][0][0] for r in reqs} == set(gen.TAYLOR_KINDS)
        assert any(len(r["atoms"]) == 1 and r["atoms"][0][0] in ("sin", "cos") for r in reqs)
    else:
        assert any(n == "power" for r in reqs for n, _ in r["gen_atoms"])


def test_crosscheck_mixes_sweeps_and_fresh_orders():
    reqs = gen.take(gen.crosscheck_stream(1), 2 * gen.CROSS_GROUP)
    sweep = [r["alpha"] for r in reqs if r["sweep"]]
    fresh = [r["alpha"] for r in reqs if not r["sweep"]]
    assert len(set(sweep)) == 1 and len(set(fresh)) == len(fresh) == gen.CROSS_GROUP


# ----------------------------------------------------------------------
# Reference checker
# ----------------------------------------------------------------------


def _grid_request(power: bool = False):
    return next(r for r in gen.grid_eval_stream(2) if any(n == "power" for n, _ in r["atoms"]) == power)


def test_checker_accepts_the_program_and_flags_a_perturbed_value(fs):
    req = _grid_request()
    out = worker.op_cli(fs, req)
    assert reference.check_grid(req, out).failures == []
    data = json.loads(out["stdout"])
    row = max((r for r in data["rows"] if isinstance(r["value"], float)), key=lambda r: abs(r["value"]))
    row["value"] *= 1 + 1e-6
    bad = dict(out, stdout=json.dumps(data))
    assert reference.check_grid(req, bad).failures


def _symbolic_request(atoms, alpha):
    spec = gen.spec_text(atoms)
    return {"atoms": atoms, "spec": spec, "gen_atoms": atoms, "gen_spec": spec,
            "power_atoms": [("power", [0.5])], "power_spec": "power:0.5",
            "alpha": alpha, "t": 0.5, "a_neg": -0.5, "a_pos": 1.0, "s": [4.5]}


def test_checker_flags_a_wrong_singular_index(fs):
    # poly 1 + t has f(0) != 0, so its RL derivative of order 1.5 has no transform
    req = _symbolic_request([("poly", [1.0, 1.0])], 1.5)
    good = worker.op_symbolic(fs, req)
    assert good["transforms"]["rl_der"]["render"] == "SINGULAR(k=0)"
    assert reference.check_symbolic(req, good).failures == []
    wrong = json.loads(json.dumps(good))
    wrong["transforms"]["rl_der"]["render"] = "SINGULAR(k=1)"
    assert reference.check_symbolic(req, wrong).failures


def test_checker_flags_an_unexpected_exit_code(fs):
    refusal = _grid_request(power=True)
    out = worker.op_cli(fs, refusal)
    assert out["exit"] == 3 and reference.check_grid(refusal, out).failures == []
    assert reference.check_grid(refusal, dict(out, exit=0)).failures
    req = _grid_request()
    assert reference.check_grid(req, {"exit": 3, "stdout": "", "stderr": ""}).failures


def test_checker_flags_a_traceback(fs):
    req = _grid_request()
    out = worker.op_cli(fs, req)
    out["stderr"] = "Traceback (most recent call last):\n  ..."
    assert reference.check_grid(req, out).failures


def test_rounded_trig_reference_explains_only_the_rounding_defect():
    # cos(t) - 1 has f(0) = f'(0) = 0, but the catalog's double-precision
    # data keeps f'(0) = sin(pi) ~ 1e-16, which then leads the RL series
    exact = reference.Func([("cos", [1.0]), ("const", [-1.0])], 0.0)
    rounded = reference.Func([("cos", [1.0]), ("const", [-1.0])], 0.0, as_computed=True)
    assert exact.derivs(0, 3)[1] == 0 and rounded.derivs(0, 3)[1] != 0
    assert reference.OperatorSeries(exact.derivs(0), 1.5).at_terminal() == ("finite", 0)
    assert reference.OperatorSeries(rounded.derivs(0), 1.5).at_terminal()[0] == "inf"


def test_divergent_generalized_transform_fails_and_is_attributed(fs):
    # power data about a = 1 has radius 1, so its termwise transform diverges
    atoms = [("power", [0.5])]
    got = worker._transform(fs, lambda: fs.generalized_laplace(fs.parse_function_spec("power:0.5", 1.0), "plain"),
                            [4.5])
    for as_computed, fails in ((False, True), (True, False)):
        v = reference.Verdict()
        ref = reference.transform(reference.Func(atoms, 1.0, as_computed), "gen_plain")
        reference.check_transform(v, "gen_plain", ref, got, [4.5])
        assert bool(v.failures) == fails


def test_zero_sum_refusal_fails_and_is_attributed(fs):
    # f g = 1, so the Caputo derivative of the product is exactly zero
    req = {"f": [("exp", [-0.75])], "g": [("exp", [0.75])], "f_spec": "exp:-0.75", "g_spec": "exp:0.75",
           "alpha": 0.710217, "a": 0.0, "t": 1.5, "quad_t": [1.5]}
    verdict = reference.check_cross(req, worker.op_cross(fs, req))
    assert verdict.failures and verdict.unexplained == []


def test_timed_worker_pauses_between_segments_and_keeps_the_first_ops():
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "grid-eval", "--seed", "9",
           "--phase", "timed", "--seconds", "0.4", "--segments", "2"]
    proc = subprocess.run(cmd, input="go\ngo\n", capture_output=True, text=True, cwd=ROOT, check=True,
                          timeout=300)
    lines = proc.stdout.splitlines()
    assert lines[:-1] == ["READY", "PAUSE", "PAUSE"]
    result = json.loads(lines[-1])
    # the first CHECKED ops are kept however many the loop ran; each must
    # match the request regenerated at its index
    kept = result["kept"]
    assert len(result["gauges"]) == len(result["latencies"]) >= 2
    assert sorted(map(int, kept)) == list(range(gen.CHECKED["grid-eval"]))
    reqs = gen.take(gen.grid_eval_stream(9), len(kept))
    for i in range(0, len(kept), 9):
        assert reference.check_grid(reqs[i], kept[str(i)]).unexplained == []


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


def _span(parent, start, end, layer="x"):
    return [parent, "f", layer, start, end, 0, None, None]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(-1, 0.0, 10.0),  # 0: root
        _span(0, 1.0, 4.0),    # 1
        _span(0, 3.0, 6.0),    # 2 overlaps 1: union of 1 and 2 is [1, 6]
        _span(1, 2.0, 3.0),    # 3 inside 1
        _span(0, 9.0, 12.0),   # 4 runs past the root: only [9, 10] counts
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_tracer_wraps_every_namespace_and_restores_it(fs):
    original = fs.leibniz.recip_gamma
    tr = tracer.Tracer()
    tr.install(fs)
    try:
        assert fs.leibniz.recip_gamma is fs.special.recip_gamma is not original
        fs.leibniz.recip_gamma(0.5)
        fs.special.recip_gamma(0.5)
    finally:
        tr.uninstall()
    assert fs.leibniz.recip_gamma is original
    assert [s[tracer.NAME] for s in tr.spans] == ["special.recip_gamma"] * 2
    assert tr.absent == []


def test_tracer_reports_missing_names_instead_of_failing(fs):
    tr = tracer.Tracer()
    fake = type(fs)("fracseries_fake")
    tr.install(fake)
    assert set(tr.absent) == set(tracer.EXPECTED)
    assert tracer.layer_metrics([], None)["quadrature.jacobi_cache_hit_ratio"] == 0.0


def _traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--phase", "traced"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True, timeout=300)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", ["crosscheck", "symbolic"])
def test_two_traced_runs_give_identical_counts(workload):
    first = _traced_counts(workload, 4)
    assert first == _traced_counts(workload, 4)
    assert sum(first.values()) > 0


# ----------------------------------------------------------------------
# Metrics helpers
# ----------------------------------------------------------------------


def test_rescale_removes_a_change_of_machine_speed():
    # the same op at reference speed, then on a machine 1.6 times slower
    ref = speed.REFERENCE_S
    times = [0.010] * 6 + [0.016] * 6
    gauges = [ref] * 6 + [1.6 * ref] * 6
    assert speed.rescale(times, gauges) == pytest.approx([0.010] * 12)
    # one stray gauge reading is outvoted by its neighbours
    gauges[3] = 3 * ref
    assert speed.rescale(times, gauges)[3] == pytest.approx(0.010)
    assert speed.start_scale(0.03, 0.03) == pytest.approx(2 * speed.START_REFERENCE_S / 0.06)


def test_tail_keeps_ten_samples_beyond_it():
    xs = [float(i) for i in range(1, 101)]
    assert tail(xs, 99.0) == (90.0, 90.0, 10)
    assert tail(xs * 10, 99.0) == (99.0, 99.0, 10)


def test_importtime_parse_and_lazy_packages():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy.integrate._a",
        "import time:        10 |         10 |         scipy.integrate._b",
        "import time:        40 |         40 |       scipy.integrate._c",
    ])
    entries = tracer.parse_importtime(log)
    assert tracer.import_seconds(entries, "numpy") == pytest.approx(300e-6)
    assert tracer.import_seconds(entries, "scipy.integrate") == pytest.approx(90e-6)
    assert tracer.import_seconds(entries, "scipy.special") == 0.0
