"""One benchmark process: imports fracseries and serves one workload.

Run by run.py, never by hand:

    python3 benchmarks/worker.py --workload grid-eval --seed 1 --phase timed --seconds 10

Phases:
  setup   import fracseries, run the warm-up requests, print READY, exit;
  timed   the same, then a closed loop (one request at a time) for
          --seconds in --segments segments, each started by a line on
          stdin and ended by a PAUSE line, then one JSON line with
          latencies, speed-gauge readings and the checked outcomes;
  traced  the warm-up, then --blocks blocks of traced and untraced
          passes over the fixed request list, then one JSON line.

The worker only runs requests and records what the program returned;
run.py checks the outcomes against the reference afterwards.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_package():
    """Import fracseries from the checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fracseries
    import fracseries.cli

    if not Path(fracseries.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"fracseries was imported from {fracseries.__file__}, not {src}")
    return fracseries


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


def _documented(fs):
    return (fs.DivergenceError, fs.QuadratureError, ValueError)


def _guard(fs, thunk):
    """Run one sub-request; documented failures become data, others raise."""
    try:
        return thunk()
    except _documented(fs) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _result(r) -> list:
    if r.is_finite:
        return ["finite", r.value]
    if r.is_infinite:
        return ["inf", r.sign]
    return ["singular"]


def op_cli(fs, req: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = fs.cli.main(req["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _transform(fs, build, s_values) -> dict:
    def run():
        expr = build()
        values = None if expr.is_singular else [expr.evaluate(s) for s in s_values]
        return {"render": expr.render(), "values": values}

    return _guard(fs, run)


def op_symbolic(fs, req: dict) -> dict:
    alpha, t, s = req["alpha"], req["t"], req["s"]
    f0 = fs.parse_function_spec(req["spec"], 0.0)
    fneg = fs.parse_function_spec(req["spec"], req["a_neg"])
    fpos = fs.parse_function_spec(req["gen_spec"], req["a_pos"])
    fps = fs.parse_power_spec(req["power_spec"])

    def value(build):
        def run():
            try:
                return _result(build().evaluate(t))
            except fs.DivergenceError as exc:
                return ["refused", str(exc)]
        return _guard(fs, run)

    out = {
        "rl": value(lambda: fs.rl_differintegral(f0, alpha)),
        "caputo": value(lambda: fs.caputo_derivative(f0, alpha)),
        "bridge": value(lambda: fs.rl_caputo_bridge(f0, alpha)),
        "terminal": _guard(fs, lambda: _result(fs.classify_lower_terminal(f0, alpha))),
    }
    builders = {
        "series": lambda: fs.laplace_series(f0),
        "rl_int": lambda: fs.laplace_rl_integral(f0, alpha),
        "caputo": lambda: fs.laplace_caputo(f0, alpha),
        "rl_der": lambda: fs.laplace_rl_derivative(f0, alpha),
        "fps_series": lambda: fs.laplace_fps(fps),
        "fps_rl_int": lambda: fs.laplace_rl_integral_fps(fps, alpha),
        "fps_rl_der": lambda: fs.laplace_rl_derivative_fps(fps, alpha),
        "shift_plain": lambda: fs.laplace_shifted_series(fneg, "plain"),
        "shift_rl_int": lambda: fs.laplace_shifted_series(fneg, "rl_integral", alpha),
        "shift_caputo": lambda: fs.laplace_shifted_series(fneg, "caputo", alpha),
        "gen_plain": lambda: fs.generalized_laplace(fpos, "plain"),
        "gen_rl_int": lambda: fs.generalized_laplace(fpos, "rl_integral", alpha),
        "gen_caputo": lambda: fs.generalized_laplace(fpos, "caputo", alpha),
    }
    out["transforms"] = {name: _transform(fs, build, s) for name, build in builders.items()}
    return out


def _report(rep) -> dict:
    return {"rule_value": rep.rule_value.value, "reference_value": rep.reference_value.value,
            "correction": rep.correction_value, "residual": rep.residual}


def op_cross(fs, req: dict) -> dict:
    alpha, a, t = req["alpha"], req["a"], req["t"]
    reports, quad = {}, {}
    for trunc in (32, 64):
        f = fs.parse_function_spec(req["f_spec"], a, trunc)
        g = fs.parse_function_spec(req["g_spec"], a, trunc)
        for rule in ("rl", "wrong", "corrected"):
            reports[f"{rule}@{trunc}"] = _guard(
                fs, lambda: _report(fs.leibniz_report(f, g, alpha, t, rule=rule, trunc=trunc)))
        for which, data in (("f", f), ("g", g), ("fg", f * g)):
            for i, ti in enumerate(req["quad_t"]):
                quad[f"{which}-caputo@{trunc}#{i}"] = _guard(fs, lambda: fs.caputo_quad(data, alpha, ti))
                quad[f"{which}-rl@{trunc}#{i}"] = _guard(fs, lambda: fs.rl_derivative_quad(data, alpha, ti))
    return {"reports": reports, "quad": quad}


OPS = {"grid-eval": op_cli, "symbolic": op_symbolic, "crosscheck": op_cross}


def run_op(fs, workload: str, req: dict) -> dict:
    try:
        return OPS[workload](fs, req)
    except Exception as exc:  # an undocumented exception is a failed op, not a crash
        return {"exception": f"{type(exc).__name__}: {exc}"}


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


def work_done(workload: str, req: dict, out: dict) -> int:
    """Ops for throughput: grid points delivered, or one per request."""
    if workload == "grid-eval":
        return req["grid"][2] if out.get("exit") == 0 else 0
    return 1


def warm(fs, workload: str, seed: int) -> None:
    import gen

    for req in gen.warm_up(workload, seed):
        run_op(fs, workload, req)


def timed(fs, workload: str, seed: int, seconds: float, segments: int) -> dict:
    """A closed loop over the endless seeded stream, run in `segments`
    equal segments, each started by a line on stdin and ended by a PAUSE
    line, so that set-up probes can run between them while this process
    idles. The speed gauge runs between ops, untimed; each op gets the mean
    of the readings on either side of it. Keeps the outcomes of the first gen.CHECKED ops, running
    those the loop did not reach after it, untimed, and of any op that
    raised an undocumented exception."""
    import gen
    import speed

    warm(fs, workload, seed)
    print("READY", flush=True)
    stream, checked = gen.STREAMS[workload](seed), gen.CHECKED[workload]
    latencies, gauges, work, kept = [], [], [], {}
    for _ in range(segments):
        sys.stdin.readline()
        end = perf_counter() + seconds / segments
        before = speed.gauge()
        while True:
            start = perf_counter()
            if start >= end and latencies:
                break
            req = next(stream)
            out = run_op(fs, workload, req)
            latencies.append(perf_counter() - start)
            after = speed.gauge()
            gauges.append((before + after) / 2.0)
            before = after
            work.append(work_done(workload, req, out))
            if len(latencies) <= checked or "exception" in out:
                kept[len(latencies) - 1] = out
        print("PAUSE", flush=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i in range(len(latencies), checked):
        kept[i] = run_op(fs, workload, next(stream))
    return {"latencies": latencies, "gauges": gauges, "work": work, "peak_kb": peak_kb, "kept": kept}


def traced(fs, workload: str, seed: int, blocks: int, trace_path: str | None) -> dict:
    """Warm up, then pass over the fixed request list in `blocks` blocks of
    traced, untraced, untraced, traced passes, so that both kinds see the
    same cache states and spells of machine speed. Counts, cache
    statistics and spans come from the first traced pass, which follows
    the warm-up only, and repeat exactly for a seed; outcomes come from the
    first untraced pass; wall and self times are medians over the passes."""
    import gen
    import tracer

    warm(fs, workload, seed)
    reqs = gen.fixed_requests(workload, seed)
    walls: dict[bool, list[float]] = {True: [], False: []}
    self_times, result = [], {}
    for traced_pass in (True, False, False, True) * blocks:
        tr = tracer.Tracer() if traced_pass else None
        if tr is not None:
            tr.install(fs)
        before = tracer.jacobi_cache_stats(fs)
        outs = []
        t0 = perf_counter()
        for i, req in enumerate(reqs):
            if tr is not None:
                tr.request = i
            outs.append(run_op(fs, workload, req))
        walls[traced_pass].append(perf_counter() - t0)
        if tr is None:
            result.setdefault("outcomes", outs)
            continue
        tr.uninstall()
        metrics = tracer.layer_metrics(tr.spans, tracer.cache_delta(before, tracer.jacobi_cache_stats(fs)))
        self_times.append({k: v for k, v in metrics.items() if k.endswith("self_s")})
        if "metrics" not in result:
            result.update(metrics=metrics, spans=len(tr.spans), absent=tr.absent)
            if trace_path:
                tr.write(trace_path)
    result["metrics"].update({k: statistics.median(p[k] for p in self_times) for k in self_times[0]})
    result["traced_s"] = statistics.median(walls[True])
    result["untraced_s"] = statistics.median(walls[False])
    return result


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(OPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", required=True, choices=("setup", "timed", "traced"))
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--segments", type=int, default=1)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--trace-out")
    args = p.parse_args()
    sys.path.insert(0, str(HERE))
    fs = import_package()
    if args.phase == "setup":
        warm(fs, args.workload, args.seed)
        print("READY", flush=True)
        return
    if args.phase == "timed":
        result = timed(fs, args.workload, args.seed, args.seconds, args.segments)
    else:
        result = traced(fs, args.workload, args.seed, args.blocks, args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
