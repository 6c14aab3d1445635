"""Runtime span tracer for the fracseries layers, kept out of the package.

`Tracer.install` wraps the public functions of each fracseries module
(its ``__all__``) in every module namespace that binds them, so a call
through ``fracseries.leibniz.recip_gamma`` is traced just like one through
``fracseries.special.recip_gamma``, plus a few methods that mark series
construction and transform building. Each call records a span (parent,
name, layer, start, end, request id, a work count, the exception raised)
in memory. A name that a later version of the package no longer has is
reported as absent instead of failing the run.

Self time is a span's duration minus the part of it covered by its
child spans (`self_times`). `layer_metrics` turns spans into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("special", "series", "operators", "leibniz", "laplace", "quadrature", "grammar", "cli")

#: Methods traced on the package's classes, as (layer, "Class.method").
METHODS = (
    ("series", "FracPowerSeries.__post_init__"),
    ("series", "TaylorSeries.__post_init__"),
    ("series", "TaylorSeries.recentered"),
    ("series", "TaylorSeries.nth_derivative"),
    ("laplace", "LaplaceExpr.__post_init__"),
    ("laplace", "LaplaceExpr.evaluate"),
    ("laplace", "LaplaceExpr.render"),
)

#: Names the per-layer metrics are built on; any missing one is reported.
EXPECTED = (
    "special.recip_gamma", "special.upsilon", "series.eval_frac_series",
    "series.series_from_catalog", "operators.rl_differintegral", "leibniz.leibniz_report",
    "laplace.laplace_caputo", "quadrature.rl_integral_quad", "quadrature.rl_integral_fixed",
    "grammar.parse_function_spec", "cli.main",
) + tuple(f"{layer}.{path}" for layer, path in METHODS)

FPS_INIT = "series.FracPowerSeries.__post_init__"
TAYLOR_INIT = "series.TaylorSeries.__post_init__"
EXPR_INIT = "laplace.LaplaceExpr.__post_init__"
SERIES_EVAL = "series.eval_frac_series"

# span fields
PARENT, NAME, LAYER, START, END, REQUEST, WORK, RAISED = range(8)


def _work(name: str, args, kwargs):
    """Work count recorded with a span, read after the call returns."""
    if name in (SERIES_EVAL, FPS_INIT):
        return len(args[0].terms)
    if name == TAYLOR_INIT:
        return len(args[0].derivs)
    if name == EXPR_INIT:
        return [len(args[0].terms), args[0].singular is not None]
    if name == "quadrature.rl_integral_fixed":
        return args[4] if len(args) > 4 else kwargs["nodes"]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self.absent: list[str] = []
        self._stack: list[int] = [-1]
        self._undo: list[tuple] = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        counted = name in (SERIES_EVAL, FPS_INIT, TAYLOR_INIT, EXPR_INIT, "quadrature.rl_integral_fixed")

        def traced(*args, **kwargs):
            span = [stack[-1], name, layer, 0.0, 0.0, self.request, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counted:
                span[WORK] = _work(name, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        modules = {layer: sys.modules.get(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package] + [m for m in modules.values() if m is not None]
        seen: set[str] = set()
        for layer, mod in modules.items():
            if mod is None:
                continue
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{name}", layer, obj)
                seen.add(f"{layer}.{name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._undo.append((ns, attr, obj))
                            setattr(ns, attr, wrapper)
            for method_layer, path in METHODS:
                if method_layer != layer:
                    continue
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name, None)
                fn = vars(cls).get(meth) if isinstance(cls, type) else None
                if fn is None:
                    continue
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(f"{layer}.{path}", layer, fn))
                seen.add(f"{layer}.{path}")
        self.absent = [name for name in EXPECTED if name not in seen]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list) -> list[float]:
    """Duration minus the union of the child intervals, clipped to the span."""
    children: list[list] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, cursor = 0.0, lo
        for s, e in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            s, e = max(s, cursor), min(e, hi)
            if e > s:
                covered += e - s
                cursor = e
        out.append((hi - lo) - covered)
    return out


def _under(spans: list, pred) -> list[bool]:
    """For each span: does some ancestor satisfy pred? Parents precede children."""
    out: list[bool] = []
    for span in spans:
        p = span[PARENT]
        out.append(p >= 0 and (out[p] or pred(spans[p])))
    return out


def layer_metrics(spans: list, cache: dict | None) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass.

    *cache* holds the Jacobi rule cache statistics of the pass
    (hits, misses, entries) or None when the package has no such cache.
    """
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    for key in ("series.construct.calls", "series.construct.terms", "series.eval.calls",
                "series.eval.terms", "series.eval.refusals", "special.recip_gamma.calls",
                "special.upsilon.calls", "laplace.exprs_built", "laplace.terms_built",
                "laplace.singular", "laplace.eval.calls", "quadrature.integrals",
                "quadrature.integrand_evals", "quadrature.failures"):
        m[key] = 0
    m["series.construct.self_s"] = m["series.eval.self_s"] = 0.0
    in_leibniz = _under(spans, lambda s: s[LAYER] == "leibniz")
    passes = series_in_leibniz = recip_in_leibniz = 0
    for i, span in enumerate(spans):
        name, layer = span[NAME], span[LAYER]
        m[f"{layer}.self_s"] += selfs[i]
        entry = span[PARENT] < 0 or spans[span[PARENT]][LAYER] != layer
        if entry:
            m[f"{layer}.calls"] += 1
        if layer == "series":
            part = "eval" if name == SERIES_EVAL else "construct"
            m[f"series.{part}.self_s"] += selfs[i]
        if name == SERIES_EVAL:
            m["series.eval.calls"] += 1
            m["series.eval.terms"] += span[WORK] or 0
            m["series.eval.refusals"] += span[RAISED] == "DivergenceError"
        elif name in (FPS_INIT, TAYLOR_INIT):
            m["series.construct.calls"] += 1
            m["series.construct.terms"] += span[WORK] or 0
            if name == FPS_INIT and in_leibniz[i]:
                series_in_leibniz += 1
        elif name == "special.recip_gamma":
            m["special.recip_gamma.calls"] += 1
            recip_in_leibniz += in_leibniz[i]
        elif name == "special.upsilon":
            m["special.upsilon.calls"] += 1
        elif name == EXPR_INIT:
            m["laplace.exprs_built"] += 1
            if span[WORK]:
                m["laplace.terms_built"] += span[WORK][0]
                m["laplace.singular"] += span[WORK][1]
        elif name == "laplace.LaplaceExpr.evaluate":
            m["laplace.eval.calls"] += 1
        elif name == "quadrature.rl_integral_quad":
            m["quadrature.integrals"] += 1
        elif name == "quadrature.rl_integral_fixed":
            passes += 1
            m["quadrature.integrand_evals"] += span[WORK] or 0
        if layer == "quadrature" and entry and span[RAISED]:
            m["quadrature.failures"] += 1
    calls = m["leibniz.calls"]
    m["leibniz.series_per_call"] = series_in_leibniz / calls if calls else 0.0
    m["leibniz.recip_gamma_per_call"] = recip_in_leibniz / calls if calls else 0.0
    integrals = m["quadrature.integrals"]
    m["quadrature.passes_per_integral"] = passes / integrals if integrals else 0.0
    lookups = (cache["hits"] + cache["misses"]) if cache else 0
    m["quadrature.jacobi_cache_lookups"] = lookups
    m["quadrature.jacobi_cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    m["quadrature.jacobi_cache_entries"] = cache["entries"] if cache else 0
    return m


def jacobi_cache_stats(package) -> dict | None:
    """Hits, misses and size of the quadrature rule cache, if it exists."""
    rule = getattr(sys.modules.get(f"{package.__name__}.quadrature"), "_jacobi_rule", None)
    info = getattr(rule, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return {"hits": ci.hits, "misses": ci.misses, "entries": ci.currsize}


def cache_delta(before: dict | None, after: dict | None) -> dict | None:
    """Rule cache statistics of what ran between two jacobi_cache_stats calls."""
    if before is None or after is None:
        return None
    return {"hits": after["hits"] - before["hits"], "misses": after["misses"] - before["misses"],
            "entries": after["entries"]}


def parse_importtime(text: str) -> list[tuple[str, int, float]]:
    """(module, nesting depth, cumulative seconds) from `-X importtime` stderr."""
    out = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        out.append((name.strip(), depth, int(parts[1]) / 1e6))
    return out


def import_seconds(entries: list[tuple[str, int, float]], module: str) -> float:
    """Cumulative import time of *module*, or 0.0 if it was not imported.

    A package loaded through a lazy ``__getattr__`` (``from scipy import
    integrate``) may have no line of its own; its time is then the sum over
    its shallowest submodule lines.
    """
    for name, _, secs in entries:
        if name == module:
            return secs
    subs = [(depth, secs) for name, depth, secs in entries if name.startswith(module + ".")]
    if not subs:
        return 0.0
    top = min(depth for depth, _ in subs)
    return sum(secs for depth, secs in subs if depth == top)
