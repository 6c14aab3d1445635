"""Command line front end.

Subcommands: ``eval`` (series operators on a grid), ``oracle`` (the same
grid through quadrature), ``leibniz`` (product-rule comparison),
``laplace`` (rendered transform expressions) and ``examples`` (built-in
golden checks). Exit codes: 0 success, 2 usage or parse problem, 3
numerical failure (divergence, non-convergent quadrature, or a failing
golden check).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .grammar import GrammarError, parse_function_spec, parse_power_spec
from .laplace import (
    LaplaceExpr,
    generalized_laplace,
    laplace_caputo,
    laplace_fps,
    laplace_rl_derivative,
    laplace_rl_derivative_fps,
    laplace_rl_integral,
    laplace_rl_integral_fps,
    laplace_series,
    laplace_shifted_series,
)
from .leibniz import leibniz_report
from .operators import caputo_derivative, rl_differintegral
from .quadrature import DOUBLING_TOL, QuadratureError, caputo_quad, rl_derivative_quad
from .series import (
    DEFAULT_TRUNCATION,
    DivergenceError,
    EvalResult,
    FracPowerSeries,
    series_from_catalog,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise GrammarError(f"grid must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise GrammarError(f"bad grid {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi - lo)):
        raise GrammarError(f"grid bounds and their span must be finite, got {text!r}")
    if count < 1:
        raise GrammarError(f"grid count must be >= 1, got {count}")
    if hi < lo:
        raise GrammarError(f"grid needs hi >= lo, got {text!r}")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _result_text(r: EvalResult) -> str:
    if r.is_finite:
        return f"{r.value:.17g}"
    if r.is_infinite:
        return "inf" if r.sign > 0 else "-inf"
    return "singular"


def _result_json(r: EvalResult):
    if r.is_finite:
        return r.value
    return _result_text(r)


def _print_rows(args, rows: list[tuple[float, EvalResult]]) -> None:
    if args.format == "json":
        payload = {
            "alpha": args.alpha,
            "a": args.a,
            "rows": [{"t": t, "value": _result_json(r)} for t, r in rows],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("t,value")
        for t, r in rows:
            print(f"{t:.17g},{_result_text(r)}")


def cmd_eval(args) -> int:
    f = parse_function_spec(args.fspec, center=args.a, truncation=args.trunc)
    if args.definition == "caputo":
        series = caputo_derivative(f, args.alpha)
    else:
        series = rl_differintegral(f, args.alpha)
    grid = _parse_grid(args.grid)
    if grid[0] < args.a:
        raise GrammarError(
            f"grid starts at {grid[0]} left of the terminal a={args.a}"
        )
    rows = [(t, series.evaluate(t)) for t in grid]
    _print_rows(args, rows)
    return EXIT_OK


def cmd_oracle(args) -> int:
    f = parse_function_spec(args.fspec, center=args.a, truncation=args.trunc)
    grid = _parse_grid(args.grid)
    if grid[0] <= args.a:
        raise GrammarError(
            f"quadrature needs the grid strictly right of a={args.a}"
        )
    rows = []
    for t in grid:
        if args.definition == "caputo":
            v = caputo_quad(f, args.alpha, t, rel_tol=args.tol)
        else:
            v = rl_derivative_quad(f, args.alpha, t, rel_tol=args.tol)
        rows.append((t, EvalResult.finite(v)))
    _print_rows(args, rows)
    return EXIT_OK


def cmd_leibniz(args) -> int:
    f = parse_function_spec(args.f, center=args.a, truncation=args.trunc)
    g = parse_function_spec(args.g, center=args.a, truncation=args.trunc)
    report = leibniz_report(f, g, args.alpha, args.t, rule=args.rule, trunc=args.trunc)
    if args.format == "json":
        payload = {
            "rule": args.rule,
            "alpha": args.alpha,
            "a": args.a,
            "t": args.t,
            "rule_value": _result_json(report.rule_value),
            "reference_value": _result_json(report.reference_value),
            "residual": report.residual,
            "correction": report.correction_value,
            "terms_used": report.terms_used,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"rule            {args.rule}")
        print(f"rule value      {_result_text(report.rule_value)}")
        print(f"reference value {_result_text(report.reference_value)}")
        print(f"residual        {report.residual:.17g}")
        print(f"correction (R1) {report.correction_value:.17g}")
        print(f"terms used      {report.terms_used}")
    return EXIT_OK


def _need_alpha(args) -> float:
    if args.alpha is None:
        raise GrammarError(f"op {args.op!r} requires --alpha")
    return args.alpha


def _laplace_expr(args) -> LaplaceExpr:
    if args.op == "generalized":
        kind = {"plain": "plain", "rl-int": "rl_integral", "caputo": "caputo"}[
            args.kind
        ]
        f = parse_function_spec(args.fspec, center=args.a, truncation=args.trunc)
        order = None if kind == "plain" else _need_alpha(args)
        return generalized_laplace(f, kind, order)

    if args.a > 0:
        raise GrammarError(
            "standard transform needs a <= 0; use --op generalized for a > 0"
        )

    fps = parse_power_spec(args.fspec)
    if args.a == 0.0 and fps is not None and args.op in ("series", "rl-int", "rl-der"):
        if args.op == "series":
            return laplace_fps(fps)
        if args.op == "rl-int":
            return laplace_rl_integral_fps(fps, _need_alpha(args))
        return laplace_rl_derivative_fps(fps, _need_alpha(args))

    f = parse_function_spec(args.fspec, center=args.a, truncation=args.trunc)
    if args.a == 0.0:
        if args.op == "series":
            return laplace_series(f)
        if args.op == "rl-int":
            return laplace_rl_integral(f, _need_alpha(args))
        if args.op == "caputo":
            return laplace_caputo(f, _need_alpha(args))
        return laplace_rl_derivative(f, _need_alpha(args))

    if args.op == "series":
        return laplace_shifted_series(f, "plain")
    if args.op == "rl-int":
        return laplace_shifted_series(f, "rl_integral", _need_alpha(args))
    if args.op == "caputo":
        return laplace_shifted_series(f, "caputo", _need_alpha(args))
    raise GrammarError(
        "rl-der is only available at a = 0 (its negative-instant transform "
        "is not implemented)"
    )


def cmd_laplace(args) -> int:
    expr = _laplace_expr(args)
    if args.format == "json":
        print(json.dumps(expr.to_json_dict(), sort_keys=True))
    else:
        print(expr.render())
    return EXIT_OK


def _check(name: str, ok: bool, detail: str, failures: list[str]) -> None:
    print(f"{name}: {detail}  {'PASS' if ok else 'FAIL'}")
    if not ok:
        failures.append(name)


def cmd_examples(args) -> int:
    alpha = args.alpha
    a = args.a
    tol = args.tol
    if not 0.0 < alpha < 1.0:
        raise GrammarError(f"examples need 0 < alpha < 1, got {alpha}")
    grid = [a + 0.25 * i for i in range(1, 9)]
    failures: list[str] = []

    # product (t - a) * 1 under the fractional product rules
    f1 = series_from_catalog("shifted-poly", [0.0, 1.0], center=a)
    g1 = series_from_catalog("const", [1.0], center=a)
    rule = "wrong" if args.wrong_rule else "corrected"
    worst = 0.0
    worst_gap = 0.0
    for t in grid:
        rep = leibniz_report(f1, g1, alpha, t, rule=rule)
        truth = rep.reference_value.value
        worst = max(worst, rep.residual / abs(truth))
        expected_gap = (
            (1.0 - alpha) * (t - a) ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        )
        worst_gap = max(worst_gap, abs(rep.residual - expected_gap))
    if rule == "wrong":
        _check(
            "Example 1 (naive rule)",
            worst <= tol,
            f"max relative gap {worst:.3e} (matches predicted gap to "
            f"{worst_gap:.3e})",
            failures,
        )
    else:
        _check(
            "Example 1",
            worst <= tol,
            f"max relative residual {worst:.3e}",
            failures,
        )

    # product t * t: naive rule plus its compensation must equal the truth
    f2 = series_from_catalog("poly", [0.0, 1.0], center=a)
    worst = 0.0
    for t in grid:
        rep = leibniz_report(f2, f2, alpha, t, rule="wrong")
        truth = rep.reference_value.value
        repaired = rep.rule_value.value + rep.correction_value
        worst = max(worst, abs(repaired - truth) / abs(truth))
    _check(
        "Example 2",
        worst <= tol,
        f"max relative residual after compensation {worst:.3e}",
        failures,
    )

    # transform of the fractional derivative of t^0.5 + 2
    fps = FracPowerSeries(0.0, ((1.0, 0.5), (2.0, 0.0)))
    low = laplace_rl_derivative_fps(fps, alpha)
    # powers spelled exactly as the transform computes e - alpha + 1
    expected = (
        (2.0, 0.0 - alpha + 1.0, None),
        (math.gamma(1.5), 0.5 - alpha + 1.0, None),
    )
    got = tuple((t.coeff, t.power, t.upsilon_arg) for t in low.terms)
    high = laplace_rl_derivative_fps(fps, alpha + 1.0)
    ok3 = got == expected and high.singular == "k=0"
    _check(
        "Example 3",
        ok3,
        f"order {alpha}: {low.render()} | order {alpha + 1.0}: {high.render()}",
        failures,
    )

    if failures:
        print(f"{len(failures)} of 3 examples failed: {', '.join(failures)}")
        return EXIT_NUMERIC
    print("3/3 examples pass")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracseries",
        description="Series-based fractional calculus with Laplace and "
        "quadrature cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_alpha=True):
        if with_alpha:
            p.add_argument("--alpha", type=float, required=True, help="order")
        p.add_argument("--a", type=float, default=0.0, help="lower terminal")
        p.add_argument(
            "--trunc", type=int, default=DEFAULT_TRUNCATION,
            help="Taylor truncation",
        )

    p_eval = sub.add_parser("eval", help="evaluate an operator on a grid")
    p_eval.add_argument("fspec", help="function spec, e.g. poly:0,1+exp:1")
    add_common(p_eval)
    p_eval.add_argument("--grid", required=True, help="lo:hi:count")
    p_eval.add_argument(
        "--def", dest="definition", choices=["rl", "caputo"], default="rl"
    )
    p_eval.add_argument("--format", choices=["csv", "json"], default="csv")
    p_eval.set_defaults(func=cmd_eval)

    p_oracle = sub.add_parser(
        "oracle", help="evaluate the same operators by quadrature"
    )
    p_oracle.add_argument("fspec")
    add_common(p_oracle)
    p_oracle.add_argument("--grid", required=True, help="lo:hi:count")
    p_oracle.add_argument(
        "--def", dest="definition", choices=["rl", "caputo"], default="rl"
    )
    p_oracle.add_argument(
        "--tol", type=float, default=DOUBLING_TOL,
        help="node-doubling agreement tolerance",
    )
    p_oracle.add_argument("--format", choices=["csv", "json"], default="csv")
    p_oracle.set_defaults(func=cmd_oracle)

    p_leib = sub.add_parser("leibniz", help="compare product rules")
    p_leib.add_argument("--f", required=True, help="first factor spec")
    p_leib.add_argument("--g", required=True, help="second factor spec")
    p_leib.add_argument("--alpha", type=float, required=True)
    p_leib.add_argument("--a", type=float, default=0.0)
    p_leib.add_argument("--t", type=float, required=True)
    p_leib.add_argument(
        "--rule", choices=["rl", "wrong", "corrected"], default="corrected"
    )
    p_leib.add_argument("--trunc", type=int, default=32)
    p_leib.add_argument("--format", choices=["text", "json"], default="text")
    p_leib.set_defaults(func=cmd_leibniz)

    p_lap = sub.add_parser("laplace", help="print a transform expression")
    p_lap.add_argument("fspec")
    p_lap.add_argument("--alpha", type=float, default=None)
    p_lap.add_argument("--a", type=float, default=0.0)
    p_lap.add_argument("--trunc", type=int, default=DEFAULT_TRUNCATION)
    p_lap.add_argument(
        "--op",
        choices=["series", "rl-int", "caputo", "rl-der", "generalized"],
        default="series",
    )
    p_lap.add_argument(
        "--kind", choices=["plain", "rl-int", "caputo"], default="plain",
        help="sub-operation for --op generalized",
    )
    p_lap.add_argument("--format", choices=["text", "json"], default="text")
    p_lap.set_defaults(func=cmd_laplace)

    p_ex = sub.add_parser("examples", help="run the built-in golden checks")
    p_ex.add_argument("--alpha", type=float, default=0.5)
    p_ex.add_argument("--a", type=float, default=1.0)
    p_ex.add_argument("--tol", type=float, default=1.0e-12)
    p_ex.add_argument(
        "--wrong-rule", action="store_true",
        help="run Example 1 with the naive rule to expose its gap",
    )
    p_ex.set_defaults(func=cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GrammarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
