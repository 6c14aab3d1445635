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
import functools
import math
import sys

from .grammar import GrammarError, parse_function_spec, parse_power_spec
from .laplace import (
    LaplaceExpr,
    generalized_laplace,
    laplace_fps,
    laplace_rl_derivative,
    laplace_rl_derivative_fps,
    laplace_rl_integral_fps,
    laplace_shifted_series,
)
from .leibniz import leibniz_report
from .operators import caputo_derivative, rl_differintegral
from .quadrature import DOUBLING_TOL, QuadratureError, caputo_quad, rl_derivative_quad
from .series import (
    DEFAULT_TRUNCATION,
    DivergenceError,
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


def _result_text(value: float) -> str:
    return f"{value:.17g}"  # inf and -inf print as such


def _print_rows(args, grid: list[float], values: list[float]) -> None:
    """Write the rows as one string: CSV, or the text of json.dumps(payload,
    sort_keys=True) for the payload {"a", "alpha", "rows": [{"t", "value"}]},
    with inf and -inf values as the strings the CSV prints. float.__repr__
    is the text json writes for a finite float; json.dumps writes the rest."""
    if args.format == "json":
        import json
        text, isfinite = float.__repr__, math.isfinite
        rows = ", ".join([
            f'{{"t": {text(t) if isfinite(t) else json.dumps(t)}, '
            f'"value": {text(v) if isfinite(v) else json.dumps(_result_text(v))}}}'
            for t, v in zip(grid, values)
        ])
        print(f'{{"a": {json.dumps(args.a)}, "alpha": {json.dumps(args.alpha)}, "rows": [{rows}]}}')
    else:
        print("\n".join(["t,value", *[f"{t:.17g},{_result_text(v)}" for t, v in zip(grid, values)]]))


def cmd_eval(args) -> int:
    op = caputo_derivative if args.definition == "caputo" else rl_differintegral
    return _grid_command(args, lambda f: op(f, args.alpha).evaluate_grid, strict=False)


def cmd_oracle(args) -> int:
    quad = caputo_quad if args.definition == "caputo" else rl_derivative_quad

    def build(f):
        return lambda grid: [quad(f, args.alpha, t, rel_tol=args.tol) for t in grid]

    return _grid_command(args, build, strict=True)


def _grid_command(args, build, strict: bool) -> int:
    """Print build(f)(grid), the values on the grid, which must start
    right of the terminal a, or at it unless *strict* (quadrature needs
    t > a)."""
    f = parse_function_spec(args.fspec, center=args.a, truncation=args.trunc)
    values = build(f)
    grid = _parse_grid(args.grid)
    if grid[0] < args.a or (strict and grid[0] == args.a):
        where = "at or left of" if strict else "left of"
        raise GrammarError(f"grid starts at {grid[0]} {where} the terminal a={args.a}")
    _print_rows(args, grid, values(grid))
    return EXIT_OK


def cmd_leibniz(args) -> int:
    f = parse_function_spec(args.f, center=args.a, truncation=args.trunc)
    g = parse_function_spec(args.g, center=args.a, truncation=args.trunc)
    report = leibniz_report(f, g, args.alpha, args.t, rule=args.rule, trunc=args.trunc)
    rule_value = report.rule_value.value
    reference_value = report.reference_value.value
    if args.format == "json":
        import json
        payload = {
            "rule": args.rule,
            "alpha": args.alpha,
            "a": args.a,
            "t": args.t,
            "rule_value": rule_value,
            "reference_value": reference_value,
            "residual": report.residual,
            "correction": report.correction_value,
            "terms_used": report.terms_used,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"rule            {args.rule}")
        print(f"rule value      {_result_text(rule_value)}")
        print(f"reference value {_result_text(reference_value)}")
        print(f"residual        {report.residual:.17g}")
        print(f"correction (R1) {report.correction_value:.17g}")
        print(f"terms used      {report.terms_used}")
    return EXIT_OK


def _need_alpha(args) -> float:
    if args.alpha is None:
        raise GrammarError(f"op {args.op!r} requires --alpha")
    return args.alpha


#: Transform kind behind each --kind and --op value.
_KINDS = {
    "plain": "plain", "series": "plain", "rl-int": "rl_integral", "caputo": "caputo"
}


def _laplace_expr(args) -> LaplaceExpr:
    if args.op == "generalized":
        kind = _KINDS[args.kind or "plain"]
        f = parse_function_spec(args.fspec, center=args.a, truncation=args.trunc)
        order = None if kind == "plain" else _need_alpha(args)
        return generalized_laplace(f, kind, order)
    if args.kind is not None:
        raise GrammarError(f"--kind applies only to --op generalized, not to --op {args.op}")

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
    if args.op == "rl-der":
        if args.a != 0.0:
            raise GrammarError(
                "rl-der is only available at a = 0 (its negative-instant "
                "transform is not implemented)"
            )
        return laplace_rl_derivative(f, _need_alpha(args))
    kind = _KINDS[args.op]
    order = None if kind == "plain" else _need_alpha(args)
    return laplace_shifted_series(f, kind, order)


def cmd_laplace(args) -> int:
    expr = _laplace_expr(args)
    if args.format == "json":
        import json
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
    if not tol >= 0.0:
        raise GrammarError(f"examples need --tol >= 0, got {tol}")
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
        name = "Example 1 (naive rule)"
        detail = f"max relative gap {worst:.3e} (matches predicted gap to {worst_gap:.3e})"
    else:
        name, detail = "Example 1", f"max relative residual {worst:.3e}"
    _check(name, worst <= tol, detail, failures)

    # product t * t: naive rule plus its compensation must equal the truth
    f2 = series_from_catalog("poly", [0.0, 1.0], center=a)
    worst = 0.0
    for t in grid:
        rep = leibniz_report(f2, f2, alpha, t, rule="wrong")
        truth = rep.reference_value.value
        repaired = rep.rule_value.value + rep.correction_value
        # absolute at t = 0, where the product vanishes
        worst = max(worst, abs(repaired - truth) / (abs(truth) or 1.0))
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
        (2.0, 0.0 - alpha + 1.0),
        (math.gamma(1.5), 0.5 - alpha + 1.0),
    )
    got = low.terms
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="fracseries",
        description="Series-based fractional calculus with Laplace and "
        "quadrature cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_command(name, help, func):
        p = sub.add_parser(name, help=help)
        p.add_argument("fspec", help="function spec, e.g. poly:0,1+exp:1")
        p.add_argument("--alpha", type=float, required=True, help="order")
        p.add_argument("--a", type=float, default=0.0, help="lower terminal")
        p.add_argument(
            "--trunc", type=int, default=DEFAULT_TRUNCATION,
            help="Taylor truncation",
        )
        p.add_argument("--grid", required=True, help="lo:hi:count")
        p.add_argument(
            "--def", dest="definition", choices=["rl", "caputo"], default="rl"
        )
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.set_defaults(func=func)
        return p

    add_grid_command("eval", "evaluate an operator on a grid", cmd_eval)
    p_oracle = add_grid_command(
        "oracle", "evaluate the same operators by quadrature", cmd_oracle
    )
    p_oracle.add_argument(
        "--tol", type=float, default=DOUBLING_TOL,
        help="node-doubling agreement tolerance",
    )

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
        "--kind", choices=["plain", "rl-int", "caputo"], default=None,
        help="sub-operation for --op generalized (default plain); no other --op takes it",
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
    except (DivergenceError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
