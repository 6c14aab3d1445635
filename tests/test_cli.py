import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fracseries.cli import main
from fracseries.grammar import GrammarError, parse_function_spec, parse_power_spec


# --- function-spec grammar -----------------------------------------------------


def test_parse_single_atom():
    f = parse_function_spec("poly:1,2")
    assert f.derivs[0] == 1.0
    assert f.derivs[1] == 2.0


def test_parse_sum_of_atoms():
    f = parse_function_spec("exp:1+poly:0,1", truncation=16)
    t = 0.5
    want = math.exp(t) + t
    assert f.evaluate(t) == pytest.approx(want, rel=1e-12)


def test_parse_scientific_notation_not_split():
    # the + inside 1e+3 is part of the number, not a separator
    f = parse_function_spec("poly:1e+3")
    assert f.derivs[0] == 1000.0


def test_parse_errors():
    with pytest.raises(GrammarError):
        parse_function_spec("sinh:1")
    with pytest.raises(GrammarError):
        parse_function_spec("poly:one,two")
    with pytest.raises(GrammarError):
        parse_function_spec("")


def test_parse_power_spec():
    s = parse_power_spec("power:0.5")
    assert s.terms == ((1.0, 0.5),)
    s = parse_power_spec("poly:1,2")
    assert s.terms == ((1.0, 0.0), (2.0, 1.0))
    s = parse_power_spec("const:3")
    assert s.terms == ((3.0, 0.0),)
    assert parse_power_spec("exp:1") is None
    with pytest.raises(GrammarError):
        parse_power_spec("power:-1.5")


# --- eval subcommand --------------------------------------------------------------


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_caputo_golden_column(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "eval", "shifted-poly:0,1", "--alpha", "0.5", "--a", "1",
            "--def", "caputo", "--grid", "1:2:3",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,value"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "1.5", "2"]
    for tt, val in rows:
        want = (float(tt) - 1.0) ** 0.5 / math.gamma(1.5)
        assert float(val) == pytest.approx(want, rel=1e-15)


def test_eval_order_zero_is_identity(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "poly:1,2", "--alpha", "0", "--grid", "0:2:3"]
    )
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert vals == pytest.approx([1.0, 3.0, 5.0])


def test_eval_output_is_deterministic(capsys):
    argv = ["eval", "exp:1", "--alpha", "0.7", "--grid", "0.5:2:7"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_eval_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["eval", "poly:0,1", "--alpha", "0.5", "--grid", "0.5:1:2",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 0.5
    assert doc["a"] == 0.0
    assert len(doc["rows"]) == 2
    t = doc["rows"][1]["t"]
    assert doc["rows"][1]["value"] == pytest.approx(
        t**0.5 / math.gamma(1.5), rel=1e-14
    )


def test_eval_singular_row_is_marked(capsys):
    # RL of a constant blows up at the terminal itself
    code, out, _ = run_cli(
        capsys, ["eval", "const:1", "--alpha", "0.5", "--grid", "0:1:2"]
    )
    assert code == 0
    first_row = out.strip().splitlines()[1]
    assert first_row.split(",")[1] == "inf"


#: eval argument lists for the row writers: terminal inf and -inf rows, a
#: -0.0 terminal and grid point (a sum never ends at -0.0, so a value cannot
#: be one), a one-point grid, a < 0, an integer order printed as 1.0, and the
#: Caputo definition
_ROW_ARGV = [
    ["const:1", "--alpha", "0.5", "--grid", "0:1:5"],
    ["const:-1", "--alpha", "0.5", "--grid", "0:1:5"],
    ["poly:0,1", "--alpha", "0.5", "--a=-0", "--grid=-0:-0:1"],
    ["exp:1", "--alpha", "0.5", "--grid", "0.75:0.75:1"],
    ["exp:1+sin:2", "--alpha", "0.5", "--a=-1", "--grid=-1:1:9"],
    ["sin:2", "--alpha", "1", "--grid", "0:2:7"],
    ["cos:-1.5+poly:1,-2", "--alpha", "1.25", "--a", "0.5", "--def", "caputo",
     "--grid", "0.5:3:11"],
]


def _eval_rows(argv):
    """The grid and the values eval prints for *argv*, computed without the CLI."""
    from fracseries.cli import _parse_grid, build_parser
    from fracseries.operators import caputo_derivative, rl_differintegral

    args = build_parser().parse_args(["eval", *argv])
    f = parse_function_spec(args.fspec, center=args.a, truncation=args.trunc)
    op = caputo_derivative if args.definition == "caputo" else rl_differintegral
    grid = _parse_grid(args.grid)
    return args, grid, op(f, args.alpha).evaluate_grid(grid)


@pytest.mark.parametrize("argv", _ROW_ARGV)
def test_eval_json_rows_are_the_json_encoders_bytes(capsys, argv):
    args, grid, values = _eval_rows(argv)
    payload = {
        "alpha": args.alpha,
        "a": args.a,
        "rows": [{"t": t, "value": v if math.isfinite(v) else f"{v:.17g}"}
                 for t, v in zip(grid, values)],
    }
    code, out, _ = run_cli(capsys, ["eval", *argv, "--format", "json"])
    assert code == 0
    assert out == json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", _ROW_ARGV)
def test_eval_csv_rows_are_one_line_per_point(capsys, argv):
    _, grid, values = _eval_rows(argv)
    want = "t,value\n" + "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(grid, values))
    code, out, _ = run_cli(capsys, ["eval", *argv])
    assert code == 0
    assert out == want


def test_eval_row_writers_cover_their_edge_cases(capsys):
    # the cases above reach what they are listed for
    outs = [run_cli(capsys, ["eval", *argv, "--format", "json"])[1] for argv in _ROW_ARGV]
    assert '{"t": 0.0, "value": "inf"}' in outs[0]
    assert '{"t": 0.0, "value": "-inf"}' in outs[1]
    assert outs[2] == '{"a": -0.0, "alpha": 0.5, "rows": [{"t": -0.0, "value": 0.0}]}\n'
    assert len(json.loads(outs[3])["rows"]) == 1
    assert outs[4].startswith('{"a": -1.0, ')
    assert outs[5].startswith('{"a": 0.0, "alpha": 1.0, ')


def test_eval_grid_left_of_terminal_rejected(capsys):
    code, _, err = run_cli(
        capsys, ["eval", "poly:0,1", "--alpha", "0.5", "--a", "1",
                 "--grid", "0:2:5"]
    )
    assert code == 2
    assert err


def test_eval_unknown_atom_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, ["eval", "sinh:1", "--alpha", "0.5", "--grid", "0:1:2"]
    )
    assert code == 2
    assert "error" in err


def test_eval_bad_grid_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, ["eval", "poly:0,1", "--alpha", "0.5", "--grid", "2:1:0"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "exp:1", "--alpha", "0.5", "--grid", "0:1"],
         "grid must be lo:hi:count, got '0:1'"),
        (["eval", "exp:1", "--alpha", "0.5", "--grid", "a:1:2"], "bad grid 'a:1:2'"),
        (["eval", ":1", "--alpha", "0.5", "--grid", "1:1:1"], "atom ':1' has no name"),
        (["laplace", "exp:1", "--op", "rl-der", "--alpha", "0.5", "--a=-1"],
         "rl-der is only available at a = 0 (its negative-instant transform is not "
         "implemented)"),
    ],
)
def test_malformed_requests_are_usage_errors_naming_the_fault(capsys, argv, message):
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


def test_eval_divergence_is_numeric_error(capsys):
    # sqrt data from center 1 only converges out to t = 2
    code, _, err = run_cli(
        capsys,
        ["eval", "power:0.5", "--alpha", "0.5", "--a", "1", "--grid",
         "2.5:3:2"],
    )
    assert code == 3
    assert "numerical failure" in err


# --- oracle subcommand --------------------------------------------------------------


def test_oracle_matches_eval(capsys):
    argv_tail = ["--alpha", "0.5", "--grid", "0.5:1.5:3"]
    _, out_eval, _ = run_cli(capsys, ["eval", "poly:0,0,1"] + argv_tail)
    _, out_oracle, _ = run_cli(capsys, ["oracle", "poly:0,0,1"] + argv_tail)
    ev = [float(line.split(",")[1]) for line in out_eval.strip().splitlines()[1:]]
    orc = [float(line.split(",")[1]) for line in out_oracle.strip().splitlines()[1:]]
    assert orc == pytest.approx(ev, rel=1e-9)


def test_oracle_caputo_definition(capsys):
    code, out, _ = run_cli(
        capsys,
        ["oracle", "exp:1", "--alpha", "1.5", "--def", "caputo",
         "--grid", "0.5:1:2"],
    )
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    from fracseries.operators import caputo_derivative
    from fracseries.series import series_from_catalog

    series = caputo_derivative(series_from_catalog("exp", [1.0], truncation=64), 1.5)
    for got, t in zip(vals, (0.5, 1.0)):
        want = series.evaluate(t).expect_finite()
        assert got == pytest.approx(want, rel=1e-8)


def test_oracle_grid_must_avoid_terminal(capsys):
    code, _, _ = run_cli(
        capsys, ["oracle", "poly:0,1", "--alpha", "0.5", "--grid", "0:1:2"]
    )
    assert code == 2


# --- leibniz subcommand ----------------------------------------------------------


def test_leibniz_text_report(capsys):
    code, out, _ = run_cli(
        capsys,
        ["leibniz", "--f", "shifted-poly:0,1", "--g", "const:1",
         "--alpha", "0.5", "--a", "1", "--t", "2", "--rule", "wrong"],
    )
    assert code == 0
    assert "rule value" in out
    assert "reference value" in out
    assert "residual" in out
    assert "correction" in out


def test_leibniz_json_report_fields_cancel(capsys):
    code, out, _ = run_cli(
        capsys,
        ["leibniz", "--f", "shifted-poly:0,1", "--g", "const:1",
         "--alpha", "0.5", "--a", "1", "--t", "2", "--rule", "wrong",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    gap = 0.5 / math.gamma(1.5)
    assert doc["rule_value"] == pytest.approx(gap, rel=1e-13)
    assert doc["reference_value"] == pytest.approx(2.0 * gap, rel=1e-13)
    assert doc["residual"] == pytest.approx(gap, rel=1e-13)
    assert doc["correction"] == pytest.approx(gap, rel=1e-13)


def test_leibniz_corrected_has_zero_residual(capsys):
    code, out, _ = run_cli(
        capsys,
        ["leibniz", "--f", "poly:0,1", "--g", "poly:0,1", "--alpha", "0.5",
         "--a", "1", "--t", "2", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] <= 1e-12 * (1.0 + abs(doc["reference_value"]))


# --- laplace subcommand ------------------------------------------------------------


def test_laplace_series_text(capsys):
    code, out, _ = run_cli(capsys, ["laplace", "poly:1,2"])
    assert code == 0
    assert out.strip() == "1 * s^(-1) + 2 * s^(-2)"


def test_laplace_caputo_cancellation(capsys):
    code, out, _ = run_cli(
        capsys, ["laplace", "poly:1,1", "--op", "caputo", "--alpha", "0.5"]
    )
    assert code == 0
    assert out.strip() == "1 * s^(-1.5)"


def test_laplace_singular_marker_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, ["laplace", "poly:1,1", "--op", "rl-der", "--alpha", "1.5"]
    )
    assert code == 0
    assert out.strip() == "SINGULAR(k=0)"


def test_laplace_power_route_keeps_real_exponents(capsys):
    code, out, _ = run_cli(
        capsys, ["laplace", "power:0.5", "--op", "rl-der", "--alpha", "0.5"]
    )
    assert code == 0
    assert "s^(-1)" in out


def test_laplace_json(capsys):
    # a shifted term writes its Upsilon argument, truncated data writes
    # "complete": false, and a singular transform writes its marker
    cases = [
        (["poly:1,1", "--op", "caputo", "--alpha", "0.5"],
         {"shift": 0.0, "terms": [{"coeff": 1.0, "power": 1.5}]}),
        (["exp:1", "--a=-1", "--trunc", "2", "--op", "series"],
         {"complete": False, "shift": -1.0, "terms": [
             {"coeff": 0.36787944117144233, "power": 1.0, "upsilon_arg": 1.0},
             {"coeff": 0.36787944117144233, "power": 2.0, "upsilon_arg": 2.0},
             {"coeff": 0.18393972058572117, "power": 3.0, "upsilon_arg": 3.0},
         ]}),
        (["exp:1", "--trunc", "2", "--op", "rl-der", "--alpha", "2.5"],
         {"shift": 0.0, "singular": "k=0", "terms": []}),
    ]
    for args, doc in cases:
        code, out, _ = run_cli(capsys, ["laplace", *args, "--format", "json"])
        assert code == 0
        assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_laplace_shifted_caputo_at_an_integer_order(capsys):
    # it was refused at a < 0 and taken at a = 0
    argv = ["laplace", "poly:0,0,1", "--a=-1", "--op", "caputo", "--alpha", "2"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == "2 * s^(-1) * e^(-(-1)*s) * Upsilon(1, -(-1)*s)\n"


def test_laplace_negative_terminal_uses_tail_factor(capsys):
    code, out, _ = run_cli(
        capsys, ["laplace", "poly:0,1", "--a", "-1", "--alpha", "0.5",
                 "--op", "rl-int"]
    )
    assert code == 0
    assert "Upsilon" in out


def test_laplace_positive_terminal_points_to_generalized(capsys):
    code, _, err = run_cli(capsys, ["laplace", "poly:0,1", "--a", "1"])
    assert code == 2
    assert "generalized" in err


def test_laplace_generalized(capsys):
    code, out, _ = run_cli(
        capsys,
        ["laplace", "shifted-poly:0,1", "--a", "2", "--op", "generalized",
         "--kind", "caputo", "--alpha", "0.5"],
    )
    assert code == 0
    assert out.strip() == "1 * s^(-1.5)"


def test_laplace_missing_alpha_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["laplace", "poly:1,1", "--op", "caputo"])
    assert code == 2


# --- examples subcommand -------------------------------------------------------------


def test_examples_pass(capsys):
    code, out, _ = run_cli(capsys, ["examples"])
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_examples_wrong_rule_fails(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--wrong-rule"])
    assert code == 3
    assert "FAIL" in out


def test_examples_other_orders(capsys):
    for alpha in ("0.25", "0.75"):
        code, out, _ = run_cli(capsys, ["examples", "--alpha", alpha])
        assert code == 0
        assert "FAIL" not in out


def test_examples_rejects_out_of_range_alpha(capsys):
    code, _, _ = run_cli(capsys, ["examples", "--alpha", "1.5"])
    assert code == 2


# --- console entry point ---------------------------------------------------------------


def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fracseries.cli", "laplace", "poly:1,1",
         "--op", "caputo", "--alpha", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 * s^(-1.5)"


# --- extreme and non-finite input ------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "exp:1", "--alpha", "180.5", "--grid", "0.5:1:2"],
        ["eval", "exp:1", "--alpha", "172.5", "--grid", "0.5:1:2"],
        ["oracle", "exp:1", "--alpha", "180.5", "--grid", "0.5:1:2"],
        ["leibniz", "--f", "exp:1", "--g", "sin:1", "--alpha", "180.5", "--t", "1"],
        ["eval", "exp:1", "--alpha", "0.5", "--grid=1e200:1e200:1"],
        ["eval", "exp:1", "--alpha", "70.5", "--def", "caputo", "--grid", "0.5:1:2"],
        ["eval", "exp:1", "--alpha", "63.5", "--def", "caputo", "--grid", "0.5:1:2"],
        ["eval", "exp:1", "--alpha", "0.5", "--trunc", "1", "--def", "caputo",
         "--grid", "0.5:1:2"],
        ["oracle", "exp:1", "--alpha", "0.5", "--grid=1e200:1e200:1"],
        ["oracle", "cos:-3", "--alpha", "-1", "--a=2.5", "--grid=3:1e300:2",
         "--def", "rl"],
        ["oracle", "poly:1", "--alpha", "-5", "--grid=1e300:1e300:1"],
        ["laplace", "power:200", "--op", "series"],
        ["laplace", "power:171.5"],
        ["laplace", "power:200.5", "--op", "rl-int", "--alpha", "0.5"],
        ["laplace", "poly:" + "0," * 50 + "1e300"],
        ["leibniz", "--f", "poly:2e152,2e152", "--g", "poly:1e150", "--alpha", "0.5",
         "--t", "1e12", "--rule", "rl", "--trunc", "4"],
        # both printed 0 with exit 0: 1/Gamma past 171.6 read as a pole
        ["oracle", "exp:1", "--alpha", "-200", "--grid", "20:20:1"],
        ["laplace", "power:200", "--op", "rl-der", "--alpha", "0.5"],
        # gen_binom(0.5, 171) ended in an OverflowError traceback from 171!
        ["leibniz", "--f", "exp:1", "--g", "poly:1", "--alpha", "0.5", "--t", "1",
         "--trunc", "200", "--rule", "rl"],
        # the quadrature's weighted sum overflowed in fsum, or read inf
        ["oracle", "poly:0,1e308", "--alpha", "0.5", "--grid", "1:1:1"],
        ["oracle", "poly:0,1e307", "--alpha", "0.5", "--grid", "1e3:1e3:1"],
        # an integer order's derivative overflowed: a usage error naming neither
        # t nor the order
        ["oracle", "poly:0,1e308,1e307", "--alpha", "1", "--grid", "10:10:1"],
    ],
)
def test_extreme_order_exits_cleanly(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code in (2, 3)
    assert "Traceback" not in err
    assert err.startswith(("error:", "numerical failure:"))


def test_product_rule_sum_beyond_the_double_range_is_numeric_failure(capsys):
    # it ended in an OverflowError traceback from math.fsum
    code, out, err = run_cli(capsys, [
        "leibniz", "--f", "poly:2e152,2e152", "--g", "poly:1e150", "--alpha", "0.5",
        "--t", "1e12", "--rule", "rl", "--trunc", "4",
    ])
    assert code == 3
    assert out == ""
    assert "double range at t = 1000000000000.0" in err and "term, j = 0" in err


@pytest.mark.parametrize(
    "argv, t, k_alpha",
    [
        (["--f", "exp:1", "--g", "const:1", "--alpha", "2.5", "--t", "1e-200",
          "--rule", "corrected"], "1e-200", "-2.5"),
        (["--f", "exp:1", "--g", "poly:0,0,0,1", "--alpha", "2.5", "--t", "1e-200",
          "--rule", "corrected"], "1e-200", "-2.5"),
        (["--f", "cos:1", "--g", "const:1", "--alpha", "170.5", "--t", "1e-17",
          "--trunc", "8", "--rule", "wrong"], "1e-17", "-170.5"),
    ],
)
def test_compensation_power_beyond_the_double_range_is_numeric_failure(
    capsys, argv, t, k_alpha
):
    # (t - a)^(k - alpha) of R1 ended in an OverflowError traceback; with
    # g = poly:0,0,0,1 the k = 0 summand it scales is 0, and it still refuses
    code, out, err = run_cli(capsys, ["leibniz"] + argv)
    assert code == 3
    assert out == ""
    assert f"at t = {t}:" in err and f"k = 0, k - alpha = {k_alpha}" in err


@pytest.mark.parametrize("rule", ["wrong", "corrected"])
@pytest.mark.parametrize(
    "argv",
    [
        # summed past the radius of power:0.5 at a = 1, which refused first (exit 3)
        ["--f", "exp:1", "--g", "power:0.5", "--a", "1", "--t", "3"],
        # a binomial weight past 170!, whose message came first
        ["--f", "exp:1", "--g", "poly:1", "--t", "1", "--trunc", "200"],
    ],
)
def test_caputo_rule_at_a_negative_order_is_refused_before_any_sum(capsys, argv, rule):
    # integer orders < 0 included: the report reads Caputo as RL only at 0
    # and at positive integers
    for alpha, shown in (("-0.5", "-0.5"), ("-1", "-1.0"), ("-2", "-2.0")):
        code, out, err = run_cli(capsys, ["leibniz", *argv, "--alpha", alpha, "--rule", rule])
        assert code == 2
        assert out == ""
        assert f"order must be > 0 and not an integer, got {shown}" in err


@pytest.mark.parametrize("argv, shown", [
    (["eval", "exp:1", "--alpha", "0.5", "--grid", "1:1:1", "--a", "nan"], "nan"),
    (["laplace", "exp:1", "--a", "nan"], "nan"),
    (["leibniz", "--f", "exp:1", "--g", "sin:1", "--alpha", "0.5", "--t", "1", "--a", "inf"], "inf"),
    (["oracle", "exp:1", "--alpha", "0.5", "--grid", "1:1:1", "--a=-inf"], "-inf"),
])
def test_a_non_finite_terminal_is_refused_by_name(capsys, argv, shown):
    # these named the data ("derivative values must be finite") or an
    # underflow of exp at the centre
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: center must be finite, got {shown}\n"


def test_caputo_oracle_refuses_a_negative_order_as_eval_does(capsys):
    # the oracle printed the RL integral there, with exit 0
    for alpha, shown in (("-0.5", "-0.5"), ("-1", "-1.0")):
        for command in ("eval", "oracle"):
            argv = [command, "exp:1", "--alpha", alpha, "--def", "caputo", "--grid", "1:1:1"]
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err == f"error: order must be > 0 and not an integer, got {shown}\n"
    code, out, _ = run_cli(capsys, ["oracle", "exp:1", "--alpha", "-0.5", "--grid", "1:1:1"])
    assert code == 0
    assert out == "t,value\n1,2.2906982523032386\n"


def test_product_rules_of_constants_far_from_the_terminal(capsys):
    # re-centring the constant at t = 1e12 gave NaN data and exit 2
    argv = ["leibniz", "--f", "poly:1", "--g", "poly:1", "--alpha", "0.5", "--t", "1e12"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert "rule value      0\n" in out  # the Caputo derivative of a constant
    code, out, _ = run_cli(capsys, argv + ["--rule", "rl", "--format", "json"])
    assert code == 0
    value = json.loads(out)["rule_value"]
    assert value == 5.641895835477562e-07
    assert value == pytest.approx(1e-6 / math.sqrt(math.pi), rel=1e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "exp:1", "--alpha", "0.5", "--grid=1e200:1e200:1"],
        ["oracle", "cos:-3", "--alpha", "-1", "--a=2.5", "--grid=3:1e300:2",
         "--def", "rl"],
    ],
)
def test_oracle_overflowing_tail_is_numeric_failure(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert "t - center = 1e+" in err and "Taylor truncation 64" in err


@pytest.mark.parametrize(
    "argv, t",
    [
        # an OverflowError traceback from math.fsum
        (["oracle", "poly:0,1e308", "--alpha", "0.5", "--grid", "1:1:1"], "1.0"),
        # inf on every pass, doubled to 1024 nodes and refused on "last change nan"
        (["oracle", "poly:0,1e307", "--alpha", "0.5", "--grid", "1e3:1e3:1"], "1000.0"),
    ],
)
def test_oracle_weighted_sum_beyond_the_double_range_is_numeric_failure(capsys, argv, t):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == (
        f"numerical failure: the 16-node Gauss-Jacobi sum of order 0.5 at t = {t} is "
        "beyond the double range\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        # both exited 2 with "finite result requires a finite value, got inf"
        (["oracle", "poly:0,1e308,1e307", "--alpha", "1", "--grid", "10:10:1"],
         "the derivative of order 1.0 at t = 10.0 is beyond the double range"),
        (["oracle", "poly:0,1e308,1e307", "--alpha", "1", "--grid", "10:10:1",
          "--def", "caputo"],
         "the derivative of order 1.0 at t = 10.0 is beyond the double range"),
        (["oracle", "poly:1.5e308,2e307", "--alpha", "0.1", "--grid", "3:3:1"],
         "the Caputo value 5.58945907693904e+307 plus the bridge 1.2576282923112843e+308 "
         "of order 0.1 at t = 3.0 is beyond the double range"),
    ],
)
def test_oracle_value_beyond_the_double_range_is_numeric_failure(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"numerical failure: {message}\n"


@pytest.mark.parametrize(
    "argv, factorial",
    [
        (["eval", "exp:1", "--alpha", "-200", "--grid", "0.5:1:2"], "(200)!"),
        (["eval", "poly:1,1,1,1", "--alpha", "-168", "--grid", "50:50:1"], "(171)!"),
        (["eval", "cos:0", "--alpha=-1e300", "--grid=0:0:1"], "(1e+300)!"),
        # non-integer orders: Gamma(k + 1 - alpha) overflows; dropping the term
        # instead would read 9% low for poly:1,1,1,1 at t = 50
        (["eval", "poly:1,1,1,1", "--alpha", "-168.5", "--grid", "50:50:1"], "Gamma(172.5)"),
        (["eval", "poly:1", "--alpha", "-200.5", "--grid=1e300:1e300:1"], "Gamma(201.5)"),
    ],
)
def test_integer_integral_past_the_factorial_range_is_usage_error(capsys, argv, factorial):
    # it ended in an OverflowError traceback; dropping the term instead
    # would read 13% low for poly:1,1,1,1 at t = 50
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert factorial in err and "beyond the double range" in err


def test_integer_derivative_past_the_factorial_range_returns_its_value(capsys):
    # the weights past j = 1 and the derivative's slots past 170! are exact
    # zeros: both exited 2, naming gen_binom(1.0, 171) and (171)!
    code, out, err = run_cli(capsys, ["leibniz", "--f", "exp:1", "--g", "poly:1", "--alpha", "1",
                                      "--t", "1", "--trunc", "200", "--rule", "rl"])
    assert (code, err) == (0, "")
    assert "rule value      2.7182818284590455\nreference value 2.7182818284590455\n" in out
    code, out, err = run_cli(capsys, ["eval", "exp:1", "--alpha", "1", "--grid", "1:1:1",
                                      "--trunc", "200"])
    assert (code, out, err) == (0, "t,value\n1,2.7182818284590455\n", "")
    # a non-integer order still refuses the weight past 170!
    code, _, err = run_cli(capsys, ["leibniz", "--f", "exp:1", "--g", "poly:1", "--alpha", "0.5",
                                    "--t", "1", "--trunc", "200", "--rule", "rl"])
    assert code == 2 and "gen_binom(0.5, 171) divides by 171!" in err


def test_fractional_integral_of_a_polynomial_skips_its_zero_slots(capsys):
    # 1/Gamma(k + 121.5) is 0.0 from k = 51 on, but only for data that is 0 there
    argv = ["eval", "poly:1", "--alpha", "-120.5", "--grid", "1:1:1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == 1.0 / math.gamma(121.5)


def test_integer_integral_of_a_polynomial_skips_its_zero_slots(capsys):
    # every slot past the degree holds 0: (k + 120)! up to k = 64 is never formed
    argv = ["eval", "poly:1", "--alpha", "-120", "--grid", "1:1:1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(1 / math.factorial(120), rel=1e-14)


def test_examples_with_a_grid_point_at_zero_pass(capsys):
    # Example 2's product t * t vanishes at t = 0; its relative residual was 0/0
    code, out, _ = run_cli(capsys, ["examples", "--a", "-1"])
    assert code == 0
    assert out.endswith("3/3 examples pass\n")


def test_leibniz_at_a_huge_integer_order_skips_the_r1_loop(capsys):
    # R1 is a sum over k < n with n = alpha; at integer alpha every term is 0
    argv = ["leibniz", "--f", "poly:1", "--g", "poly:1", "--alpha", "1e300", "--t", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert "correction (R1) 0\n" in out


def test_overflowing_term_is_numeric_failure_naming_point_and_exponent(capsys):
    argv = ["eval", "exp:1", "--alpha", "0.5", "--grid=1e200:1e200:1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert "t - center = 1e+200" in err and "^2.5" in err


@pytest.mark.parametrize(
    "alpha, trunc, carried",
    [("70.5", "64", 0), ("63.5", "64", 1), ("0.5", "1", 1), ("70", "64", 0)],
)
def test_sum_past_the_carried_data_is_usage_error(capsys, alpha, trunc, carried):
    definition = "rl" if alpha == "70" else "caputo"
    argv = ["eval", "exp:1", "--alpha", alpha, "--trunc", trunc, "--def", definition,
            "--grid", "0.5:1:2"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    n = math.ceil(float(alpha))
    assert f"order {alpha} (n = {n})" in err
    assert f"truncation {trunc} carries {carried}" in err


@pytest.mark.parametrize(
    "argv, order, first, trunc",
    [
        (["exp:1", "--op", "caputo", "--alpha", "70.5"], "70.5", 71, 64),
        (["exp:-1", "--a=-3", "--op", "caputo", "--alpha", "200.5"], "200.5", 201, 64),
        (["exp:1", "--op", "generalized", "--kind", "caputo", "--alpha", "70.5"],
         "70.5", 71, 64),
        (["exp:1", "--op", "caputo", "--alpha", "0.5", "--trunc", "1"], "0.5", 1, 1),
    ],
)
def test_laplace_sum_past_the_carried_data_is_usage_error(capsys, argv, order, first, trunc):
    code, out, err = run_cli(capsys, ["laplace"] + argv)
    assert code == 2
    assert out == ""
    assert f"order {order} " in err
    assert f"slots k >= {first}," in err
    assert f"truncation {trunc} carries" in err


def test_caputo_of_constant_exp_is_still_zero(capsys):
    argv = ["eval", "exp:0", "--alpha", "0.5", "--def", "caputo", "--grid", "0.5:1:2"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == "t,value\n0.5,0\n1,0\n"


def test_oracle_past_the_carried_data_names_n_and_truncation(capsys):
    argv = ["oracle", "exp:1", "--alpha", "180.5", "--def", "caputo",
            "--grid", "0.5:1:2"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "n = 181" in err and "truncation 64" in err


def test_oracle_past_the_factorial_range_is_usage_error(capsys):
    # the tail test divides by 199!, beyond the double range, as eval's terms
    # divide by Gamma(172.5): the data is refused, not a power at t - center = 1
    code, out, err = run_cli(
        capsys, ["oracle", "exp:1", "--alpha", "0.5", "--grid", "1:1:1", "--trunc", "200"])
    assert code == 2
    assert out == ""
    assert err == (
        "error: the tail terms of the order-1 derivative divide f^(200) by 199!, which "
        "is beyond the double range (Taylor truncation 200)\n"
    )
    # a power that overflows is still a numerical failure
    code, _, err = run_cli(
        capsys, ["oracle", "exp:1", "--alpha", "0.5", "--grid", "30:30:1", "--trunc", "300"])
    assert code == 3
    assert "(t - center)^299 is beyond the double range" in err


@pytest.mark.parametrize("argv, order", [
    (["eval", "exp:1", "--alpha=nan", "--grid", "0.5:1:2"], "nan"),
    (["leibniz", "--f", "exp:1", "--g", "sin:1", "--alpha=inf", "--t", "1"], "inf"),
    # an infinite order is refused, not read as a singular transform
    (["laplace", "power:0.5", "--op", "rl-der", "--alpha=inf"], "inf"),
])
def test_non_finite_order_is_usage_error(capsys, argv, order):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: order must be finite, got {order}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "exp:1e300", "--alpha", "0.5", "--grid", "0.5:1:2"],
        ["eval", "exp:1", "--alpha", "0.5", "--grid", "0.5:nan:2"],
        ["eval", "exp:1", "--alpha", "0.5", "--grid", "nan:1:2"],
        ["eval", "exp:1", "--alpha", "0.5", "--grid", "0.5:inf:2"],
        ["eval", "exp:1", "--alpha", "0.5", "--grid=-1e308:1e308:2"],
        ["laplace", "exp:1", "--a=-1e3", "--op", "series"],
        ["eval", "exp:1", "--a=-1e3", "--alpha", "0.5", "--grid=-999:-998:2"],
    ],
)
def test_non_finite_or_overflowing_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "convergence radius" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # integer orders skipped the tail test: they printed -2.41e36 (the
        # value is 1/(2 sqrt 5)) and 21865338.14 (e^30 is 1.07e13)
        ["oracle", "power:0.5", "--a", "1", "--alpha", "1", "--grid", "5:5:1"],
        ["oracle", "exp:1", "--alpha", "0", "--trunc", "8", "--grid", "30:30:1"],
    ],
)
def test_oracle_vets_integer_orders_like_the_others(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "too short for 1e-12-accurate evaluation" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["leibniz", "--f", "poly:1e300,1e300", "--g", "poly:1,1e8", "--alpha", "0.5",
          "--t", "3"], "the product of Taylor data at center 0.0 is beyond the double "
         "range: its datum k = 2 is inf"),
        (["eval", "poly:1e308+poly:1e308", "--alpha", "0.5", "--grid", "1:1:1"],
         "the sum of Taylor data at center 0.0 is beyond the double range: its datum "
         "k = 0 is inf"),
    ],
)
def test_sum_or_product_beyond_the_double_range_names_its_datum(capsys, argv, what):
    # both read "derivative values must be finite", which names nothing
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert what in err


@pytest.mark.parametrize(
    "t, what",
    [
        ("nan", "t=nan must lie right of the terminal 0.0"),
        ("inf", "the re-expansion of Taylor data about inf is beyond the double range: "
         "its datum k = 0 is inf"),
        ("1e300", "the re-expansion of Taylor data about 1e+300 is beyond the double "
         "range: its datum k = 0 is inf"),
    ],
)
def test_product_rule_at_a_non_finite_or_huge_t_names_it(capsys, t, what):
    # t is vetted before the lead factor is re-centred at it, and a
    # re-expansion beyond the double range names its centre and datum
    argv = ["leibniz", "--f", "exp:1", "--g", "sin:1", "--alpha", "0.5", "--t", t]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert what in err


@pytest.mark.parametrize(
    "argv, what",
    [
        # rules up to 1024 nodes, then exit 3: "node doubling did not stabilize"
        (["oracle", "exp:1", "--alpha", "0.5", "--grid", "1:1:1", "--tol=nan"],
         "rel_tol must be >= 0, got nan"),
        (["oracle", "exp:1", "--alpha", "0.5", "--grid", "1:1:1", "--tol=-1"],
         "rel_tol must be >= 0, got -1.0"),
        # two FAILs and exit 3
        (["examples", "--tol=nan"], "examples need --tol >= 0, got nan"),
        (["examples", "--tol=-1"], "examples need --tol >= 0, got -1.0"),
        # an integer order took no integral and printed e with exit 0
        (["oracle", "exp:1", "--alpha", "1", "--grid", "1:1:1", "--tol=nan"],
         "rel_tol must be >= 0, got nan"),
    ],
)
def test_tolerance_below_zero_or_nan_is_a_usage_error(capsys, argv, what):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {what}\n"


def test_oracle_failure_reports_nonzero_last_change(capsys):
    code, _, err = run_cli(
        # two rules of this entire integrand agree bitwise at t = 1 and 2;
        # at t = 3 rounding keeps the last change at 6e-14
        capsys, ["oracle", "exp:1", "--alpha", "0.5", "--grid", "3:3:1", "--tol", "0"]
    )
    assert code == 3
    change = float(err.split("last change ")[1].split(",")[0])
    assert change > 0.0


# --- exit-code contract over generated argv ----------------------------------------

_NUMBERS = st.one_of(
    st.floats(-4.0, 4.0).map(repr),
    st.sampled_from(
        ["0", "-0.0", "1", "0.5", "2.5", "1e-300", "1e200", "1e300", "-1e300",
         "63.5", "70.5", "180.5", "inf", "-inf", "nan"]
    ),
)
_ATOM = st.builds(
    lambda name, params: f"{name}:{','.join(params)}",
    st.sampled_from(["poly", "shifted-poly", "const", "power", "exp", "sin", "cos", "sinh"]),
    st.lists(_NUMBERS, max_size=3),
)
_SPEC = st.lists(_ATOM, min_size=1, max_size=2).map("+".join)
_GRID = st.builds(
    lambda lo, hi, count: f"--grid={lo}:{hi}:{count}",
    _NUMBERS, _NUMBERS, st.integers(-1, 3),
)
_TRUNC = st.integers(-1, 200).map(lambda n: f"--trunc={n}")


def _opt(flag, values=_NUMBERS):
    return values.map(lambda v: f"--{flag}={v}")


_ARGV = st.one_of(
    st.tuples(
        st.sampled_from(["eval", "oracle"]), _SPEC, _opt("alpha"), _opt("a"), _TRUNC,
        _GRID, _opt("def", st.sampled_from(["rl", "caputo"])),
        _opt("format", st.sampled_from(["csv", "json"])),
    ).map(list),
    st.tuples(
        st.just("leibniz"), _opt("f", _SPEC), _opt("g", _SPEC), _opt("alpha"),
        _opt("a"), _opt("t"), _opt("rule", st.sampled_from(["rl", "wrong", "corrected"])),
        _TRUNC, _opt("format", st.sampled_from(["text", "json"])),
    ).map(list),
    st.tuples(
        st.just("laplace"), _SPEC, _opt("alpha"), _opt("a"), _TRUNC,
        _opt("op", st.sampled_from(["series", "rl-int", "caputo", "rl-der", "generalized"])),
        _opt("kind", st.sampled_from(["plain", "rl-int", "caputo"])),
        _opt("format", st.sampled_from(["text", "json"])),
    ).map(list),
    st.builds(
        lambda alpha, a, tol, wrong: ["examples", alpha, a, tol] + wrong,
        _opt("alpha"), _opt("a"), _opt("tol"), st.sampled_from([[], ["--wrong-rule"]]),
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=_ARGV)
def test_every_invocation_exits_0_2_or_3_without_a_traceback(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects with exit code 2
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_repeated_calls_in_one_process_match_a_fresh_process(monkeypatch):
    # the parser is built once per process; no call may leave state in it
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        ["eval", "const:1", "--alpha", "0.5", "--grid", "0:1:3", "--format", "json"],
        ["oracle", "exp:1", "--alpha", "0.5", "--grid", "0.5:2:3", "--def", "caputo"],
        ["leibniz", "--f", "exp:1", "--g", "sin:1", "--alpha", "0.5", "--t", "1"],
    ]
    usage_error = ["eval", "exp:1", "--grid", "0:1:2"]  # no --alpha
    first = [_in_process(argv) for argv in runs]
    assert _in_process(usage_error)[0] == 2
    second = [_in_process(argv) for argv in runs]
    assert first == second
    for argv, got in zip(runs + [usage_error], first + [_in_process(usage_error)]):
        proc = subprocess.run(
            [sys.executable, "-m", "fracseries.cli", *argv], capture_output=True
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
