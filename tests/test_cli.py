import json
import math
import subprocess
import sys

import pytest

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
    code, out, _ = run_cli(
        capsys,
        ["laplace", "poly:1,1", "--op", "caputo", "--alpha", "0.5",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [{"coeff": 1.0, "power": 1.5}]


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
    ],
)
def test_extreme_order_exits_cleanly(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code in (2, 3)
    assert "Traceback" not in err
    assert err.startswith(("error:", "numerical failure:"))


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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "exp:1e300", "--alpha", "0.5", "--grid", "0.5:1:2"],
        ["eval", "exp:1", "--alpha", "0.5", "--grid", "0.5:nan:2"],
        ["eval", "exp:1", "--alpha", "0.5", "--grid", "nan:1:2"],
        ["eval", "exp:1", "--alpha", "0.5", "--grid", "0.5:inf:2"],
        ["eval", "exp:1", "--alpha", "0.5", "--grid=-1e308:1e308:2"],
    ],
)
def test_non_finite_or_overflowing_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "convergence radius" not in err


def test_oracle_failure_reports_nonzero_last_change(capsys):
    code, _, err = run_cli(
        capsys, ["oracle", "exp:1", "--alpha", "0.5", "--grid", "0.5:1:2", "--tol", "0"]
    )
    assert code == 3
    change = float(err.split("last change ")[1].split(",")[0])
    assert change > 0.0
