"""Series-based fractional calculus.

Taylor data in, closed-form fractional power series out: memory
integrals and derivatives of both common definitions, their bridge
identity, product rules (including the corrected one with its
compensation series), formal Laplace transforms with singularity
diagnosis, and an independent quadrature oracle.
"""

from .series import (
    DEFAULT_TRUNCATION,
    DivergenceError,
    EvalResult,
    FracPowerSeries,
    Order,
    ResultKind,
    TaylorSeries,
    eval_frac_series,
    series_from_catalog,
    taylor_arith,
)
from .special import (
    GammaRangeError,
    gamma_ratio,
    gamma_real,
    gen_binom,
    pochhammer,
    recip_gamma,
    upsilon,
)
from .operators import (
    IntegerLimitReport,
    caputo_derivative,
    caputo_local_form,
    frac_differintegral,
    integer_limit_check,
    rl_caputo_bridge,
    rl_differintegral,
    rl_local_form,
)
from .leibniz import (
    LeibnizReport,
    leibniz_caputo_corrected,
    leibniz_caputo_wrong,
    leibniz_monomial,
    leibniz_report,
    leibniz_rl,
)
from .laplace import (
    FreqDiffReport,
    LaplaceExpr,
    LaplaceTerm,
    classify_lower_terminal,
    frequency_derivative,
    frequency_differentiation_check,
    generalized_laplace,
    initial_value_equivalence,
    laplace_caputo,
    laplace_fps,
    laplace_power,
    laplace_rl_derivative,
    laplace_rl_derivative_fps,
    laplace_rl_integral,
    laplace_rl_integral_fps,
    laplace_series,
    laplace_shifted_series,
)
from .quadrature import (
    QuadratureError,
    caputo_quad,
    rl_derivative_quad,
    rl_integral_fixed,
    rl_integral_quad,
)
from .grammar import GrammarError, parse_function_spec, parse_power_spec

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TRUNCATION",
    "DivergenceError",
    "EvalResult",
    "FracPowerSeries",
    "FreqDiffReport",
    "GammaRangeError",
    "GrammarError",
    "IntegerLimitReport",
    "LaplaceExpr",
    "LaplaceTerm",
    "LeibnizReport",
    "Order",
    "QuadratureError",
    "ResultKind",
    "TaylorSeries",
    "caputo_derivative",
    "caputo_local_form",
    "caputo_quad",
    "classify_lower_terminal",
    "eval_frac_series",
    "frac_differintegral",
    "frequency_derivative",
    "frequency_differentiation_check",
    "gamma_ratio",
    "gamma_real",
    "gen_binom",
    "generalized_laplace",
    "initial_value_equivalence",
    "integer_limit_check",
    "laplace_caputo",
    "laplace_fps",
    "laplace_power",
    "laplace_rl_derivative",
    "laplace_rl_derivative_fps",
    "laplace_rl_integral",
    "laplace_rl_integral_fps",
    "laplace_series",
    "laplace_shifted_series",
    "leibniz_caputo_corrected",
    "leibniz_caputo_wrong",
    "leibniz_monomial",
    "leibniz_report",
    "leibniz_rl",
    "parse_function_spec",
    "parse_power_spec",
    "pochhammer",
    "recip_gamma",
    "rl_caputo_bridge",
    "rl_derivative_quad",
    "rl_differintegral",
    "rl_integral_fixed",
    "rl_integral_quad",
    "rl_local_form",
    "series_from_catalog",
    "taylor_arith",
    "upsilon",
]
