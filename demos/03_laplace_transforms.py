"""Formal Laplace transforms of the fractional operators.

Shows the regular/singular split between the two derivative
definitions, exact symbolic cancellation of initial values, transforms
from a negative initial instant (incomplete-gamma factors), and the
generalized transform that works from any terminal.
"""

from fracseries import (
    EvalResult,
    FracPowerSeries,
    classify_lower_terminal,
    generalized_laplace,
    laplace_caputo,
    laplace_rl_derivative,
    laplace_rl_derivative_fps,
    laplace_shifted_series,
    series_from_catalog,
)


def main():
    # Caputo: initial values cancel symbolically
    f = series_from_catalog("poly", [1.0, 1.0], center=0.0)  # 1 + t
    print("caputo transform of 1+t, order 0.5 :", laplace_caputo(f, 0.5).render())
    print("caputo transform of 1+t, order 1.5 :", laplace_caputo(f, 1.5).render())

    # RL: fine below order 1, singular above when f(0) != 0
    print("RL transform of 1+t, order 0.5     :", laplace_rl_derivative(f, 0.5).render())
    print("RL transform of 1+t, order 1.5     :", laplace_rl_derivative(f, 1.5).render())

    # the t^0.5 + 2 example, done on the power-sum representation
    fps = FracPowerSeries(0.0, ((1.0, 0.5), (2.0, 0.0)))
    print("\nRL transform of t^0.5 + 2:")
    for alpha in (0.5, 1.5):
        print(f"  order {alpha}:", laplace_rl_derivative_fps(fps, alpha).render())

    # negative initial instant brings in upper-incomplete-gamma factors
    g = series_from_catalog("poly", [0.0, 1.0], center=-1.0, truncation=4)
    print("\nshifted transform of t from a=-1  :", laplace_shifted_series(g, "plain").render())

    # the generalized transform never needs them
    h = series_from_catalog("poly", [1.0, 1.0], center=2.0)
    print("generalized caputo from a=2       :", generalized_laplace(h, "caputo", 0.7).render())

    # vanishing RL initial values == vanishing derivative values: the RL
    # differintegrals of orders 1.5, 0.5 and -0.5 tend to 0 at the terminal
    # exactly when f(0) = f'(0) = 0
    print("\ninitial-data equivalence for order 1.5:")
    for coeffs, label in (
        ([1.0], "f = 1"),
        ([0.0, 1.0], "f = t"),
        ([0.0, 0.0, 1.0], "f = t^2"),
    ):
        p = series_from_catalog("poly", coeffs, center=0.0)
        left = all(
            classify_lower_terminal(p, order) == EvalResult.finite(0.0)
            for order in (1.5, 0.5, -0.5)
        )
        right = all(d == 0.0 for d in p.derivs[:2])
        cls = classify_lower_terminal(p, 1.5)
        print(f"  {label:9}: rl-limits-zero={left}  derivs-zero={right}  D^1.5 near 0: {cls}")


if __name__ == "__main__":
    main()
