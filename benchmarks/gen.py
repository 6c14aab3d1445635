"""Seeded input generators for the three benchmark workloads.

Everything here is plain data: function specs in the fracseries grammar,
orders, terminals, grids and times. Nothing imports fracseries or mpmath,
so the program under test sees only what these functions return, and
the same (workload, seed) always yields the same requests.

Numeric parameters are drawn on a quarter grid (0.25 steps) because that
is what a person types on the command line, and because sums of such
values are exact in binary floating point: a derivative that cancels to
zero on paper also cancels to zero in the program's input, so the
checker can hold the program to exact terminal classifications.
"""

from __future__ import annotations

import random

#: Points per grid-eval request.
GRID_POINTS = 1000
#: Requests per crosscheck group (a t sweep at one alpha, or fresh alphas),
#: and the crosscheck requests in one traced pass.
CROSS_GROUP = 6
CROSS_FIXED = 12
#: Quadrature points per crosscheck request: sized so that quadrature takes
#: about a third of the traced time and the product rules the rest.
QUAD_POINTS = 4


def rng_for(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _q(r: random.Random, lo: float, hi: float, step: float = 0.25) -> float:
    """Uniform draw from the step grid on [lo, hi]."""
    n_lo, n_hi = round(lo / step), round(hi / step)
    return r.randint(n_lo, n_hi) * step


def _nonzero(r: random.Random, lo: float, hi: float) -> float:
    while True:
        v = _q(r, lo, hi)
        if v != 0.0:
            return v


def _alpha(r: random.Random, lo: float, hi: float) -> float:
    """A continuous non-integer order in (lo, hi), six decimals."""
    while True:
        v = round(r.uniform(lo, hi), 6)
        if lo < v < hi and not v.is_integer():
            return v


def _atom(r: random.Random, kinds: tuple[str, ...], rate: float) -> tuple[str, list[float]]:
    kind = r.choice(kinds)
    if kind in ("exp", "sin", "cos"):
        return kind, [_nonzero(r, -rate, rate)]
    if kind == "const":
        return kind, [_nonzero(r, -2.0, 2.0)]
    if kind == "power":
        # exponents on the quarter grid in (-1, 3); integers are polynomials
        return kind, [_q(r, -0.75, 2.75)]
    degree = r.randint(0, 3)
    coeffs = [0.0 if r.random() < 0.3 else _q(r, -2.0, 2.0) for _ in range(degree + 1)]
    if all(c == 0.0 for c in coeffs):
        coeffs[-1] = 1.0
    return kind, coeffs


def spec_text(atoms: list[tuple[str, list[float]]]) -> str:
    return "+".join(f"{name}:{','.join(repr(p) for p in params)}" for name, params in atoms)


ENTIRE_KINDS = ("exp", "sin", "cos")
TAYLOR_KINDS = ENTIRE_KINDS + ("poly", "shifted-poly", "const")
POWER_SUM_KINDS = ("power", "const", "poly")


def _spec(r: random.Random, n_atoms: int, kinds: tuple[str, ...], rate: float) -> list:
    return [_atom(r, kinds, rate) for _ in range(n_atoms)]


def _steady_spec(r: random.Random, n_atoms: int, kinds: tuple[str, ...], rate: float) -> list:
    """A spec led by an exp/sin/cos atom, so every request carries full-length
    truncated data and costs about the same; the other atoms are free."""
    return [_atom(r, ENTIRE_KINDS, rate)] + _spec(r, n_atoms - 1, kinds, rate)


# ----------------------------------------------------------------------
# grid-eval: in-process `fracseries eval ... --format json`
# ----------------------------------------------------------------------

#: Lead atoms of grid-eval specs, one per cell in turn. A lone poly or
#: const has a few terms where an exp has 65, so the lead sets most of a
#: request's cost; cycling it in fixed proportion keeps the cost mix of a
#: run independent of the seed without narrowing the atom mix.
GRID_LEADS = TAYLOR_KINDS
GRID_CELLS = [(lead, a, d, n) for lead in GRID_LEADS for a in (0.0, 1.0) for d in ("rl", "caputo")
              for n in (1, 2, 3)]


def grid_eval_stream(seed: int, stream: str = ""):
    """Yield fresh grid-eval requests forever, cycling through GRID_CELLS
    (lead atom x a x definition x atom count). At a = 1 the three-atom
    cells end in a `power` atom, whose data has radius a, so a sixth of the
    requests are correct refusals."""
    r = rng_for("grid-eval", seed, stream)
    i = 0
    while True:
        lead, a, definition, n_atoms = GRID_CELLS[i % len(GRID_CELLS)]
        i += 1
        atoms = [_atom(r, (lead,), 2.0)]
        if a > 0 and n_atoms == 3:
            exponent = r.choice([q / 4 for q in range(-3, 12) if q % 4])
            atoms += _spec(r, 1, TAYLOR_KINDS, 2.0) + [("power", [exponent])]
        else:
            atoms += _spec(r, n_atoms - 1, TAYLOR_KINDS, 2.0)
        if definition == "caputo":
            alpha = _alpha(r, 0.0, 3.0)
        elif r.random() < 0.25:
            alpha = float(r.choice((-1, 0, 1, 2)))
        else:
            alpha = _alpha(r, -2.0, 3.0)
        grid = f"{a!r}:{a + 3.0!r}:{GRID_POINTS}"
        yield {
            "atoms": atoms, "a": a, "alpha": alpha, "definition": definition,
            "grid": [a, a + 3.0, GRID_POINTS],
            "argv": ["eval", spec_text(atoms), "--alpha", repr(alpha), "--a", repr(a),
                     "--grid", grid, "--def", definition, "--format", "json"],
        }


# ----------------------------------------------------------------------
# symbolic: series construction and every Laplace route
# ----------------------------------------------------------------------

#: (lead atoms, further atoms, `power` atom on the generalized route) per
#: cell. A trig-led spec has half its Taylor data zero at 0 and costs
#: less, so a third of the cells lead with sin/cos in fixed proportion.
SYMBOLIC_CELLS = [(lead, extra, power) for lead in (("sin", "cos"), ("exp",), ("exp",))
                  for extra in (0, 1, 2) for power in (False, False, True)]


def symbolic_stream(seed: int, stream: str = ""):
    """Yield fresh symbolic requests forever, cycling through SYMBOLIC_CELLS.

    The spec is parsed at 0 and at a < 0 too, so it has no `power` atom;
    the generalized transforms (a > 0) take the spec plus, in a third of
    the cells, a `power` atom, whose data about a has radius a."""
    r = rng_for("symbolic", seed, stream)
    i = 0
    while True:
        lead, extra, power = SYMBOLIC_CELLS[i % len(SYMBOLIC_CELLS)]
        i += 1
        atoms = [_atom(r, lead, 2.0)] + _spec(r, extra, TAYLOR_KINDS, 2.0)
        gen_atoms = atoms + ([("power", [_q(r, -0.75, 2.75)])] if power else [])
        power_atoms = _spec(r, 1 + extra, POWER_SUM_KINDS, 2.0)
        yield {
            "atoms": atoms,
            "spec": spec_text(atoms),
            "gen_atoms": gen_atoms,
            "gen_spec": spec_text(gen_atoms),
            "power_atoms": power_atoms,
            "power_spec": spec_text(power_atoms),
            "alpha": _alpha(r, 0.0, 3.0),
            "t": _q(r, 0.25, 1.5),
            "a_neg": _q(r, -1.0, -0.25),
            "a_pos": _q(r, 0.5, 2.0),
            "s": sorted(round(r.uniform(4.0, 12.0), 3) for _ in range(3)),
        }


# ----------------------------------------------------------------------
# crosscheck: product rules and quadrature, an unbounded stream
# ----------------------------------------------------------------------


def crosscheck_stream(seed: int, stream: str = ""):
    """Yield requests forever: sweep groups (one alpha, several t) alternate
    with fresh groups (a new alpha per request)."""
    r = rng_for("crosscheck", seed, stream)
    group = 0
    while True:
        sweep = group % 2 == 0
        shared = _alpha(r, 0.0, 2.0)
        a = r.choice((0.0, 1.0))
        f = _steady_spec(r, r.randint(1, 2), TAYLOR_KINDS, 1.0)
        g = _steady_spec(r, r.randint(1, 2), TAYLOR_KINDS, 1.0)
        for _ in range(CROSS_GROUP):
            if not sweep:
                a = r.choice((0.0, 1.0))
                f = _steady_spec(r, r.randint(1, 2), TAYLOR_KINDS, 1.0)
                g = _steady_spec(r, r.randint(1, 2), TAYLOR_KINDS, 1.0)
            t = a + _q(r, 0.25, 2.0)
            yield {
                "f": f, "g": g, "f_spec": spec_text(f), "g_spec": spec_text(g),
                "alpha": shared if sweep else _alpha(r, 0.0, 2.0),
                "a": a, "t": t, "sweep": sweep,
                # the quadrature oracle on a small grid ending at t
                "quad_t": [a + (t - a) * i / QUAD_POINTS for i in range(1, QUAD_POINTS + 1)],
            }
        group += 1


def take(stream, n: int) -> list[dict]:
    return [next(stream) for _ in range(n)]


STREAMS = {"grid-eval": grid_eval_stream, "symbolic": symbolic_stream, "crosscheck": crosscheck_stream}
#: Requests in one traced pass: a whole number of cell cycles.
FIXED = {"grid-eval": len(GRID_CELLS), "symbolic": 3 * len(SYMBOLIC_CELLS), "crosscheck": CROSS_FIXED}
#: Warm-up requests run before READY, from a stream of their own.
WARM_UP = 3


def fixed_requests(workload: str, seed: int) -> list[dict]:
    """The request list of one traced pass (and of its untraced twin)."""
    return take(STREAMS[workload](seed), FIXED[workload])


def warm_up(workload: str, seed: int) -> list[dict]:
    return take(STREAMS[workload](seed, "warm-up"), WARM_UP)


#: The first this many ops of a timed loop are checked against the
#: reference: one whole cycle of cells (32 groups on crosscheck). The
#: number does not depend on how fast the loop ran, so `attempted` and
#: `failed` repeat exactly for a seed; it is kept small because the mpmath
#: reference of a symbolic request costs about 30 times the request.
CHECKED = {"grid-eval": len(GRID_CELLS), "symbolic": len(SYMBOLIC_CELLS), "crosscheck": 32 * CROSS_GROUP}
