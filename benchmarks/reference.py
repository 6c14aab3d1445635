"""Independent reference checker, built on mpmath at 40 digits.

Nothing here imports fracseries. Every expected outcome is derived from
the mathematics of the request:

- derivative values f^(k)(c) of each catalog atom come from their closed
  forms, so a derivative that is zero on paper is an exact zero here;
- operator values are the RL/Caputo power series summed with those
  coefficients, and the value at the terminal is decided by the leading
  surviving term;
- transforms come from closed forms (F(s) of each atom, incomplete gamma
  functions for a negative initial instant) and SINGULAR markers from the
  least non-transformable term;
- refusals come from the convergence radius of the Taylor data and from
  the documented domain of each command.

A finite answer passes when its mixed error |got - ref| / (1 + |ref|) is
within TOL (series, product rules, transforms) or QUAD_TOL (quadrature).
"""

from __future__ import annotations

import json
import math
import re
from decimal import Context, Decimal

import mpmath
from mpmath import mpf

mpmath.mp.dps = 40
_DEC = Context(prec=45)

#: Mixed-error tolerance for series, product-rule and transform values.
TOL = 1.0e-10
#: Mixed-error tolerance for quadrature values (10x the doubling tolerance).
QUAD_TOL = 1.0e-8
#: Reference series length for entire functions and for power data, and
K_ENTIRE = 90
K_POWER = 160
#: Terms of a product series (factor rates <= 1, t - a <= 2).
K_PRODUCT = 64
#: The CLI's default --trunc: Taylor data carries derivatives 0..64.
PROGRAM_TRUNCATION = 64
#: A reference value this small is zero up to the reference's own rounding.
ZERO = 1.0e-25

EXIT_OK, EXIT_NUMERIC = 0, 3


class Verdict:
    """Failures and finite-answer errors gathered while checking one op.

    A failure that matches the signature of a known program defect
    (RECORD.md) carries its name; the others are unexplained.
    """

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.unexplained: list[str] = []
        self.errors: list[float] = []

    def fail(self, what: str, known: str | None = None) -> None:
        self.failures.append(what if known is None else f"{what} [known defect: {known}]")
        if known is None:
            self.unexplained.append(what)

    def finite(self, what: str, got, ref, tol: float = TOL) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
            self.fail(f"{what}: expected Finite({mpmath.nstr(ref, 17)}), got {got!r}")
            return
        err = float(abs(mpf(got) - ref) / (1 + abs(ref)))
        self.errors.append(err)
        if err > tol:
            self.fail(f"{what}: got {got!r}, reference {mpmath.nstr(ref, 20)}, mixed error {err:.3e}")

    def outcome(self, what: str, got, ref, tol: float = TOL) -> None:
        """Compare a (kind, payload) outcome with the reference outcome."""
        if isinstance(got, dict):
            self.fail(f"{what}: raised {got['error']}")
        elif ref[0] == "finite":
            if got[0] != "finite":
                self.fail(f"{what}: expected Finite({mpmath.nstr(ref[1], 17)}), got {got}")
            else:
                self.finite(what, got[1], ref[1], tol)
        elif tuple(got) != tuple(ref):
            self.fail(f"{what}: expected {ref}, got {got}")


# ----------------------------------------------------------------------
# Functions as sums of catalog atoms
# ----------------------------------------------------------------------


def _rot_sin(theta, k):  # sin(theta + k pi/2)
    return (mpmath.sin(theta), mpmath.cos(theta), -mpmath.sin(theta), -mpmath.cos(theta))[k % 4]


def _rot_cos(theta, k):  # cos(theta + k pi/2)
    return (mpmath.cos(theta), -mpmath.sin(theta), -mpmath.cos(theta), mpmath.sin(theta))[k % 4]


def _falling(x, k):
    out = mpf(1)
    for j in range(k):
        out *= x - j
    return out


def _poly_derivs(coeffs, c, K):
    out = []
    for k in range(K):
        acc = mpf(0)
        for i in range(k, len(coeffs)):
            acc += coeffs[i] * _falling(mpf(i), k) * c ** (i - k)
        out.append(acc)
    return out


def _rounded_trig(name: str, w: float, c: float, K: int) -> list:
    """Trig derivative data as double precision computes it from the catalog
    formula w^k sin(w c + phase + k pi/2): zeros on paper come out as
    rounding-sized values (sin(pi) = 1.2e-16), not as exact zeros."""
    phase = w * c + (math.pi / 2 if name == "cos" else 0.0)
    return [mpf(w**k * math.sin(phase + k * math.pi / 2)) for k in range(K)]


class Func:
    """f(t) as a sum of catalog atoms; shifted-poly is in powers of (t - a).

    With as_computed=True the derivative data is what the program itself
    holds: trig values rounded as double precision rounds them, and the
    transform of data with a finite radius summed over the carried terms
    (a divergent series) instead of taken in closed form. A failure that
    disappears under as_computed=True is due to one of those two known
    defects of the input data, not to the operators.
    """

    def __init__(self, atoms, a: float, as_computed: bool = False) -> None:
        self.atoms = [(name, [mpf(p) for p in params]) for name, params in atoms]
        self.a = mpf(a)
        self.as_computed = as_computed

    def _atom_poly(self, name, p):
        """Coefficients in powers of t for the polynomial atoms, else None."""
        if name == "const":
            return [p[0]]
        if name == "poly":
            return p
        if name == "power" and p[0] == int(p[0]) and p[0] >= 0:
            return [mpf(0)] * int(p[0]) + [mpf(1)]
        if name == "shifted-poly":
            # expand sum c_i (t - a)^i in powers of t
            out = [mpf(0)] * len(p)
            for i, ci in enumerate(p):
                for j in range(i + 1):
                    out[j] += ci * mpmath.binomial(i, j) * (-self.a) ** (i - j)
            return out
        return None

    def radius(self, c) -> float:
        """Convergence radius of the Taylor expansion about c."""
        r = math.inf
        for name, p in self.atoms:
            if name == "power" and self._atom_poly(name, p) is None:
                r = min(r, float(c))
        return r

    def derivs(self, c, K: int | None = None) -> list:
        c = mpf(c)
        if K is None:
            K = K_POWER if self.radius(c) < math.inf else K_ENTIRE
        total = [mpf(0)] * K
        for name, p in self.atoms:
            poly = self._atom_poly(name, p)
            if poly is not None:
                d = _poly_derivs(poly, c, K)
            elif name == "power":
                d = [_falling(p[0], k) * c ** (p[0] - k) for k in range(K)]
            elif name == "exp":
                base = mpmath.exp(p[0] * c)
                d = [p[0] ** k * base for k in range(K)]
            elif name in ("sin", "cos") and self.as_computed:
                d = _rounded_trig(name, float(p[0]), float(c), K)
            elif name in ("sin", "cos"):
                rot = _rot_sin if name == "sin" else _rot_cos
                d = [p[0] ** k * rot(p[0] * c, k) for k in range(K)]
            else:
                raise ValueError(f"unknown atom {name!r}")
            total = [x + y for x, y in zip(total, d)]
        return total

    def laplace_from(self, c, s):
        """int_0^inf e^(-s u) f(c + u) du in closed form."""
        c, s = mpf(c), mpf(s)
        total = mpf(0)
        for name, p in self.atoms:
            poly = self._atom_poly(name, p)
            if poly is not None:
                d = _poly_derivs(poly, c, len(poly))
                total += sum(dk / s ** (k + 1) for k, dk in enumerate(d))
            elif name == "exp":
                total += mpmath.exp(p[0] * c) / (s - p[0])
            elif name == "sin":
                w, th = p[0], p[0] * c
                total += (w * mpmath.cos(th) + s * mpmath.sin(th)) / (s * s + w * w)
            elif name == "cos":
                w, th = p[0], p[0] * c
                total += (s * mpmath.cos(th) - w * mpmath.sin(th)) / (s * s + w * w)
            else:  # power with a non-integer exponent
                total += mpmath.exp(s * c) * s ** (-p[0] - 1) * mpmath.gammainc(p[0] + 1, s * c)
        return total


def rgammas(z0, K: int) -> list:
    """[1/Gamma(z0 + k) for k < K], exact zeros at the poles."""
    z0 = mpf(z0)
    if z0 == int(z0):
        return [mpf(0) if z0 + k <= 0 else 1 / mpmath.factorial(int(z0 + k) - 1) for k in range(K)]
    out = [mpmath.rgamma(z0)]
    for k in range(1, K):
        out.append(out[-1] / (z0 + k - 1))
    return out


def branch(alpha: float) -> int:
    """n with n - 1 < alpha < n for non-integer alpha > 0."""
    return max(math.ceil(alpha), 0)


class OperatorSeries:
    """sum_{k >= k0} f^(k)(a) (t-a)^(k-alpha) / Gamma(k+1-alpha), exactly."""

    def __init__(self, d: list, alpha: float, k0: int = 0) -> None:
        self.alpha = mpf(alpha)
        rg = rgammas(1 - self.alpha, len(d))
        self.coeffs = [d[k] * rg[k] if k >= k0 else mpf(0) for k in range(len(d))]
        self._dec = None

    def at_terminal(self):
        for k, ck in enumerate(self.coeffs):
            if ck != 0:
                e = k - self.alpha
                if e < 0:
                    return ("inf", 1 if ck > 0 else -1)
                return ("finite", ck if e == 0 else mpf(0))
        return ("finite", mpf(0))

    def outcome(self, x):
        x = mpf(x)
        if x == 0:
            return self.at_terminal()
        return ("finite", self.value(x))

    def value(self, x):
        x = mpf(x)
        acc = mpf(0)
        for ck in reversed(self.coeffs):
            acc = acc * x + ck
        return acc * x ** (-self.alpha)

    def fast_value(self, x: float):
        """value() for many points: Horner in 45-digit decimals."""
        if self._dec is None:
            last = max((k for k, c in enumerate(self.coeffs) if c != 0), default=-1)
            self._dec = [Decimal(mpmath.nstr(c, 45)) for c in self.coeffs[: last + 1]]
        xd = Decimal(x)
        acc = Decimal(0)
        for ck in reversed(self._dec):
            acc = _DEC.add(_DEC.multiply(acc, xd), ck)
        return mpf(str(acc)) * mpf(x) ** (-self.alpha)


def operator(fn: Func, alpha: float, definition: str = "rl", d=None) -> OperatorSeries:
    d = fn.derivs(fn.a) if d is None else d
    k0 = branch(alpha) if definition == "caputo" else 0
    return OperatorSeries(d, alpha, k0)


def _result(kind_value) -> tuple:
    """Normalise a CLI JSON value into an outcome pair."""
    if kind_value == "inf":
        return ("inf", 1)
    if kind_value == "-inf":
        return ("inf", -1)
    if isinstance(kind_value, str):
        return (kind_value,)
    return ("finite", kind_value)


# ----------------------------------------------------------------------
# Laplace transforms
# ----------------------------------------------------------------------


def _offender(mu) -> str:
    mu = float(mu)
    if mu.is_integer():
        return f"k={int(mu)}"
    return f"mu={mu!r}"


def _upper_q(p, x, K):
    """[Q(p + k, x)] by the upward recurrence of the regularized upper gamma."""
    q = mpmath.gammainc(p, x, regularized=True)
    out = [q]
    for k in range(1, K):
        z = p + k - 1
        q = q + x ** z * mpmath.exp(-x) * mpmath.rgamma(z + 1)
        out.append(q)
    return out


def transform(fn: Func, route: str, alpha: float | None = None):
    """Reference transform: ("singular", marker), ("expr", s -> value), or
    ("expr_or_refusal", s -> value) where refusing is also correct.

    Routes: series / rl_int / caputo / rl_der at the zero instant,
    shift_plain / shift_rl_int / shift_caputo for a < 0, gen_plain /
    gen_rl_int / gen_caputo for the terminal-based transform at a > 0.
    """
    a = fn.a
    al = mpf(alpha) if alpha is not None else None
    base = route.split("_", 1)[1] if route.startswith(("shift_", "gen_")) else route
    if route.startswith("shift_") and base != "plain":
        d = fn.derivs(a)
        x0 = -a
        if base == "rl_int":
            p0, ks = al + 1, range(len(d))
        else:
            n = branch(alpha)
            p0, ks = n + 1 - al, range(n, len(d))

        def shifted(s):
            s = mpf(s)
            qs = _upper_q(p0, x0 * s, len(d))
            total = mpf(0)
            for i, k in enumerate(ks):
                total += d[k] * s ** (-(p0 + i)) * qs[i]
            return total * mpmath.exp(-a * s)

        return ("expr", shifted)
    c = mpf(0) if route.startswith("shift_") else a
    # Taylor data with a finite radius has a divergent termwise transform:
    # refusing is correct, and so is the closed-form value
    kind = "expr" if fn.radius(c) == math.inf else "expr_or_refusal"
    if fn.as_computed and kind != "expr":
        carried = fn.derivs(c, PROGRAM_TRUNCATION + 1)
        F = lambda s: sum(dk * mpf(s) ** (-k - 1) for k, dk in enumerate(carried))  # noqa: E731
    else:
        F = lambda s: fn.laplace_from(c, s)  # noqa: E731
    if base == "plain" or base == "series":
        return (kind, F)
    if base == "rl_int":
        return (kind, lambda s: mpf(s) ** (-al) * F(s))
    n = branch(alpha)
    d = fn.derivs(c, max(n, 1))
    if base == "caputo":
        return (kind, lambda s: mpf(s) ** al * F(s) - sum(d[k] * mpf(s) ** (al - k - 1) for k in range(n)))
    if base == "rl_der":
        for k in range(n - 1):
            if d[k] != 0:
                return ("singular", f"k={k}")
        return ("expr", lambda s: mpf(s) ** al * F(s))
    raise ValueError(f"unknown route {route!r}")


def power_terms(atoms) -> list[tuple]:
    """(coeff, exponent) pairs of a power/const/poly sum, merged and sorted."""
    acc: dict = {}
    for name, params in atoms:
        if name == "power":
            pairs = [(1.0, params[0])]
        elif name == "const":
            pairs = [(params[0], 0.0)]
        else:
            pairs = [(c, float(i)) for i, c in enumerate(params)]
        for c, mu in pairs:
            acc[mu] = acc.get(mu, mpf(0)) + mpf(c)
    return sorted(((c, mpf(mu)) for mu, c in acc.items() if c != 0), key=lambda cm: cm[1])


def power_transform(atoms, route: str, alpha: float | None = None):
    terms = power_terms(atoms)
    al = mpf(alpha) if alpha is not None else mpf(0)
    if route == "rl_der":
        kept = []
        for c, mu in terms:
            z = mu - al + 1
            if z <= 0 and z == int(z):
                continue  # the image term sits on a gamma pole
            if mu - al <= -1:
                return ("singular", _offender(mu))
            kept.append((c, mu))
        shift = -al
    else:
        kept, shift = terms, (al if route == "rl_int" else mpf(0))
    return ("expr", lambda s: sum(c * mpmath.gamma(mu + 1) * mpf(s) ** (-(mu + shift + 1)) for c, mu in kept))


_TERM = re.compile(
    r"^(?P<c>\S+) \* s\^\(-(?P<p>[^)]+)\)"
    r"(?: \* e\^\(-\((?P<sh>[^)]+)\)\*s\))?"
    r"(?: \* Upsilon\((?P<q>[^,]+), -\((?P<sh2>[^)]+)\)\*s\))?$"
)


def eval_rendered(text: str, s):
    """Value of a rendered transform at s, computed here from the text."""
    s = mpf(s)
    if text == "0":
        return mpf(0)
    total = mpf(0)
    for piece in text.split(" + "):
        m = _TERM.match(piece)
        if m is None:
            raise ValueError(f"unparseable transform term {piece!r}")
        v = mpf(m["c"]) * s ** (-mpf(m["p"]))
        if m["sh"] is not None:
            v *= mpmath.exp(-mpf(m["sh"]) * s)
        if m["q"] is not None:
            v *= mpmath.gammainc(mpf(m["q"]), -mpf(m["sh2"]) * s)
        total += v
    return total


def check_transform(v: Verdict, what: str, ref, got: dict, s_values) -> None:
    """got: {"render": str, "values": [...] | None, "error": str?}."""
    if "error" in got:
        if ref[0] != "expr_or_refusal":
            v.fail(f"{what}: raised {got['error']}")
        return
    if ref[0] == "singular":
        if got["render"] != f"SINGULAR({ref[1]})":
            v.fail(f"{what}: expected SINGULAR({ref[1]}), got {got['render'][:80]}")
        return
    if got["render"].startswith("SINGULAR"):
        v.fail(f"{what}: expected a transform, got {got['render']}")
        return
    f = ref[1]
    for s, val in zip(s_values, got["values"]):
        v.finite(f"{what} at s={s}", val, f(s))
    v.finite(f"{what} rendered at s={s_values[0]}", float(eval_rendered(got["render"], s_values[0])), f(s_values[0]))


# ----------------------------------------------------------------------
# Product rules
# ----------------------------------------------------------------------


class ProductReference:
    """Operator values of f, g and f g at t, and the compensation R1."""

    def __init__(self, f_atoms, g_atoms, alpha: float, a: float, t: float,
                 as_computed: bool = False) -> None:
        self.f, self.g = Func(f_atoms, a, as_computed), Func(g_atoms, a, as_computed)
        self.alpha, self.x = alpha, mpf(t) - mpf(a)
        df, dg = self.f.derivs(a, K_PRODUCT), self.g.derivs(a, K_PRODUCT)
        # Leibniz on normalised Taylor coefficients: (fg)^(k)/k! = sum_j f_j g_(k-j)
        fact = [mpmath.factorial(k) for k in range(K_PRODUCT)]
        fn = [d / fk for d, fk in zip(df, fact)]
        gn = [d / fk for d, fk in zip(dg, fact)]
        dfg = [fact[k] * mpmath.fdot(fn[: k + 1], gn[k::-1]) for k in range(K_PRODUCT)]
        self.df, self.dg, self.dfg = df, dg, dfg
        self._series: dict = {}
        n = branch(alpha)
        self.caputo_fg = OperatorSeries(dfg, alpha, n).value(self.x)
        self.rl_fg = OperatorSeries(dfg, alpha).value(self.x)
        # R1 = sum_{k<n} x^(k-alpha)/Gamma(k+1-alpha)
        #        * sum_{j<=k} (C(alpha,j) f^(j)(t) - C(k,j) f^(j)(a)) g^(k-j)(a)
        ft = self.f.derivs(t, max(n, 1))
        r1 = mpf(0)
        rg = rgammas(1 - mpf(alpha), max(n, 1))
        for k in range(n):
            inner = mpf(0)
            for j in range(k + 1):
                inner += (mpmath.binomial(alpha, j) * ft[j] - mpmath.binomial(k, j) * df[j]) * dg[k - j]
            r1 += inner * self.x ** (k - mpf(alpha)) * rg[k]
        self.r1 = r1

    def expected(self, rule: str) -> dict:
        """rule value, reference value, correction and residual."""
        if rule == "rl":
            return {"rule_value": self.rl_fg, "reference_value": self.rl_fg,
                    "correction": mpf(0), "residual": mpf(0)}
        if rule == "corrected":
            return {"rule_value": self.caputo_fg, "reference_value": self.caputo_fg,
                    "correction": self.r1, "residual": mpf(0)}
        return {"rule_value": self.caputo_fg - self.r1, "reference_value": self.caputo_fg,
                "correction": self.r1, "residual": abs(self.r1)}

    def quad(self, which: str, definition: str, x):
        key = (which, definition)
        if key not in self._series:
            d = {"f": self.df, "g": self.dg, "fg": self.dfg}[which]
            self._series[key] = OperatorSeries(d, self.alpha, branch(self.alpha) if definition == "caputo" else 0)
        return self._series[key].value(x)


def check_report(v: Verdict, what: str, exp: dict, got: dict) -> None:
    if "error" in got:
        # the tail test is relative to the partial sum, so a series whose
        # exact sum is zero (f g constant) can never pass it
        zero = got["error"].startswith("DivergenceError") and abs(exp["reference_value"]) < ZERO
        v.fail(f"{what}: raised {got['error']}", "zero-sum refusal" if zero else None)
        return
    for key in ("rule_value", "reference_value", "correction", "residual"):
        v.finite(f"{what} {key}", got[key], exp[key])


# ----------------------------------------------------------------------
# Per-workload checks
# ----------------------------------------------------------------------


def _grid_points(lo, hi, n):
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def check_grid(req: dict, out: dict, as_computed: bool = False) -> Verdict:
    """An in-process `eval`: no traceback, the exit code from the radius of
    the data, and every grid value from the operator series."""
    v = Verdict()
    if "exception" in out:
        v.fail(f"undocumented exception {out['exception']}")
        return v
    code = out["exit"]
    if "Traceback (most recent call last)" in out["stderr"]:
        v.fail("traceback on stderr")
    fn = Func(req["atoms"], req["a"], as_computed)
    lo, hi, n = req["grid"]
    grid = _grid_points(lo, hi, n)
    if any(t - req["a"] >= fn.radius(req["a"]) for t in grid):
        if code != EXIT_NUMERIC:
            v.fail(f"expected exit {EXIT_NUMERIC} (grid leaves the convergence radius), got {code}")
        return v
    if code != EXIT_OK:
        v.fail(f"expected exit 0, got {code}")
        return v
    try:
        rows = json.loads(out["stdout"])["rows"]
    except (ValueError, KeyError) as exc:
        v.fail(f"unparseable output: {exc}")
        return v
    if len(rows) != len(grid):
        v.fail(f"expected {len(grid)} rows, got {len(rows)}")
        return v
    series = operator(fn, req["alpha"], req["definition"])
    for row, t in zip(rows, grid):
        if abs(row["t"] - t) > 1e-12 * (1 + abs(t)):
            v.fail(f"grid point {row['t']!r} differs from {t!r}")
            continue
        x = row["t"] - req["a"]
        ref = series.at_terminal() if x == 0 else ("finite", series.fast_value(x))
        v.outcome(f"t={row['t']!r}", _result(row["value"]), ref)
    return v


def check_symbolic(req: dict, out: dict, as_computed: bool = False) -> Verdict:
    v = Verdict()
    if "exception" in out:
        v.fail(f"undocumented exception {out['exception']}")
        return v
    alpha, t = req["alpha"], req["t"]
    f0 = Func(req["atoms"], 0.0, as_computed)
    d0 = f0.derivs(0)
    n = branch(alpha)
    rl = OperatorSeries(d0, alpha)
    v.outcome("rl", out["rl"], rl.outcome(t))
    v.outcome("caputo", out["caputo"], OperatorSeries(d0, alpha, n).outcome(t))
    v.outcome("bridge", out["bridge"], ("finite", OperatorSeries(d0[:n], alpha).value(t)))
    v.outcome("terminal", out["terminal"], rl.at_terminal())
    s = req["s"]
    fneg, fpos = Func(req["atoms"], req["a_neg"], as_computed), Func(req["gen_atoms"], req["a_pos"], as_computed)
    refs = {
        "series": transform(f0, "series"),
        "rl_int": transform(f0, "rl_int", alpha),
        "caputo": transform(f0, "caputo", alpha),
        "rl_der": transform(f0, "rl_der", alpha),
        "fps_series": power_transform(req["power_atoms"], "series"),
        "fps_rl_int": power_transform(req["power_atoms"], "rl_int", alpha),
        "fps_rl_der": power_transform(req["power_atoms"], "rl_der", alpha),
        "shift_plain": transform(fneg, "shift_plain"),
        "shift_rl_int": transform(fneg, "shift_rl_int", alpha),
        "shift_caputo": transform(fneg, "shift_caputo", alpha),
        "gen_plain": transform(fpos, "gen_plain"),
        "gen_rl_int": transform(fpos, "gen_rl_int", alpha),
        "gen_caputo": transform(fpos, "gen_caputo", alpha),
    }
    for name, ref in refs.items():
        check_transform(v, name, ref, out["transforms"][name], s)
    return v


def check_cross(req: dict, out: dict, as_computed: bool = False) -> Verdict:
    v = Verdict()
    if "exception" in out:
        v.fail(f"undocumented exception {out['exception']}")
        return v
    ref = ProductReference(req["f"], req["g"], req["alpha"], req["a"], req["t"], as_computed)
    for key, got in out["reports"].items():
        check_report(v, key, ref.expected(key.split("@")[0]), got)
    for key, got in out["quad"].items():
        which, definition = key.split("@")[0].split("-")
        x = mpf(req["quad_t"][int(key.split("#")[1])]) - mpf(req["a"])
        if isinstance(got, dict):
            v.fail(f"quad {key}: raised {got['error']}")
        else:
            v.finite(f"quad {key}", got, ref.quad(which, definition, x), QUAD_TOL)
    return v


CHECKS = {"grid-eval": check_grid, "symbolic": check_symbolic, "crosscheck": check_cross}
