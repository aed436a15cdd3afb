"""Hamiltonian and Nambu vector fields, the Fairlie-Nahm decoupling check,
and fixed-step RK4.

Symbolic checks are exact; the integrator is deliberately plain: classical
fourth-order Runge-Kutta with a fixed step, so drift numbers are
reproducible regression values rather than artifacts of adaptivity.

Each :func:`integrate` call runs one generated function
(:func:`_rk4_kernel`) whose loop body is one block of straight-line float
code: the field's statements once per stage and the monitors' once, with no
call.  Its float operations are those of the list form over
``PolyExpr.eval_float``, in the same order, less those that cannot change a
bit (see :func:`poly._float_sum_lines`), so trajectories, drifts and CSV
bytes are bit-identical to it.  Arithmetic overflow during integration is
reported as a divergence, like a non-finite state; ``ppa integrate`` exits 1
on either.  The report stores the rows that :func:`write_trajectory_csv`
writes.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Optional

from .errors import DivergenceError, DomainError
from .poly import PolyExpr, _float_sum_lines, _sum, exact_divisibility, float_evaluator
from .exterior import require_max_dim
from .structures import (NambuStructure, PoissonStructure, _cofactor_row, _gradient,
                         _stacked_minors)


@dataclass
class PolyVectorField:
    vars: tuple
    components: list  # PolyExpr per coordinate

    def __post_init__(self):
        self.vars = tuple(self.vars)
        self.components = [c.with_vars(self.vars) for c in self.components]
        for c in self.components:
            c.require_polynomial_grade("vector field component")

    def apply_to(self, f: PolyExpr) -> PolyExpr:
        """Lie derivative of f along the field: sum_i (df/dx_i) xdot_i."""
        f = f.with_vars(self.vars)
        total = PolyExpr.zero(self.vars)
        for v, comp in zip(self.vars, self.components):
            total = total + f.diff(v) * comp
        return total

    def compiled(self) -> Callable[[Sequence[float]], list[float]]:
        """Float evaluation of every component in one call (see
        :func:`float_evaluator`).  :func:`integrate` inlines the same
        statements in its run."""
        return float_evaluator(self.components, self.vars)


def hamiltonian_vector_field(ps: PoissonStructure, h: PolyExpr) -> PolyVectorField:
    """xdot_k = {x_k, H} = sum_j p_kj dH/dx_j, given H's gradient once.

    Each component is one ordered sum over j of the upper entry times dH/dx_j,
    negated below the diagonal: the terms, their order and so the float sums
    of :func:`integrate` are those of summing sum_{i<j} p_ij (dx_k/dx_i
    dH/dx_j - dx_k/dx_j dH/dx_i) one entry at a time."""
    h = h.with_vars(ps.vars)
    h.require_polynomial_grade("bracket argument")
    grad, m = _gradient(h), ps.matrix
    return PolyVectorField(ps.vars, [
        _sum(ps.vars, [(m[j][k] * grad[j], -1) if j < k else (m[k][j] * grad[j], 1)
                       for j in range(ps.n) if j != k])
        for k in range(ps.n)])


def nambu_vector_field(ns: NambuStructure,
                       hamiltonians: Sequence[PolyExpr]) -> PolyVectorField:
    """xdot_i = {H_1, ..., H_{r-1}, x_i}, the i-th entry of one cofactor row
    (see :func:`structures._cofactor_row`): the Hamiltonians' gradients
    stacked once on the Casimir minors serve every coordinate."""
    if len(hamiltonians) != ns.arity - 1:
        raise DomainError(
            f"need {ns.arity - 1} Hamiltonians for arity {ns.arity}")
    hams = [h.with_vars(ns.vars) for h in hamiltonians]
    for h in hams:
        h.require_polynomial_grade("bracket argument")
    require_max_dim(ns.n)
    minors = _stacked_minors([_gradient(h) for h in hams], ns._casimir_minors)
    return PolyVectorField(ns.vars, _cofactor_row(ns, minors, ns.arity - 1))


# ---------------- Fairlie flow and its Nahm decoupling ----------------

FAIRLIE_VARS = ("x1", "x2", "x3", "x4")


def fairlie_field(g2: Fraction) -> PolyVectorField:
    """xdot_i = product of the other three coordinates, one g^2 weight."""
    x1, x2, x3, x4 = PolyExpr.gens(FAIRLIE_VARS)
    return PolyVectorField(FAIRLIE_VARS,
                           [x2 * x3 * x4, x1 * x3 * x4, x1 * x2 * x4,
                            x1 * x2 * x3 * g2])


@dataclass
class DecouplingReport:
    solved_coefficient: Optional[Fraction]   # None when sqrt(g2) is irrational
    solved_float: float
    nahm_match: bool
    plus_residual: PolyExpr    # u-equation residual at the literal a = g2
    minus_residual: PolyExpr
    residuals_at_solution: list  # six PolyExpr at the rational root, else in a
    conserved_difference: PolyExpr  # u+^2 - v+^2 - (x3^2-x2^2)(x4^2-a^2 x1^2)


def _nahm_residuals(g2: Fraction, a_poly: PolyExpr, vars5) -> list[PolyExpr]:
    """Residuals RHS - LHS of the six Nahm equations under the quadratic
    change of variables u,v,w = (pair products) +- a * (complementary pair),
    differentiated along the Fairlie field with a constant multiplier a."""
    x1, x2, x3, x4, _ = PolyExpr.gens(vars5)
    field = PolyVectorField(vars5, fairlie_field(g2).components + [PolyExpr.zero(vars5)])
    ddt = field.apply_to
    out = []
    for sign in (1, -1):
        u = x3 * x4 + a_poly * x1 * x2 * sign
        v = x2 * x4 + a_poly * x1 * x3 * sign
        w = x1 * x4 + a_poly * x2 * x3 * sign
        out.append(v * w - ddt(u))
        out.append(w * u - ddt(v))
        out.append(u * v - ddt(w))
    return out


def decoupling_check(g2: Fraction) -> DecouplingReport:
    """Solve for the multiplier a that turns the quartic flow into two
    decoupled three-variable quadratic tops, and record what the literal
    substitution a = g2 leaves over.

    The six matching conditions reduce to a**2 = g2 exactly, so the match
    holds iff every symbolic residual is divisible by a**2 - g2, an exact
    test for every g2.  When g2 is a rational square the residuals at the
    solution are exact; otherwise the solved coefficient is reported as a
    float and the residuals are the symbolic ones in a.
    """
    g2 = Fraction(g2)
    if g2 <= 0:
        raise DomainError("g2 must be positive")
    vars5 = FAIRLIE_VARS + ("a",)
    x1, x2, x3, x4, a = PolyExpr.gens(vars5)

    # literal substitution a = g2
    lit = _nahm_residuals(g2, PolyExpr.const(vars5, g2), vars5)
    plus_residual = lit[0]
    minus_residual = lit[3]

    sym = _nahm_residuals(g2, a, vars5)
    nahm_match = all(exact_divisibility(r, a * a - g2)[0] for r in sym)
    solved = _rational_sqrt(g2)
    if solved is not None:
        sol = _nahm_residuals(g2, PolyExpr.const(vars5, solved), vars5)
        solved_float = float(solved)
    else:
        sol = sym
        solved_float = math.sqrt(float(g2))

    aval = PolyExpr.const(vars5, solved) if solved is not None else a
    u = x3 * x4 + aval * x1 * x2
    v = x2 * x4 + aval * x1 * x3
    diff = (u * u - v * v) - (x3 * x3 - x2 * x2) * (x4 * x4 - aval * aval * x1 * x1)

    return DecouplingReport(
        solved_coefficient=solved,
        solved_float=solved_float,
        nahm_match=nahm_match,
        plus_residual=plus_residual,
        minus_residual=minus_residual,
        residuals_at_solution=sol,
        conserved_difference=diff,
    )


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


# ---------------- numerical integration ----------------

class _States(Sequence):
    """Read-only view of a report's recorded states: one tuple of the n
    coordinates per row of its flat ``rows``."""

    def __init__(self, report: "TrajectoryReport"):
        self._rows = report.rows
        self._width = report.width
        self._dim = report.dim
        self._len = len(report.rows) // report.width

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("state index out of range")
        start = i * self._width + 1
        return tuple(self._rows[start:start + self._dim])


@dataclass
class TrajectoryReport:
    """One RK4 run.  ``rows`` holds, flat, one row per step from t = 0:
    t, the ``dim`` coordinates and the monitor values.  ``times`` and
    ``states`` are read-only views of it."""
    rows: array
    dim: int
    drift: dict          # invariant name -> max relative deviation
    monitor_names: list

    @property
    def width(self) -> int:
        return 1 + self.dim + len(self.monitor_names)

    @property
    def times(self) -> memoryview:
        return memoryview(self.rows).toreadonly()[::self.width]

    @property
    def states(self) -> _States:
        return _States(self)


# Most RK4 steps one integration may take: it bounds the work of a hostile
# window (``step 1e-9 until 1e9`` asks for 10^18); catalog windows take 10^4.
MAX_STEPS = 10 ** 8


def _step_count(step: float, t_end: float) -> int:
    """Steps from t = 0 to t_end.  The window must be a whole number of
    steps, up to float rounding (a relative 1e-9), and at most MAX_STEPS."""
    if not (0 < step < math.inf and 0 < t_end < math.inf):
        raise DomainError("step and t_end must be positive and finite")
    steps = round(min(t_end / step, MAX_STEPS + 1))
    if steps > MAX_STEPS:
        raise DomainError(f"step {step!r} until {t_end!r} needs more than "
                          f"{MAX_STEPS} steps")
    if steps == 0 or abs(steps * step - t_end) > 1e-9 * t_end:
        raise DomainError(f"step {step!r} does not divide t_end {t_end!r}; "
                          f"the nearest reachable t_end is "
                          f"{max(steps, 1) * step:.12g}")
    return steps


def _diverged(t: float) -> DivergenceError:
    return DivergenceError(
        f"trajectory left the representable range after t={t}", t)


def _tuple(names) -> str:
    return "(" + "".join(f"{x}, " for x in names) + ")"


def _rk4_kernel(field: PolyVectorField, monitors: Sequence[PolyExpr]) -> Callable:
    """Generate ``run(x0, ..., x{n-1}, steps, step, record) -> drifts``,
    the whole RK4 run of :func:`integrate`, as straight-line code.

    The loop body holds the field's statements (from
    :func:`_float_sum_lines`) once per stage and the monitors' once, with
    no call: stage k sets ``k{k}_i``, stages 2 to 4 at the points
    ``y_i = x_i + scale * k{k-1}_i``, and the update is the expression of
    the list form ``x[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] +
    k4[i])``, so every value is bit-identical to it.  A monitor that is not
    polynomial-grade is its ``eval_float``, with its domain checks, called
    in its place.  A non-finite state, tested before the monitors see it,
    or an ``OverflowError`` raises ``DivergenceError`` with the last valid
    t.  ``record`` takes each row as a tuple: t, the state and the monitor
    values."""
    n = len(field.vars)
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    ms = [f"m{j}" for j in range(len(monitors))]
    namespace = {"isfinite": math.isfinite, "diverged": _diverged}
    monitor_lines = []
    for j, p in enumerate(monitors):
        if p.is_polynomial_grade():
            monitor_lines += _float_sum_lines(p, xs, ms[j])
        else:
            namespace[f"g{j}"] = p.eval_float
            monitor_lines.append(f"{ms[j]} = g{j}({_tuple(xs)})")

    def stage(k, at):
        return [line for i, c in enumerate(field.components)
                for line in _float_sum_lines(c, at, f"k{k}_{i}")]

    def point(k, scale):
        return [f"{y} = {x} + {scale} * k{k}_{i}" for i, (x, y) in enumerate(zip(xs, ys))]

    def indent(block, depth):
        return [" " * depth + line for line in block]

    row = _tuple(["t", *xs, *ms])
    finite = " and ".join(f"isfinite({x})" for x in xs) or "True"
    params = "".join(f"{x}, " for x in xs)
    lines = [f"def run({params}steps, step, record, isfinite=isfinite):",
             "    half = step / 2.0",
             "    sixth = step / 6.0",
             "    t = 0.0",
             "    try:",
             *indent(monitor_lines, 8)]
    for j, m in enumerate(ms):
        lines += [f"        b{j} = {m}", f"        s{j} = max(1.0, abs(b{j}))",
                  f"        d{j} = 0.0"]
    body = [*stage(1, xs), *point(1, "half"), *stage(2, ys),
            *point(2, "half"), *stage(3, ys), *point(3, "step"), *stage(4, ys)]
    body += [f"{x} = {x} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
             for i, x in enumerate(xs)]
    body += [f"if not ({finite}):",
             "    raise diverged(t)",
             *monitor_lines,
             "t = (s + 1) * step",
             f"record({row})"]
    for j, m in enumerate(ms):
        body += [f"d = abs({m} - b{j}) / s{j}",
                 f"if d > d{j}:",
                 f"    d{j} = d"]
    lines += [f"        record({row})",
              "        for s in range(steps):",
              *indent(body, 12),
              "    except OverflowError:",
              "        raise diverged(t) from None",
              f"    return {_tuple(f'd{j}' for j in range(len(ms)))}"]
    exec(_compile_kernel("\n".join(lines)), namespace)
    return namespace["run"]


@lru_cache(maxsize=8)
def _compile_kernel(source: str):
    """Compiling a run costs more than generating it (about 80% of a first
    1-step ``integrate``, which took 1-2 ms on dell and 23-38 ms on a
    412-term 6-variable Nambu field, whose statements the run holds four
    times, on a shared 2-CPU host), and calls on one field and monitor
    list generate the same source: they share one code object."""
    return compile(source, "<rk4_kernel>", "exec")


def integrate(field: PolyVectorField, x0: Sequence[float], step: float,
              t_end: float,
              monitored: Sequence[tuple[str, PolyExpr]] = ()) -> TrajectoryReport:
    """Classical fixed-step RK4 with invariant-drift tracking.

    Drift of F is max over steps of |F(x(t)) - F(x0)| / max(1, |F(x0)|).
    A non-finite state, or a float overflow while evaluating the field or a
    monitor, aborts with DivergenceError carrying the last valid time.  A
    window that is not a whole number of steps, or is longer than MAX_STEPS,
    raises DomainError before the first step.  The run is one generated
    function (:func:`_rk4_kernel`); the report stores its rows.
    """
    steps = _step_count(step, t_end)
    n = len(field.vars)
    if len(x0) != n:
        raise DomainError("initial point dimension mismatch")
    names = [name for name, _ in monitored]
    polys = [p.with_vars(field.vars) for _, p in monitored]
    try:
        run = _rk4_kernel(field, polys)
    except OverflowError:
        raise _diverged(0.0) from None
    rows = array("d")
    drift = dict.fromkeys(names, 0.0)
    # monitors that share a name report the largest of their drifts
    for name, d in zip(names, run(*map(float, x0), steps, step, rows.extend)):
        if d > drift[name]:
            drift[name] = d
    return TrajectoryReport(rows=rows, dim=n, drift=drift, monitor_names=names)


# Rows formatted per ``%`` by write_trajectory_csv: fewer, longer writes;
# the bytes do not depend on it.
CSV_CHUNK_ROWS = 64


def write_trajectory_csv(report: TrajectoryReport, field_vars, monitored,
                         path) -> None:
    """CSV with header t,x1,...,xn,<invariant names>; 17 significant digits.

    The values are the report's stored rows; ``monitored`` must name the
    report's monitors in order, or DomainError is raised.  The file is
    written to a temporary file in the target directory and renamed over
    ``path`` only when complete, so a failure leaves any earlier file
    intact.
    """
    names = [name for name, _ in monitored]
    if names != report.monitor_names:
        raise DomainError(f"monitors {names} are not the report's "
                          f"{report.monitor_names}")
    if len(field_vars) != report.dim:
        raise DomainError("variables do not match the report's dimension")
    width = report.width
    row = ",".join(["%.17g"] * width) + "\n"
    chunk = CSV_CHUNK_ROWS * width
    rows = report.rows
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(",".join(["t", *field_vars, *names]) + "\n")
            for start in range(0, len(rows), chunk):
                values = tuple(rows[start:start + chunk])
                fh.write(row * (len(values) // width) % values)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
