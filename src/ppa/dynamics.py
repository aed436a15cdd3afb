"""Hamiltonian vector fields, conserved-quantity checks, and fixed-step RK4.

Symbolic checks are exact; the integrator is deliberately plain: classical
fourth-order Runge-Kutta with a fixed step, so drift numbers are
reproducible regression values rather than artifacts of adaptivity.

The field and the monitored invariants are evaluated in floats by generated
straight-line code (:func:`ppa.poly.float_evaluator`), one statement per term
in term order, bit-identical to ``PolyExpr.eval_float``.  Arithmetic overflow
during integration is reported as a divergence, like a non-finite state;
``ppa integrate`` exits 1 on either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import DivergenceError, DomainError
from .poly import PolyExpr, float_evaluator
from .structures import NambuStructure, PoissonStructure, bracket_of, nambu_bracket


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
        """Float evaluation of every component in one call, used by the
        integrator (see :func:`float_evaluator`)."""
        return float_evaluator(self.components, self.vars)


def hamiltonian_vector_field(ps: PoissonStructure, h: PolyExpr) -> PolyVectorField:
    """xdot_i = {x_i, H}."""
    gens = PolyExpr.gens(ps.vars)
    return PolyVectorField(ps.vars, [bracket_of(ps, x, h) for x in gens])


def nambu_vector_field(ns: NambuStructure,
                       hamiltonians: Sequence[PolyExpr]) -> PolyVectorField:
    """xdot_i = {H_1, ..., H_{r-1}, x_i}."""
    if len(hamiltonians) != ns.arity - 1:
        raise DomainError(
            f"need {ns.arity - 1} Hamiltonians for arity {ns.arity}")
    gens = PolyExpr.gens(ns.vars)
    hams = [h.with_vars(ns.vars) for h in hamiltonians]
    return PolyVectorField(ns.vars,
                           [nambu_bracket(ns, hams + [x]) for x in gens])


@dataclass
class ConservationReport:
    conserved: bool
    residual: PolyExpr


def constants_of_motion_check(field: PolyVectorField,
                              invariants: Sequence[PolyExpr]) -> list[ConservationReport]:
    out = []
    for f in invariants:
        r = field.apply_to(f)
        out.append(ConservationReport(r.is_zero(), r))
    return out


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
    residuals_at_solution: list  # six PolyExpr (Laurent-free), all zero iff match
    conserved_difference: PolyExpr  # u+^2 - v+^2 - (x3^2-x2^2)(x4^2-a^2 x1^2)


def _nahm_residuals(g2: Fraction, a_poly: PolyExpr, vars6) -> list[PolyExpr]:
    """Residuals RHS - LHS of the six Nahm equations under the quadratic
    change of variables u,v,w = (pair products) +- a * (complementary pair)."""
    x1, x2, x3, x4, a = PolyExpr.gens(vars6)
    del a  # the multiplier enters through a_poly
    field = [x2 * x3 * x4, x1 * x3 * x4, x1 * x2 * x4, x1 * x2 * x3 * g2]

    def ddt(f):
        total = PolyExpr.zero(vars6)
        for v, comp in zip(vars6[:4], field):
            total = total + f.diff(v) * comp
        return total

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

    The six matching conditions reduce to a**2 = g2 exactly; when g2 is a
    rational square the whole computation stays exact, otherwise the solved
    coefficient is reported as a float and the residuals are evaluated at
    that floating value.
    """
    g2 = Fraction(g2)
    if g2 <= 0:
        raise DomainError("g2 must be positive")
    vars5 = FAIRLIE_VARS + ("a",)
    gens = PolyExpr.gens(vars5)
    a_sym = gens[4]

    # literal substitution a = g2
    lit = _nahm_residuals(g2, PolyExpr.const(vars5, g2), vars5)
    plus_residual = lit[0]
    minus_residual = lit[3]

    root = _rational_sqrt(g2)
    if root is not None:
        sol = _nahm_residuals(g2, PolyExpr.const(vars5, root), vars5)
        nahm_match = all(r.is_zero() for r in sol)
        solved = root
        solved_float = float(root)
    else:
        # inspect the symbolic residuals: they must all be multiples of
        # (a^2 - g2); then check the floating root numerically
        sym = _nahm_residuals(g2, a_sym, vars5)
        solved = None
        solved_float = math.sqrt(float(g2))
        tol = 1e-12
        nahm_match = True
        for r in sym:
            val = r.eval_float([1.1, 0.7, 1.3, 0.9, solved_float])
            if abs(val) > tol:
                nahm_match = False
        sol = sym

    x1, x2, x3, x4, a = PolyExpr.gens(vars5)
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

@dataclass
class TrajectoryReport:
    times: list
    states: list
    drift: dict          # invariant name -> max relative deviation
    monitor_names: list


def _monitor_values(monitored, variables) -> Callable:
    """``x -> [p(x) for _, p in monitored]`` in one call: generated code when
    every monitor is polynomial-grade, ``eval_float`` otherwise, so that
    fractional exponents keep its domain checks."""
    polys = [p.with_vars(variables) for _, p in monitored]
    if all(p.is_polynomial_grade() for p in polys):
        return float_evaluator(polys, variables)
    return lambda x: [p.eval_float(x) for p in polys]


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


def integrate(field: PolyVectorField, x0: Sequence[float], step: float,
              t_end: float,
              monitored: Sequence[tuple[str, PolyExpr]] = (),
              record_states: bool = True) -> TrajectoryReport:
    """Classical fixed-step RK4 with invariant-drift tracking.

    Drift of F is max over steps of |F(x(t)) - F(x0)| / max(1, |F(x0)|).
    A non-finite state, or a float overflow while evaluating the field or a
    monitor, aborts with DivergenceError carrying the last valid time.  A
    window that is not a whole number of steps, or is longer than MAX_STEPS,
    raises DomainError before the first step.
    """
    steps = _step_count(step, t_end)
    n = len(field.vars)
    if len(x0) != n:
        raise DomainError("initial point dimension mismatch")
    names = [name for name, _ in monitored]
    x = [float(v) for v in x0]
    drift = {name: 0.0 for name in names}
    times = [0.0]
    states = [tuple(x)] if record_states else []
    t = 0.0
    half = step / 2.0
    sixth = step / 6.0
    try:
        f = field.compiled()
        mon = _monitor_values(monitored, field.vars)
        base = mon(x)
        scale = [max(1.0, abs(b)) for b in base]
        for s in range(steps):
            k1 = f(x)
            k2 = f([x[i] + half * k1[i] for i in range(n)])
            k3 = f([x[i] + half * k2[i] for i in range(n)])
            k4 = f([x[i] + step * k3[i] for i in range(n)])
            x = [x[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                 for i in range(n)]
            if not all(map(math.isfinite, x)):
                raise DivergenceError(
                    f"trajectory left the representable range after t={t}", t)
            values = mon(x)
            t = (s + 1) * step
            times.append(t)
            if record_states:
                states.append(tuple(x))
            for name, v, b, sc in zip(names, values, base, scale):
                d = abs(v - b) / sc
                if d > drift[name]:
                    drift[name] = d
    except OverflowError:
        raise DivergenceError(
            f"trajectory left the representable range after t={t}", t) from None
    return TrajectoryReport(times=times, states=states, drift=drift,
                            monitor_names=names)


def write_trajectory_csv(report: TrajectoryReport, field_vars, monitored,
                         path) -> None:
    """CSV with header t,x1,...,xn,<invariant names>; 17 significant digits."""
    names = [name for name, _ in monitored]
    mon = _monitor_values(monitored, field_vars)
    row = ",".join(["%.17g"] * (1 + len(field_vars) + len(names))) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["t", *field_vars, *names]) + "\n")
        fh.writelines(row % (t, *state, *mon(state))
                      for t, state in zip(report.times, report.states))
