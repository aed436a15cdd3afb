"""Builders for the named bracket structures, with bundled Casimirs,
weights, flows, and expected check outcomes.

Every builder is pure: same parameter bindings, same objects.  Parameters
are exact rationals; guards reject degenerate bindings (zero curve modulus,
coinciding inertia constants, nonpositive coupling square).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .dsl import IntegrateRequest
from .errors import DomainError
from .poly import PolyExpr
from .structures import NambuStructure, PoissonStructure, jacobian_structure


@dataclass
class BuiltModel:
    name: str
    params: dict
    vars: tuple
    structure: object                 # PoissonStructure | NambuStructure
    structure_kind: str               # jacobian | table | nambu
    multiplier: Optional[PolyExpr]
    casimirs: list                    # [(name, PolyExpr)]
    weights: Optional[tuple]
    hamiltonians: list                # [PolyExpr]; one for Poisson, r-1 for Nambu
    checks: list                      # default DSL check requests (name, arg)
    expects: dict                     # DSL expect pins
    integrate: Optional[IntegrateRequest]
    expected: dict                    # library-level expected outcomes for tests

    def casimir_polys(self):
        return [p for _, p in self.casimirs]


@dataclass
class CatalogEntry:
    name: str
    defaults: dict
    builder: Callable
    alternates: list = field(default_factory=list)
    summary: str = ""

    def build(self, bindings: dict | None = None) -> BuiltModel:
        params = {k: Fraction(v) for k, v in self.defaults.items()}
        for k, v in (bindings or {}).items():
            if k not in params:
                raise DomainError(f"unknown parameter {k!r} for {self.name}")
            params[k] = Fraction(v)
        return self.builder(params)


_REGISTRY: dict[str, CatalogEntry] = {}


def register(name, defaults, alternates=(), summary=""):
    def deco(fn):
        _REGISTRY[name] = CatalogEntry(name, dict(defaults), fn,
                                       [dict(a) for a in alternates], summary)
        return fn
    return deco


def names() -> list[str]:
    return sorted(_REGISTRY)


def entry(name: str) -> CatalogEntry:
    if name not in _REGISTRY:
        raise DomainError(f"unknown catalog entry {name!r}; "
                          f"known: {', '.join(names())}")
    return _REGISTRY[name]


def build(name: str, bindings: dict | None = None) -> BuiltModel:
    return entry(name).build(bindings)


# ---------------- n = 3 cubic-curve family ----------------

# Default check requests shared by most entries.
_FULL_CHECKS = [("jacobi", None), ("casimirs", None), ("theorem31", None),
                ("plucker", None), ("rank", None), ("degree_sum", None)]


def _torus_casimir(k: Fraction, gens) -> PolyExpr:
    x1, x2, x3 = gens
    return (x1 ** 3 + x2 ** 3 + x3 ** 3) * Fraction(1, 3) + x1 * x2 * x3 * k


@register("q3", {"k": Fraction(2)},
          alternates=[{"k": Fraction(3)}, {"k": Fraction(-1, 2)}],
          summary="cubic-curve bracket on C^3 from the symmetric cubic")
def _build_q3(params):
    k = params["k"]
    v = ("x1", "x2", "x3")
    p = _torus_casimir(k, PolyExpr.gens(v))
    ps = jacobian_structure(v, [p], 1)
    return BuiltModel(
        name="q3", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, 1),
        casimirs=[("P", p)], weights=None, hamiltonians=[],
        checks=_FULL_CHECKS + [("extendability", None)],
        expects={"plucker": True, "rank": 2, "degree_sum": 3,
                 "extendability": True},
        integrate=None,
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(1), "plucker": True, "rank": 2,
                  "degree_sum": 3, "degree_sum_equals": True,
                  "extendability": True},
    )


@register("mirror_y", {"k": Fraction(2)},
          alternates=[{"k": Fraction(3)}, {"k": Fraction(-1, 2)}],
          summary="image of q3 under the first monomial change of variables")
def _build_mirror_y(params):
    k = params["k"]
    v = ("y1", "y2", "y3")
    y1, y2, y3 = PolyExpr.gens(v)
    p = (y1 ** 3 + y2 ** 3 * y3 + y3 ** 2) * Fraction(1, 3) + y1 * y2 * y3 * k
    lam = Fraction(3, 2)
    ps = jacobian_structure(v, [p], lam)
    return BuiltModel(
        name="mirror_y", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, lam),
        casimirs=[("P", p)], weights=(2, 1, 3), hamiltonians=[],
        checks=_FULL_CHECKS,
        expects={"plucker": True, "rank": 2, "degree_sum": 6},
        integrate=None,
        expected={"jacobi": True, "casimirs": True, "lambda_coord": lam,
                  "plucker": True, "rank": 2, "degree_sum": 6,
                  "degree_sum_equals": True, "extendability": False},
    )


@register("mirror_z", {"k": Fraction(2)},
          alternates=[{"k": Fraction(3)}, {"k": Fraction(-1, 2)}],
          summary="image of q3 under the second monomial change of variables")
def _build_mirror_z(params):
    k = params["k"]
    v = ("z1", "z2", "z3")
    z1, z2, z3 = PolyExpr.gens(v)
    p = (z3 ** 2 + z1 ** 2 * z3 + z1 * z2 ** 3) * Fraction(1, 3) + z1 * z2 * z3 * k
    lam = Fraction(9, 4)
    ps = jacobian_structure(v, [p], lam)
    return BuiltModel(
        name="mirror_z", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, lam),
        casimirs=[("P", p)], weights=(1, 1, 2), hamiltonians=[],
        checks=_FULL_CHECKS,
        expects={"plucker": True, "rank": 2, "degree_sum": 4},
        integrate=None,
        expected={"jacobi": True, "casimirs": True, "lambda_coord": lam,
                  "plucker": True, "rank": 2, "degree_sum": 4,
                  "degree_sum_equals": True, "extendability": False},
    )


@register("markov", {}, summary="Stokes-matrix bracket from the Markov cubic")
def _build_markov(params):
    v = ("x1", "x2", "x3")
    x1, x2, x3 = PolyExpr.gens(v)
    p = x1 ** 2 + x2 ** 2 + x3 ** 2 + x1 * x2 * x3 * 3
    ps = jacobian_structure(v, [p], 1)
    return BuiltModel(
        name="markov", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, 1),
        casimirs=[("P", p)], weights=None, hamiltonians=[],
        checks=_FULL_CHECKS + [("extendability", None)],
        expects={"plucker": True, "rank": 2, "degree_sum": 3,
                 "extendability": True},
        integrate=None,
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(1), "plucker": True, "rank": 2,
                  "degree_sum": 3, "degree_sum_equals": True,
                  "extendability": True},
    )


@register("askey_wilson",
          {"a": Fraction(1), "a1": Fraction(2), "a2": Fraction(-1),
           "a3": Fraction(1, 2), "a4": Fraction(3), "a5": Fraction(-2),
           "a6": Fraction(1), "a7": Fraction(-1, 3)},
          alternates=[
              {"a": Fraction(1), "a1": Fraction(1), "a2": Fraction(1),
               "a3": Fraction(1), "a4": Fraction(1), "a5": Fraction(1),
               "a6": Fraction(1), "a7": Fraction(1)},
              {"a": Fraction(2), "a1": Fraction(-1), "a2": Fraction(1, 3),
               "a3": Fraction(0), "a4": Fraction(1), "a5": Fraction(2),
               "a6": Fraction(-1, 2), "a7": Fraction(4)},
          ],
          summary="quartic z^2 = F(x,y) family with weights (1,1,2)")
def _build_askey_wilson(params):
    v = ("x", "y", "z")
    x, y, z = PolyExpr.gens(v)
    f = (x * x * y * y * params["a"] + x * x * y * params["a1"]
         + x * y * y * params["a2"] + x * x * params["a3"]
         + y * y * params["a4"] + x * y * params["a5"]
         + x * params["a6"] + y * params["a7"])
    p = z * z - f
    ps = jacobian_structure(v, [p], 1)
    return BuiltModel(
        name="askey_wilson", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, 1),
        casimirs=[("P", p)], weights=(1, 1, 2), hamiltonians=[],
        checks=_FULL_CHECKS,
        expects={"plucker": True, "rank": 2, "degree_sum": 4},
        integrate=None,
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(1), "plucker": True, "rank": 2,
                  "degree_sum": 4, "degree_sum_equals": True},
    )


# ---------------- n = 4 quadric pairs ----------------

@register("sklyanin", {"J1": Fraction(1), "J2": Fraction(2), "J3": Fraction(3)},
          alternates=[{"J1": Fraction(2), "J2": Fraction(5, 2), "J3": Fraction(-1)},
                      {"J1": Fraction(0), "J2": Fraction(1, 3), "J3": Fraction(7)}],
          summary="quadratic bracket from the sphere/inertia quadric pair")
def _build_sklyanin(params):
    j1, j2, j3 = params["J1"], params["J2"], params["J3"]
    if len({j1, j2, j3}) != 3:
        raise DomainError("J1, J2, J3 must be pairwise distinct")
    v = ("x1", "x2", "x3", "x4")
    x1, x2, x3, x4 = PolyExpr.gens(v)
    q1 = x1 * x1 + x2 * x2 + x3 * x3
    q2 = x4 * x4 + x1 * x1 * j1 + x2 * x2 * j2 + x3 * x3 * j3
    lam = Fraction(1, 4)
    ps = jacobian_structure(v, [q1, q2], lam)
    return BuiltModel(
        name="sklyanin", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, lam),
        casimirs=[("Q1", q1), ("Q2", q2)], weights=None,
        hamiltonians=[x4],
        checks=_FULL_CHECKS,
        expects={"plucker": True, "rank": 2, "degree_sum": 4},
        integrate=None,
        expected={"jacobi": True, "casimirs": True, "lambda_coord": lam,
                  "plucker": True, "rank": 2, "degree_sum": 4,
                  "degree_sum_equals": True},
    )


@register("quadrics61", {"k": Fraction(2)},
          alternates=[{"k": Fraction(1, 2)}, {"k": Fraction(-3)}],
          summary="cyclic quadratic bracket table of a generic quadric pair")
def _build_quadrics61(params):
    k = params["k"]
    v = ("x1", "x2", "x3", "x4")
    xs = PolyExpr.gens(v)

    def w(t):
        return xs[(t - 1) % 4]

    table = {}
    for i in range(1, 5):
        nxt = i % 4 + 1
        val = w(i) * w(i + 1) * k * k - w(i + 2) * w(i + 3)
        key = (i - 1, nxt - 1)
        if key[0] < key[1]:
            table[key] = val
        else:
            table[(key[1], key[0])] = -val
    table[(0, 2)] = (w(4) ** 2 - w(2) ** 2) * k
    table[(1, 3)] = (w(1) ** 2 - w(3) ** 2) * k
    ps = PoissonStructure.from_table(v, table)
    p1 = (xs[0] ** 2 + xs[2] ** 2) * Fraction(1, 2) + xs[1] * xs[3] * k
    p2 = (xs[1] ** 2 + xs[3] ** 2) * Fraction(1, 2) + xs[0] * xs[2] * k
    return BuiltModel(
        name="quadrics61", params=params, vars=v, structure=ps,
        structure_kind="table", multiplier=None,
        casimirs=[("p1", p1), ("p2", p2)], weights=None, hamiltonians=[],
        checks=_FULL_CHECKS,
        expects={"plucker": True, "rank": 2, "degree_sum": 4},
        integrate=None,
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(-1), "plucker": True, "rank": 2,
                  "degree_sum": 4, "degree_sum_equals": True,
                  "table_vs_jacobian_constant": Fraction(-1)},
    )


# ---------------- the five-generator cyclic structure ----------------

def _q5_brackets(k: Fraction, xs) -> dict:
    """The two cyclic bracket families; indices mod 5 over (x1..x5)."""
    c_far = -(k ** 2 + 3 / k ** 3) / 5
    c_near = (3 * k ** 2 - 1 / k ** 3) / 5
    table = {}

    def put(a, b, val):
        a, b = a % 5, b % 5
        if a < b:
            table[(a, b)] = table.get((a, b), PolyExpr.zero(xs[0].vars)) + val
        else:
            table[(b, a)] = table.get((b, a), PolyExpr.zero(xs[0].vars)) - val

    for i in range(5):
        far = xs[(i + 1) % 5] * xs[(i + 4) % 5]
        near = xs[(i + 2) % 5] * xs[(i + 3) % 5]
        sq = xs[i] * xs[i]
        put(i + 1, i + 4, far * c_far + near * 2 + sq * k)
        put(i + 2, i + 3, near * c_near + far * (2 / k) - sq / (k * k))
    return table


def q5_casimir(k: Fraction, variables=("x1", "x2", "x3", "x4", "x5")) -> PolyExpr:
    """Degree-5 center generator of the five-variable cyclic bracket.

    Coefficients are pinned by two independent conditions: centrality and
    the principal 4x4 Pfaffians reproducing (1/5) of the gradient.  Those
    force the far-cubes coefficient k^3 + 3/k^2; every orbit sum is
    completed cyclically.
    """
    xs = PolyExpr.gens(variables)

    def orbit(fn):
        total = PolyExpr.zero(variables)
        for i in range(5):
            total = total + fn(i)
        return total

    a = orbit(lambda i: xs[i] ** 5)
    b = orbit(lambda i: xs[i] ** 3 * xs[(i + 1) % 5] * xs[(i + 4) % 5])
    c = orbit(lambda i: xs[i] ** 3 * xs[(i + 2) % 5] * xs[(i + 3) % 5])
    d = orbit(lambda i: xs[i] * xs[(i + 1) % 5] ** 2 * xs[(i + 4) % 5] ** 2)
    e = orbit(lambda i: xs[i] * xs[(i + 2) % 5] ** 2 * xs[(i + 3) % 5] ** 2)
    f = xs[0] * xs[1] * xs[2] * xs[3] * xs[4]
    return (a * (-1 / k)
            + b * (1 / k ** 5 - 3)
            + c * (k ** 3 + 3 / k ** 2)
            + d * (-(2 * k + 1 / k ** 4))
            + e * (k ** 2 - 2 / k ** 3)
            + f * (k ** 4 + 16 / k - 1 / k ** 6))


@register("q5", {"k": Fraction(2)},
          alternates=[{"k": Fraction(3, 2)}, {"k": Fraction(-5, 7)}],
          summary="five-generator cyclic quadratic bracket with quintic center")
def _build_q5(params):
    k = params["k"]
    if k == 0:
        raise DomainError("k must be nonzero")
    v = ("x1", "x2", "x3", "x4", "x5")
    xs = PolyExpr.gens(v)
    ps = PoissonStructure.from_table(v, _q5_brackets(k, xs))
    p = q5_casimir(k, v)
    return BuiltModel(
        name="q5", params=params, vars=v, structure=ps,
        structure_kind="table", multiplier=None,
        casimirs=[("P", p)], weights=None, hamiltonians=[],
        checks=_FULL_CHECKS,
        expects={"plucker": False, "rank": 4, "degree_sum": 5},
        integrate=None,
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(1, 5), "plucker": False, "rank": 4,
                  "degree_sum": 5, "degree_sum_equals": True},
    )


# ---------------- tops and flows ----------------

@register("euler_top", {"J1": Fraction(1), "J2": Fraction(2), "J3": Fraction(3)},
          alternates=[{"J1": Fraction(1, 2), "J2": Fraction(2), "J3": Fraction(5)},
                      {"J1": Fraction(-1), "J2": Fraction(0), "J3": Fraction(1)}],
          summary="angular-momentum bracket with quadratic energy flow")
def _build_euler(params):
    j1, j2, j3 = params["J1"], params["J2"], params["J3"]
    v = ("x1", "x2", "x3")
    x1, x2, x3 = PolyExpr.gens(v)
    ps = PoissonStructure.from_table(v, {(0, 1): x3, (1, 2): x1, (0, 2): -x2})
    q1 = (x1 * x1 + x2 * x2 + x3 * x3) * Fraction(1, 2)
    h = (x1 * x1 * j1 + x2 * x2 * j2 + x3 * x3 * j3) * Fraction(1, 2)
    return BuiltModel(
        name="euler_top", params=params, vars=v, structure=ps,
        structure_kind="table", multiplier=None,
        casimirs=[("Q1", q1)], weights=None, hamiltonians=[h],
        checks=[("jacobi", None), ("casimirs", None), ("theorem31", None),
                ("plucker", None), ("rank", None)],
        expects={"plucker": True, "rank": 2},
        integrate=IntegrateRequest((1.0, 0.5, 0.25), 1e-3, 10.0, ("Q1",)),
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(1), "plucker": True, "rank": 2,
                  "degree_sum": 2, "degree_sum_equals": False},
    )


def _dell_quadrics(g2: Fraction, kt: Fraction, variables):
    x1, x2, x3, x4, x5, x6 = PolyExpr.gens(variables)
    q1 = x1 * x1 - x2 * x2
    q2 = x1 * x1 - x3 * x3
    q3 = x1 * x1 * (-g2) + x4 * x4 - x5 * x5
    q4 = x1 * x1 * (-g2) + x4 * x4 + x6 * x6 / (kt * kt)
    return [q1, q2, q3, q4]


def dell_initial_point(k: Fraction, g2: Fraction, x1=1.25, x5=0.5, x6=1.0):
    """Deterministic point on the first three quadric levels (positive
    roots); the last quadric is monitored at its induced initial level."""
    import math
    x1 = float(x1)
    x2 = math.sqrt(x1 * x1 - 1.0)
    x3 = math.sqrt(x1 * x1 - float(k) ** 2)
    x4 = math.sqrt(1.0 + float(g2) * x1 * x1 + float(x5) ** 2)
    return (x1, x2, x3, x4, float(x5), float(x6))


@register("dell", {"k": Fraction(1, 2), "kt": Fraction(1), "g2": Fraction(4),
                   "E": Fraction(1, 2)},
          alternates=[{"k": Fraction(1, 3), "kt": Fraction(2), "g2": Fraction(9),
                       "E": Fraction(1, 2)},
                      {"k": Fraction(3, 4), "kt": Fraction(1, 2), "g2": Fraction(1),
                       "E": Fraction(2)}],
          summary="double-elliptic bracket on the intersection of four quadrics")
def _build_dell(params):
    g2, kt = params["g2"], params["kt"]
    if g2 <= 0:
        raise DomainError("g2 must be positive")
    if kt == 0:
        raise DomainError("kt must be nonzero")
    v = ("x1", "x2", "x3", "x4", "x5", "x6")
    quads = _dell_quadrics(g2, kt, v)
    lam = -kt * kt / 16
    ps = jacobian_structure(v, quads, lam)
    x5 = PolyExpr.var("x5", v)
    return BuiltModel(
        name="dell", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, lam),
        casimirs=list(zip(("Q1", "Q2", "Q3", "Q4"), quads)),
        weights=None, hamiltonians=[x5],
        checks=[("jacobi", None), ("casimirs", None), ("theorem31", None),
                ("plucker", None), ("rank", None)],
        expects={"plucker": True, "rank": 2},
        integrate=IntegrateRequest(
            dell_initial_point(params["k"], g2), 1e-3, 0.15,
            ("Q1", "Q2", "Q3", "Q4", "x6")),
        expected={"jacobi": True, "casimirs": True, "lambda_coord": lam,
                  "plucker": True, "rank": 2, "degree_sum": 8,
                  "degree_sum_equals": False, "extendability": False},
    )


def _fairlie_quadrics(g2: Fraction, variables, with_x5: bool):
    gens = PolyExpr.gens(variables)
    x1, x2, x3, x4 = gens[:4]
    q1 = x1 * x1 - x2 * x2
    q2 = x1 * x1 - x3 * x3
    q3 = x1 * x1 * (-g2) + x4 * x4
    if with_x5:
        q3 = q3 + gens[4] * gens[4]
    return [q1, q2, q3]


@register("fairlie", {"g2": Fraction(4)},
          alternates=[{"g2": Fraction(1)}, {"g2": Fraction(9)}],
          summary="quartic product flow as a canonical 4-bracket system")
def _build_fairlie(params):
    g2 = params["g2"]
    if g2 <= 0:
        raise DomainError("g2 must be positive")
    v = ("x1", "x2", "x3", "x4")
    ns = NambuStructure(v, [], Fraction(-1, 8))
    quads = _fairlie_quadrics(g2, v, with_x5=False)
    return BuiltModel(
        name="fairlie", params=params, vars=v, structure=ns,
        structure_kind="nambu", multiplier=ns.multiplier,
        casimirs=[], weights=None, hamiltonians=quads,
        checks=[("fi", 2)],
        expects={},
        integrate=None,
        expected={"fi": True},
    )


@register("dell_nambu", {"k": Fraction(1, 2), "g2": Fraction(4), "E": Fraction(1, 2)},
          alternates=[{"k": Fraction(1, 3), "g2": Fraction(9), "E": Fraction(1, 2)},
                      {"k": Fraction(3, 4), "g2": Fraction(1), "E": Fraction(2)}],
          summary="4-bracket on the level slice, vertical coordinate central")
def _build_dell_nambu(params):
    g2 = params["g2"]
    if g2 <= 0:
        raise DomainError("g2 must be positive")
    v = ("x1", "x2", "x3", "x4", "x5")
    x5 = PolyExpr.var("x5", v)
    ns = NambuStructure(v, [x5], Fraction(-1, 8))
    quads = _fairlie_quadrics(g2, v, with_x5=True)
    return BuiltModel(
        name="dell_nambu", params=params, vars=v, structure=ns,
        structure_kind="nambu", multiplier=ns.multiplier,
        casimirs=[("C", x5)], weights=None, hamiltonians=quads,
        checks=[("casimirs", None), ("fi", 2)],
        expects={},
        integrate=None,
        expected={"fi": True, "casimirs": True},
    )


# ---------------- K3-type cubic brackets ----------------

@register("fermat_k3", {}, summary="affine quartic-surface bracket, Fermat form")
def _build_fermat(params):
    v = ("x1", "x2", "x3")
    x1, x2, x3 = PolyExpr.gens(v)
    p = x1 ** 4 + x2 ** 4 + x3 ** 4 + 1
    ps = jacobian_structure(v, [p], -1)
    return BuiltModel(
        name="fermat_k3", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, -1),
        casimirs=[("P4", p)], weights=None, hamiltonians=[],
        checks=[("jacobi", None), ("casimirs", None), ("theorem31", None),
                ("extendability", None)],
        expects={"extendability": False},
        integrate=None,
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(-1), "plucker": True, "rank": 2,
                  "extendability": False},
    )


@register("singular_k3_affine", {},
          summary="affine chart bracket of the split quartic surface")
def _build_k3_affine(params):
    v = ("X2", "X3", "X4")
    a2, a3, a4 = PolyExpr.gens(v)
    p = (a3 ** 3 + a4 ** 3 - a2 ** 4 - a2 * a3 ** 3 + a2 * a4 ** 3 + 1)
    ps = jacobian_structure(v, [p], -1)
    return BuiltModel(
        name="singular_k3_affine", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, -1),
        casimirs=[("P", p)], weights=None, hamiltonians=[],
        checks=[("jacobi", None), ("casimirs", None), ("theorem31", None),
                ("extendability", None)],
        expects={"extendability": False},
        integrate=None,
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(-1), "plucker": True, "rank": 2,
                  "extendability": False},
    )


@register("singular_k3_split", {},
          summary="the same surface as a bidegree intersection in one chart")
def _build_k3_split(params):
    v = ("X2", "X3", "X4", "Z")
    a2, a3, a4, z = PolyExpr.gens(v)
    p1 = z * a2 + 1
    p2 = a2 ** 3 + a3 ** 3 - a4 ** 3 + z * (a3 ** 3 + a4 ** 3 + 1)
    ps = jacobian_structure(v, [p1, p2], 1)
    return BuiltModel(
        name="singular_k3_split", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, 1),
        casimirs=[("P1", p1), ("P2", p2)], weights=None, hamiltonians=[],
        checks=[("jacobi", None), ("casimirs", None), ("theorem31", None),
                ("rank", None)],
        expects={"rank": 2},
        integrate=None,
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(1), "plucker": True, "rank": 2},
    )


_QUARTIC_MONOS = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]


def _cone4_defaults():
    out = {}
    for (i, j, k) in _QUARTIC_MONOS:
        name = f"c{i}{j}{k}"
        out[name] = Fraction(1) if (i, j, k) in ((4, 0, 0), (0, 4, 0), (0, 0, 4)) \
            else Fraction(0)
    return out


@register("canonical_cone4", _cone4_defaults(),
          summary="cone bracket of a user-supplied homogeneous quartic curve")
def _build_cone4(params):
    v = ("x1", "x2", "x3")
    gens = PolyExpr.gens(v)
    p = PolyExpr.zero(v)
    for (i, j, k) in _QUARTIC_MONOS:
        c = params[f"c{i}{j}{k}"]
        if c:
            p = p + PolyExpr(v, {(i, j, k): c})
    if p.is_zero():
        raise DomainError("quartic must not vanish identically")
    ps = jacobian_structure(v, [p], 1)
    return BuiltModel(
        name="canonical_cone4", params=params, vars=v, structure=ps,
        structure_kind="jacobian", multiplier=PolyExpr.const(v, 1),
        casimirs=[("P", p)], weights=None, hamiltonians=[],
        checks=[("jacobi", None), ("casimirs", None), ("theorem31", None),
                ("rank", None)],
        expects={"rank": 2},
        integrate=None,
        expected={"jacobi": True, "casimirs": True,
                  "lambda_coord": Fraction(1), "plucker": True, "rank": 2},
    )


# ---------------- Casimir-only entry with the determinantal relation ----------------

def bdu_casimirs(variables=("p", "q", "r", "x", "y", "z")):
    p, q, r, x, y, z = PolyExpr.gens(variables)
    p1 = (p * p + q * q + r * r + x * x + y * y + z * z
          - p * q * x - p * r * y - q * r * z - x * y * z + p * r * x * z)
    p2 = p * z + x * r - q * y
    return [("P1", p1), ("P2", p2)]


@register("bdu_casimirs", {},
          summary="Stokes-matrix Casimir pair; relation check activates on a "
                  "user-supplied bracket table")
def _build_bdu(params):
    v = ("p", "q", "r", "x", "y", "z")
    ps = PoissonStructure.from_table(v, {})
    return BuiltModel(
        name="bdu_casimirs", params=params, vars=v, structure=ps,
        structure_kind="table", multiplier=None,
        casimirs=bdu_casimirs(v), weights=None, hamiltonians=[],
        checks=[("casimirs", None), ("bdu_relation", None)],
        expects={},
        integrate=None,
        expected={"casimirs": True},
    )
