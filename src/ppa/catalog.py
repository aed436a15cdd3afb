"""The named bracket structures, each a model-DSL template.

``build`` puts the bindings in as ``param`` statements after ``vars`` and
parses the template, so its ``expect`` pins are the only statement of those
outcomes; ``expected`` adds the library-level facts no requested check pins.
Python hooks do what the DSL cannot: reject degenerate bindings, and compute
``dell``'s initial point, which needs square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Optional

from .dsl import ModelSpec, parse_model
from .errors import DomainError


@dataclass
class BuiltModel(ModelSpec):
    """A parsed catalog template with its structure built."""
    structure: object = None          # PoissonStructure | NambuStructure
    expected: dict = field(default_factory=dict)   # outcomes the tests check


@dataclass
class CatalogEntry:
    name: str
    summary: str
    template: str
    defaults: dict
    alternates: list
    facts: dict                       # expected outcomes no template pins
    hook: Optional[Callable] = None   # vets the bindings; may add DSL text

    def build(self, bindings: dict | None = None) -> BuiltModel:
        params = dict(self.defaults)
        for k, v in (bindings or {}).items():
            if k not in params:
                raise DomainError(f"unknown parameter {k!r} for {self.name}")
            params[k] = F(v)
        extra = self.hook(params) if self.hook else None
        head, _, body = self.template.partition(";")
        bound = "".join(f"param {k} = {v};\n" for k, v in params.items())
        text = f"{head};\n{bound}{body}{extra or ''}"
        spec = parse_model(text, name=self.name)
        expected = {**self.facts, **spec.expects}
        if spec.structure_kind == "jacobian":
            expected["lambda_coord"] = spec.multiplier.constant_value()
        return BuiltModel(**vars(spec), structure=spec.build_structure(),
                          expected=expected)


_REGISTRY: dict[str, CatalogEntry] = {}


def _bindings(text):
    """``"k=1/3 g2=9"`` -> ``{"k": Fraction(1, 3), "g2": Fraction(9)}``."""
    return {k: F(v) for k, v in (kv.split("=") for kv in text.split())}


def _entry(name, summary, template, defaults="", alternates=(), hook=None,
           **facts):
    _REGISTRY[name] = CatalogEntry(name, summary, template, _bindings(defaults),
                                   [_bindings(a) for a in alternates], facts, hook)


def names() -> list[str]:
    return sorted(_REGISTRY)


def entry(name: str) -> CatalogEntry:
    if name not in _REGISTRY:
        raise DomainError(f"unknown catalog entry {name!r}; "
                          f"known: {', '.join(names())}")
    return _REGISTRY[name]


def build(name: str, bindings: dict | None = None) -> BuiltModel:
    return entry(name).build(bindings)


def _require(ok: bool, message: str):
    if not ok:
        raise DomainError(message)


# Most templates request jacobi and casimirs without a pin; both hold.
_SOUND = {"jacobi": True, "casimirs": True}
_K_ALTS = ["k=3", "k=-1/2"]

# ---------------- n = 3 cubic-curve family ----------------

_entry("q3", "cubic-curve bracket on C^3 from the symmetric cubic", """
vars x1 x2 x3;
casimir P = 1/3*(x1^3 + x2^3 + x3^3) + k*x1*x2*x3;
structure jacobian lambda 1;
check jacobi, casimirs, theorem31, plucker, rank, degree_sum, extendability;
expect plucker = true; expect rank = 2; expect degree_sum = 3;
expect extendability = true;
""", "k=2", _K_ALTS, **_SOUND, degree_sum_equals=True)

_entry("mirror_y", "image of q3 under the first monomial change of variables", """
vars y1 y2 y3; weights 2 1 3;
casimir P = 1/3*(y1^3 + y2^3*y3 + y3^2) + k*y1*y2*y3;
structure jacobian lambda 3/2;
check jacobi, casimirs, theorem31, plucker, rank, degree_sum;
expect plucker = true; expect rank = 2; expect degree_sum = 6;
""", "k=2", _K_ALTS, **_SOUND, degree_sum_equals=True, extendability=False)

_entry("mirror_z", "image of q3 under the second monomial change of variables", """
vars z1 z2 z3; weights 1 1 2;
casimir P = 1/3*(z3^2 + z1^2*z3 + z1*z2^3) + k*z1*z2*z3;
structure jacobian lambda 9/4;
check jacobi, casimirs, theorem31, plucker, rank, degree_sum;
expect plucker = true; expect rank = 2; expect degree_sum = 4;
""", "k=2", _K_ALTS, **_SOUND, degree_sum_equals=True, extendability=False)

_entry("markov", "Stokes-matrix bracket from the Markov cubic", """
vars x1 x2 x3;
casimir P = x1^2 + x2^2 + x3^2 + 3*x1*x2*x3;
structure jacobian lambda 1;
check jacobi, casimirs, theorem31, plucker, rank, degree_sum, extendability;
expect plucker = true; expect rank = 2; expect degree_sum = 3;
expect extendability = true;
""", **_SOUND, degree_sum_equals=True)

_entry("askey_wilson", "quartic z^2 = F(x,y) family with weights (1,1,2)", """
vars x y z; weights 1 1 2;
casimir P = z^2 - (a*x^2*y^2 + a1*x^2*y + a2*x*y^2 + a3*x^2 + a4*y^2 + a5*x*y
                   + a6*x + a7*y);
structure jacobian lambda 1;
check jacobi, casimirs, theorem31, plucker, rank, degree_sum;
expect plucker = true; expect rank = 2; expect degree_sum = 4;
""", "a=1 a1=2 a2=-1 a3=1/2 a4=3 a5=-2 a6=1 a7=-1/3",
       ["a=1 a1=1 a2=1 a3=1 a4=1 a5=1 a6=1 a7=1",
        "a=2 a1=-1 a2=1/3 a3=0 a4=1 a5=2 a6=-1/2 a7=4"],
       **_SOUND, degree_sum_equals=True)

# ---------------- n = 4 quadric pairs ----------------

_entry("sklyanin", "quadratic bracket from the sphere/inertia quadric pair", """
vars x1 x2 x3 x4;
casimir Q1 = x1^2 + x2^2 + x3^2;
casimir Q2 = x4^2 + J1*x1^2 + J2*x2^2 + J3*x3^2;
structure jacobian lambda 1/4;
hamiltonian x4;
check jacobi, casimirs, theorem31, plucker, rank, degree_sum;
expect plucker = true; expect rank = 2; expect degree_sum = 4;
""", "J1=1 J2=2 J3=3", ["J1=2 J2=5/2 J3=-1", "J1=0 J2=1/3 J3=7"],
       lambda p: _require(len({p["J1"], p["J2"], p["J3"]}) == 3,
                          "J1, J2, J3 must be pairwise distinct"),
       **_SOUND, degree_sum_equals=True)

_entry("quadrics61", "cyclic quadratic bracket table of a generic quadric pair", """
vars x1 x2 x3 x4;
casimir p1 = 1/2*(x1^2 + x3^2) + k*x2*x4;
casimir p2 = 1/2*(x2^2 + x4^2) + k*x1*x3;
structure table {
  {x1,x2} = k^2*x1*x2 - x3*x4;  {x2,x3} = k^2*x2*x3 - x4*x1;
  {x3,x4} = k^2*x3*x4 - x1*x2;  {x4,x1} = k^2*x4*x1 - x2*x3;
  {x1,x3} = k*(x4^2 - x2^2);    {x2,x4} = k*(x1^2 - x3^2);
};
check jacobi, casimirs, theorem31, plucker, rank, degree_sum;
expect plucker = true; expect rank = 2; expect degree_sum = 4;
""", "k=2", ["k=1/2", "k=-3"], **_SOUND, lambda_coord=F(-1),
       degree_sum_equals=True, table_vs_jacobian_constant=F(-1))

# ---------------- the five-generator cyclic structure ----------------

# Two cyclic bracket families (indices mod 5) with the quintic centre.  Its
# coefficients are pinned by centrality and by the principal 4x4 Pfaffians
# reproducing 1/5 of the gradient, which force k^3 + 3/k^2 on C.
_entry("q5", "five-generator cyclic quadratic bracket with quintic center", """
vars x1 x2 x3 x4 x5;
let cf = -1/5*(k^2 + 3*k^(-3));
let cn = 1/5*(3*k^2 - k^(-3));
structure table {
  {x2,x5} = cf*x2*x5 + 2*x3*x4 + k*x1^2;
  {x3,x1} = cf*x3*x1 + 2*x4*x5 + k*x2^2;
  {x4,x2} = cf*x4*x2 + 2*x5*x1 + k*x3^2;
  {x5,x3} = cf*x5*x3 + 2*x1*x2 + k*x4^2;
  {x1,x4} = cf*x1*x4 + 2*x2*x3 + k*x5^2;
  {x3,x4} = cn*x3*x4 + 2*k^(-1)*x2*x5 - k^(-2)*x1^2;
  {x4,x5} = cn*x4*x5 + 2*k^(-1)*x3*x1 - k^(-2)*x2^2;
  {x5,x1} = cn*x5*x1 + 2*k^(-1)*x4*x2 - k^(-2)*x3^2;
  {x1,x2} = cn*x1*x2 + 2*k^(-1)*x5*x3 - k^(-2)*x4^2;
  {x2,x3} = cn*x2*x3 + 2*k^(-1)*x1*x4 - k^(-2)*x5^2;
};
let A = x1^5 + x2^5 + x3^5 + x4^5 + x5^5;
let B = x1^3*x2*x5 + x2^3*x3*x1 + x3^3*x4*x2 + x4^3*x5*x3 + x5^3*x1*x4;
let C = x1^3*x3*x4 + x2^3*x4*x5 + x3^3*x5*x1 + x4^3*x1*x2 + x5^3*x2*x3;
let D = x1*x2^2*x5^2 + x2*x3^2*x1^2 + x3*x4^2*x2^2 + x4*x5^2*x3^2 + x5*x1^2*x4^2;
let E = x1*x3^2*x4^2 + x2*x4^2*x5^2 + x3*x5^2*x1^2 + x4*x1^2*x2^2 + x5*x2^2*x3^2;
casimir P = -k^(-1)*A + (k^(-5) - 3)*B + (k^3 + 3*k^(-2))*C - (2*k + k^(-4))*D
            + (k^2 - 2*k^(-3))*E + (k^4 + 16*k^(-1) - k^(-6))*x1*x2*x3*x4*x5;
check jacobi, casimirs, theorem31, plucker, rank, degree_sum;
expect plucker = false; expect rank = 4; expect degree_sum = 5;
""", "k=2", ["k=3/2", "k=-5/7"],
       lambda p: _require(p["k"] != 0, "k must be nonzero"),
       **_SOUND, lambda_coord=F(1, 5), degree_sum_equals=True)

# ---------------- tops and flows ----------------

_entry("euler_top", "angular-momentum bracket with quadratic energy flow", """
vars x1 x2 x3;
casimir Q1 = 1/2*(x1^2 + x2^2 + x3^2);
structure table { {x1,x2} = x3; {x2,x3} = x1; {x1,x3} = -x2; };
hamiltonian 1/2*(J1*x1^2 + J2*x2^2 + J3*x3^2);
check jacobi, casimirs, theorem31, plucker, rank;
expect plucker = true; expect rank = 2;
integrate from (1.0, 0.5, 0.25) step 0.001 until 10.0 monitor Q1;
""", "J1=1 J2=2 J3=3", ["J1=1/2 J2=2 J3=5", "J1=-1 J2=0 J3=1"],
       **_SOUND, lambda_coord=F(1), degree_sum=2, degree_sum_equals=False)


def _positive_g2(p):
    _require(p["g2"] > 0, "g2 must be positive")


def _dell_hook(p):
    _positive_g2(p)
    _require(p["kt"] != 0, "kt must be nonzero")
    _require(abs(p["k"]) <= F(5, 4), "k must lie in [-5/4, 5/4]")
    # x0 is on the first three quadric levels; Q4 is monitored at its own.
    x1, x5 = 1.25, 0.5
    x0 = (x1, math.sqrt(x1 * x1 - 1.0), math.sqrt(x1 * x1 - float(p["k"]) ** 2),
          math.sqrt(1.0 + float(p["g2"]) * x1 * x1 + x5 ** 2), x5, 1.0)
    # kt cancels out of the flow; it escapes at t = c/sqrt(g2) with c in
    # [0.34, 0.9] for g2 >= 1 (g2 = 9: at t = 0.134, so the window is 0.1).
    until = min(0.15, round(0.3 / math.sqrt(p["g2"]), 3))
    return (f"integrate from ({', '.join(map(repr, x0))}) step 0.001 "
            f"until {until!r} monitor Q1 Q2 Q3 Q4 x6;")


_entry("dell", "double-elliptic bracket on the intersection of four quadrics", """
vars x1 x2 x3 x4 x5 x6;
casimir Q1 = x1^2 - x2^2; casimir Q2 = x1^2 - x3^2;
casimir Q3 = -g2*x1^2 + x4^2 - x5^2; casimir Q4 = -g2*x1^2 + x4^2 + kt^(-2)*x6^2;
structure jacobian lambda -1/16*kt^2;
hamiltonian x5;
check jacobi, casimirs, theorem31, plucker, rank;
expect plucker = true; expect rank = 2;
""", "k=1/2 kt=1 g2=4", ["k=1/3 kt=2 g2=9", "k=3/4 kt=1/2 g2=1"], _dell_hook,
       **_SOUND, degree_sum=8, degree_sum_equals=False, extendability=False)


_entry("fairlie", "quartic product flow as a canonical 4-bracket system", """
vars x1 x2 x3 x4;
structure nambu 4 lambda -1/8;
hamiltonian x1^2 - x2^2, x1^2 - x3^2, -g2*x1^2 + x4^2;
check fi(2);
""", "g2=4", ["g2=1", "g2=9"], _positive_g2, fi=True)

_entry("dell_nambu", "4-bracket on the level slice, vertical coordinate central", """
vars x1 x2 x3 x4 x5;
casimir C = x5;
structure nambu 4 lambda -1/8;
hamiltonian x1^2 - x2^2, x1^2 - x3^2, -g2*x1^2 + x4^2 + x5^2;
check casimirs, fi(2);
""", "g2=4", ["g2=9", "g2=1"], _positive_g2, fi=True, casimirs=True)

# ---------------- K3-type cubic brackets ----------------

_entry("fermat_k3", "affine quartic-surface bracket, Fermat form", """
vars x1 x2 x3;
casimir P4 = x1^4 + x2^4 + x3^4 + 1;
structure jacobian lambda -1;
check jacobi, casimirs, theorem31, extendability; expect extendability = false;
""", **_SOUND, plucker=True, rank=2)

_entry("singular_k3_affine", "affine chart bracket of the split quartic surface", """
vars X2 X3 X4;
casimir P = X3^3 + X4^3 - X2^4 - X2*X3^3 + X2*X4^3 + 1;
structure jacobian lambda -1;
check jacobi, casimirs, theorem31, extendability; expect extendability = false;
""", **_SOUND, plucker=True, rank=2)

_entry("singular_k3_split",
       "the same surface as a bidegree intersection in one chart", """
vars X2 X3 X4 Z;
casimir P1 = Z*X2 + 1;
casimir P2 = X2^3 + X3^3 - X4^3 + Z*(X3^3 + X4^3 + 1);
structure jacobian lambda 1;
check jacobi, casimirs, theorem31, rank; expect rank = 2;
""", **_SOUND, plucker=True)

_entry("canonical_cone4",
       "cone bracket of a user-supplied homogeneous quartic curve", """
vars x1 x2 x3;
casimir P = c004*x3^4 + c013*x2*x3^3 + c022*x2^2*x3^2 + c031*x2^3*x3 + c040*x2^4
          + c103*x1*x3^3 + c112*x1*x2*x3^2 + c121*x1*x2^2*x3 + c130*x1*x2^3
          + c202*x1^2*x3^2 + c211*x1^2*x2*x3 + c220*x1^2*x2^2
          + c301*x1^3*x3 + c310*x1^3*x2 + c400*x1^4;
structure jacobian lambda 1;
check jacobi, casimirs, theorem31, rank; expect rank = 2;
""", " ".join(f"c{i}{j}{4 - i - j}={int(4 in (i, j, 4 - i - j))}"
            for i in range(5) for j in range(5 - i)), (),
       lambda p: _require(any(p.values()), "quartic must not vanish identically"),
       **_SOUND, plucker=True)

# ---------------- Casimir-only entry with the determinantal relation ----------------

_entry("bdu_casimirs", "Stokes-matrix Casimir pair; relation check activates on a "
       "user-supplied bracket table", """
vars p q r x y z;
casimir P1 = p^2 + q^2 + r^2 + x^2 + y^2 + z^2
             - p*q*x - p*r*y - q*r*z - x*y*z + p*r*x*z;
casimir P2 = p*z + x*r - q*y;
structure table { };
check casimirs, bdu_relation;
""", casimirs=True)
