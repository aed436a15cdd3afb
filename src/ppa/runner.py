"""Check orchestration and report assembly for parsed models.

``CHECKS`` is the one table of checks, read by the DSL to validate ``check``
and ``expect`` statements and by ``run_checks`` to run them.

Checks run in declaration order.  Value-style predicates (plucker, rank,
degree_sum) report as ``info`` unless an expect clause pins them; pinned
checks pass or fail on the comparison.  Every verdict is one library
decision: the structure carries the declared Casimirs, so ``jacobi``,
``plucker`` and ``rank`` are the library predicates, which read the
structure's certificate first, and ``jacobi`` stops at its first witness.  A
binary ``fi`` is Jacobi's identity and reports what ``jacobi`` reports; only
an n-ary ``fi`` draws argument tuples, and no other check reads the seed.
Reports are a pure function of the model text and the seed: the millis field
is kept at zero so emitted JSON is byte-identical across runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

from .duality import bdu_relation_sides, degree_sum_check, duality_check
from .errors import ParityError, PpaError
from .geometry import check_projective_extendability
from .poly import FIELD_BITS, PolyExpr, _frac_str, _new, _over_common_den
from .structures import (
    PoissonStructure,
    check_fundamental_identity,
    generic_rank,
    is_casimir,
    is_quasi_casimir,
    jacobi_witnesses,
    plucker_rank2_test,
)

# Largest N accepted in ``fi(N)``: on an n-ary bracket each tuple is one full
# evaluation of the identity, so N bounds the work of the check.  A binary
# ``fi`` draws no tuples.
FI_MAX = 100


@dataclass
class CheckResult:
    name: str
    status: str                 # pass | fail | skipped | info
    lam: str | None = None
    witness: str | None = None
    millis: int = 0

    def as_json_obj(self):
        obj = {"name": self.name, "status": self.status}
        if self.lam is not None:
            obj["lambda"] = self.lam
        if self.witness is not None:
            obj["witness"] = self.witness
        obj["millis"] = self.millis
        return obj


def _json_scalar(v) -> str:
    """``json.dumps(v)`` for a string, an int or any other scalar."""
    if type(v) is str:
        return encode_basestring_ascii(v)
    if type(v) is int:
        return int.__repr__(v)
    return json.dumps(v)


@dataclass
class CheckReport:
    model: str
    seed: int
    results: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.results)

    def to_json(self) -> str:
        """``json.dumps(obj, indent=2) + "\\n"`` of the report's fixed schema,
        written directly: ``indent`` would send ``json.dumps`` through its
        pure-Python encoder."""
        checks = ",\n".join(
            "    {\n" + ",\n".join(f'      "{k}": {_json_scalar(v)}'
                                   for k, v in r.as_json_obj().items()) + "\n    }"
            for r in self.results)
        checks = f"[\n{checks}\n  ]" if checks else "[]"
        return (f'{{\n  "model": {_json_scalar(self.model)},\n'
                f'  "seed": {_json_scalar(self.seed)},\n  "checks": {checks}\n}}\n')

    def format_text(self) -> str:
        lines = []
        for r in self.results:
            bits = [f"{r.name}: {r.status}"]
            if r.lam is not None:
                bits.append(f"lambda' = {r.lam}")
            if r.witness is not None:
                bits.append(r.witness)
            lines.append("  ".join(bits))
        lines.append("overall: " + ("fail" if self.failed else "pass"))
        return "\n".join(lines) + "\n"


# ---------------- the check table ----------------

# Applicability conditions: (test(spec, structure), skip witness when false).
_POISSON = (lambda spec, s: isinstance(s, PoissonStructure),
            "needs a Poisson structure")
_BINARY = (_POISSON[0], "binary-bracket check; structure is n-ary")
_CASIMIRS = (lambda spec, s: bool(spec.casimirs), "no Casimirs declared")
_BDU_SHAPE = (lambda spec, s: (isinstance(s, PoissonStructure) and s.n == 6
                               and len(spec.casimirs) >= 2),
              "needs six variables and two Casimirs")
_BDU_TABLE = (lambda spec, s: any(not p.is_zero() for _, p in s.entries_upper()),
              "no bracket table supplied")


# Run functions return (status, lambda text, witness, observed value).  They
# call the predicates through this module's globals at call time, so a
# rebound predicate (the benchmark tracer wraps them) is the one that runs.

def _run_jacobi(spec, structure, arg, seed):
    witness = next(jacobi_witnesses(structure), None)
    if witness is None:
        return "pass", None, None, True
    i, j, k, resid = witness
    return ("fail", None, f"jacobiator({spec.vars[i]},{spec.vars[j]},"
                          f"{spec.vars[k]}) = {resid.render()}", False)


def _run_casimirs(spec, structure, arg, seed):
    bad = [qname for qname, q in spec.casimirs if not is_casimir(structure, q)]
    if bad:
        return "fail", None, "not central: " + ", ".join(bad), False
    return "pass", None, None, True


def _run_quasi(spec, structure, arg, seed):
    q = spec.named_poly(arg)
    if q is None:
        return "fail", None, f"unknown name {arg!r}", None
    ok = is_quasi_casimir(structure, q)
    return ("pass" if ok else "fail"), None, None, ok


def _run_theorem31(spec, structure, arg, seed):
    try:
        rep = duality_check(structure, spec.casimir_polys())
    except ParityError as e:
        return "skipped", None, str(e), None
    lam = "non-constant" if rep.lam_coord is None else _literal_text(rep.lam_coord)
    if rep.holds:
        return "pass", lam, None, rep
    return ("fail", lam, "wedge power is not a constant multiple "
                         "of the Casimir-minor dual", rep)


def _run_plucker(spec, structure, arg, seed):
    rep = plucker_rank2_test(structure)
    if rep.rank_le_2:
        return "info", None, "plucker = true", True
    w = ",".join(spec.vars[i] for i in rep.witness)
    return "info", None, f"plucker = false ({w})", False


def _run_rank(spec, structure, arg, seed):
    r = generic_rank(structure)
    return "info", None, f"rank = {r}", r


def _run_extendability(spec, structure, arg, seed):
    v = check_projective_extendability(structure)
    if v.extendable_necessary_conditions:
        return ("pass", None,
                f"max degree {v.max_degree}; no obstruction found", True)
    if not v.degree_ok:
        return "fail", None, f"bracket degree {v.max_degree} exceeds 3", False
    (i, j, k), resid = next(iter(v.cyclic_residuals.items()))
    return ("fail", None, f"cyclic residual ({spec.vars[i]},{spec.vars[j]},"
                          f"{spec.vars[k]}): {resid.render()}", False)


def _run_fi(spec, structure, count, seed):
    """The fundamental identity.  A binary bracket's is Jacobi's identity, a
    biderivation identity that holds for all polynomials once it holds on
    the coordinates, so ``jacobi`` decides it exactly.  An n-ary bracket's
    is checked, as one Lie derivative per tuple (see
    :func:`~ppa.structures.check_fundamental_identity`), on the tuples of
    :func:`_fi_tuples`."""
    if isinstance(structure, PoissonStructure):
        return _run_jacobi(spec, structure, count, seed)
    for args in _fi_tuples(spec.vars, structure.arity, count, seed):
        resid = check_fundamental_identity(structure, args).residual
        if not resid.is_zero():
            return "fail", None, f"residual {resid.render()}", False
    return "pass", None, None, True


def _fi_tuples(variables, arity: int, count: int, seed: int) -> list:
    """The coordinate tuple plus ``count`` deterministic pseudo-random
    tuples of 2 * arity - 1 arguments, each the sum of two monomials of
    degree 1 or 2 with coefficients from {1, -1, 2, 1/2}.  An argument is
    built as one packed dict, a sum that cancels dropping its key, so its
    value and term order are those of adding the two monomials as
    ``PolyExpr`` values."""
    variables = tuple(variables)
    gens = PolyExpr.gens(variables)
    n = len(gens)
    tuples = [[gens[i % n] for i in range(2 * arity - 1)]]
    rng = random.Random(1000003 * seed + 17)
    units = [1 << FIELD_BITS * (n - 1 - i) for i in range(n)]
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    for _ in range(count):
        args = []
        for _ in range(2 * arity - 1):
            terms = {}
            for _ in range(2):
                key = 0
                for _ in range(rng.randint(1, 2)):
                    key += units[rng.randrange(n)]
                c = terms.get(key, 0) + rng.choice(coeffs)
                if c:
                    terms[key] = c
                else:
                    del terms[key]
            args.append(_new(variables, *_over_common_den(terms), True))
        tuples.append(args)
    return tuples


def _run_degree_sum(spec, structure, arg, seed):
    rep = degree_sum_check(spec.casimir_polys(), len(spec.vars), spec.weights)
    return ("info", None,
            f"sum = {rep.sum_of_degrees}, weights sum = {rep.weight_sum}, "
            f"equal = {_literal_text(rep.equals_dimension)}", rep)


def _run_bdu_relation(spec, structure, arg, seed):
    lhs, rhs = bdu_relation_sides(structure, spec.casimirs[0][1],
                                  spec.casimirs[1][1])
    if lhs == rhs:
        return "pass", None, None, True
    return "fail", None, f"difference = {(lhs - rhs).render()}", False


@dataclass(frozen=True)
class Check:
    """One check: ``run(spec, structure, arg, seed)`` returns (status,
    lambda text, witness, observed value); ``needs`` are its applicability
    conditions; ``arg`` is its DSL argument (None, ``"ident"`` or ``"int"``);
    ``expect`` maps each literal kind a pin may use (``"bool"``, ``"int"``,
    ``"rational"``) to the projection of the observed value it compares."""
    run: Callable
    needs: tuple = ()
    arg: Optional[str] = None
    expect: dict = field(default_factory=lambda: {"bool": bool})

    def skip_witness(self, spec, structure) -> Optional[str]:
        """The witness of the first unmet condition, or None when it runs."""
        return next((witness for test, witness in self.needs
                     if not test(spec, structure)), None)


CHECKS: dict[str, Check] = {
    "jacobi": Check(_run_jacobi, (_BINARY,)),
    "casimirs": Check(_run_casimirs, (_CASIMIRS,)),
    "quasi": Check(_run_quasi, (_POISSON,), arg="ident"),
    "theorem31": Check(_run_theorem31, (_POISSON, _CASIMIRS),
                       expect={"bool": lambda rep: rep.holds,
                               "rational": lambda rep: rep.lam_coord}),
    "plucker": Check(_run_plucker, (_POISSON,)),
    "rank": Check(_run_rank, (_POISSON,), expect={"int": int}),
    "extendability": Check(_run_extendability, (_POISSON,)),
    "fi": Check(_run_fi, arg="int"),
    "degree_sum": Check(_run_degree_sum, (_CASIMIRS,),
                        expect={"bool": lambda rep: rep.equals_dimension,
                                "int": lambda rep: rep.sum_of_degrees}),
    "bdu_relation": Check(_run_bdu_relation, (_BDU_SHAPE, _BDU_TABLE)),
}


def _key(cname, carg):
    """``name`` or ``name(arg)``: report names and expect keys."""
    return cname if carg is None else f"{cname}({carg})"


def _literal_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return _frac_str(v)


def _projection(cname, literal) -> Optional[Callable]:
    """What an ``expect cname = literal`` pin compares, or None when the
    check takes no literal of that kind.  A rational pin accepts integers."""
    kinds = CHECKS[cname].expect
    if isinstance(literal, bool):
        return kinds.get("bool")
    if isinstance(literal, int) and "int" in kinds:
        return kinds["int"]
    return kinds.get("rational")


# ---------------- running ----------------

def run_checks(spec, seed: int = 0) -> CheckReport:
    """Run the checks a parsed model (``dsl.ModelSpec``) requests."""
    structure = spec.build_structure()
    report = CheckReport(model=spec.name, seed=seed)
    for cname, carg in spec.checks:
        check, name = CHECKS[cname], _key(cname, carg)
        try:
            skip = check.skip_witness(spec, structure)
            if skip is None:
                status, lam, witness, observed = check.run(spec, structure,
                                                           carg, seed)
            else:
                status, lam, witness, observed = "skipped", None, skip, None
        except PpaError as e:
            status, lam, witness, observed = "fail", None, str(e), None
        result = CheckResult(name, status, lam, witness)
        if name in spec.expects:
            _apply_expectation(result, cname, spec.expects[name], observed)
        report.results.append(result)
    return report


def _apply_expectation(result: CheckResult, cname, expected, observed):
    if observed is None:
        # nothing was observed; numeric pins have always shown this as "None"
        value, shown = None, "none" if isinstance(expected, bool) else "None"
    else:
        value = _projection(cname, expected)(observed)
        shown = "none" if value is None else _literal_text(value)
    result.status = "pass" if value == expected else "fail"
    note = f"expected {_literal_text(expected)}, observed {shown}"
    result.witness = (result.witness + "; " if result.witness else "") + note
