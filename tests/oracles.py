"""Reference implementations that tests compare the library against.

``PolyForm``, ``PolyMultivector``, ``wedge``, ``one_form``,
``differential``, ``wedge_all`` and ``shuffle_signature`` are the
exterior-algebra chain the library used for minors of gradient rows before
it read them off one Laplace table, and for graded coefficients before it
kept them as dicts keyed by mask; ``nambu_bracket_by_wedges`` and
``jacobian_structure_by_wedges`` are the bracket and the construction as
computed from that chain (see the first section).
``nambu_is_casimir_by_cofactors`` is the Nambu Casimir test as one cofactor
contraction per coordinate tuple.  ``bracket_by_entries`` is the Poisson
bracket as a chain of sums over the upper entries.

``bracket_of`` is the Poisson bracket as Hamiltonian rows contracted with a
gradient, as the package exported it until no command reached it.
``fundamental_identity_by_cofactor_rows`` is the n-ary fundamental identity
as cofactor contractions, one row per tail slot, as the library computed it
before it read the residual off one Lie derivative; ``fi_tuples_by_sums``
is ``fi``'s argument tuples as a chain of ``PolyExpr`` additions (see the last
section).

``wedge_power`` is the m-th wedge power as a chain of full wedges, and
``duality_check_by_wedges`` is theorem31 computed from it and from the
volume dual of the wedged Casimir differentials, as the library computed
it before it took the wedge side from principal Pfaffians.

``tokenize``, ``parse_model``, ``parse_polynomial`` and ``parse_map_file``
are the model DSL front end as it was before it scanned its input in one
pass and folded monomial terms (see its section).

``chart_compare`` is the chart comparison as it was before it substituted
on an integer exponent lattice (see its section).

``pfaffian`` is the principal Pfaffian as a recursive chain of products
and sums, as it was before it became one fused sum per expansion (see its
section).
"""

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul
from typing import Mapping, Optional, Sequence

from ppa.dsl import IntegrateRequest, ModelSpec
from ppa.duality import DualityReport
from ppa.errors import (ArityError, DegenerateCasimirError, DomainError,
                        ModelSyntaxError, ParityError, PolynomialGradeError)
from ppa.exterior import MAX_DIM, indices_of, mask_of, merge_sign, require_max_dim
from ppa.geometry import ChartComparison
from ppa.poly import MAX_EXPONENT, MonomialMap, PolyExpr, _rational_pow, _sum_of_products
from ppa.runner import CHECKS, FI_MAX, _key, _projection
from ppa.structures import (NambuStructure, PoissonStructure, _cofactor_row, _gradient,
                            _hamiltonian_row, _stack_row, _stacked_minors, is_casimir)


# ---------------- the exterior-algebra chain ----------------

class _GradedElement:
    """Coefficients keyed by index-subset bitmask, common to forms and
    multivectors."""

    kind = "element"

    def __init__(self, variables: Sequence[str], grade: int,
                 coeffs: Optional[Mapping[int, PolyExpr]] = None):
        self.vars = tuple(variables)
        self.n = len(self.vars)
        require_max_dim(self.n)
        self.grade = grade
        self.coeffs: dict[int, PolyExpr] = {}
        if coeffs:
            for mask, p in coeffs.items():
                if p.is_zero():
                    continue
                if bin(mask).count("1") != grade:
                    raise ArityError(f"mask {mask:b} is not a {grade}-subset")
                self.coeffs[mask] = p

    def __eq__(self, other):
        return (type(self) is type(other) and self.vars == other.vars
                and self.grade == other.grade and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, indices: Sequence[int]) -> PolyExpr:
        """Coefficient on a sorted index subset."""
        return self.coeffs.get(mask_of(indices), PolyExpr.zero(self.vars))

    def __add__(self, other):
        if type(other) is not type(self) or other.grade != self.grade:
            raise ArityError("can only add equal-kind, equal-grade elements")
        out = dict(self.coeffs)
        for mask, p in other.coeffs.items():
            s = out.get(mask, PolyExpr.zero(self.vars)) + p
            if s.is_zero():
                out.pop(mask, None)
            else:
                out[mask] = s
        return type(self)(self.vars, self.grade, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return type(self)(self.vars, self.grade,
                          {m: p * c for m, p in self.coeffs.items()})

    def __repr__(self):
        basis = "dx" if self.kind == "form" else "d/dx"
        body = " + ".join(
            f"({p}) {basis}{'^'.join(str(i + 1) for i in indices_of(m))}"
            for m, p in sorted(self.coeffs.items())) or "0"
        return f"<{self.kind} grade {self.grade}: {body}>"


class PolyForm(_GradedElement):
    kind = "form"


class PolyMultivector(_GradedElement):
    kind = "multivector"


def wedge(a: _GradedElement, b: _GradedElement):
    """Exterior product with standard shuffle signs.

    Grade overflow past the ambient dimension is a legitimate zero, not an
    error.
    """
    if type(a) is not type(b):
        raise ArityError("cannot wedge a form with a multivector")
    if a.vars != b.vars:
        raise ArityError("wedge operands live over different variables")
    grade = a.grade + b.grade
    out: dict[int, PolyExpr] = {}
    for ma, pa in a.coeffs.items():
        for mb, pb in b.coeffs.items():
            sign = merge_sign(ma, mb)
            if sign == 0:
                continue
            mask = ma | mb
            term = pa * pb if sign > 0 else pa * pb * -1
            s = out.get(mask)
            s = term if s is None else s + term
            if s.is_zero():
                out.pop(mask, None)
            else:
                out[mask] = s
    return type(a)(a.vars, grade, out)


def shuffle_signature(first: Sequence[int], second: Sequence[int]) -> int:
    """Signature of the permutation (first..., second...) of 0..n-1.

    Both parts may come in any order; repeated indices give zero.
    """
    seq = list(first) + list(second)
    seen = set()
    for s in seq:
        if s in seen:
            return 0
        seen.add(s)
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv & 1 else 1


def bivector(ps: PoissonStructure) -> PolyMultivector:
    """The bracket's bivector from the library's mask dict."""
    return PolyMultivector(ps.vars, 2, ps.as_bivector())


def bracket_by_entries(ps: PoissonStructure, f: PolyExpr, g: PolyExpr) -> PolyExpr:
    """{f, g} = sum_{i<j} p_ij (df/dx_i dg/dx_j - df/dx_j dg/dx_i), one
    entry at a time."""
    f = f.with_vars(ps.vars)
    g = g.with_vars(ps.vars)
    f.require_polynomial_grade("bracket argument")
    g.require_polynomial_grade("bracket argument")
    df = [f.diff(v) for v in ps.vars]
    dg = [g.diff(v) for v in ps.vars]
    total = PolyExpr.zero(ps.vars)
    for (i, j), p in ps.entries_upper():
        if p.is_zero():
            continue
        total = total + p * (df[i] * dg[j] - df[j] * dg[i])
    return total


def one_form(variables, coeffs: Sequence[PolyExpr]) -> PolyForm:
    """Build sum_i coeffs[i] dx_i."""
    return PolyForm(variables, 1, {1 << i: c for i, c in enumerate(coeffs)})


def differential(p: PolyExpr) -> PolyForm:
    """The 1-form dp."""
    return one_form(p.vars, [p.diff(v) for v in p.vars])


def wedge_all(elements):
    it = iter(elements)
    acc = next(it)
    for e in it:
        acc = wedge(acc, e)
    return acc


def nambu_bracket_by_wedges(ns: NambuStructure, args: Sequence[PolyExpr]) -> PolyExpr:
    """multiplier * (df_1 ^ ... ^ df_r ^ dQ_1 ^ ... ^ dQ_m) / volume."""
    if len(args) != ns.arity:
        raise ArityError(f"bracket takes {ns.arity} arguments, got {len(args)}")
    args = [a.with_vars(ns.vars) for a in args]
    for a in args:
        a.require_polynomial_grade("bracket argument")
    forms = [differential(a) for a in args] + [differential(q) for q in ns.casimirs]
    top = wedge_all(forms)
    full = (1 << ns.n) - 1
    coeff = top.coeffs.get(full, PolyExpr.zero(ns.vars))
    return ns.multiplier * coeff


def nambu_is_casimir_by_cofactors(ns: NambuStructure, q: PolyExpr) -> bool:
    """True iff {x_c1, ..., x_c(r-1), q} = 0 for every coordinate tuple,
    each bracket a cofactor contraction with the one gradient of q: the
    Nambu Casimir test as the runner computed it before it became one
    Laplace step of dq on the Casimir minors."""
    q = q.with_vars(ns.vars)
    q.require_polynomial_grade("bracket argument")
    grad = _gradient(q)
    units = [_gradient(x) for x in PolyExpr.gens(ns.vars)]
    slot = ns.arity - 1
    for combo in combinations(range(ns.n), slot):
        minors = _stacked_minors([units[c] for c in combo], ns._casimir_minors)
        if not contract(_cofactor_row(ns, minors, slot), grad).is_zero():
            return False
    return True


def jacobian_structure_by_wedges(variables, casimirs: Sequence[PolyExpr],
                                 multiplier=1) -> PoissonStructure:
    """Poisson structure from n-2 Casimirs and a polynomial multiplier, its
    entries read off ``wedge_all`` of the Casimir differentials."""
    variables = tuple(variables)
    n = len(variables)
    casimirs = [q.with_vars(variables) for q in casimirs]
    if len(casimirs) != n - 2:
        raise ArityError(f"need exactly {n - 2} Casimirs in {n} variables, "
                         f"got {len(casimirs)}")
    if isinstance(multiplier, (int, Fraction)):
        multiplier = PolyExpr.const(variables, multiplier)
    multiplier = multiplier.with_vars(variables)
    multiplier.require_polynomial_grade("multiplier")
    for q in casimirs:
        q.require_polynomial_grade("Casimir")
    if casimirs:
        w = wedge_all([differential(q) for q in casimirs])
    else:
        w = None
    full = (1 << n) - 1
    zero = PolyExpr.zero(variables)
    matrix = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            comp = full & ~mask_of((i, j))
            if w is None:
                coeff = PolyExpr.const(variables, 1) if n == 2 else None
            else:
                coeff = w.coeffs.get(comp)
            if coeff is None:
                matrix[i][j] = zero
            else:
                sign = shuffle_signature((i, j), indices_of(comp))
                p = multiplier * coeff
                matrix[i][j] = p if sign > 0 else -p
            matrix[j][i] = -matrix[i][j]
    return PoissonStructure._trusted(variables, matrix)


# ---------------- theorem31 by wedge powers ----------------

def wedge_power(a, m: int):
    if m < 1:
        raise ArityError("wedge power needs m >= 1")
    acc = a
    for _ in range(m - 1):
        acc = wedge(acc, a)
    return acc


def volume_dual(element):
    """The coefficient on the complement T of S picks up the signature of
    the shuffle (S, T)."""
    n = element.n
    full = (1 << n) - 1
    target = PolyMultivector if isinstance(element, PolyForm) else PolyForm
    out = {}
    for mask, p in element.coeffs.items():
        comp = full & ~mask
        sign = shuffle_signature(indices_of(mask), indices_of(comp))
        out[comp] = p if sign > 0 else p * -1
    return target(element.vars, n - element.grade, out)


def duality_check_by_wedges(ps, casimirs) -> DualityReport:
    casimirs = [q.with_vars(ps.vars) for q in casimirs]
    if not casimirs:
        raise DomainError("need at least one Casimir")
    for q in casimirs:
        if not is_casimir(ps, q):
            raise DomainError(f"not a Casimir of the structure: {q}")
    n, l = ps.n, len(casimirs)
    if (n - l) % 2 != 0:
        raise ParityError(f"n - l = {n - l} is odd")
    m = (n - l) // 2

    wedge_side = wedge_power(bivector(ps), m) if m >= 1 else None
    if wedge_side is None:
        raise ParityError("rank-0 comparison is vacuous")
    dual_side = volume_dual(wedge_all([differential(q) for q in casimirs]))

    if dual_side.is_zero():
        raise DegenerateCasimirError(
            "dQ_1 ^ ... ^ dQ_l vanishes identically; Casimirs are dependent")

    zero = PolyExpr.zero(ps.vars)
    proportional = True
    lam: Optional = None
    for mask, d in dual_side.coeffs.items():
        w = wedge_side.coeffs.get(mask, zero)
        dm, dc = d.leading()
        cand = w.coefficient(dm) / dc
        if w != d * cand or (lam is not None and lam != cand):
            proportional = False
            break
        lam = cand
    if proportional and any(mask not in dual_side.coeffs for mask in wedge_side.coeffs):
        proportional = False

    residual = wedge_side - dual_side.scaled(lam) if proportional else wedge_side
    holds = proportional and lam != 0 and residual.is_zero()

    fact = math.factorial(m)
    return DualityReport(
        holds=holds,
        lam=lam if proportional else None,
        lam_coord=lam / fact if proportional else None,
        m=m,
        residual={indices_of(mask): p for mask, p in residual.coeffs.items()},
        # the wedge power's coefficients are m! times the Pfaffians
        pfaffians={mask: p / fact for mask, p in wedge_side.coeffs.items()},
        dual=dual_side.coeffs,
    )


# ---------------- the model DSL front end, token by token ----------------
#
# A verbatim copy of the DSL front end as it was before the one-scan
# scanner and the folded monomial terms: ``Token`` dataclasses, a
# ``_Stream`` of them, and a recursive descent that builds a ``PolyExpr``
# per factor and sums a term at a time.  ``tests/test_dsl_front_end.py``
# compares ``ppa.dsl`` with it, field by field and error by error.

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[;,{}()=^*+\-])
""", re.VERBOSE)

# Python refuses int strings past 4300 digits; below that, parsing stays fast.
MAX_LITERAL_CHARS = 4000
# Each level of parentheses takes five parser frames, far below Python's
# recursion limit at this depth.
MAX_NESTING = 50


@dataclass
class Token:
    kind: str      # float | number | ident | punct | eof
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos, line, line_start = 0, 1, 0       # only whitespace spans lines
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ModelSyntaxError("unexpected character", line,
                                   pos - line_start + 1, text[pos])
        kind = m.lastgroup
        if kind == "ws":
            newline = m.group().rfind("\n")
            if newline >= 0:
                line += m.group().count("\n")
                line_start = pos + newline + 1
        elif kind != "comment":
            chunk = m.group()
            col = pos - line_start + 1
            if kind in ("number", "float") and len(chunk) > MAX_LITERAL_CHARS:
                raise ModelSyntaxError(
                    f"numeric literal longer than {MAX_LITERAL_CHARS} characters",
                    line, col, chunk)
            tokens.append(Token(kind, chunk, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0          # open parentheses in the current expression

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, text: str) -> Optional[Token]:
        t = self.peek()
        if t.kind in ("punct", "ident") and t.text == text:
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        t = self.peek()
        if (t.kind in ("punct", "ident")) and t.text == text:
            return self.next()
        raise ModelSyntaxError(f"expected {text!r}", t.line, t.column, t.text)

    def expect_kind(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ModelSyntaxError(f"expected {kind}", t.line, t.column, t.text)
        return self.next()

    def error(self, msg: str):
        t = self.peek()
        raise ModelSyntaxError(msg, t.line, t.column, t.text)

    def number(self, integer: bool = False) -> Fraction:
        """The next token as an exact rational (an integer if asked)."""
        t = self.expect_kind("number")
        try:
            v = Fraction(t.text)
        except ZeroDivisionError:
            raise ModelSyntaxError("zero denominator", t.line, t.column, t.text) from None
        except ValueError:      # PYTHONINTMAXSTRDIGITS set below MAX_LITERAL_CHARS
            raise ModelSyntaxError("numeric literal too long", t.line, t.column,
                                   t.text) from None
        if integer and v.denominator != 1:
            raise ModelSyntaxError("expected an integer", t.line, t.column, t.text)
        return v

    def rational(self) -> Fraction:
        """RATIONAL: an optional '-', then INT or INT/INT."""
        neg = bool(self.accept("-"))
        v = self.number()
        return -v if neg else v


# ---------------- polynomial expressions ----------------

def parse_poly_expr(stream: _Stream, env: dict, variables) -> PolyExpr:
    """expr := term (('+'|'-') term)*"""
    acc = _parse_term(stream, env, variables)
    while True:
        if stream.accept("+"):
            acc = acc + _parse_term(stream, env, variables)
        elif stream.accept("-"):
            acc = acc - _parse_term(stream, env, variables)
        else:
            return acc


def _parse_term(stream, env, variables):
    factors = [_parse_unary(stream, env, variables)]
    while stream.accept("*"):
        factors.append(_parse_unary(stream, env, variables))
    return reduce(mul, factors)


def _parse_unary(stream, env, variables):
    sign = 1
    while True:
        if stream.accept("-"):
            sign = -sign
        elif stream.accept("+"):
            pass
        else:
            break
    p = _parse_power(stream, env, variables)
    return p if sign > 0 else -p


def _parse_power(stream, env, variables):
    base = _parse_atom(stream, env, variables)
    if stream.accept("^"):
        e = _parse_exponent(stream)
        return _poly_pow(base, e, stream)
    return base


def _parse_exponent(stream):
    paren = stream.accept("(")
    v = stream.rational()
    if paren:
        stream.expect(")")
    return v


def _poly_pow(base: PolyExpr, e: Fraction, stream) -> PolyExpr:
    if e.denominator == 1 and e >= 0:
        return base ** int(e)           # PolyExpr.__pow__ bounds e
    if max(abs(e.numerator), e.denominator) > MAX_EXPONENT:
        raise DomainError(f"exponent {e}: numerator and denominator must be at "
                          f"most MAX_EXPONENT = {MAX_EXPONENT}")
    if base.is_monomial():
        (mono, coef), = base.terms.items()
        # an integral power of a negative coefficient stays rational
        ce = int(e) if e.denominator == 1 else e
        return PolyExpr(base.vars, {tuple(Fraction(x) * e for x in mono):
                                    _rational_pow(coef, ce)})
    stream.error("fractional or negative powers apply only to monomials")


def _parse_atom(stream, env, variables):
    t = stream.peek()
    if t.kind == "number":
        return PolyExpr.const(variables, stream.number())
    if t.kind == "ident":
        stream.next()
        if t.text not in env:
            raise ModelSyntaxError("unknown identifier", t.line, t.column, t.text)
        return env[t.text]
    if stream.accept("("):
        if stream.depth == MAX_NESTING:
            raise ModelSyntaxError(f"parentheses nested deeper than {MAX_NESTING}",
                                   t.line, t.column, t.text)
        stream.depth += 1
        p = parse_poly_expr(stream, env, variables)
        stream.expect(")")
        stream.depth -= 1
        return p
    stream.error("expected a polynomial atom")


def parse_polynomial(text: str, variables, extra_env: dict | None = None) -> PolyExpr:
    """Standalone expression parser over a fixed variable tuple."""
    variables = tuple(variables)
    env = {v: PolyExpr.var(v, variables) for v in variables}
    for k, v in (extra_env or {}).items():
        env[k] = v if isinstance(v, PolyExpr) else PolyExpr.const(variables, v)
    stream = _Stream(tokenize(text))
    p = parse_poly_expr(stream, env, variables)
    t = stream.peek()
    if t.kind != "eof":
        raise ModelSyntaxError("trailing input after expression",
                               t.line, t.column, t.text)
    return p


def parse_rational(text: str) -> Fraction:
    """Exactly one RATIONAL literal, as a ``param`` statement reads it."""
    stream = _Stream(tokenize(text))
    v = stream.rational()
    if stream.peek().kind != "eof":
        stream.error("trailing input after a rational literal")
    return v



def parse_model(text: str, name: str = "model") -> ModelSpec:
    stream = _Stream(tokenize(text))
    spec = ModelSpec(name=name)
    env: dict[str, PolyExpr] = {}
    structure_seen = False
    pins = {}                       # expect key -> its statement token

    t = stream.peek()
    if t.kind == "eof":
        raise ModelSyntaxError("empty model", t.line, t.column)

    while stream.peek().kind != "eof":
        t = stream.expect_kind("ident")
        stmt = t.text
        if stmt == "vars":
            if spec.vars:
                raise ModelSyntaxError("vars declared twice", t.line, t.column)
            names = []
            while stream.peek().kind == "ident":
                names.append(stream.next().text)
            if not names:
                stream.error("vars needs at least one name")
            spec.vars = tuple(names)
            env.update({v: PolyExpr.var(v, spec.vars) for v in spec.vars})
            stream.expect(";")
        elif stmt == "weights":
            ws = []
            while stream.peek().kind == "number":
                ws.append(int(stream.number(integer=True)))
            if not ws:
                stream.error("weights needs integers")
            spec.weights = tuple(ws)
            stream.expect(";")
        elif stmt == "param":
            pname = stream.expect_kind("ident").text
            stream.expect("=")
            spec.params[pname] = stream.rational()
            env[pname] = PolyExpr.const(spec.vars, spec.params[pname])
            stream.expect(";")
        elif stmt in ("let", "casimir"):
            pname = stream.expect_kind("ident").text
            if pname in env:
                raise ModelSyntaxError(f"name {pname!r} already defined",
                                       t.line, t.column)
            stream.expect("=")
            p = parse_poly_expr(stream, env, spec.vars)
            stream.expect(";")
            env[pname] = p
            (spec.casimirs if stmt == "casimir" else spec.lets).append((pname, p))
        elif stmt == "structure":
            if structure_seen:
                raise ModelSyntaxError("structure declared twice", t.line, t.column)
            structure_seen = True
            kind = stream.expect_kind("ident").text
            if kind == "jacobian":
                spec.structure_kind = "jacobian"
                if stream.accept("lambda"):
                    spec.multiplier = parse_poly_expr(stream, env, spec.vars)
            elif kind == "table":
                spec.structure_kind = "table"
                stream.expect("{")
                while not stream.accept("}"):
                    stream.expect("{")
                    a = stream.expect_kind("ident").text
                    stream.expect(",")
                    b = stream.expect_kind("ident").text
                    stream.expect("}")
                    stream.expect("=")
                    p = parse_poly_expr(stream, env, spec.vars)
                    stream.expect(";")
                    if a not in spec.vars or b not in spec.vars:
                        stream.error(f"table pair ({a},{b}) uses unknown variables")
                    i, j = spec.vars.index(a), spec.vars.index(b)
                    if i == j:
                        stream.error("diagonal table entry")
                    key = (i, j) if i < j else (j, i)
                    if key in spec.table:
                        stream.error(f"duplicate table entry for ({a},{b})")
                    spec.table[key] = p if i < j else -p
            elif kind == "nambu":
                spec.structure_kind = "nambu"
                spec.nambu_arity = int(stream.number(integer=True))
                if stream.accept("lambda"):
                    spec.multiplier = parse_poly_expr(stream, env, spec.vars)
            else:
                stream.error("structure must be jacobian, table, or nambu")
            stream.expect(";")
        elif stmt == "hamiltonian":
            spec.hamiltonians.append(parse_poly_expr(stream, env, spec.vars))
            while stream.accept(","):
                spec.hamiltonians.append(parse_poly_expr(stream, env, spec.vars))
            stream.expect(";")
        elif stmt == "check":
            spec.checks.append(_parse_checkname(stream))
            while stream.accept(","):
                spec.checks.append(_parse_checkname(stream))
            stream.expect(";")
        elif stmt == "expect":
            cname, carg = _parse_checkname(stream)
            stream.expect("=")
            lit = stream.peek()
            value = _parse_literal(stream)
            if _projection(cname, value) is None:
                kinds = "/".join(CHECKS[cname].expect)
                raise ModelSyntaxError(f"expect {cname} takes {kinds} literals",
                                       lit.line, lit.column, lit.text)
            key = _key(cname, carg)
            spec.expects[key] = value
            pins[key] = t
            stream.expect(";")
        elif stmt == "integrate":
            stream.expect("from")
            stream.expect("(")
            x0 = [_parse_float(stream)]
            while stream.accept(","):
                x0.append(_parse_float(stream))
            stream.expect(")")
            stream.expect("step")
            step = _parse_float(stream)
            stream.expect("until")
            t_end = _parse_float(stream)
            monitors = []
            if stream.accept("monitor"):
                while stream.peek().kind == "ident":
                    monitors.append(stream.next().text)
            stream.expect(";")
            spec.integrate = IntegrateRequest(tuple(x0), step, t_end,
                                              tuple(monitors))
        else:
            raise ModelSyntaxError("unknown statement", t.line, t.column, stmt)

    if not spec.vars:
        raise ModelSyntaxError("model declares no variables", 1, 1)
    if not structure_seen:
        raise ModelSyntaxError("model declares no structure", 1, 1)
    requested = {_key(*c) for c in spec.checks}
    for key, t in pins.items():
        if key not in requested:
            raise ModelSyntaxError(f"expect {key} pins a check no check "
                                   "statement requests", t.line, t.column, key)
    if spec.integrate:
        for mname in spec.integrate.monitors:
            if spec.named_poly(mname) is None:
                raise ModelSyntaxError(f"unknown monitor {mname!r}", 1, 1)
        if len(spec.integrate.x0) != len(spec.vars):
            raise ModelSyntaxError("integrate point dimension mismatch", 1, 1)
    return spec


def _parse_checkname(stream):
    t = stream.expect_kind("ident")
    name = t.text
    if name not in CHECKS:
        raise ModelSyntaxError("unknown check", t.line, t.column, name)
    kind = CHECKS[name].arg
    if kind is None:
        return (name, None)
    stream.expect("(")
    if kind == "ident":
        arg = stream.expect_kind("ident").text
    else:
        a = stream.expect_kind("number")
        if not (a.text.isdigit() and int(a.text) <= FI_MAX):
            raise ModelSyntaxError(f"{name} takes an integer from 0 to {FI_MAX}",
                                   a.line, a.column, a.text)
        arg = int(a.text)
    stream.expect(")")
    return (name, arg)


def _parse_literal(stream):
    t = stream.peek()
    if t.kind == "ident" and t.text in ("true", "false"):
        stream.next()
        return t.text == "true"
    neg = bool(stream.accept("-"))
    if stream.peek().kind == "number":
        v = stream.number()
        v = -v if neg else v
        return int(v) if v.denominator == 1 else v
    stream.error("expected true, false, or a rational literal")


def _parse_float(stream):
    neg = bool(stream.accept("-"))
    t = stream.peek()
    if t.kind == "float":
        v = float(stream.next().text)
    elif t.kind == "number":
        try:
            v = float(stream.number())
        except OverflowError:
            raise ModelSyntaxError("numeric literal out of float range",
                                   t.line, t.column, t.text) from None
    else:
        stream.error("expected a numeric literal")
    return -v if neg else v


def parse_map_file(text: str, old_vars) -> MonomialMap:
    """``map IDENT = scaled-monomial ;`` lines over the old variables."""
    stream = _Stream(tokenize(text))
    env = {v: PolyExpr.var(v, tuple(old_vars)) for v in old_vars}
    assignments = []
    while stream.peek().kind != "eof":
        stream.expect("map")
        name = stream.expect_kind("ident").text
        stream.expect("=")
        p = parse_poly_expr(stream, env, tuple(old_vars))
        stream.expect(";")
        assignments.append((name, p))
    if not assignments:
        raise ModelSyntaxError("empty map file", 1, 1)
    return MonomialMap.from_monomials(tuple(old_vars), assignments)


# ---------------- chart comparison by substitution ----------------
#
# A verbatim copy of ``chart_compare`` as it was before z = -rest / a was
# kept on an integer exponent lattice: ``PolyExpr.subs_var`` per entry, a
# leading-term constant ratio and a monomial product that clears
# denominators.  ``tests/test_chart_lattice.py`` compares ``ppa.geometry``
# with it, result by result and error by error.

def chart_compare(ps_a: PoissonStructure, ps_b: PoissonStructure,
                  eliminator: PolyExpr) -> ChartComparison:
    """Compare two derivations of one bracket across charts.

    ``ps_b`` lives in the variables of ``ps_a`` plus one extra variable z;
    ``eliminator`` must be linear in z with a single-monomial z-coefficient,
    so z solves to a Laurent monomial expression.  The first nonzero entry
    pair fixes one global constant; every remaining pair is compared against
    that constant, with denominators cleared through the z-coefficient.
    """
    extra = [v for v in ps_b.vars if v not in ps_a.vars]
    if len(extra) != 1:
        raise DomainError("second structure must add exactly one variable")
    z = extra[0]
    elim = eliminator.with_vars(ps_b.vars)
    zi = ps_b.vars.index(z)

    if any(m[zi] not in (0, 1) for m in elim.terms) or \
            all(m[zi] == 0 for m in elim.terms):
        raise DomainError(f"eliminator must have degree exactly 1 in {z}")
    rest = PolyExpr(ps_b.vars, {m: c for m, c in elim.terms.items() if m[zi] == 0})
    acoef = PolyExpr(ps_b.vars,
                     {tuple(e if t != zi else 0 for t, e in enumerate(m)): c
                      for m, c in elim.terms.items() if m[zi] == 1})
    if not acoef.is_monomial():
        raise DomainError("z-coefficient of the eliminator must be one monomial")

    # z = -rest / acoef as a Laurent polynomial
    (am, ac), = acoef.terms.items()
    ainv = PolyExpr(ps_b.vars, {tuple(-e for e in am): Fraction(1) / ac})
    z_value = -rest * ainv

    order = [ps_b.vars.index(v) for v in ps_a.vars]
    residuals = {}
    constant: Optional[Fraction] = None
    anchored = False
    agree = True
    for ai, aj in combinations(range(ps_a.n), 2):
        b_entry = ps_b.matrix[order[ai]][order[aj]].subs_var(z, z_value)
        b_entry = _drop_unused(b_entry, z).with_vars(ps_a.vars)
        a_entry = ps_a.matrix[ai][aj]
        if not anchored and not a_entry.is_zero() and not b_entry.is_zero():
            anchored = True
            constant = _constant_ratio(b_entry, a_entry)
        c = constant if constant is not None else Fraction(1)
        resid = _clear_denominators(b_entry - a_entry * c)
        if not resid.is_zero():
            agree = False
            residuals[(ai, aj)] = resid
    return ChartComparison(agree=agree, constant=constant,
                           residuals=residuals, eliminated_var=z)


def _drop_unused(p: PolyExpr, var: str) -> PolyExpr:
    keep = tuple(v for v in p.vars if v != var)
    return p.with_vars(keep)


def _constant_ratio(num: PolyExpr, den: PolyExpr) -> Optional[Fraction]:
    """c with num = c*den, when such a rational constant exists."""
    dm, dc = den.leading()
    c = num.coefficient(dm) / dc
    if num == den * c:
        return c
    return None


def _clear_denominators(p: PolyExpr) -> PolyExpr:
    """Multiply by the minimal monomial making all exponents nonnegative."""
    if p.is_zero() or p.is_polynomial_grade():
        return p
    n = len(p.vars)
    shift = [0] * n
    for m in p.terms:
        for i, e in enumerate(m):
            if e < 0:
                shift[i] = max(shift[i], -e if isinstance(e, int) else 0)
        for i, e in enumerate(m):
            if not isinstance(e, int):
                raise PolynomialGradeError(
                    "fractional exponents cannot be cleared by a monomial")
    mono = PolyExpr(p.vars, {tuple(shift): Fraction(1)})
    return p * mono


# ---------------- the recursive Pfaffian ----------------

def pfaffian(matrix, subset: Sequence[int]) -> PolyExpr:
    """Pfaffian of the antisymmetric principal block on an ordered index tuple.

    ``matrix[i][j]`` entries are PolyExpr; the tuple order matters (an odd
    reordering flips the sign).  Computed by expansion along the first row.
    """
    subset = tuple(subset)
    if len(subset) % 2 != 0:
        raise ArityError("pfaffian needs an even-size index set")
    if len(subset) > MAX_DIM:
        raise ArityError(f"pfaffian block larger than {MAX_DIM}")
    if not subset:
        some = matrix[0][0]
        return PolyExpr.const(some.vars, 1)

    def rec(order: tuple[int, ...]) -> PolyExpr:
        if not order:
            return None
        if len(order) == 2:
            return matrix[order[0]][order[1]]
        first = order[0]
        total = None
        for pos in range(1, len(order)):
            entry = matrix[first][order[pos]]
            if entry.is_zero():
                continue
            rest = order[1:pos] + order[pos + 1:]
            sub = rec(rest)
            term = entry * sub
            if pos % 2 == 0:
                term = term * -1
            total = term if total is None else total + term
        if total is None:
            total = PolyExpr.zero(matrix[subset[0]][subset[1]].vars)
        return total

    return rec(subset)


# ---------------- retired bracket paths ----------------

def contract(row, grad) -> PolyExpr:
    """sum_j row_j grad_j as one fused sum (zero-tested or differentiated)."""
    return _sum_of_products(grad[0].vars, zip(row, grad))


def bracket_of(ps: PoissonStructure, f: PolyExpr, g: PolyExpr) -> PolyExpr:
    """{f, g} = sum_k {f, x_k} dg/dx_k, the Hamiltonian rows of f contracted
    with the gradient of g as one fused sum."""
    f = f.with_vars(ps.vars)
    g = g.with_vars(ps.vars)
    f.require_polynomial_grade("bracket argument")
    g.require_polynomial_grade("bracket argument")
    df = _gradient(f)
    return contract([_hamiltonian_row(ps, df, k) for k in range(ps.n)], _gradient(g))


def fundamental_identity_by_cofactor_rows(ns: NambuStructure,
                                          args: Sequence[PolyExpr]) -> PolyExpr:
    """The residual of ``check_fundamental_identity``, each bracket a
    cofactor contraction sum_j W_j d_j g in the slot of g: the head's row
    serves the r inner brackets and the right side, one row per tail slot
    (from suffix tables of the tail minors) serves the outer brackets, and
    the residual is one fused sum of products.  It reads the structure's
    Casimir minors as given, so it holds for any table put there."""
    r = ns.arity
    grads = [_gradient(a.with_vars(ns.vars)) for a in args]
    g_head, g_tail = grads[:r - 1], grads[r - 1:]
    head = _cofactor_row(ns, _stacked_minors(g_head, ns._casimir_minors), r - 1)
    # after[pos]: the minors of the tail gradients after slot pos stacked
    # on the Casimir gradients, shared by the rows of the slots up to pos
    after = [ns._casimir_minors]
    for g in reversed(g_tail[1:]):
        after.append(_stack_row(g, after[-1]))
    after.reverse()
    pairs = []
    for pos, g in enumerate(g_tail):
        row = _cofactor_row(ns, _stacked_minors(g_tail[:pos], after[pos]), pos)
        # {f_r, ..., {f_1, ..., f_{r-1}, f_i}, ..., f_{2r-1}}
        pairs += zip(row, _gradient(contract(head, g)))
        if pos == 0:
            tail_bracket = contract(row, g)
    # minus {f_1, ..., f_{r-1}, {f_r, ..., f_{2r-1}}}
    pairs += ((w, d, -1) for w, d in zip(head, _gradient(tail_bracket)))
    return _sum_of_products(ns.vars, pairs)


def fi_tuples_by_sums(variables, arity: int, count: int, seed: int) -> list:
    """``runner._fi_tuples``: the coordinate tuple, then ``count`` seeded
    tuples, each argument a chain of two ``PolyExpr`` additions."""
    gens = PolyExpr.gens(variables)
    n = len(gens)
    tuples = [[gens[i % n] for i in range(2 * arity - 1)]]
    rng = random.Random(1000003 * seed + 17)
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    for _ in range(count):
        args = []
        for _ in range(2 * arity - 1):
            p = PolyExpr.zero(variables)
            for _ in range(2):
                mono = [0] * n
                for _ in range(rng.randint(1, 2)):
                    mono[rng.randrange(n)] += 1
                p = p + PolyExpr(variables, {tuple(mono): rng.choice(coeffs)})
            args.append(p)
        tuples.append(args)
    return tuples
