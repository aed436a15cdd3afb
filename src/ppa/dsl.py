"""Model DSL: scanner, recursive-descent parser, and canonical emission.

A model file declares variables, optional weights, rational parameters,
named polynomials, exactly one structure, optional Hamiltonians, requested
checks with optional expected outcomes, and an optional integration request.
Canonical emission inlines every parameter and renders polynomials in the
canonical term order, so emit -> parse -> emit is byte-stable.

The scanner is one pass of one regular expression that skips whitespace and
comments; a token is a plain ``(kind, text, offset)`` tuple, and a line and
column are computed from the offset only when an error is raised.  A term
whose factors are all monomial (a rational literal or a name bound to one
packed term, each with optional signs and a nonnegative integer power) is
folded as it is read into one packed key over one numerator and one
denominator; any other term multiplies ``PolyExpr`` factors.  An expression
adds all its terms in one pass over one common denominator
(``poly._sum``).  Values, term order and errors are those of building and
adding one ``PolyExpr`` per factor, left to right.

Hostile input stays bounded: a numeric literal is at most
``MAX_LITERAL_CHARS`` characters, parentheses nest at most ``MAX_NESTING``
deep, and a power's exponent, as a reduced fraction, has numerator and
denominator at most ``poly.MAX_EXPONENT``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul
from typing import Optional

from .errors import ArityError, DomainError, ModelSyntaxError
from .poly import (_LAYOUTS, MAX_EXPONENT, MonomialMap, PolyExpr, _over_limit,
                   _rational_pow, _reduced, _require_power_bits, _require_work, _sum)
from .runner import CHECKS, FI_MAX, _key, _literal_text, _projection
from .structures import NambuStructure, PoissonStructure, jacobian_structure

# Whitespace and comments are skipped in front of every token.  Each
# position ends in exactly one group: a token, the end of the text, or an
# unexpected character, which takes the rest of the text with it (so it is
# the last token) and is refused by ``tokenize``.  The token groups start
# with distinct characters, except that a float is tried before an integer.
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:(?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      |(?P<punct>[;,{}()=^*+\-])
      |(?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
      |(?P<number>\d+(?:/\d+)?)
      |(?P<eof>\Z)
      |(?P<bad>.)(?s:.*))
""", re.VERBOSE)

# Python refuses int strings past 4300 digits; below that, parsing stays fast.
MAX_LITERAL_CHARS = 4000
# Each level of parentheses takes five parser frames, far below Python's
# recursion limit at this depth.
MAX_NESTING = 50


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list[tuple]:
    """``(kind, text, offset)`` tuples, kind one of float, number, ident,
    punct and eof; the list ends in one eof token."""
    tokens = [(k := m.lastgroup, m[k], m.start(k)) for m in _TOKEN_RE.finditer(text)]
    if len(tokens) > 1 and tokens[-2][0] == "eof":
        tokens.pop()        # the end after trailing whitespace matches twice
    if len(text) > MAX_LITERAL_CHARS:
        for kind, chunk, offset in tokens:
            if kind in ("number", "float") and len(chunk) > MAX_LITERAL_CHARS:
                raise ModelSyntaxError(
                    f"numeric literal longer than {MAX_LITERAL_CHARS} characters",
                    *_position(text, offset), chunk)
    if len(tokens) > 1 and tokens[-2][0] == "bad":
        raise ModelSyntaxError("unexpected character",
                               *_position(text, tokens[-2][2]), tokens[-2][1])
    return tokens


class _Stream:
    """The tokens of ``text`` and a cursor over them.  ``accept`` and
    ``expect`` compare texts only: every text they are asked for is punctuation
    or a name, which no number and no eof token can spell."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0          # open parentheses in the current expression

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def next(self) -> tuple:
        t = self.tokens[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def accept(self, text: str) -> Optional[tuple]:
        t = self.tokens[self.i]
        if t[1] == text:
            self.i += 1
            return t
        return None

    def expect(self, text: str) -> tuple:
        t = self.tokens[self.i]
        if t[1] == text:
            self.i += 1
            return t
        raise self.error_at(t, f"expected {text!r}", t[1])

    def expect_kind(self, kind: str) -> tuple:
        t = self.tokens[self.i]
        if t[0] != kind:
            raise self.error_at(t, f"expected {kind}", t[1])
        return self.next()

    def error_at(self, t: tuple, msg: str, token=None) -> ModelSyntaxError:
        return ModelSyntaxError(msg, *_position(self.text, t[2]), token)

    def error(self, msg: str):
        t = self.tokens[self.i]
        raise self.error_at(t, msg, t[1])

    def number(self, integer: bool = False) -> Fraction:
        """The next token as an exact rational (an integer if asked)."""
        t = self.expect_kind("number")
        try:
            v = Fraction(t[1])
        except ZeroDivisionError:
            raise self.error_at(t, "zero denominator", t[1]) from None
        except ValueError:      # PYTHONINTMAXSTRDIGITS set below MAX_LITERAL_CHARS
            raise self.error_at(t, "numeric literal too long", t[1]) from None
        if integer and v.denominator != 1:
            raise self.error_at(t, "expected an integer", t[1])
        return v

    def rational(self) -> Fraction:
        """RATIONAL: an optional '-', then INT or INT/INT."""
        neg = bool(self.accept("-"))
        v = self.number()
        return -v if neg else v


# ---------------- polynomial expressions ----------------

def parse_poly_expr(stream: _Stream, env: dict, variables) -> PolyExpr:
    """expr := term (('+'|'-') term)*, added in one pass.  Only a step
    that adds a Laurent/Puiseux term, or a term over another variable set,
    can raise; such a step is taken as soon as its term is read, as it was
    when the terms were added one at a time."""
    items = [(_parse_term(stream, env, variables), 1)]
    tokens = stream.tokens
    while True:
        op = tokens[stream.i][1]
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        else:
            return _added(variables, items)
        stream.i += 1
        p = _parse_term(stream, env, variables)
        items.append((p, sign))
        if not p._grade or p.vars != variables or items[0][0].vars != variables:
            items = [(_added(variables, items), 1)]


def _added(variables, items) -> PolyExpr:
    """The sum of the (term, sign) ``items``, the first sign +1: one
    ``poly._sum`` over ``variables``, or, when a term is over another
    variable set, one ``+`` or ``-`` at a time, so constants adapt to the
    other side as those operators adapt them."""
    if len(items) == 1:
        return items[0][0]
    if all(p.vars == variables for p, _ in items):
        return _sum(variables, items)
    acc = items[0][0]
    for p, sign in items[1:]:
        acc = acc + p if sign > 0 else acc - p
    return acc


def _parse_term(stream, env, variables):
    """term := factor ('*' factor)*"""
    start = stream.i
    folded = _fold_monomials(stream, env, variables)
    if folded is not None:
        return folded
    stream.i = start
    factors = [_parse_unary(stream, env, variables)]
    while stream.accept("*"):
        factors.append(_parse_unary(stream, env, variables))
    return reduce(mul, factors)


def _fold_monomials(stream, env, variables):
    """The term at the cursor when every factor is monomial, read into one
    packed key, numerator and denominator; None when a factor is not (the
    cursor is then left inside the term).  A factor is a rational literal or a name bound
    to one packed term over ``variables``, with optional signs and a
    nonnegative integer power.  As in a product of ``PolyExpr`` factors,
    each coefficient product is held to the work budget, a zero factor ends
    that budget and the exponent tests, and the field top bits are tested
    after each factor, so no exponent past MAX_EXPONENT carries into the
    next field; that error is raised once the term is read."""
    tokens = stream.tokens
    i = stream.i
    key, num, den = 0, 1, 1
    guard = _LAYOUTS[len(variables)][1]
    overflow = False
    while True:
        kind, text, _ = tokens[i]
        while text == "-" or text == "+":
            if text == "-":
                num = -num
            i += 1
            kind, text, _ = tokens[i]
        if kind == "number":
            stream.i = i
            k = 0
            c, d = _literal(stream, text)
        elif kind == "ident":
            p = env.get(text)
            if p is None:
                raise stream.error_at(tokens[i], "unknown identifier", text)
            if len(p._num) != 1 or not p._grade or p.vars != variables:
                return None
            (k, c), = p._num.items()
            d = p._den
        elif text == "(":
            return None
        else:
            stream.i = i
            stream.error("expected a polynomial atom")
        i += 1
        if tokens[i][1] == "^":
            i += 1
            stream.i = i
            if tokens[i][0] == "number":        # a bare INT or INT/INT
                n, e = _literal(stream, tokens[i][1])
                i += 1
            else:
                n, e = _parse_exponent(stream).as_integer_ratio()
                i = stream.i
            if e != 1 or n < 0:
                return None
            # the checks and the value of PolyExpr.__pow__ on one term
            if n > MAX_EXPONENT:
                raise _over_limit(f"power {n}")
            if n > 1 and k:
                top = max(_LAYOUTS[len(variables)][0].unpack(
                    k.to_bytes(2 * len(variables), "big")))
                if n * top > MAX_EXPONENT:
                    raise _over_limit(f"exponent {n * top} of the power")
            if n > 1:
                _require_power_bits(c, d, n)
            k, c, d = k * n, c ** n, d ** n
        if num and not overflow:
            _require_work(1, max(abs(num), den).bit_length(), 1, max(abs(c), d).bit_length())
            num *= c
            den *= d
            key += k
            overflow = bool(num and key & guard)
        if tokens[i][1] != "*":
            break
        i += 1
    stream.i = i
    if overflow:
        raise _over_limit("an exponent of the product")
    if not num:
        return PolyExpr.zero(variables)
    return _reduced(variables, {key: num}, den, True)


def _literal(stream, text):
    """(numerator, denominator) of the number token ``text`` at the cursor,
    reduced; a refused literal raises ``_Stream.number``'s error."""
    a, _, b = text.partition("/")
    try:
        a, b = int(a), int(b or 1)
    except ValueError:
        stream.number()
    if not b:
        stream.number()
    g = gcd(a, b)
    return a // g, b // g


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
    if t[0] == "number":
        return PolyExpr.const(variables, stream.number())
    if t[0] == "ident":
        stream.next()
        if t[1] not in env:
            raise stream.error_at(t, "unknown identifier", t[1])
        return env[t[1]]
    if stream.accept("("):
        if stream.depth == MAX_NESTING:
            raise stream.error_at(t, f"parentheses nested deeper than {MAX_NESTING}",
                                  t[1])
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
    stream = _Stream(text)
    p = parse_poly_expr(stream, env, variables)
    t = stream.peek()
    if t[0] != "eof":
        raise stream.error_at(t, "trailing input after expression", t[1])
    return p


def parse_rational(text: str) -> Fraction:
    """Exactly one RATIONAL literal, as a ``param`` statement reads it."""
    stream = _Stream(text)
    v = stream.rational()
    if stream.peek()[0] != "eof":
        stream.error("trailing input after a rational literal")
    return v


# ---------------- model files ----------------

@dataclass
class IntegrateRequest:
    x0: tuple
    step: float
    t_end: float
    monitors: tuple  # names among casimirs/vars


@dataclass
class ModelSpec:
    name: str = "model"
    vars: tuple = ()
    weights: Optional[tuple] = None
    params: dict = field(default_factory=dict)
    lets: list = field(default_factory=list)        # [(name, PolyExpr)]
    casimirs: list = field(default_factory=list)    # [(name, PolyExpr)]
    structure_kind: Optional[str] = None            # jacobian | table | nambu
    table: dict = field(default_factory=dict)       # {(i, j): PolyExpr}, i < j
    nambu_arity: Optional[int] = None
    multiplier: Optional[PolyExpr] = None
    hamiltonians: list = field(default_factory=list)
    checks: list = field(default_factory=list)      # [(name, arg)]
    expects: dict = field(default_factory=dict)
    integrate: Optional[IntegrateRequest] = None

    def casimir_polys(self):
        return [p for _, p in self.casimirs]

    def named_poly(self, name: str) -> Optional[PolyExpr]:
        for n, p in self.casimirs + self.lets:
            if n == name:
                return p
        if name in self.vars:
            return PolyExpr.var(name, self.vars)
        return None

    def build_structure(self):
        if self.structure_kind == "table":
            return PoissonStructure.from_table(self.vars, self.table,
                                               self.casimir_polys())
        if self.structure_kind == "jacobian":
            mult = self.multiplier if self.multiplier is not None \
                else PolyExpr.const(self.vars, 1)
            return jacobian_structure(self.vars, self.casimir_polys(), mult)
        if self.structure_kind == "nambu":
            m = len(self.vars) - self.nambu_arity
            if len(self.casimirs) != m:
                raise ArityError(
                    f"arity {self.nambu_arity} in {len(self.vars)} variables "
                    f"needs {m} Casimirs, got {len(self.casimirs)}")
            mult = self.multiplier if self.multiplier is not None \
                else PolyExpr.const(self.vars, 1)
            return NambuStructure(self.vars, self.casimir_polys(), mult)
        raise ArityError("no structure declared")


def parse_model(text: str, name: str = "model") -> ModelSpec:
    stream = _Stream(text)
    spec = ModelSpec(name=name)
    env: dict[str, PolyExpr] = {}
    structure_seen = False
    pins = {}                       # expect key -> its statement token

    t = stream.peek()
    if t[0] == "eof":
        raise stream.error_at(t, "empty model")

    while stream.peek()[0] != "eof":
        t = stream.expect_kind("ident")
        stmt = t[1]
        if stmt == "vars":
            if spec.vars:
                raise stream.error_at(t, "vars declared twice")
            names = []
            while stream.peek()[0] == "ident":
                names.append(stream.next()[1])
            if not names:
                stream.error("vars needs at least one name")
            spec.vars = tuple(names)
            env.update({v: PolyExpr.var(v, spec.vars) for v in spec.vars})
            stream.expect(";")
        elif stmt == "weights":
            ws = []
            while stream.peek()[0] == "number":
                ws.append(int(stream.number(integer=True)))
            if not ws:
                stream.error("weights needs integers")
            spec.weights = tuple(ws)
            stream.expect(";")
        elif stmt == "param":
            pname = stream.expect_kind("ident")[1]
            stream.expect("=")
            spec.params[pname] = stream.rational()
            env[pname] = PolyExpr.const(spec.vars, spec.params[pname])
            stream.expect(";")
        elif stmt in ("let", "casimir"):
            pname = stream.expect_kind("ident")[1]
            if pname in env:
                raise stream.error_at(t, f"name {pname!r} already defined")
            stream.expect("=")
            p = parse_poly_expr(stream, env, spec.vars)
            stream.expect(";")
            env[pname] = p
            (spec.casimirs if stmt == "casimir" else spec.lets).append((pname, p))
        elif stmt == "structure":
            if structure_seen:
                raise stream.error_at(t, "structure declared twice")
            structure_seen = True
            kind = stream.expect_kind("ident")[1]
            if kind == "jacobian":
                spec.structure_kind = "jacobian"
                if stream.accept("lambda"):
                    spec.multiplier = parse_poly_expr(stream, env, spec.vars)
            elif kind == "table":
                spec.structure_kind = "table"
                stream.expect("{")
                while not stream.accept("}"):
                    stream.expect("{")
                    a = stream.expect_kind("ident")[1]
                    stream.expect(",")
                    b = stream.expect_kind("ident")[1]
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
                raise stream.error_at(lit, f"expect {cname} takes {kinds} literals",
                                      lit[1])
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
                while stream.peek()[0] == "ident":
                    monitors.append(stream.next()[1])
            stream.expect(";")
            spec.integrate = IntegrateRequest(tuple(x0), step, t_end,
                                              tuple(monitors))
        else:
            raise stream.error_at(t, "unknown statement", stmt)

    if not spec.vars:
        raise ModelSyntaxError("model declares no variables", 1, 1)
    if not structure_seen:
        raise ModelSyntaxError("model declares no structure", 1, 1)
    requested = {_key(*c) for c in spec.checks}
    for key, t in pins.items():
        if key not in requested:
            raise stream.error_at(t, f"expect {key} pins a check no check "
                                  "statement requests", key)
    if spec.integrate:
        for mname in spec.integrate.monitors:
            if spec.named_poly(mname) is None:
                raise ModelSyntaxError(f"unknown monitor {mname!r}", 1, 1)
        if len(spec.integrate.x0) != len(spec.vars):
            raise ModelSyntaxError("integrate point dimension mismatch", 1, 1)
    return spec


def _parse_checkname(stream):
    t = stream.expect_kind("ident")
    name = t[1]
    if name not in CHECKS:
        raise stream.error_at(t, "unknown check", name)
    kind = CHECKS[name].arg
    if kind is None:
        return (name, None)
    stream.expect("(")
    if kind == "ident":
        arg = stream.expect_kind("ident")[1]
    else:
        a = stream.expect_kind("number")
        if not (a[1].isdigit() and int(a[1]) <= FI_MAX):
            raise stream.error_at(a, f"{name} takes an integer from 0 to {FI_MAX}",
                                  a[1])
        arg = int(a[1])
    stream.expect(")")
    return (name, arg)


def _parse_literal(stream):
    t = stream.peek()
    if t[0] == "ident" and t[1] in ("true", "false"):
        stream.next()
        return t[1] == "true"
    neg = bool(stream.accept("-"))
    if stream.peek()[0] == "number":
        v = stream.number()
        v = -v if neg else v
        return int(v) if v.denominator == 1 else v
    stream.error("expected true, false, or a rational literal")


def _parse_float(stream):
    neg = bool(stream.accept("-"))
    t = stream.peek()
    if t[0] == "float":
        v = float(stream.next()[1])
    elif t[0] == "number":
        try:
            v = float(stream.number())
        except OverflowError:
            raise stream.error_at(t, "numeric literal out of float range",
                                  t[1]) from None
    else:
        stream.error("expected a numeric literal")
    return -v if neg else v


# ---------------- canonical emission ----------------

def render_model(spec: ModelSpec) -> str:
    """Canonical text for a resolved model; parameters are already inlined."""
    out = []
    out.append("vars " + " ".join(spec.vars) + ";")
    if spec.weights:
        out.append("weights " + " ".join(str(w) for w in spec.weights) + ";")
    for name, p in spec.casimirs:
        out.append(f"casimir {name} = {p.render()};")
    if spec.structure_kind == "jacobian":
        mult = spec.multiplier if spec.multiplier is not None else None
        lam = f" lambda {mult.render()}" if mult is not None else ""
        out.append(f"structure jacobian{lam};")
    elif spec.structure_kind == "table":
        out.append("structure table {")
        for (i, j) in sorted(spec.table):
            p = spec.table[(i, j)]
            out.append(f"  {{{spec.vars[i]},{spec.vars[j]}}} = {p.render()};")
        out.append("};")
    elif spec.structure_kind == "nambu":
        lam = f" lambda {spec.multiplier.render()}" if spec.multiplier is not None else ""
        out.append(f"structure nambu {spec.nambu_arity}{lam};")
    if spec.hamiltonians:
        out.append("hamiltonian "
                   + ", ".join(h.render() for h in spec.hamiltonians) + ";")
    if spec.checks:
        out.append("check " + ", ".join(_key(*c) for c in spec.checks) + ";")
    for key, val in spec.expects.items():
        out.append(f"expect {key} = {_literal_text(val)};")
    if spec.integrate:
        ir = spec.integrate
        mon = (" monitor " + " ".join(ir.monitors)) if ir.monitors else ""
        out.append("integrate from (" + ", ".join(repr(float(v)) for v in ir.x0)
                   + f") step {float(ir.step)!r} until {float(ir.t_end)!r}{mon};")
    return "\n".join(out) + "\n"


def model_spec_from_built(bm) -> ModelSpec:
    """The spec of a built catalog model (``catalog.BuiltModel``), which is
    its template as ``parse_model`` read it, bindings included as ``param``
    statements; ``render_model`` inlines them."""
    return ModelSpec(**{f.name: getattr(bm, f.name) for f in fields(ModelSpec)})


def parse_map_file(text: str, old_vars) -> MonomialMap:
    """``map IDENT = scaled-monomial ;`` lines over the old variables."""
    stream = _Stream(text)
    old_vars = tuple(old_vars)
    env = {v: PolyExpr.var(v, old_vars) for v in old_vars}
    assignments = []
    while stream.peek()[0] != "eof":
        stream.expect("map")
        name = stream.expect_kind("ident")[1]
        stream.expect("=")
        p = parse_poly_expr(stream, env, old_vars)
        stream.expect(";")
        assignments.append((name, p))
    if not assignments:
        raise ModelSyntaxError("empty map file", 1, 1)
    return MonomialMap.from_monomials(old_vars, assignments)
