"""Model DSL: scanner, recursive-descent parser, and canonical emission.

A model file declares variables, optional weights, rational parameters,
named polynomials, exactly one structure, optional Hamiltonians, requested
checks with optional expected outcomes, and an optional integration request.
Canonical emission inlines every parameter and renders polynomials in the
canonical term order, so emit -> parse -> emit is byte-stable.

The scanner is one pass of one regular expression that skips whitespace and
comments; a token is a plain ``(kind, text, offset)`` tuple, and a line and
column are computed from the offset only when an error is raised.  A whole
sum of monomial terms is one token: terms of rational literals and names,
each with an optional ``^INT``, joined by ``*``, between runs of signs
(spaces and line breaks may stand around the operators).  An expression
folds it in one loop over its factors through the model's name table (name
-> packed key, numerator and denominator of a name bound to one packed
term, kept from the first sum that names it) and adds the terms over one
common denominator in ``poly._sum``'s order, about 2.8 microseconds per
three-factor term with the scan.  From a term with a factor that is not
monomial or that any check would refuse, or a last term that goes on past
the token (``2*(x1 + 1)``, ``2*x1^(1/2)``), the whole sum is cut into the
tokens it is made of and read a factor at a time, one ``PolyExpr`` per
factor; so is a sum token elsewhere in the grammar.  Values, term order
and errors are those of building and adding one ``PolyExpr`` per factor.

Hostile input stays bounded: a numeric literal is at most
``MAX_LITERAL_CHARS`` characters, parentheses nest at most ``MAX_NESTING``
deep, a power's exponent keeps the exponent limit of every ``PolyExpr``
(|e| and its reduced denominator at most ``poly.MAX_EXPONENT``), and
``vars`` names at most ``MAX_DIM`` = 8 variables.  The scan is linear in
the text.  ``render_model`` writes nothing the scanner would refuse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import reduce
from math import isqrt
from operator import mul
from typing import Optional

from . import poly
from .errors import ArityError, DomainError, ModelSyntaxError
from .exterior import MAX_DIM
from .poly import (_BLOCK_BITS, _LAYOUTS, FIELD_BITS, MAX_EXPONENT, MAX_POWER_BITS, MonomialMap,
                   PolyExpr, _outside, _over_limit, _packed_sum, _rational_pow, _sum)
from .runner import CHECKS, FI_MAX, _key, _literal_text, _projection
from .structures import NambuStructure, PoissonStructure, jacobian_structure

# The pieces of a sum of monomial terms.  Each ends where a scan without
# sums would end its token: a name before no name character, a literal
# before no digit and before nothing that would make it a float, an
# exponent before no '/' either.  So a sum token is cut into exactly those
# tokens, and no quantifier gives back more than the operator and spaces in
# front of an atom that does not follow, which keeps the scan linear.
_WS = r"[ \t\r\n]"
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NUMBER = r"\d+(?:/\d+)?"
_FLOAT_TAIL = r"\.|[eE][+-]?\d"
_ATOM = (rf"(?:{_NAME}(?![A-Za-z_0-9])"
         rf"|\d+(?!\d|{_FLOAT_TAIL})(?:/\d+(?!\d))?)")
_POWER = rf"{_WS}*\^{_WS}*\d+(?![\d/]|{_FLOAT_TAIL})"
# factors after '*', terms after a run of signs
_SUM = rf"{_ATOM}(?:{_POWER})?(?:(?:{_WS}*\*|(?:{_WS}*[+-])+){_WS}*{_ATOM}(?:{_POWER})?)*"

# Whitespace and comments are skipped in front of every token.  Each
# position ends in exactly one group: a token, the end of the text, or an
# unexpected character, which takes the rest of the text with it (so it is
# the last token) and is refused by ``tokenize``.  A name or number that an
# operator follows starts a sum; floats go first.
_TOKEN_RE = re.compile(rf"""
    {_WS}*(?:\#[^\n]*{_WS}*)*
    (?:(?P<punct>[;,{{}}()=^*+\-])
      |(?P<ident>{_NAME})(?![A-Za-z_0-9]|{_WS}*[-+*^])
      |(?P<sum>(?=[A-Za-z_0-9/]+{_WS}*[-+*^]){_SUM})
      |(?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
      |(?P<number>{_NUMBER})
      |(?P<eof>\Z)
      |(?P<bad>.)(?s:.*))
""", re.VERBOSE)
_KINDS = (None, *sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get))
_PIECE_RE = re.compile(rf"{_WS}*(?:(?P<ident>{_NAME})|(?P<number>{_NUMBER})|(?P<punct>[-+*^]))")

# Python refuses int strings past 4300 digits; below that, parsing stays fast.
MAX_LITERAL_CHARS = 4000
# Each level of parentheses takes five parser frames, far below Python's
# recursion limit at this depth.
MAX_NESTING = 50


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list[tuple]:
    """``(kind, text, offset)`` tuples, kind one of sum, float, number,
    ident, punct and eof; the list ends in one eof token."""
    tokens = [(_KINDS[k := m.lastindex], m[k], m.start(k)) for m in _TOKEN_RE.finditer(text)]
    if len(tokens) > 1 and tokens[-2][0] == "eof":
        tokens.pop()        # the end after trailing whitespace matches twice
    if len(text) > MAX_LITERAL_CHARS:
        for t in tokens:
            long_sum = t[0] == "sum" and len(t[1]) > MAX_LITERAL_CHARS
            for kind, chunk, offset in _pieces(t) if long_sum else (t,):
                if kind in ("number", "float") and len(chunk) > MAX_LITERAL_CHARS:
                    raise ModelSyntaxError(
                        f"numeric literal longer than {MAX_LITERAL_CHARS} characters",
                        *_position(text, offset), chunk)
    if len(tokens) > 1 and tokens[-2][0] == "bad":
        raise ModelSyntaxError("unexpected character",
                               *_position(text, tokens[-2][2]), tokens[-2][1])
    return tokens


def _pieces(token: tuple) -> list[tuple]:
    """The name, number and punct tokens that the sum token ``token`` is
    made of."""
    _, text, base = token
    return [(k := m.lastgroup, m[k], base + m.start(k)) for m in _PIECE_RE.finditer(text)]


class _Stream:
    """The tokens of ``text`` as a stack, the next token last, over the eof
    token, which is never popped.  A method that does not find what it asks
    for in a sum token on top cuts the sum into its pieces and looks
    again, so only ``parse_poly_expr`` sees whole sums.  ``accept`` and
    ``expect`` compare texts only: every text they are asked for is
    punctuation or a name, which no number, no sum and no eof token can
    spell.  ``names`` is the name table of the expressions read, filled
    from their environment as names are first folded (see ``_entry``)."""

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)[::-1]
        self.depth = 0          # open parentheses in the current expression
        self.names = {}

    def cut(self) -> tuple:
        """The first piece of the sum token on top, now on top itself."""
        toks = self.toks
        toks += reversed(_pieces(toks.pop()))
        return toks[-1]

    def peek(self) -> tuple:
        t = self.toks[-1]
        return self.cut() if t[0] == "sum" else t

    def next(self) -> tuple:
        t = self.peek()
        if t[0] != "eof":
            self.toks.pop()
        return t

    def accept(self, text: str) -> Optional[tuple]:
        t = self.toks[-1]
        if t[1] == text or t[0] == "sum" and self.cut()[1] == text:
            return self.toks.pop()
        return None

    def expect(self, text: str) -> tuple:
        t = self.toks[-1]
        if t[1] == text or t[0] == "sum" and self.cut()[1] == text:
            return self.toks.pop()
        t = self.toks[-1]
        raise self.error_at(t, f"expected {text!r}", t[1])

    def expect_kind(self, kind: str) -> tuple:
        t = self.toks[-1]
        if t[0] == kind or t[0] == "sum" and self.cut()[0] == kind:
            return self.toks.pop()
        t = self.toks[-1]
        raise self.error_at(t, f"expected {kind}", t[1])

    def error_at(self, t: tuple, msg: str, token=None) -> ModelSyntaxError:
        return ModelSyntaxError(msg, *_position(self.text, t[2]), token)

    def error(self, msg: str):
        t = self.peek()
        raise self.error_at(t, msg, t[1])

    def number(self, integer: bool = False, t=None):
        """The number token ``t``, else the next token, as an exact rational
        (see ``_rational``), or as the int it must equal if asked."""
        t = t or self.expect_kind("number")
        try:
            v = _rational(t[1])
        except ZeroDivisionError:
            raise self.error_at(t, "zero denominator", t[1]) from None
        except ValueError:      # PYTHONINTMAXSTRDIGITS set below MAX_LITERAL_CHARS
            raise self.error_at(t, "numeric literal too long", t[1]) from None
        if integer and v.denominator != 1:
            raise self.error_at(t, "expected an integer", t[1])
        return v.numerator if integer else v

    def rational(self) -> Fraction:
        """RATIONAL: an optional '-', then INT or INT/INT, as a Fraction."""
        neg = bool(self.accept("-"))
        v = Fraction(self.number())
        return -v if neg else v


# ---------------- polynomial expressions ----------------

def parse_poly_expr(stream: _Stream, env: dict, variables) -> PolyExpr:
    """expr := term (('+'|'-') term)*, added in one pass.  While every term
    is packed and over ``variables``, its terms go in order, sign included,
    into one list of (key, numerator, denominator), each folded term as one
    entry, and ``_packed_sum`` adds them.  A Laurent/Puiseux term, or one
    over another variable set, turns the sum into ``PolyExpr`` values that
    one ``_sum`` adds at the end.  Only adding a term over another variable
    set, or a term to a first term over one, can raise: that step is taken
    as soon as its term is read, as it was when the terms were added one at
    a time."""
    toks = stream.toks
    limits = _LAYOUTS[len(variables)][1], _BLOCK_BITS * isqrt(poly.MAX_WORK)
    packed = []
    items = None            # the (value, sign) terms once one is not packed
    sign = 1
    one = True              # the term read is the first
    while True:
        folded = items is None and _fold_sum(toks, stream.names, env, variables, limits,
                                             sign, packed)
        if not folded:
            value = _parse_term(stream, env, variables)
            if items is None and value._grade and value.vars == variables:
                den = value._den
                packed += [(m, c if sign > 0 else -c, den) for m, c in value._num.items()]
            else:
                if items is None:
                    items = [] if one else [(_packed_sum(variables, packed), 1)]
                items.append((value, sign))
                if len(items) > 1 and (value.vars != variables or items[0][0].vars != variables):
                    # one '+' or '-', so constants adapt to the other side as
                    # that operator adapts them
                    acc = items[0][0] if len(items) == 2 else _sum(variables, items[:-1])
                    items = [(acc + value if sign > 0 else acc - value, 1)]
        op = toks[-1][1]
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        elif items is not None:
            return items[0][0] if len(items) == 1 else _sum(variables, items)
        elif folded or not one:
            return _packed_sum(variables, packed)
        else:
            return value        # the one term, read as a PolyExpr
        toks.pop()
        one = False


_FOLDABLE = frozenset(("sum", "ident", "number"))
_DIGITS = frozenset("0123456789")


def _fold_sum(toks, names, env, variables, limits, sign, packed) -> bool:
    """Fold the sum, name or number token on top of the stack ``toks``, after
    its unary signs, into ``packed``, a (key, numerator, denominator) per
    term with ``sign`` and its signs applied, and pop them; or return False
    when the token runs on into '*' or '^' or a term has a factor that is
    not a literal or a name of ``env`` bound to one packed term over
    ``variables`` (its entry kept in the name table ``names``), a power that
    ``PolyExpr.__pow__`` refuses, or a product that ``PolyExpr`` arithmetic
    may refuse (past MAX_EXPONENT or MAX_WORK; ``limits`` is the fields' top
    bits and the most bits of an operand), tested after each product so
    that no field carries and no product follows the first that may be
    refused.  As in ``PolyExpr`` products, a zero ends the tests after it."""
    t = toks[-1]
    j = -1
    while t[1] == "-" or t[1] == "+":
        if t[1] == "-":
            sign = -sign
        j -= 1
        t = toks[j]
    if t[0] not in _FOLDABLE or toks[j - 1][1] in ("*", "^"):
        return False
    guard, free = limits
    neg = sign < 0
    start = len(packed)
    # without its spaces, a sum is its terms, each after its run of signs
    text = "".join(t[1].split()).replace("-", "+-") if t[0] == "sum" else t[1]
    for part in text.split("+"):
        term = part.lstrip("-")
        neg ^= (len(part) - len(term)) & 1
        if not term:        # signs only, of the term after them
            continue
        key, num, den = 0, 1, 1
        for factor in term.split("*"):
            atom, _, power = factor.partition("^")
            if atom[0] in _DIGITS:
                try:
                    v = _rational(atom)
                except (ValueError, ZeroDivisionError):
                    break
                k, c, d = 0, v.numerator, v.denominator
            else:
                entry = names.get(atom)
                if entry is None:
                    entry = names[atom] = _entry(env.get(atom), variables)
                    if entry is None:
                        break
                k, c, d = entry
            if power:
                try:
                    n = int(power)
                except ValueError:  # PYTHONINTMAXSTRDIGITS set below MAX_LITERAL_CHARS
                    break
                # the exponent, top exponent and coefficient size, as
                # PolyExpr.__pow__ bounds them; a field of the key passes
                # MAX_EXPONENT // n just when adding MAX_EXPONENT -
                # MAX_EXPONENT // n sets its top bit
                if n > MAX_EXPONENT or n > 1 and (
                        (k + (MAX_EXPONENT - MAX_EXPONENT // n) * (guard >> FIELD_BITS - 1)) & guard
                        or (max(c.bit_length(), d.bit_length()) - 1) * n > MAX_POWER_BITS):
                    break
                k, c, d = k * n, c ** n, d ** n
            if num:
                # the operands of this product are no bigger than the product
                # itself, unless it is zero, which is not charged
                num *= c
                key += k
                if key & guard or num.bit_length() > free:
                    break
                if d != 1:
                    den *= d
                    if den.bit_length() > free:
                        break
        else:               # every factor folded
            packed.append((key, -num if neg else num, den))
            neg = False
            continue
        del packed[start:]
        return False
    del toks[j:]
    return True


def _rational(text):
    """The number token ``text``, INT as an int and INT/INT as a Fraction:
    ValueError when Python refuses a part as too long, ZeroDivisionError
    for INT/0."""
    a, _, b = text.partition("/")
    return Fraction(int(a), int(b)) if b else int(a)


def _parse_term(stream, env, variables):
    """term := factor ('*' factor)*, one ``PolyExpr`` per factor."""
    factors = [_parse_factor(stream, env, variables)]
    while stream.accept("*"):
        factors.append(_parse_factor(stream, env, variables))
    return reduce(mul, factors)


def _parse_factor(stream, env, variables):
    """factor := ('-'|'+')* atom ('^' (RATIONAL | '(' RATIONAL ')'))?"""
    sign = 1
    while t := stream.accept("-") or stream.accept("+"):
        if t[1] == "-":
            sign = -sign
    p = _parse_atom(stream, env, variables)
    if stream.accept("^"):
        paren = stream.accept("(")
        e = stream.rational()
        if paren:
            stream.expect(")")
        p = _poly_pow(p, e, stream)
    return p if sign > 0 else -p


def _poly_pow(base: PolyExpr, e: Fraction, stream) -> PolyExpr:
    if e.denominator == 1 and e >= 0:
        return base ** int(e)           # PolyExpr.__pow__ bounds e
    if _outside(e):
        raise _over_limit(f"exponent {e}")
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
    env = dict(zip(variables, PolyExpr.gens(variables)))
    for k, v in (extra_env or {}).items():
        env[k] = v if isinstance(v, PolyExpr) else PolyExpr.const(variables, v)
    stream = _Stream(text)
    p = parse_poly_expr(stream, env, variables)
    t = stream.peek()
    if t[0] != "eof":
        raise stream.error_at(t, "trailing input after expression", t[1])
    return p


def _entry(p: Optional[PolyExpr], variables):
    """The name table's entry of a name bound to ``p``, for expressions over
    ``variables``: (packed key, numerator, denominator) of ``p`` when it is
    one packed term or zero over them, else None (so for an unbound name)."""
    if p is not None and p._grade and (p.vars is variables or p.vars == variables) and len(p._num) < 2:
        (k, c), = p._num.items() or ((0, 0),)
        return k, c, p._den
    return None


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
        mult = self.multiplier if self.multiplier is not None \
            else PolyExpr.const(self.vars, 1)
        if self.structure_kind == "jacobian":
            return jacobian_structure(self.vars, self.casimir_polys(), mult)
        if self.structure_kind == "nambu":
            m = len(self.vars) - self.nambu_arity
            if len(self.casimirs) != m:
                raise ArityError(
                    f"arity {self.nambu_arity} in {len(self.vars)} variables "
                    f"needs {m} Casimirs, got {len(self.casimirs)}")
            return NambuStructure(self.vars, self.casimir_polys(), mult)
        raise ArityError("no structure declared")


def parse_model(text: str, name: str = "model") -> ModelSpec:
    stream = _Stream(text)
    spec = ModelSpec(name=name)
    env: dict[str, PolyExpr] = {}
    pins = {}                       # expect key -> its statement token

    def unbound(t, ident):
        """``ident``, when no name of the model is ``ident`` yet."""
        if ident in env:
            raise stream.error_at(t, f"name {ident!r} already defined")
        return ident

    t = stream.peek()
    if t[0] == "eof":
        raise stream.error_at(t, "empty model")

    while stream.peek()[0] != "eof":
        t = stream.expect_kind("ident")
        stmt = t[1]
        if stmt == "vars":
            if spec.vars:
                raise stream.error_at(t, "vars declared twice")
            names = _run(stream, "ident", MAX_DIM + 1)
            if not names:
                stream.error("vars needs at least one name")
            if len(names) > MAX_DIM:
                raise stream.error_at(t, f"vars names more than MAX_DIM = {MAX_DIM} variables")
            spec.vars = tuple(v[1] for v in names)
            for v, x in zip(spec.vars, PolyExpr.gens(spec.vars)):
                env[unbound(t, v)] = x
            stream.names = {}       # the entries read before are over no variables
        elif stmt == "weights":
            ws = [stream.number(integer=True, t=w) for w in _run(stream, "number")]
            if not ws:
                stream.error("weights needs integers")
            spec.weights = tuple(ws)
        elif stmt == "param":
            pname = unbound(t, stream.expect_kind("ident")[1])
            stream.expect("=")
            spec.params[pname] = stream.rational()
            env[pname] = PolyExpr.const(spec.vars, spec.params[pname])
        elif stmt in ("let", "casimir"):
            pname = unbound(t, stream.expect_kind("ident")[1])
            stream.expect("=")
            p = env[pname] = parse_poly_expr(stream, env, spec.vars)
            (spec.casimirs if stmt == "casimir" else spec.lets).append((pname, p))
        elif stmt == "structure":
            if spec.structure_kind is not None:
                raise stream.error_at(t, "structure declared twice")
            kind = spec.structure_kind = stream.expect_kind("ident")[1]
            if kind == "table":
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
            elif kind == "jacobian" or kind == "nambu":
                if kind == "nambu":
                    spec.nambu_arity = stream.number(integer=True)
                if stream.accept("lambda"):
                    spec.multiplier = parse_poly_expr(stream, env, spec.vars)
            else:
                stream.error("structure must be jacobian, table, or nambu")
        elif stmt == "hamiltonian":
            spec.hamiltonians += _separated(stream, parse_poly_expr, env, spec.vars)
        elif stmt == "check":
            spec.checks += _separated(stream, _parse_checkname)
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
        elif stmt == "integrate":
            stream.expect("from")
            stream.expect("(")
            x0 = _separated(stream, _parse_float)
            stream.expect(")")
            stream.expect("step")
            step = _parse_float(stream)
            stream.expect("until")
            t_end = _parse_float(stream)
            monitors = _run(stream, "ident") if stream.accept("monitor") else ()
            spec.integrate = IntegrateRequest(tuple(x0), step, t_end,
                                              tuple(m[1] for m in monitors))
        else:
            raise stream.error_at(t, "unknown statement", stmt)
        stream.expect(";")

    if not spec.vars:
        raise ModelSyntaxError("model declares no variables", 1, 1)
    if spec.structure_kind is None:
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


def _run(stream, kind, most=-1) -> list:
    """The tokens of ``kind`` on top of ``stream``, popped: all of them, or
    the first ``most`` if given."""
    run = []
    while len(run) != most and stream.peek()[0] == kind:
        run.append(stream.next())
    return run


def _separated(stream, read, *args) -> list:
    """read (',' read)*: what ``read(stream, *args)`` returns, for each."""
    items = [read(stream, *args)]
    while stream.accept(","):
        items.append(read(stream, *args))
    return items


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
    """Canonical text for a resolved model; parameters are already inlined.
    ``DomainError`` when it would hold a numeric literal longer than the
    scanner reads (``MAX_LITERAL_CHARS``), as a product's coefficient may."""
    out = []
    out.append("vars " + " ".join(spec.vars) + ";")
    if spec.weights:
        out.append("weights " + " ".join(str(w) for w in spec.weights) + ";")
    for name, p in spec.casimirs:
        out.append(f"casimir {name} = {p.render()};")
    if spec.structure_kind == "table":
        out.append("structure table {")
        for (i, j), p in sorted(spec.table.items()):
            out.append(f"  {{{spec.vars[i]},{spec.vars[j]}}} = {p.render()};")
        out.append("};")
    elif spec.structure_kind:
        arity = f" {spec.nambu_arity}" if spec.structure_kind == "nambu" else ""
        lam = f" lambda {spec.multiplier.render()}" if spec.multiplier is not None else ""
        out.append(f"structure {spec.structure_kind}{arity}{lam};")
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
    text = "\n".join(out) + "\n"
    if len(text) > MAX_LITERAL_CHARS:
        # the scanner's pieces: a name's digits are not a number
        longest = max(len(m["number"] or "") for m in _PIECE_RE.finditer(text))
        if longest > MAX_LITERAL_CHARS:
            raise DomainError(f"cannot emit a numeric literal of {longest} characters: "
                              f"longer than MAX_LITERAL_CHARS = {MAX_LITERAL_CHARS}")
    return text


def model_spec_from_built(bm) -> ModelSpec:
    """The spec of a built catalog model (``catalog.BuiltModel``), which is
    its template as ``parse_model`` read it, bindings included as ``param``
    statements; ``render_model`` inlines them."""
    return ModelSpec(**{f.name: getattr(bm, f.name) for f in fields(ModelSpec)})


def parse_map_file(text: str, old_vars) -> MonomialMap:
    """``map IDENT = scaled-monomial ;`` lines over the old variables."""
    stream = _Stream(text)
    old_vars = tuple(old_vars)
    env = dict(zip(old_vars, PolyExpr.gens(old_vars)))
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
