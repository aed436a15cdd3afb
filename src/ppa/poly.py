"""Exact sparse multivariate polynomials over the rationals.

Terms map exponent tuples to nonzero rational coefficients.  Exponents are
rational in general: the monomial changes of variables used elsewhere produce
Laurent/Puiseux terms, and differentiation follows the formal power rule for
those.  Everything that feeds the bracket machinery demands plain nonnegative
integer exponents and fails loudly otherwise (see
:meth:`PolyExpr.require_polynomial_grade`).

The coefficient field is Q throughout; no floats enter until a caller asks
for a floating evaluation.

Representation: a ``PolyExpr`` keeps integer numerators over one positive
common denominator, reduced so that gcd(den, *numerators) == 1.  A
polynomial-grade value keys its numerators by one packed ``int`` per
monomial, a ``FIELD_BITS``-bit field per variable with the first variable
in the top field; a Laurent/Puiseux value keys them by exponent tuples.  A
value is packed exactly when it is polynomial-grade, so the form is unique:
equality and hashing compare the stored fields directly, products add
packed keys as plain integers and run on Python ints, dividing out the
content only when the denominator is not 1 (after Monagan & Pearce, CASC
2007).  Every exponent e of every value, packed or not, has |e| and a
reduced denominator of at most ``MAX_EXPONENT`` (:func:`_outside`), and a
value that breaks that limit raises ``DomainError`` where it is built, so
no sum can leave it.  For a polynomial-grade value the limit leaves each
field's top bit free: a product of two such values cannot carry between
fields, and one test of the top bits of its result finds any exponent
past the limit.  Every product, each squaring of a power included, is
charged against one work budget before it multiplies (``MAX_WORK``); a
value keeps the bit size of its largest coefficient once that is read.
``terms`` is the read-only ``Fraction`` view keyed by exponent tuples,
built on first use.  Every result is exact; term order follows the same
accumulation as ``Fraction`` arithmetic would, so iteration order (and
with it float sums over the terms) does not depend on the representation.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from operator import add, mul, or_
from struct import Struct, error as StructError
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    DomainError,
    PolynomialGradeError,
    SingularMapError,
    VariableSetError,
)


def _exp(e):
    """Normalize an exponent: ints stay ints, integral Fractions collapse."""
    if isinstance(e, int):
        return e
    e = Fraction(e)
    return int(e) if e.denominator == 1 else e


def _coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact rational: {c!r}")


def monomial_key(exps: tuple):
    """Graded-lexicographic sort key (bigger key = bigger monomial)."""
    return (sum(exps), exps)


def _is_grade(monos) -> bool:
    """True when every exponent is a nonnegative int."""
    return all(isinstance(e, int) and e >= 0 for m in monos for e in m)


# ---------------- packed exponent keys ----------------

FIELD_BITS = 16                 # the width of a struct "h" field
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1

# The most work one product of two values or two coefficients may do, in
# units of one term pair of coefficients of at most _BLOCK_BITS bits (see
# :func:`_require_work`), so that hostile input stays bounded work: half a
# second to a second at the limit.  The largest product of the catalog
# checks, the synthetic n = 3..8 checks and the benchmark workloads costs
# 30770 units (170 x 181 terms of at most 31 bits, n = 8), a margin of 32.
MAX_WORK = 10 ** 6
_BLOCK_BITS = 512

# The most bits a power of one rational may be predicted to have:
# ``_rational_pow`` and the integer powers of one-term values (``__pow__``
# and the DSL's monomial terms) refuse with ``DomainError`` before they
# compute a larger one (about 0.2 s of big-integer work at the limit).
MAX_POWER_BITS = 1 << 20


class _Layouts(dict):
    """n -> (fields, guard), built on first use.  ``fields`` is the
    ``Struct`` of a key's big-endian bytes over n variables, one signed
    16-bit field per variable, the first variable on top; a signed field
    refuses any value past MAX_EXPONENT.  ``guard`` has the top bit of every
    field set."""

    def __missing__(self, n):
        lay = self[n] = (Struct(f">{n}h"), int.from_bytes(b"\x80\x00" * n, "big"))
        return lay


_LAYOUTS = _Layouts()


def _over_limit(what) -> DomainError:
    return DomainError(f"{what} exceeds MAX_EXPONENT = {MAX_EXPONENT}")


def _outside(e) -> bool:
    """True when the exponent ``e``, an int or a Fraction, breaks the limit
    every ``PolyExpr`` keeps: |e| or its reduced denominator past MAX_EXPONENT
    (tested on ints, which is faster than comparing Fractions)."""
    d = e.denominator
    return d > MAX_EXPONENT or abs(e.numerator) > MAX_EXPONENT * d


def _packed(num: dict, n: int) -> dict:
    """``num`` with its exponent tuples (nonnegative ints, n of them)
    replaced by packed keys, in the same order."""
    pack = _LAYOUTS[n][0].pack
    try:
        return {int.from_bytes(pack(*m), "big"): c for m, c in num.items()}
    except StructError:
        top = max(e for m in num for e in m)
        raise _over_limit(f"exponent {top}") from None


def _tuple_num(p) -> dict:
    """``p``'s numerators keyed by exponent tuples, in term order."""
    if not p._grade:
        return p._num
    fields = _LAYOUTS[len(p.vars)][0]
    unpack, size = fields.unpack, fields.size
    return {unpack(k.to_bytes(size, "big")): c for k, c in p._num.items()}


class PolyExpr:
    """Immutable sparse polynomial with rational coefficients and exponents."""

    __slots__ = ("vars", "_num", "_den", "_grade", "_terms", "_bits", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction] | None = None):
        variables = tuple(variables)
        clean = {}
        if terms:
            nv = len(variables)
            for mono, c in terms.items():
                c = _coeff(c)
                if c == 0:
                    continue
                if len(mono) != nv:
                    raise VariableSetError(
                        f"exponent tuple {mono} does not match {nv} variables")
                clean[tuple(_exp(e) for e in mono)] = c
        _fill(self, variables, *_over_common_den(clean), False)

    def __setattr__(self, *a):
        raise AttributeError("PolyExpr is immutable")

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Read-only ``{exponent tuple: Fraction}`` view, in term order."""
        view = self._terms
        if view is None:
            den = self._den
            view = MappingProxyType({m: Fraction(c, den)
                                     for m, c in _tuple_num(self).items()})
            _set_terms(self, view)
        return view

    @property
    def term_count(self) -> int:
        """Number of nonzero terms; builds no ``terms`` view."""
        return len(self._num)

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls, variables) -> "PolyExpr":
        return _new(tuple(variables), {}, 1, True)

    @classmethod
    def const(cls, variables, value) -> "PolyExpr":
        value = _coeff(value)
        variables = tuple(variables)
        if value == 0:
            return _new(variables, {}, 1, True)
        return _new(variables, {0: value.numerator}, value.denominator, True)

    @classmethod
    def var(cls, name: str, variables) -> "PolyExpr":
        variables = tuple(variables)
        shift = FIELD_BITS * (len(variables) - 1 - variables.index(name))
        return _new(variables, {1 << shift: 1}, 1, True)

    @classmethod
    def gens(cls, variables) -> tuple["PolyExpr", ...]:
        variables = tuple(variables)
        top = FIELD_BITS * len(variables)
        return tuple(_new(variables, {1 << s: 1}, 1, True)
                     for s in range(top - FIELD_BITS, -1, -FIELD_BITS))

    # ---------------- predicates ----------------

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        # the constant monomial is polynomial-grade, so it is the packed key 0
        num = self._num
        return not num or (len(num) == 1 and self._grade and not next(iter(num)))

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise DomainError(f"not a constant: has the term {self._first_term(any)}")
        return Fraction(next(iter(self._num.values())), self._den)

    def is_polynomial_grade(self) -> bool:
        return self._grade

    def require_polynomial_grade(self, what="operand"):
        if not self._grade:
            mono = self._first_term(lambda m: not _is_grade((m,)))
            raise PolynomialGradeError(
                f"{what} has fractional or negative exponents: {mono}")
        return self

    def _first_term(self, test) -> str:
        """The first monomial whose exponent tuple passes ``test``, rendered
        with coefficient 1: an error names it instead of the whole value."""
        mono = next(m for m in _tuple_num(self) if test(m))
        return _new(self.vars, {mono: 1}, 1, False).render()

    def is_monomial(self) -> bool:
        return len(self._num) == 1

    # ---------------- arithmetic ----------------

    def _align(self, other):
        """Return (a, b) over one variable set; constants adapt to the other
        side, a constant over no variables always does, and anything else
        must match exactly."""
        if not isinstance(other, PolyExpr):
            if isinstance(other, (int, Fraction)):
                return self, PolyExpr.const(self.vars, other)
            return None, None
        if self.vars == other.vars:
            return self, other
        if other.is_constant() and self.vars:
            return self, PolyExpr.const(self.vars, other.constant_value())
        if self.is_constant():
            return PolyExpr.const(other.vars, self.constant_value()), other
        raise VariableSetError(
            f"variable sets differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return _sum(a.vars, ((a, 1), (b, 1)))

    __radd__ = __add__

    def __neg__(self):
        # the largest |numerator| and the denominator stay: keep ``_bits``
        p = _new(self.vars, {m: -c for m, c in self._num.items()}, self._den, self._grade or None)
        _set_bits(p, self._bits)
        return p

    def __sub__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return _sum(a.vars, ((a, 1), (b, -1)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coeff(other)
            if other == 0:
                return PolyExpr.zero(self.vars)
            if other in (1, -1):
                return self if other == 1 else -self
            k = other.numerator
            return _reduced(self.vars, {m: c * k for m, c in self._num.items()},
                            self._den * other.denominator, self._grade or None)
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return _product(a, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coeff(other)
            if other == 0:
                raise DomainError("division by zero scalar")
            return self * (Fraction(1) / other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial powers must be nonnegative integers")
        if n > MAX_EXPONENT:
            raise _over_limit(f"power {n}")
        if n > 1:
            # the largest |exponent| multiplies by n exactly: the terms that
            # reach it in one variable have a nonzero n-th power
            top = n * max((abs(e) for m in _tuple_num(self) for e in m), default=0)
            if _outside(top):
                raise _over_limit(f"exponent {top} of the power")
        if len(self._num) == 1:
            (m, c), = self._num.items()
            if n > 1:
                _require_power_bits(c, self._den, n)
            if self._grade:
                # a packed key times n adds each field n times, and (c/d)^n
                # stays reduced
                return _new(self.vars, {m * n: c ** n}, self._den ** n, True)
        out = PolyExpr.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = _product(out, base)
            base = _product(base, base) if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, PolyExpr):
            return NotImplemented
        return (self.vars == other.vars and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        # kept once computed (the value is immutable); unset until then
        if not hasattr(self, "_hash"):
            _set_hash(self, hash((self.vars, self._den, frozenset(self._num.items()))))
        return self._hash

    # ---------------- calculus / structure ----------------

    def diff(self, var: str) -> "PolyExpr":
        """Formal partial derivative; rational exponents use the power rule."""
        i = self.vars.index(var)
        if self._grade:
            return _partial(self, FIELD_BITS * (len(self.vars) - 1 - i))
        frac: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            nm = list(m)
            nm[i] = _exp(e - 1)
            nm = tuple(nm)
            s = frac.get(nm, Fraction(0)) + c * e
            if s == 0:
                frac.pop(nm, None)
            else:
                frac[nm] = s
        return _new(self.vars, *_over_common_den(frac), False)

    def total_degree(self):
        """Maximum term degree (None for the zero polynomial)."""
        if self.is_zero():
            return None
        return max(sum(m) for m in _tuple_num(self))

    def weighted_degree(self, weights: Sequence[int]):
        if self.is_zero():
            return None
        if len(weights) != len(self.vars):
            raise VariableSetError("weight tuple does not match variables")
        return max(sum(w * e for w, e in zip(weights, m)) for m in _tuple_num(self))

    def homogeneous_component(self, degree: int) -> "PolyExpr":
        out = {m: c for m, c in _tuple_num(self).items() if sum(m) == degree}
        # judged exponents, of which a subset may be polynomial-grade
        grade = _is_grade(out)
        return _reduced(self.vars, _packed(out, len(self.vars)) if grade else out,
                        self._den, grade or None)

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        if self.is_zero():
            raise DomainError("zero polynomial has no leading term")
        num = _tuple_num(self)
        m = max(num, key=monomial_key)
        return m, Fraction(num[m], self._den)

    def coefficient(self, mono: tuple) -> Fraction:
        c = _tuple_num(self).get(tuple(_exp(e) for e in mono))
        return Fraction(0) if c is None else Fraction(c, self._den)

    # ---------------- evaluation ----------------

    def eval_exact(self, point: Sequence) -> Fraction:
        """Exact rational evaluation; only integer exponents are allowed."""
        if len(point) != len(self.vars):
            raise VariableSetError("point dimension does not match variables")
        pt = [_coeff(x) for x in point]
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(pt, m):
                if not isinstance(e, int):
                    raise DomainError(
                        "fractional exponent has no exact rational value; "
                        "use floating evaluation")
                if e < 0 and x == 0:
                    raise DomainError("zero base with negative exponent")
                v *= x ** e
            total += v
        return total

    def eval_float(self, point: Sequence[float]) -> float:
        if len(point) != len(self.vars):
            raise VariableSetError("point dimension does not match variables")
        total = 0.0
        for m, c in self.terms.items():
            v = float(c)
            for x, e in zip(point, m):
                if e == 0:
                    continue
                if not isinstance(e, int):
                    if x < 0:
                        raise DomainError(
                            f"negative base {x} under fractional exponent {e}")
                    if x == 0 and e < 0:
                        raise DomainError("zero base with negative exponent")
                    v *= x ** float(e)
                else:
                    if x == 0 and e < 0:
                        raise DomainError("zero base with negative exponent")
                    v *= x ** e
            total += v
        return total

    # ---------------- variable plumbing ----------------

    def with_vars(self, variables: Sequence[str]) -> "PolyExpr":
        """Re-embed into a superset / reordering of the variable set."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        num = _tuple_num(self)
        pos = []
        for i, v in enumerate(self.vars):
            if v not in variables:
                if any(m[i] != 0 for m in num):
                    raise VariableSetError(f"variable {v} in use, cannot drop")
                pos.append(None)
            else:
                pos.append(variables.index(v))
        out: dict = {}
        for m, c in num.items():
            nm = [0] * len(variables)
            for i, e in enumerate(m):
                if e != 0:
                    nm[pos[i]] = e
            out[tuple(nm)] = c
        return _new(variables, _packed(out, len(variables)) if self._grade else out,
                    self._den, self._grade or None)

    def subs_var(self, var: str, value: "PolyExpr") -> "PolyExpr":
        """Substitute one variable by a polynomial (integer powers only)."""
        i = self.vars.index(var)
        value = value.with_vars(self.vars)
        powers = [PolyExpr.const(self.vars, 1)]
        out = PolyExpr.zero(self.vars)
        for m, c in _tuple_num(self).items():
            e = m[i]
            if not isinstance(e, int) or e < 0:
                raise DomainError(
                    f"cannot substitute into exponent {e} of {var}")
            rest = m[:i] + (0,) + m[i + 1:]
            term = _reduced(self.vars, {rest: c}, self._den, False)
            while len(powers) <= e:
                powers.append(powers[-1] * value)
            out = out + term * powers[e]
        return out

    # ---------------- rendering ----------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]), reverse=True)

    def render(self) -> str:
        """Canonical text form; round-trips through the expression parser."""
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, m):
                if e == 0:
                    continue
                if e == 1:
                    factors.append(v)
                elif isinstance(e, int) and e > 1:
                    factors.append(f"{v}^{e}")
                else:
                    factors.append(f"{v}^({_frac_str(e)})")
            mag = abs(c)
            if not factors:
                body = _frac_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_frac_str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    __str__ = render

    def __repr__(self):
        return f"PolyExpr({self.render()!r}; vars={','.join(self.vars)})"


# ---------------- trusted construction ----------------

_alloc = object.__new__
_set_vars = PolyExpr.vars.__set__
_set_num = PolyExpr._num.__set__
_set_den = PolyExpr._den.__set__
_set_grade = PolyExpr._grade.__set__
_set_terms = PolyExpr._terms.__set__
_set_bits = PolyExpr._bits.__set__
_set_hash = PolyExpr._hash.__set__


def _fill(p, variables, num, den, grade):
    """``grade`` True: ``num`` is keyed by packed ints.  None: by the
    exponent tuples of a value already judged off-grade, kept as they are
    (negation, scaling, ``with_vars``).  False: by exponent tuples, packed here when they are all
    polynomial-grade, else refused with ``DomainError`` when an exponent is
    outside the limit (see :func:`_outside`)."""
    if grade is False:
        if _is_grade(num):
            num = _packed(num, len(variables))
            grade = True
        elif (bad := next((e for m in num for e in m if _outside(e)), None)) is not None:
            raise _over_limit(f"exponent {bad}")
    _set_vars(p, variables)
    _set_num(p, num)
    _set_den(p, den)
    _set_grade(p, grade is True)
    _set_terms(p, None)
    _set_bits(p, 0)


def _new(variables, num, den, grade) -> PolyExpr:
    """Trusted constructor: ``num`` holds nonzero ints keyed as ``_fill``
    takes them (packed ints when ``grade``, else normalized exponent
    tuples), ``den`` > 0 and the pair is already reduced."""
    p = _alloc(PolyExpr)
    _fill(p, variables, num, den, grade)
    return p


def _reduced(variables, num, den, grade) -> PolyExpr:
    """Trusted constructor that divides out gcd(den, *numerators)."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    return _new(variables, num, den, grade)


def _partial(p: PolyExpr, shift: int) -> PolyExpr:
    """The partial derivative of the packed ``p`` by the variable whose field
    starts at bit ``shift``, reduced: each key loses one unit of that field,
    and e -> e - 1 is injective on the surviving terms, so nothing collides."""
    unit = 1 << shift
    return _reduced(p.vars, {m - unit: c * e for m, c in p._num.items()
                             if (e := m >> shift & _FIELD_MASK)}, p._den, True)


def _gradient(p: PolyExpr) -> list[PolyExpr]:
    """[d_1 p, ..., d_n p] of the polynomial-grade ``p``, each its
    :func:`_partial` (a zero partial is a zero value)."""
    return [_partial(p, s) for s in range(FIELD_BITS * (len(p.vars) - 1), -1, -FIELD_BITS)]


def _over_common_den(frac: dict):
    """(numerators, denominator) of nonzero Fractions over their least common
    denominator; that pair is already reduced."""
    den = lcm(*(c.denominator for c in frac.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in frac.items()}, den


def _sum(variables, items) -> PolyExpr:
    """The sum of sign * value over ``items``, (value, sign) pairs with every
    value over ``variables`` and sign +1 or -1: one :func:`_packed_sum` pass
    over their terms in order, keyed by packed ints when every value is
    packed, else by exponent tuples.  Values and term order are those of
    adding the values one at a time.  A sum's monomials are its operands',
    so it keeps the exponent limit and raises nothing."""
    live = [(v, s) for v, s in items if v._num]     # zero is packed: skip it
    if len(live) < 2:
        if not live:
            return PolyExpr.zero(variables)
        v, s = live[0]
        return v if s == 1 else -v
    grade = all(v._grade for v, _ in live)
    return _packed_sum(variables, [(m, c if s == 1 else -c, v._den) for v, s in live
                                   for m, c in (v._num if grade else _tuple_num(v)).items()],
                       grade)


def _packed_sum(variables, packed, grade=True) -> PolyExpr:
    """The sum of the (key, numerator, denominator) terms ``packed`` over
    ``variables``, keyed by packed ints, or by exponent tuples when not
    ``grade``: over the least common denominator of the nonzero ones, each
    added in order to one dict, a sum that cancels removing its key (so a
    later term with that monomial is appended at the end); then reduced."""
    den = 1
    for _, c, d in packed:
        if d != den and c:
            den = lcm(den, d)
    terms = {}
    get = terms.get
    for m, c, d in packed:
        if c:
            t = get(m, 0) + (c if d == den else c * (den // d))
            if t:
                terms[m] = t
            else:
                del terms[m]
    return _reduced(variables, terms, den, grade)


def _accumulate(out: dict, left, right) -> None:
    """Add the product of two packed term lists into ``out``.  Packed keys
    add field by field: no field carries, since every stored exponent is at
    most MAX_EXPONENT.  A sum that cancels removes its key."""
    get = out.get
    for m1, c1 in left:
        for m2, c2 in right:
            m = m1 + m2
            s = get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]


def _accumulate_tuples(out: dict, left, right) -> None:
    """Add the product of two term lists keyed by int exponent tuples into
    ``out``, as :func:`_accumulate` does for packed keys.  The tuples add
    componentwise, with no exponent limit: it is judged on the value built
    from ``out`` (see :func:`_fill`), after callers that key Laurent or
    Puiseux terms by integer multiples of their exponents scale them back."""
    get = out.get
    for m1, c1 in left:
        for m2, c2 in right:
            m = tuple(map(add, m1, m2))
            s = get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]


def _product(a: PolyExpr, b: PolyExpr) -> PolyExpr:
    """a * b over one variable set, held to the work budget."""
    if not (a._num and b._num):     # zero is packed: skip unpacking it
        return PolyExpr.zero(a.vars)
    _require_work(len(a._num), _coeff_bits(a), len(b._num), _coeff_bits(b))
    out: dict = {}
    if a._grade and b._grade:
        _accumulate(out, a._num.items(), b._num.items())
        if out and reduce(or_, out) & _LAYOUTS[len(a.vars)][1]:
            raise _over_limit("an exponent of the product")
        return _reduced(a.vars, out, a._den * b._den, True)
    # an integral Fraction exponent keys as the int it equals: normalise once
    _accumulate_tuples(out, _tuple_num(a).items(), _tuple_num(b).items())
    return _reduced(a.vars, {tuple(map(_exp, m)): c for m, c in out.items()},
                    a._den * b._den, False)


def _sum_of_products(variables, pairs) -> PolyExpr:
    """sum s*a*b over ``pairs`` (a, b) or (a, b, s), with a and b
    polynomial-grade values over ``variables`` and the sign s +1 (when left
    out) or -1, accumulated into one packed dict over one common
    denominator (after Monagan & Pearce, CASC 2007).  Each product is held
    to the work budget; its sign and denominator factor scale its shorter
    factor, with the keys, values and term order of negating either, so a
    caller passes s = -1 (a lower bracket entry, an odd Laplace position)
    and builds no negated value.  A zero factor drops its pair.  The
    ``MAX_EXPONENT`` test runs once on the sum, and the result is reduced,
    so it is canonical.  Its term order is not that of a ``_sum`` chain of
    products: use it where the result is only zero-tested or rendered
    (``render`` sorts its terms)."""
    # the longer factor of each pair runs in the inner loop
    live, den = [], 1
    for pair in pairs:
        a, b = pair[0], pair[1]
        if a._num and b._num:
            d = a._den * b._den
            if den % d:
                den = lcm(den, d)
            if len(a._num) > len(b._num):
                a, b = b, a
            live.append((a, b, d, len(pair) > 2 and pair[2] < 0))
    out: dict = {}
    for a, b, d, negate in live:
        f = den // d
        _require_work(len(a._num), _coeff_bits(a) + f.bit_length() - 1,
                      len(b._num), _coeff_bits(b))
        if negate:
            f = -f
        _accumulate(out, a._num.items() if f == 1
                    else [(m, c * f) for m, c in a._num.items()], b._num.items())
    if out and reduce(or_, out) & _LAYOUTS[len(variables)][1]:
        raise _over_limit("an exponent of the product")
    return _reduced(tuple(variables), out, den, True)


def _coeff_bits(p: PolyExpr) -> int:
    """The bit length of the larger of p's largest |numerator| and its
    denominator, for nonzero ``p``, computed on first use."""
    bits = p._bits
    if not bits:
        num = p._num.values()
        bits = max(max(num), -min(num), p._den).bit_length()
        _set_bits(p, bits)
    return bits


def _require_work(ta: int, bits_a: int, tb: int, bits_b: int) -> None:
    """Refuse with ``DomainError`` a product of ``ta`` x ``tb`` terms whose
    largest numerator or denominator has ``bits_a`` and ``bits_b`` bits when
    it costs ta * tb * ceil(bits_a / _BLOCK_BITS) * ceil(bits_b / _BLOCK_BITS)
    units, more than MAX_WORK.  ``*``, ``**``, ``_sum_of_products`` and the
    powers of z in ``chart_compare`` call it."""
    work = ta * tb * -(-bits_a // _BLOCK_BITS) * -(-bits_b // _BLOCK_BITS)
    if work > MAX_WORK:
        raise DomainError(f"a product of polynomials with {ta} x {tb} terms and "
                          f"coefficients of {bits_a} and {bits_b} bits costs {work} "
                          f"units, more than MAX_WORK = {MAX_WORK}")


def _frac_str(x) -> str:
    """x as ``a`` or ``a/b``; ``DomainError`` when a part has more digits than
    Python prints (``sys.get_int_max_str_digits``), as a product may."""
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        bits = max(abs(x.numerator), x.denominator).bit_length()
        raise DomainError(f"a rational of {bits} bits has more than "
                          f"{sys.get_int_max_str_digits()} digits to print") from None


# ---------------- compiled float evaluation ----------------

def float_evaluator(polys: Sequence[PolyExpr], variables: Sequence[str]):
    """Compile ``f(x) -> [p.eval_float(x) for p in polys]`` for
    polynomial-grade ``polys``, with ``x`` a point of floats in ``variables``
    order; each value is bit-identical to ``eval_float`` (see
    :func:`_float_sum_lines`)."""
    variables = tuple(variables)
    xs = [f"x{i}" for i in range(len(variables))]
    lines = ["def f(x):"]
    if xs:
        lines.append(f"    {', '.join(xs)}, = x")
    for k, p in enumerate(polys):
        lines += ["    " + line
                  for line in _float_sum_lines(p.with_vars(variables), xs, f"a{k}")]
    lines.append(f"    return [{', '.join(f'a{k}' for k in range(len(polys)))}]")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<float_evaluator>", "exec"), namespace)
    return namespace["f"]


def _float_sum_lines(p: PolyExpr, xs: Sequence[str], acc: str) -> list[str]:
    """Straight-line statements that set the float ``acc`` to
    ``p.eval_float`` at the floats named ``xs`` (in ``p.vars`` order), for
    polynomial-grade ``p``: one statement per term, in term order, the first
    ``acc = 0.0 + ...`` and the rest ``acc += ...``, each term of the form
    ``C * xi ** e * ...`` (``acc = 0.0`` when ``p`` is zero).

    ``C`` is the ``repr`` of the float coefficient, which reads back
    exactly, the variables follow their order and zero exponents are left
    out.  Those are the float operations ``eval_float`` performs, in the
    same order, so the value is bit-identical to it and a power that
    overflows raises ``OverflowError`` as it does there.  Operations that
    cannot change a bit are left out:

    - ``xi ** 1`` is written ``xi``: it is ``xi`` for every float.
    - A coefficient of 1 or -1 before a variable goes into the sum's ``+``
      or ``-``: ``1.0 * v`` is ``v`` and ``a + -1.0 * v`` is ``a - v``,
      signed zeros included.  (Of two NaN operands CPython's float add
      keeps either NaN, depending on whether the instruction has been
      specialized, so NaN bits are not ``eval_float``'s to fix.)
    - The first term keeps its ``0.0 +`` or ``0.0 -``, which turns a
      ``-0.0`` into ``+0.0`` as ``eval_float``'s sum does.

    Powers ``e >= 2`` keep ``**``; repeated products would round
    differently.  One flat statement per term keeps the parser's nesting
    limit out of reach at any term count.  A coefficient too large for a
    float raises ``OverflowError`` here, where ``eval_float`` would raise it
    on every call.  Every generated float evaluation goes through here.
    """
    p.require_polynomial_grade("float-evaluated polynomial")
    lines = []
    for m, c in p.terms.items():
        powers = [x if e == 1 else f"{x} ** {e}" for x, e in zip(xs, m) if e]
        if powers and c in (1, -1):
            op, factors = "+" if c == 1 else "-", powers
        else:
            op, factors = "+", [repr(float(c))] + powers
        product = " * ".join(factors)
        lines.append(f"{acc} {op}= {product}" if lines else f"{acc} = 0.0 {op} {product}")
    return lines or [f"{acc} = 0.0"]


# ---------------- divisibility ----------------

def exact_divisibility(p: PolyExpr, q: PolyExpr):
    """``(True, p / q)`` when q divides p over Q[x], else ``(False, None)``.
    By Gauss's lemma the primitive parts of the numerators then divide over
    Z: the remainder's leading term (its keys on a max-heap, in the lex order
    of packed keys) is cancelled until a monomial or coefficient that q's
    leading one does not divide, or an exponent past MAX_EXPONENT (which an
    exact quotient's steps never reach), proves indivisibility."""
    p.require_polynomial_grade("dividend")
    q.require_polynomial_grade("divisor")
    if q.is_zero():
        raise DomainError("division by the zero polynomial")
    q = q.with_vars(p.vars) if q.vars != p.vars else q
    cp, cq = gcd(*p._num.values()), gcd(*q._num.values())
    rem = {m: c // cp for m, c in p._num.items()}
    lead = max(q._num)
    lc, rest = q._num[lead] // cq, [(m, c // cq) for m, c in q._num.items() if m != lead]
    guard, heap, quot = _LAYOUTS[len(p.vars)][1], [-m for m in rem], {}
    heapify(heap)
    while heap:
        m = -heappop(heap)
        k, r = divmod(rem.pop(m, 0), lc)
        if not (k or r):
            continue                # cancelled, or pushed again
        e = (m | guard) - lead      # a field that borrows clears its top bit
        if r or m & guard or e & guard != guard:
            return False, None
        e ^= guard
        quot[e] = k
        for m2, c2 in rest:
            heappush(heap, -(e + m2))
            rem[e + m2] = rem.get(e + m2, 0) - k * c2
    f = Fraction(cp * q._den, cq * p._den)
    return True, _reduced(p.vars, {e: k * f.numerator for e, k in quot.items()},
                          f.denominator, True)


def _constant_ratio(p: PolyExpr, d: PolyExpr):
    """The rational c with p = c * d for nonzero ``d`` over p's variables,
    or None when there is none: p has d's monomials and its numerators are
    proportional to d's, tested by integer cross-multiplication on the
    stored form without building c * d."""
    pn, dn = p._num, d._num
    if not pn:
        return Fraction(0)
    if pn.keys() != dn.keys():
        return None
    k = next(iter(dn))
    a, b = pn[k], dn[k]
    if any(c * b != a * dn[m] for m, c in pn.items()):
        return None
    return Fraction(a * d._den, b * p._den)


# ---------------- independence at one point mod p ----------------

# The Mersenne prime 2^61 - 1 and one fixed point of nonzero residues mod it,
# one per variable up to MAX_DIM = 8, drawn once by random.Random(20010517).
_P = (1 << 61) - 1
_POINT = (1143547714515111653, 2145097395435881441, 2303779485830185600,
          165108489663482480, 202681957949839857, 767327945536792812,
          15466996322994716, 560798243264439149)


def _independent_mod_p(polys) -> bool:
    """True when the gradients of the integer numerators of ``polys``
    (polynomial-grade, over one set of at most 8 variables) have full row
    rank at ``_POINT`` mod ``_P``.  Then some l x l minor of them is nonzero
    mod p at the point, so nonzero over Z there, so the polynomial minor is
    nonzero: dp_1 ^ ... ^ dp_l != 0 over Q[x], the numerators' gradients
    being the den multiples of the values' own.  False proves nothing: the
    point or the prime may be unlucky, and the caller falls back to exact
    minors.

    Each partial is read off the packed terms, with no ``diff`` and no
    ``PolyExpr``, times its variable: x_j d/dx_j of c x^m at the point is
    m_j c x^m.  Scaling column j by the nonzero x_j keeps the rank."""
    n = len(polys[0].vars) if polys else 0
    basis = []              # (pivot column, row) of the rows before, mod p
    for p in polys:
        row = [0] * n
        for k, c in p._num.items():
            fields = []     # (j, m_j) of the term's variables, top field first
            while k:
                j = (k.bit_length() - 1) // FIELD_BITS
                e = k >> j * FIELD_BITS
                k -= e << j * FIELD_BITS
                j = n - 1 - j
                c *= pow(_POINT[j], e, _P)
                fields.append((j, e))
            c %= _P
            for j, e in fields:
                row[j] += c * e
        # fraction-free, a row at a time: reduced by the rows before, it is 0
        # at their pivots and needs a nonzero entry of its own
        for col, top in basis:
            if f := row[col] % _P:
                t = top[col]
                row = [(t * a - f * b) % _P for a, b in zip(row, top)]
        for col, a in enumerate(row):
            if a % _P:
                break
        else:
            return False
        basis.append((col, row))
    return True


# ---------------- monomial maps ----------------

def _bareiss(m, width=None) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968) of
    the integer rows ``m``, in place, pivoting in their first ``width``
    columns (all of them by default).  Returns (rank, d), d the last pivot.
    Every entry is then a minor of the input, so dividing by the previous
    pivot is exact; a swap negates the row it moves up, so d is the
    determinant of a square matrix of full rank.  The pivot rows end with d
    in their own pivot column and 0 in the others: [A | I] ends as
    [d I | d A^-1] for a nonsingular A."""
    if width is None:
        width = len(m[0]) if m else 0
    rank, prev = 0, 1
    for col in range(width):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = [-a for a in m[piv]], m[rank]
        top = m[rank]
        p = top[col]
        for r, row in enumerate(m):
            if r != rank:
                f = row[col]
                m[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank, prev


def _integer_lattice(rows) -> tuple:
    """``(D, N)`` with rows = N / D for a rational matrix: D is the least
    common denominator of its entries and N has int entries."""
    den = lcm(*(e.denominator for row in rows for e in row))
    return den, tuple(tuple(int(e * den) for e in row) for row in rows)


def _require_power_bits(num: int, den: int, e) -> None:
    """Refuse with ``DomainError`` the power ``e`` of num / den when a part
    of the result would have more than MAX_POWER_BITS bits.  A part with
    b bits is at least 2 ** (b - 1), so it has at least (b - 1) * |e| bits
    in the power: that is the size refused."""
    bits = max(num.bit_length(), den.bit_length()) - 1
    if bits * abs(e) > MAX_POWER_BITS:
        raise DomainError(f"the power {e} of a {bits + 1}-bit rational would have "
                          f"more than MAX_POWER_BITS = {MAX_POWER_BITS} bits")


def _rational_pow(base: Fraction, e) -> Fraction:
    """base**e staying in Q; DomainError when the root is irrational or when
    the numerator or denominator of the result would have more than
    MAX_POWER_BITS bits (see :func:`_require_power_bits`)."""
    base = Fraction(base)
    if isinstance(e, int):
        if base == 0 and e < 0:
            raise DomainError("zero scale with negative exponent")
    else:
        e = Fraction(e)
        if base <= 0:
            raise DomainError(f"cannot take rational power {e} of {_frac_str(base)}")
    num, den = base.numerator, base.denominator
    _require_power_bits(num, den, e)
    if isinstance(e, int):
        return base ** e

    def iroot(v, r):
        # integer Newton iteration, exact for arbitrary magnitudes
        if v < 2 or r == 1:
            return v
        if r >= v.bit_length():
            # 1 < v < 2 ** r, so the root lies strictly between 1 and 2
            raise DomainError(f"{_frac_str(v)} has no exact integer {r}-th root")
        x = 1 << ((v.bit_length() + r - 1) // r + 1)
        while True:
            y = ((r - 1) * x + v // x ** (r - 1)) // r
            if y >= x:
                break
            x = y
        if x ** r == v:
            return x
        raise DomainError(f"{_frac_str(v)} has no exact integer {r}-th root")

    r = e.denominator
    rooted = Fraction(iroot(num, r), iroot(den, r))
    return rooted ** e.numerator


class MonomialMap:
    """Invertible change of variables by scaled monomials.

    Row a declares ``new_a = scale_a * prod_i old_i ** matrix[a][i]``.  The
    exponent matrix must be invertible over Q, and neither variable tuple
    may repeat a name.  The matrix and its inverse are also kept as integer
    lattices (see :func:`_integer_lattice`).
    """

    def __init__(self, old_vars, new_vars, matrix, scales=None):
        self.old_vars = tuple(old_vars)
        self.new_vars = tuple(new_vars)
        for names, which in ((self.old_vars, "old"), (self.new_vars, "new")):
            if len(set(names)) != len(names):
                twice = next(v for v in names if names.count(v) > 1)
                raise VariableSetError(f"{which} variable {twice} is named twice in the map")
        n = len(self.old_vars)
        if len(self.new_vars) != n:
            raise SingularMapError("monomial map must be square")
        self.matrix = tuple(tuple(_exp(Fraction(e)) for e in row) for row in matrix)
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise SingularMapError("exponent matrix shape mismatch")
        self.scales = tuple(_coeff(s) for s in (scales or [1] * n))
        if any(s == 0 for s in self.scales):
            raise SingularMapError("zero scale factor")
        self._forward_lattice = den, rows = _integer_lattice(self.matrix)
        # [N | I] -> [d I | d N^-1], with matrix = N / den and d = det N
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        rank, self._det = _bareiss(aug, n)
        if rank < n:
            raise SingularMapError("exponent matrix is singular")
        # matrix^-1 = den * N^-1 in lowest terms: the least common
        # denominator of den * (d N^-1) / d is |d| / g, g the gcd of d and
        # the numerators
        adj = [[den * a for a in row[n:]] for row in aug]
        g = gcd(self._det, *(a for row in adj for a in row))
        g = g if self._det > 0 else -g
        self._inverse_lattice = (self._det // g,
                                 tuple(tuple(a // g for a in row) for row in adj))
        self._dscales = None
        self._jacobian = None

    @classmethod
    def from_monomials(cls, old_vars, assignments):
        """Build from ``[(new_name, PolyExpr monomial in old vars), ...]``."""
        old_vars = tuple(old_vars)
        new_vars, rows, scales = [], [], []
        for name, mono in assignments:
            if not mono.is_monomial():
                raise SingularMapError(f"{name} is not a single monomial")
            (exps, coef), = mono.terms.items()
            new_vars.append(name)
            rows.append(exps)
            scales.append(coef)
        return cls(old_vars, new_vars, rows, scales)

    def _scale_factors(self) -> tuple:
        """The d_i of ``old_i = d_i * prod_a new_a ** inverse[i][a]``, that
        is d_i = prod_a scale_a ** -inverse[i][a], computed on first use.
        Raises ``DomainError`` (on every call, since nothing is stored then)
        when one leaves Q."""
        if self._dscales is None:
            den, rows = self._inverse_lattice
            self._dscales = tuple(
                prod((_rational_pow(s, _exp_over(-e, den))
                      for s, e in zip(self.scales, row) if s != 1 and e),
                     start=Fraction(1))
                for row in rows)
        return self._dscales

    def inverse(self) -> "MonomialMap":
        den, rows = self._inverse_lattice
        return MonomialMap(self.new_vars, self.old_vars,
                           [[_exp_over(e, den) for e in row] for row in rows],
                           self._scale_factors())

    def forward_exprs(self) -> list[PolyExpr]:
        """The new variables as (possibly Puiseux) monomials of the old."""
        out = []
        for a in range(len(self.new_vars)):
            out.append(PolyExpr(self.old_vars, {self.matrix[a]: self.scales[a]}))
        return out

    def jacobian_det_monomial(self) -> PolyExpr:
        """det(d new/d old) as a monomial of the old variables, computed on
        first use."""
        if self._jacobian is None:
            n = len(self.old_vars)
            det = Fraction(self._det, self._forward_lattice[0] ** n)
            for s in self.scales:
                det *= s
            exps = tuple(_exp(sum(self.matrix[a][i] for a in range(n)) - 1)
                         for i in range(n))
            self._jacobian = PolyExpr(self.old_vars, {exps: det})
        return self._jacobian


def substitute(p: PolyExpr, mmap: MonomialMap) -> PolyExpr:
    """Re-express ``p`` (over the map's old variables) in the new variables.

    Exponent vectors transform linearly through the inverse matrix, so the
    result is exact; it may carry rational exponents.
    """
    if p.vars != mmap.old_vars:
        p = p.with_vars(mmap.old_vars)
    num = _tuple_num(p)
    scale = 1
    if not p._grade:
        scale = lcm(*(e.denominator for m in num for e in m))
        num = {tuple(int(e * scale) for e in m): c for m, c in num.items()}
    return _lattice_image(mmap, num, p._den, scale)


def _exp_over(k: int, den: int):
    """The exponent k/den as ``PolyExpr`` keeps it: an int when den divides
    k, else a reduced Fraction."""
    return k // den if k % den == 0 else Fraction(k, den)


def _lattice_image(mmap: MonomialMap, num: dict, den: int, scale: int) -> PolyExpr:
    """The terms ``num`` / ``den`` over the map's old variables, keyed by
    the integer vectors ``scale * x`` of their exponent vectors x,
    re-expressed in the new variables.

    With old_i = d_i * prod_a new_a ** inverse[i][a] and inverse = N / D, a
    term x goes to the exponent vector (scale * x) . N / (scale * D), found
    by integer dot products, and its coefficient gains the factor
    prod_i d_i ** x_i.  The map is injective on exponent vectors, so no two
    terms meet.  Every call asks the map for the d_i, so a d_i outside Q
    raises ``DomainError`` every time; their powers are taken only for the
    terms given.  A result with an exponent outside the limit (see
    :func:`_outside`) raises ``DomainError``.
    """
    dscales = mmap._scale_factors()
    lat_den, rows = mmap._inverse_lattice
    cols = tuple(zip(*rows))
    total = scale * lat_den
    keys = [tuple(_exp_over(sum(map(mul, x, col)), total) for col in cols)
            for x in num]
    powered = [(i, d) for i, d in enumerate(dscales) if d != 1]
    if not powered:
        return _reduced(mmap.new_vars, dict(zip(keys, num.values())), den, False)
    frac = {}
    for key, (x, c) in zip(keys, num.items()):
        coef = Fraction(c, den)
        for i, d in powered:
            if x[i]:
                coef *= _rational_pow(d, _exp_over(x[i], scale))
        frac[key] = coef
    return _new(mmap.new_vars, *_over_common_den(frac), False)
