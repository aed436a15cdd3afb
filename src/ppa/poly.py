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
common denominator, reduced so that gcd(den, *numerators) == 1.  That form
is unique, so equality and hashing compare the stored fields directly, and
products and sums run on Python ints, dividing out the content only when the
denominator is not 1 (after Monagan & Pearce, CASC 2007).  ``terms`` is the
read-only ``Fraction`` view of the same coefficients, built on first use.
Every result is exact; term order follows the same accumulation as
``Fraction`` arithmetic would, so iteration order (and with it float sums
over the terms) does not depend on the representation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    DomainError,
    PolynomialGradeError,
    SingularMapError,
    VariableSetError,
)

ExactRational = Fraction


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


class PolyExpr:
    """Immutable sparse polynomial with rational coefficients and exponents."""

    __slots__ = ("vars", "_num", "_den", "_grade", "_terms")

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
        _fill(self, variables, *_over_common_den(clean), _is_grade(clean))

    def __setattr__(self, *a):
        raise AttributeError("PolyExpr is immutable")

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Read-only ``{exponent tuple: Fraction}`` view, in term order."""
        view = self._terms
        if view is None:
            den = self._den
            view = MappingProxyType({m: Fraction(c, den) for m, c in self._num.items()})
            _set_terms(self, view)
        return view

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
        return _new(variables, {(0,) * len(variables): value.numerator},
                    value.denominator, True)

    @classmethod
    def var(cls, name: str, variables) -> "PolyExpr":
        variables = tuple(variables)
        i = variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        return _new(variables, {mono: 1}, 1, True)

    @classmethod
    def gens(cls, variables) -> tuple["PolyExpr", ...]:
        variables = tuple(variables)
        return tuple(cls.var(v, variables) for v in variables)

    # ---------------- predicates ----------------

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and not any(next(iter(num))))

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise DomainError(f"not a constant: {self}")
        return Fraction(next(iter(self._num.values())), self._den)

    def is_polynomial_grade(self) -> bool:
        return self._grade

    def require_polynomial_grade(self, what="operand"):
        if not self._grade:
            raise PolynomialGradeError(
                f"{what} has fractional or negative exponents: {self}")
        return self

    def is_monomial(self) -> bool:
        return len(self._num) == 1

    # ---------------- arithmetic ----------------

    def _align(self, other):
        """Return (a, b) over one variable set; constants adapt to the other
        side, anything else must match exactly."""
        if not isinstance(other, PolyExpr):
            if isinstance(other, (int, Fraction)):
                return self, PolyExpr.const(self.vars, other)
            return None, None
        if self.vars == other.vars:
            return self, other
        if other.is_constant():
            return self, PolyExpr.const(self.vars, other.constant_value())
        if self.is_constant():
            return PolyExpr.const(other.vars, self.constant_value()), other
        raise VariableSetError(
            f"variable sets differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return _sum(a, b, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.vars, {m: -c for m, c in self._num.items()}, self._den, self._grade)

    def __sub__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return _sum(a, b, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coeff(other)
            if other == 0:
                return PolyExpr.zero(self.vars)
            k = other.numerator
            return _reduced(self.vars, {m: c * k for m, c in self._num.items()},
                            self._den * other.denominator, self._grade)
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        out: dict = {}
        get = out.get
        right = list(b._num.items())
        grade = a._grade and b._grade
        for m1, c1 in a._num.items():
            for m2, c2 in right:
                m = tuple(map(add, m1, m2)) if grade else tuple(map(_exp, map(add, m1, m2)))
                s = get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _reduced(a.vars, out, a._den * b._den, grade or _is_grade(out))

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
        out = PolyExpr.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
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
        return hash((self.vars, self._den, frozenset(self._num.items())))

    # ---------------- calculus / structure ----------------

    def diff(self, var: str) -> "PolyExpr":
        """Formal partial derivative; rational exponents use the power rule."""
        i = self.vars.index(var)
        if self._grade:
            # e -> e - 1 is injective on the surviving terms: nothing collides
            out = {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                   for m, c in self._num.items() if m[i]}
            return _reduced(self.vars, out, self._den, True)
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
        return _new(self.vars, *_over_common_den(frac), _is_grade(frac))

    def total_degree(self):
        """Maximum term degree (None for the zero polynomial)."""
        if self.is_zero():
            return None
        return max(sum(m) for m in self._num)

    def weighted_degree(self, weights: Sequence[int]):
        if self.is_zero():
            return None
        if len(weights) != len(self.vars):
            raise VariableSetError("weight tuple does not match variables")
        return max(sum(w * e for w, e in zip(weights, m)) for m in self._num)

    def is_weighted_homogeneous(self, weights: Sequence[int]) -> bool:
        degs = {sum(w * e for w, e in zip(weights, m)) for m in self._num}
        return len(degs) <= 1

    def homogeneous_component(self, degree: int) -> "PolyExpr":
        out = {m: c for m, c in self._num.items() if sum(m) == degree}
        return _reduced(self.vars, out, self._den, self._grade or _is_grade(out))

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        if self.is_zero():
            raise DomainError("zero polynomial has no leading term")
        m = max(self._num, key=monomial_key)
        return m, Fraction(self._num[m], self._den)

    def coefficient(self, mono: tuple) -> Fraction:
        c = self._num.get(tuple(_exp(e) for e in mono))
        return Fraction(0) if c is None else Fraction(c, self._den)

    # ---------------- evaluation ----------------

    def eval_exact(self, point: Sequence) -> Fraction:
        """Exact rational evaluation; only integer exponents are allowed."""
        if len(point) != len(self.vars):
            raise VariableSetError("point dimension does not match variables")
        pt = [_coeff(x) for x in point]
        if not self._grade:
            return self._eval_exact_laurent(pt)
        if not self._num:
            return Fraction(0)
        # x_i = p_i/q_i; with E_i the top exponent of x_i, each term is
        # c * prod p_i^e * q_i^(E_i - e) over den * prod q_i^E_i.
        tops = [max(col) for col in zip(*self._num)]
        scaled = []
        den = self._den
        for x, top in zip(pt, tops):
            p, q = x.numerator, x.denominator
            pw = [1] * (top + 1)
            for e in range(1, top + 1):
                pw[e] = pw[e - 1] * p
            if q != 1:
                qw = q
                for e in range(top - 1, -1, -1):
                    pw[e] *= qw
                    qw *= q
                den *= q ** top
            scaled.append(pw)
        total = 0
        for m, c in self._num.items():
            for pw, e in zip(scaled, m):
                c *= pw[e]
            total += c
        return Fraction(total, den)

    def _eval_exact_laurent(self, pt) -> Fraction:
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
        pos = []
        for i, v in enumerate(self.vars):
            if v not in variables:
                if any(m[i] != 0 for m in self._num):
                    raise VariableSetError(f"variable {v} in use, cannot drop")
                pos.append(None)
            else:
                pos.append(variables.index(v))
        out: dict = {}
        for m, c in self._num.items():
            nm = [0] * len(variables)
            for i, e in enumerate(m):
                if e != 0:
                    nm[pos[i]] = e
            out[tuple(nm)] = c
        return _new(variables, out, self._den, self._grade)

    def subs_var(self, var: str, value: "PolyExpr") -> "PolyExpr":
        """Substitute one variable by a polynomial (integer powers only)."""
        i = self.vars.index(var)
        value = value.with_vars(self.vars)
        powers = {0: PolyExpr.const(self.vars, 1)}

        def vpow(e):
            if not isinstance(e, int) or e < 0:
                raise DomainError(
                    f"cannot substitute into exponent {e} of {var}")
            if e not in powers:
                powers[e] = vpow(e - 1) * value
            return powers[e]

        out = PolyExpr.zero(self.vars)
        for m, c in self._num.items():
            rest = m[:i] + (0,) + m[i + 1:]
            term = _reduced(self.vars, {rest: c}, self._den,
                            self._grade or _is_grade((rest,)))
            out = out + term * vpow(m[i])
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


def _fill(p, variables, num, den, grade):
    _set_vars(p, variables)
    _set_num(p, num)
    _set_den(p, den)
    _set_grade(p, grade)
    _set_terms(p, None)


def _new(variables, num, den, grade) -> PolyExpr:
    """Trusted constructor: ``num`` holds nonzero ints keyed by normalized
    exponent tuples, ``den`` > 0 and the pair is already reduced."""
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


def _over_common_den(frac: dict):
    """(numerators, denominator) of nonzero Fractions over their least common
    denominator; that pair is already reduced."""
    den = lcm(*(c.denominator for c in frac.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in frac.items()}, den


def _sum(a: PolyExpr, b: PolyExpr, sign: int) -> PolyExpr:
    """a + sign*b over one variable set.  b's terms are added in order to a
    copy of a's: a sum that cancels removes its key, so a later term with
    that monomial is appended at the end."""
    den = lcm(a._den, b._den)
    fa, fb = den // a._den, sign * (den // b._den)
    terms = dict(a._num) if fa == 1 else {m: c * fa for m, c in a._num.items()}
    get = terms.get
    for m, c in b._num.items():
        s = get(m, 0) + c * fb
        if s:
            terms[m] = s
        else:
            del terms[m]
    return _reduced(a.vars, terms, den, (a._grade and b._grade) or _is_grade(terms))


def _frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------- divisibility ----------------

def exact_divisibility(p: PolyExpr, q: PolyExpr):
    """Single-divisor exact division test under the graded-lex order.

    Returns ``(divisible, quotient)`` with ``quotient`` None when not
    divisible.  If p = q*r for a polynomial r the leading-term reduction
    always fires, so a stuck reduction proves indivisibility.
    """
    p.require_polynomial_grade("dividend")
    q.require_polynomial_grade("divisor")
    if q.is_zero():
        raise DomainError("division by the zero polynomial")
    q = q.with_vars(p.vars) if q.vars != p.vars else q
    qm, qc = q.leading()
    rem = p
    quot = PolyExpr.zero(p.vars)
    while not rem.is_zero():
        rm, rc = rem.leading()
        diff = tuple(a - b for a, b in zip(rm, qm))
        if any((not isinstance(e, int)) or e < 0 for e in diff):
            return False, None
        t = PolyExpr(p.vars, {diff: rc / qc})
        quot = quot + t
        rem = rem - t * q
    return True, quot


# ---------------- monomial maps ----------------

def _mat_inverse(rows):
    """Exact inverse of a square Fraction matrix (Gauss-Jordan)."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularMapError("exponent matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [x / d for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _rational_pow(base: Fraction, e) -> Fraction:
    """base**e staying in Q; DomainError when the root is irrational."""
    base = Fraction(base)
    if isinstance(e, int):
        if base == 0 and e < 0:
            raise DomainError("zero scale with negative exponent")
        return base ** e
    e = Fraction(e)
    if base <= 0:
        raise DomainError(f"cannot take rational power {e} of {base}")
    num, den = base.numerator, base.denominator

    def iroot(v, r):
        # integer Newton iteration, exact for arbitrary magnitudes
        if v == 0:
            return 0
        if r == 1:
            return v
        x = 1 << ((v.bit_length() + r - 1) // r + 1)
        while True:
            y = ((r - 1) * x + v // x ** (r - 1)) // r
            if y >= x:
                break
            x = y
        if x ** r == v:
            return x
        raise DomainError(f"{v} has no exact integer {r}-th root")

    r = e.denominator
    rooted = Fraction(iroot(num, r), iroot(den, r))
    return rooted ** e.numerator


class MonomialMap:
    """Invertible change of variables by scaled monomials.

    Row a declares ``new_a = scale_a * prod_i old_i ** matrix[a][i]``.  The
    exponent matrix must be invertible over Q.
    """

    def __init__(self, old_vars, new_vars, matrix, scales=None):
        self.old_vars = tuple(old_vars)
        self.new_vars = tuple(new_vars)
        n = len(self.old_vars)
        if len(self.new_vars) != n:
            raise SingularMapError("monomial map must be square")
        self.matrix = tuple(tuple(_exp(Fraction(e)) for e in row) for row in matrix)
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise SingularMapError("exponent matrix shape mismatch")
        self.scales = tuple(_coeff(s) for s in (scales or [1] * n))
        if any(s == 0 for s in self.scales):
            raise SingularMapError("zero scale factor")
        self._inv = _mat_inverse(self.matrix)  # raises when singular

    @classmethod
    def identity(cls, variables):
        variables = tuple(variables)
        n = len(variables)
        return cls(variables, variables,
                   [[int(i == j) for j in range(n)] for i in range(n)])

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

    def inverse(self) -> "MonomialMap":
        n = len(self.old_vars)
        inv_scales = []
        for i in range(n):
            s = Fraction(1)
            for a in range(n):
                s *= _rational_pow(self.scales[a], _exp(-Fraction(self._inv[i][a])))
            inv_scales.append(s)
        return MonomialMap(self.new_vars, self.old_vars,
                           [[self._inv[i][a] for a in range(n)] for i in range(n)],
                           inv_scales)

    def forward_exprs(self) -> list[PolyExpr]:
        """The new variables as (possibly Puiseux) monomials of the old."""
        out = []
        for a in range(len(self.new_vars)):
            out.append(PolyExpr(self.old_vars, {self.matrix[a]: self.scales[a]}))
        return out

    def jacobian_det_monomial(self) -> PolyExpr:
        """det(d new/d old) as a monomial of the old variables."""
        n = len(self.old_vars)
        det = _det_fraction(self.matrix)
        for s in self.scales:
            det *= s
        exps = tuple(_exp(sum(self.matrix[a][i] for a in range(n)) - 1) for i in range(n))
        return PolyExpr(self.old_vars, {exps: det})


def _det_fraction(rows):
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def substitute(p: PolyExpr, mmap: MonomialMap) -> PolyExpr:
    """Re-express ``p`` (over the map's old variables) in the new variables.

    Exponent vectors transform linearly through the inverse matrix, so the
    result is exact; it may carry rational exponents.
    """
    if p.vars != mmap.old_vars:
        p = p.with_vars(mmap.old_vars)
    n = len(mmap.old_vars)
    inv = mmap._inv
    # old_i = d_i * prod_a new_a ** inv[i][a]
    dscales = []
    for i in range(n):
        s = Fraction(1)
        for a in range(n):
            e = _exp(Fraction(inv[i][a]))
            if mmap.scales[a] != 1 and e != 0:
                s *= _rational_pow(mmap.scales[a], _exp(-Fraction(e)))
        dscales.append(s)
    out: dict = {}
    for mono, c in p.terms.items():
        coef = c
        new_e = [Fraction(0)] * n
        for i, e in enumerate(mono):
            if e == 0:
                continue
            coef *= _rational_pow(dscales[i], e) if dscales[i] != 1 else 1
            for a in range(n):
                new_e[a] += Fraction(e) * Fraction(inv[i][a])
        key = tuple(_exp(x) for x in new_e)
        s = out.get(key, Fraction(0)) + coef
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return PolyExpr(mmap.new_vars, out)
