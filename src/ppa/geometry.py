"""Coordinate transport and projective-geometry checks.

transport_bracket pushes a bracket table through an invertible monomial
change of variables y_a = s_a * x ** M_a.  It uses the closed form of the
transported bracket (see its docstring): each entry is accumulated over
integer exponent vectors, the exponent matrix and its inverse being kept
as integer lattices over one denominator, and only the terms that survive
cancellation are re-expressed in the new variables.  Everything stays
exact.  Intermediate terms may carry fractional exponents, and only the
final re-expressed entries are judged: for polynomial grade (the interesting
output for the mirror-type maps) and against the exponent limit.

chart_compare substitutes z = -rest / a, the root of an eliminator linear in
z, into a bracket in one more variable.  z is kept as integer exponent
vectors too, with its powers built once per call, and each entry's residual
against the first chart is one pass over integer tuples; only the residuals
become ``PolyExpr`` values, and the exponent limit is judged on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add, itemgetter, sub
from typing import Optional

from .errors import DomainError, PolynomialGradeError
from .poly import (MonomialMap, PolyExpr, _accumulate_tuples, _constant_ratio,
                   _exp_over, _lattice_image, _reduced, _require_work, _tuple_num)
from .structures import PoissonStructure


@dataclass
class TransportResult:
    new_vars: tuple
    entries: list            # full antisymmetric matrix of PolyExpr (maybe Puiseux)
    polynomial_grade: bool

    def structure(self) -> PoissonStructure:
        if not self.polynomial_grade:
            raise PolynomialGradeError(
                "transported brackets have fractional exponents")
        return PoissonStructure._trusted(self.new_vars, self.entries)


def transport_bracket(ps: PoissonStructure, mmap: MonomialMap) -> TransportResult:
    """Push ``ps`` through ``mmap``, y_a = s_a * x ** M_a.

    Since dy_a/dx_i = M_ai * y_a / x_i, the bracket has the closed form
    {y_a, y_b} = sum_{i<j} s_a s_b (M_ai M_bj - M_aj M_bi)
    * x ** (M_a + M_b - e_i - e_j) * p_ij: each entry is one pass over the
    terms of the p_ij that shifts their exponent vectors, all scaled to
    integers by the least common denominator of M.  The terms that survive
    cancellation are re-expressed in the new variables through the inverse
    map, as :func:`substitute` does.  Limits are judged on those entries
    only: an entry with an exponent e past the limit every value keeps (|e|
    or its denominator past ``MAX_EXPONENT``) raises ``DomainError``, as
    does a scale factor outside Q."""
    if tuple(mmap.old_vars) != ps.vars:
        raise DomainError("map old variables do not match the structure")
    n = ps.n
    scale, lattice = mmap._forward_lattice      # M = lattice / scale
    table = [(i, j, p._den, _tuple_num(p)) for (i, j), p in ps.entries_upper()
             if not p.is_zero()]
    # each minor of M is an integer minor of the lattice over scale^2, and
    # the p_ij go over their common denominator
    p_den = lcm(*(den for _, _, den, _ in table))
    table = [(i, j, p_den // den,
              [(tuple(e * scale for e in m), c) for m, c in num.items()])
             for i, j, den, num in table]
    zero = PolyExpr.zero(mmap.new_vars)
    entries = [[zero] * n for _ in range(n)]
    grade_ok = True
    for a, b in combinations(range(n), 2):
        la, lb = lattice[a], lattice[b]
        sab = mmap.scales[a] * mmap.scales[b]
        acc: dict = {}
        for i, j, lift, terms in table:
            minor = la[i] * lb[j] - la[j] * lb[i]
            if not minor:
                continue
            shift = list(map(add, la, lb))
            shift[i] -= scale
            shift[j] -= scale
            _accumulate_tuples(acc, ((shift, sab.numerator * minor * lift),), terms)
        common = sab.denominator * scale * scale * p_den
        out = _lattice_image(mmap, acc, common, scale)
        entries[a][b] = out
        entries[b][a] = -out
        grade_ok = grade_ok and out.is_polynomial_grade()
    return TransportResult(tuple(mmap.new_vars), entries, grade_ok)


@dataclass
class ExtendabilityVerdict:
    max_degree: int
    degree_ok: bool
    cyclic_residuals: dict   # (i, j, k) -> PolyExpr
    extendable_necessary_conditions: bool


def check_projective_extendability(ps: PoissonStructure) -> ExtendabilityVerdict:
    """Necessary conditions for a holomorphic extension to projective space.

    Every bracket entry must have degree at most 3 and the degree-3 parts
    must satisfy the cyclic cancellation
    X_k {X_i,X_j}_3 + X_i {X_j,X_k}_3 + X_j {X_k,X_i}_3 = 0.  These are
    necessary only; a clean verdict means "no obstruction found", never a
    proof of extendability.
    """
    max_deg = 0
    for _, p in ps.entries_upper():
        d = p.total_degree()
        if d is not None:
            max_deg = max(max_deg, d)
    degree_ok = max_deg <= 3
    gens = PolyExpr.gens(ps.vars)
    top = [[ps.matrix[i][j].homogeneous_component(3) for j in range(ps.n)]
           for i in range(ps.n)]
    residuals = {}
    for i, j, k in combinations(range(ps.n), 3):
        r = gens[k] * top[i][j] + gens[i] * top[j][k] + gens[j] * top[k][i]
        if not r.is_zero():
            residuals[(i, j, k)] = r
    return ExtendabilityVerdict(
        max_degree=max_deg,
        degree_ok=degree_ok,
        cyclic_residuals=residuals,
        extendable_necessary_conditions=degree_ok and not residuals,
    )


@dataclass
class ChartComparison:
    agree: bool
    constant: Optional[Fraction]
    residuals: dict          # (i, j) -> PolyExpr, denominators cleared
    eliminated_var: str


def chart_compare(ps_a: PoissonStructure, ps_b: PoissonStructure,
                  eliminator: PolyExpr) -> ChartComparison:
    """Compare two derivations of one bracket across charts.

    ``ps_b`` lives in the variables of ``ps_a`` plus one extra variable z;
    ``eliminator`` = a * z + rest must be linear in z with a single-monomial
    z-coefficient a, so z = -rest / a is a Laurent (or Puiseux) expression
    in the variables of ``ps_a``.  The first pair of nonzero entries fixes
    one global constant c; each residual b - c * a (c = 1 while none is
    fixed), b being the entry of ``ps_b`` at that z, is multiplied by the
    least monomial that clears its negative exponents.  z is one dict over
    integer exponent vectors (scaled by the least common denominator of the
    eliminator's exponents) whose powers are built once, and each residual
    is one pass over the terms of b and a.  A residual with a fractional
    exponent raises ``PolynomialGradeError``; the entry b that fixes c, or a
    residual, with an exponent e past the limit every value keeps (|e| or
    its denominator past ``MAX_EXPONENT``), and a power of z past the work
    budget ``MAX_WORK``, raise ``DomainError``.
    """
    extra = [v for v in ps_b.vars if v not in ps_a.vars]
    if len(extra) != 1:
        raise DomainError("second structure must add exactly one variable")
    z = extra[0]
    elim = eliminator.with_vars(ps_b.vars)
    zi = ps_b.vars.index(z)
    terms = _tuple_num(elim)
    if any(m[zi] not in (0, 1) for m in terms) or all(m[zi] == 0 for m in terms):
        raise DomainError(f"eliminator must have degree exactly 1 in {z}")
    linear = [(m, c) for m, c in terms.items() if m[zi] == 1]
    if len(linear) != 1:
        raise DomainError("z-coefficient of the eliminator must be one monomial")
    missing = [v for v in ps_a.vars if v not in ps_b.vars]
    if missing:
        raise DomainError(f"variable {missing[0]} of the first structure is "
                          f"not a variable of the second")
    if ps_a.n < 2:
        return ChartComparison(agree=True, constant=None, residuals={}, eliminated_var=z)
    order = [ps_b.vars.index(v) for v in ps_a.vars]
    pick = itemgetter(*order)
    scale = 1 if elim._grade else lcm(*(e.denominator for m in terms for e in m
                                         if isinstance(e, Fraction)))
    (am, ac), = linear
    zden = abs(ac)
    # z = -rest / a over zden; powers[e] holds the terms of z ** e over zden ** e
    zterms = [(tuple(int((e - f) * scale) for e, f in zip(pick(m), pick(am))),
               -c if ac > 0 else c) for m, c in terms.items() if m[zi] == 0]
    zbits = max((abs(c) for _, c in zterms), default=0).bit_length()
    zero = (0,) * ps_a.n
    powers = [[(zero, 1)]]
    residuals = {}
    constant: Optional[Fraction] = None
    anchored = False
    for ai, aj in combinations(range(ps_a.n), 2):
        a_entry, b_entry = ps_a.matrix[ai][aj], ps_b.matrix[order[ai]][order[aj]]
        num = _tuple_num(b_entry)
        top = max((m[zi] for m in num), default=0)
        while len(powers) <= top:
            last = powers[-1]
            bits = max((abs(c) for _, c in last), default=0).bit_length()
            _require_work(len(last), bits, len(zterms), zbits)
            nxt: dict = {}
            _accumulate_tuples(nxt, last, zterms)
            powers.append(list(nxt.items()))
        c = constant if constant is not None else Fraction(1)
        # (b - c * a) * lift over den, with lift clearing c's and a's denominators
        b_den = b_entry._den * zden ** top
        lift = c.denominator * a_entry._den
        den = b_den * lift
        acc: dict = {}
        for m, cb in num.items():
            base = pick(m) if scale == 1 else tuple(e * scale for e in pick(m))
            _accumulate_tuples(acc, ((base, cb * zden ** (top - m[zi]) * lift),),
                               powers[m[zi]])
        if not anchored and acc and a_entry._num:
            anchored = True
            b = {tuple(_exp_over(e, scale) for e in m): t for m, t in acc.items()}
            constant = _constant_ratio(_reduced(ps_a.vars, b, den, False), a_entry)
            if constant is not None:
                continue
        a_terms = _tuple_num(a_entry).items()
        _accumulate_tuples(acc, ((zero, -c.numerator * b_den),), a_terms if scale == 1 else
                           [(tuple(e * scale for e in m), t) for m, t in a_terms])
        if acc:
            residuals[(ai, aj)] = _cleared(ps_a.vars, acc, den, scale)
    return ChartComparison(agree=not residuals, constant=constant,
                           residuals=residuals, eliminated_var=z)


def _cleared(variables, acc: dict, den: int, scale: int) -> PolyExpr:
    """``acc`` / ``den``, keyed by exponent vectors times ``scale``, times
    the least monomial that makes every exponent nonnegative."""
    if scale != 1 and any(e % scale for m in acc for e in m):
        raise PolynomialGradeError("fractional exponents cannot be cleared by a monomial")
    low = [min(0, *col) for col in zip(*acc)]
    if scale != 1:
        acc = {tuple((e - s) // scale for e, s in zip(m, low)): c for m, c in acc.items()}
    elif any(low):
        acc = {tuple(map(sub, m, low)): c for m, c in acc.items()}
    return _reduced(variables, acc, den, False)

