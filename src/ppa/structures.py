"""Poisson and Nambu structures on polynomial rings.

A Poisson structure is an antisymmetric matrix of polynomial brackets of the
coordinates, either given as an explicit table or constructed from n-2
Casimirs Q_i and a multiplier through

    {f, g} = multiplier * (df ^ dg ^ dQ_1 ^ ... ^ dQ_{n-2}) / (dx_1 ^ ... ^ dx_n).

Nambu structures keep m Casimirs and expose the (n-m)-ary bracket of the same
determinantal shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import ArityError, DomainError
from .exterior import (
    PolyMultivector,
    differential,
    indices_of,
    mask_of,
    pfaffian,
    shuffle_signature,
    wedge_all,
)
from .poly import PolyExpr, exact_divisibility


@dataclass(frozen=True)
class JacobianProvenance:
    casimirs: tuple[PolyExpr, ...]
    multiplier: PolyExpr


@dataclass(frozen=True)
class ExplicitTable:
    pass


class PoissonStructure:
    """Antisymmetric bracket matrix over a fixed variable tuple."""

    def __init__(self, variables: Sequence[str], matrix, provenance=None):
        self.vars = tuple(variables)
        n = len(self.vars)
        self.n = n
        self.matrix = [[PolyExpr.zero(self.vars) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                e = matrix[i][j]
                if e is None:
                    continue
                e.require_polynomial_grade(f"bracket entry ({i},{j})")
                self.matrix[i][j] = e.with_vars(self.vars) if e.vars != self.vars else e
        for i in range(n):
            if not self.matrix[i][i].is_zero():
                raise DomainError(f"nonzero diagonal bracket at {i}")
            for j in range(i + 1, n):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    raise DomainError(f"bracket matrix not antisymmetric at ({i},{j})")
        self.provenance = provenance or ExplicitTable()
        # Casimir candidate -> verdict: the matrix never changes, so a
        # candidate checked once (say by the casimirs check) is not checked
        # again by a later predicate (theorem31) on the same structure.
        self._casimir_verdicts: dict[PolyExpr, bool] = {}

    @classmethod
    def from_table(cls, variables, entries: dict) -> "PoissonStructure":
        """Build from {(i, j): PolyExpr} with 0-based i < j; rest is zero."""
        variables = tuple(variables)
        n = len(variables)
        matrix = [[None] * n for _ in range(n)]
        for (i, j), p in entries.items():
            if i == j:
                raise DomainError("diagonal table entry")
            matrix[i][j] = p
            matrix[j][i] = -p
        return cls(variables, matrix)

    def bracket_entry(self, i: int, j: int) -> PolyExpr:
        return self.matrix[i][j]

    def entries_upper(self):
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield (i, j), self.matrix[i][j]

    def as_bivector(self) -> PolyMultivector:
        coeffs = {}
        for (i, j), p in self.entries_upper():
            if not p.is_zero():
                coeffs[mask_of((i, j))] = p
        return PolyMultivector(self.vars, 2, coeffs)

    def __eq__(self, other):
        return (isinstance(other, PoissonStructure) and self.vars == other.vars
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"<PoissonStructure n={self.n} vars={','.join(self.vars)}>"


class NambuStructure:
    """(n-m)-ary Jacobian-type bracket with m Casimirs and a multiplier."""

    def __init__(self, variables: Sequence[str], casimirs: Sequence[PolyExpr],
                 multiplier: PolyExpr | int | Fraction = 1):
        self.vars = tuple(variables)
        self.n = len(self.vars)
        self.casimirs = tuple(q.with_vars(self.vars) for q in casimirs)
        for q in self.casimirs:
            q.require_polynomial_grade("Nambu Casimir")
        if isinstance(multiplier, (int, Fraction)):
            multiplier = PolyExpr.const(self.vars, multiplier)
        self.multiplier = multiplier.with_vars(self.vars)
        self.multiplier.require_polynomial_grade("multiplier")
        self.arity = self.n - len(self.casimirs)
        if self.arity < 1:
            raise ArityError("too many Casimirs for the dimension")

    def __repr__(self):
        return f"<NambuStructure n={self.n} arity={self.arity}>"


# ---------------- construction ----------------

def jacobian_structure(variables, casimirs: Sequence[PolyExpr],
                       multiplier: PolyExpr | int | Fraction = 1) -> PoissonStructure:
    """Poisson structure from n-2 Casimirs and a polynomial multiplier."""
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
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            comp = full & ~mask_of((i, j))
            if w is None:
                coeff = PolyExpr.const(variables, 1) if n == 2 else None
            else:
                coeff = w.coeffs.get(comp)
            if coeff is None:
                matrix[i][j] = PolyExpr.zero(variables)
            else:
                sign = shuffle_signature((i, j), indices_of(comp))
                p = multiplier * coeff
                matrix[i][j] = p if sign > 0 else -p
            matrix[j][i] = -matrix[i][j]
    return PoissonStructure(
        variables, matrix,
        JacobianProvenance(tuple(casimirs), multiplier))


# ---------------- bracket evaluation ----------------

def bracket_of(ps: PoissonStructure, f: PolyExpr, g: PolyExpr) -> PolyExpr:
    """{f, g} = sum_{i<j} p_ij (df/dx_i dg/dx_j - df/dx_j dg/dx_i)."""
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


def nambu_bracket(ns: NambuStructure, args: Sequence[PolyExpr]) -> PolyExpr:
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


# ---------------- verification predicates ----------------

@dataclass
class JacobiReport:
    holds: bool
    witnesses: list  # [(i, j, k, residual PolyExpr)]


def _gradient(p: PolyExpr) -> list[PolyExpr]:
    return [p.diff(v) for v in p.vars]


def _jacobiator(matrix, i: int, j: int, k: int, g_jk, g_ki, g_ij) -> PolyExpr:
    """sum_l p_il d_l p_jk + p_jl d_l p_ki + p_kl d_l p_ij, given the three
    gradients."""
    total = PolyExpr.zero(g_jk[0].vars)
    for l, (d_jk, d_ki, d_ij) in enumerate(zip(g_jk, g_ki, g_ij)):
        total = total + matrix[i][l] * d_jk + matrix[j][l] * d_ki + matrix[k][l] * d_ij
    return total


def jacobiator(ps: PoissonStructure, i: int, j: int, k: int) -> PolyExpr:
    m = ps.matrix
    return _jacobiator(m, i, j, k, _gradient(m[j][k]), _gradient(m[k][i]),
                       _gradient(m[i][j]))


def check_jacobi(ps: PoissonStructure) -> JacobiReport:
    """Exact symbolic Jacobi check on every coordinate triple; the gradient
    of every bracket entry is taken once."""
    m = ps.matrix
    grads = [[_gradient(p) for p in row] for row in m]
    witnesses = []
    for i, j, k in combinations(range(ps.n), 3):
        r = _jacobiator(m, i, j, k, grads[j][k], grads[k][i], grads[i][j])
        if not r.is_zero():
            witnesses.append((i, j, k, r))
    return JacobiReport(holds=not witnesses, witnesses=witnesses)


def is_casimir(ps: PoissonStructure, q: PolyExpr) -> bool:
    q = q.with_vars(ps.vars)
    q.require_polynomial_grade("Casimir candidate")
    verdict = ps._casimir_verdicts.get(q)
    if verdict is None:
        gens = PolyExpr.gens(ps.vars)
        verdict = all(bracket_of(ps, q, x).is_zero() for x in gens)
        ps._casimir_verdicts[q] = verdict
    return verdict


def is_quasi_casimir(ps: PoissonStructure, q: PolyExpr) -> bool:
    """True iff {q, x_i} is divisible by q for every coordinate."""
    q = q.with_vars(ps.vars)
    if q.is_zero():
        raise DomainError("quasi-Casimir candidate must be nonzero")
    q.require_polynomial_grade("quasi-Casimir candidate")
    for x in PolyExpr.gens(ps.vars):
        ok, _ = exact_divisibility(bracket_of(ps, q, x), q)
        if not ok:
            return False
    return True


@dataclass
class PluckerReport:
    rank_le_2: bool
    witness: Optional[tuple] = None


def plucker_rank2_test(ps: PoissonStructure) -> PluckerReport:
    """All 4x4 Pfaffians vanish iff the bivector is decomposable."""
    for sub in combinations(range(ps.n), 4):
        if not pfaffian(ps.matrix, sub).is_zero():
            return PluckerReport(False, sub)
    return PluckerReport(True)


SAMPLE_GRID = [Fraction(i, 3) for i in range(-7, 8) if i != 0]


def generic_rank(ps: PoissonStructure, samples: int = 8, seed: int = 0) -> int:
    """Max exact rank of the bracket matrix over sampled rational points."""
    if samples < 1:
        raise DomainError("need at least one sample")
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        point = [rng.choice(SAMPLE_GRID) for _ in range(ps.n)]
        # antisymmetric: evaluate the upper triangle and mirror it
        rows = [[Fraction(0)] * ps.n for _ in range(ps.n)]
        for (i, j), p in ps.entries_upper():
            v = p.eval_exact(point)
            rows[i][j], rows[j][i] = v, -v
        best = max(best, _fraction_rank(rows))
        if best == ps.n:
            break
    return best


def _fraction_rank(rows) -> int:
    m = [row[:] for row in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    rank = 0
    row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        for r in range(nr):
            if r != row and m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nr:
            break
    return rank


# ---------------- fundamental identity ----------------

@dataclass
class FundamentalIdentityReport:
    holds: bool
    residual: PolyExpr


def check_fundamental_identity(ns: NambuStructure,
                               test_args: Sequence[PolyExpr]) -> FundamentalIdentityReport:
    """Evaluate the (n-m)-ary replacement of Jacobi on 2r-1 arguments.

    With r = arity, the identity compares

        sum_{i=r..2r-1} {f_r,...,f_{i-1}, {f_1,...,f_{r-1}, f_i}, f_{i+1},...}

    against {f_1,...,f_{r-1}, {f_r,...,f_{2r-1}}}; the residual is their
    difference.
    """
    r = ns.arity
    if len(test_args) != 2 * r - 1:
        raise ArityError(f"need {2 * r - 1} arguments for arity {r}")
    f = [a.with_vars(ns.vars) for a in test_args]
    head, tail = f[:r - 1], f[r - 1:]
    lhs = PolyExpr.zero(ns.vars)
    for pos in range(r):
        inner = nambu_bracket(ns, head + [tail[pos]])
        outer_args = tail[:pos] + [inner] + tail[pos + 1:]
        lhs = lhs + nambu_bracket(ns, outer_args)
    rhs = nambu_bracket(ns, head + [nambu_bracket(ns, tail)])
    residual = lhs - rhs
    return FundamentalIdentityReport(residual.is_zero(), residual)
