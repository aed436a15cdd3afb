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
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .errors import ArityError, DomainError
from .exterior import (
    PolyMultivector,
    differential,
    indices_of,
    mask_of,
    shuffle_signature,
    wedge_all,
)
from .poly import PolyExpr, _integer_evaluator, _sum_of_products, exact_divisibility


class PoissonStructure:
    """Antisymmetric bracket matrix over a fixed variable tuple."""

    def __init__(self, variables: Sequence[str], matrix):
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

    @cached_property
    def _rank2(self) -> tuple[bool, Optional[tuple[int, int]]]:
        """(rank <= 2, pivot): the pivot is the nonzero upper entry p_ab
        with the fewest terms, ties going to the smallest (a, b), or None
        for the zero matrix.  Over Q(x) the Schur complement of the pivot
        block gives rank = 2 + rank S with S_kl = Pf(a,b,k,l) / p_ab, so
        rank <= 2 iff those C(n-2, 2) Pfaffians vanish.  Computed once per
        structure, since the matrix never changes."""
        nonzero = [(p.term_count, ij) for ij, p in self.entries_upper()
                   if not p.is_zero()]
        if not nonzero:
            return True, None
        pivot = min(nonzero)[1]
        rest = [k for k in range(self.n) if k not in pivot]
        return (all(_pfaffian4(self.matrix, *pivot, *kl).is_zero()
                    for kl in combinations(rest, 2)), pivot)

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
    return PoissonStructure(variables, matrix)


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
    gradients, as one fused sum of products (zero-tested or rendered)."""
    pairs = []
    for l, (d_jk, d_ki, d_ij) in enumerate(zip(g_jk, g_ki, g_ij)):
        pairs += ((matrix[i][l], d_jk), (matrix[j][l], d_ki), (matrix[k][l], d_ij))
    return _sum_of_products(g_jk[0].vars, pairs)


def _pfaffian4(m, a: int, b: int, k: int, l: int) -> PolyExpr:
    """Pf(a,b,k,l) = p_ab p_kl - p_ak p_bl + p_al p_bk, written by
    antisymmetry as one fused sum of three products (zero-tested only)."""
    return _sum_of_products(m[a][b].vars, ((m[a][b], m[k][l]), (m[a][k], m[l][b]),
                                           (m[a][l], m[b][k])))


def _hamiltonian_row(ps: PoissonStructure, grad, k: int) -> PolyExpr:
    """{Q, x_k} = sum_i p_ik dQ/dx_i, given the gradient of Q, as one fused
    sum of products (zero-tested or divided only)."""
    return _sum_of_products(ps.vars, [(row[k], g) for row, g in zip(ps.matrix, grad)])


def jacobiator(ps: PoissonStructure, i: int, j: int, k: int) -> PolyExpr:
    m = ps.matrix
    return _jacobiator(m, i, j, k, _gradient(m[j][k]), _gradient(m[k][i]),
                       _gradient(m[i][j]))


def check_jacobi(ps: PoissonStructure) -> JacobiReport:
    """Exact symbolic Jacobi check.

    When rank <= 2 holds with pivot p_ab, the bivector is X ^ Y over Q(x)
    and [pi, pi] = X' ^ Y' ^ W with X'_a = Y'_b = 1, X'_b = Y'_a = 0; its
    (a, b, k) component is p_ab (W_k - W_a X'_k - W_b Y'_k), so the n - 2
    jacobiators on the triples {a, b, k} vanish iff [pi, pi] = 0 (Vaisman,
    *Lectures on the Geometry of Poisson Manifolds*, 1994).  That decides
    a pass.  Anything else runs every coordinate triple, which is the one
    path that collects witnesses; there the gradient of every bracket entry
    is taken once."""
    low_rank, pivot = ps._rank2
    if low_rank and (pivot is None or all(
            jacobiator(ps, *sorted(pivot + (k,))).is_zero()
            for k in range(ps.n) if k not in pivot)):
        return JacobiReport(holds=True, witnesses=[])
    m = ps.matrix
    grads = [[_gradient(p) for p in row] for row in m]
    witnesses = []
    for i, j, k in combinations(range(ps.n), 3):
        r = _jacobiator(m, i, j, k, grads[j][k], grads[k][i], grads[i][j])
        if not r.is_zero():
            witnesses.append((i, j, k, r))
    return JacobiReport(holds=not witnesses, witnesses=witnesses)


def is_casimir(ps: PoissonStructure, q: PolyExpr) -> bool:
    """True iff {q, x_k} = 0 for every coordinate, tested on the Hamiltonian
    rows of q, which share one gradient."""
    q = q.with_vars(ps.vars)
    q.require_polynomial_grade("Casimir candidate")
    verdict = ps._casimir_verdicts.get(q)
    if verdict is None:
        grad = _gradient(q)
        verdict = all(_hamiltonian_row(ps, grad, k).is_zero() for k in range(ps.n))
        ps._casimir_verdicts[q] = verdict
    return verdict


def is_quasi_casimir(ps: PoissonStructure, q: PolyExpr) -> bool:
    """True iff {q, x_k} is divisible by q for every coordinate."""
    q = q.with_vars(ps.vars)
    if q.is_zero():
        raise DomainError("quasi-Casimir candidate must be nonzero")
    q.require_polynomial_grade("quasi-Casimir candidate")
    grad = _gradient(q)
    return all(exact_divisibility(_hamiltonian_row(ps, grad, k), q)[0]
               for k in range(ps.n))


@dataclass
class PluckerReport:
    rank_le_2: bool
    witness: Optional[tuple] = None


def plucker_rank2_test(ps: PoissonStructure) -> PluckerReport:
    """All 4x4 Pfaffians vanish iff the bivector is decomposable.  The
    structure's pivot test decides a pass; a failure runs every 4-subset in
    order, so the witness is the first subset whose Pfaffian is nonzero."""
    if ps._rank2[0]:
        return PluckerReport(True)
    for sub in combinations(range(ps.n), 4):
        if not _pfaffian4(ps.matrix, *sub).is_zero():
            return PluckerReport(False, sub)
    return PluckerReport(True)


SAMPLE_GRID = [Fraction(i, 3) for i in range(-7, 8) if i != 0]


def generic_rank(ps: PoissonStructure, samples: int = 8, seed: int = 0) -> int:
    """Largest exact rank of the bracket matrix over ``samples`` points drawn
    from SAMPLE_GRID^n by ``random.Random(seed)``.

    A point's rank never exceeds the generic rank (the rank over Q(x)), so
    the result is a lower bound on it.  It falls short only if every sample
    is a zero of the Pfaffian of each principal block of full rank: such a
    Pfaffian has degree D <= (r/2) d for generic rank r and entry degree at
    most d, so by Schwartz-Zippel (Schwartz 1980; Zippel 1979) one uniform
    point of the 14-value grid is a zero with probability at most D/14 and
    all 8 default samples with probability at most (D/14)^8; for D >= 14
    that bound says nothing.

    Sampling stops once the best rank reaches a proven bound on the generic
    rank, since no later sample can then raise it, so the result is the one
    every sample would give: n - n % 2 always (an antisymmetric matrix has
    even rank), and 2 when the structure already holds a true rank-2 verdict
    (``jacobi`` and ``plucker`` compute it; this function never does).

    Each entry is unpacked once per call, and at each point the entries
    share one table of powers per variable.  Their common denominator is
    cleared, which leaves the rank unchanged, and the rank of the integer
    matrix is taken by fraction-free elimination."""
    if samples < 1:
        raise DomainError("need at least one sample")
    n = ps.n
    verdict = ps.__dict__.get("_rank2")          # the cached verdict, if any
    bound = 2 if verdict is not None and verdict[0] else n - n % 2
    upper = [(ij, p) for ij, p in ps.entries_upper() if not p.is_zero()]
    # the values share one denominator, so their numerators make an integer
    # matrix of the same rank
    values = _integer_evaluator([p for _, p in upper])
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        point = [rng.choice(SAMPLE_GRID) for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for ((i, j), _), v in zip(upper, values(point)[1]):
            rows[i][j], rows[j][i] = v, -v
        best = max(best, _integer_rank(rows))
        if best >= bound:
            break
    return best


def _integer_rank(m) -> int:
    """Rank of an integer matrix by fraction-free elimination (Bareiss,
    Math. Comp. 1968), overwriting ``m``.  After k pivots each entry below
    them is a (k+1)-minor of the input, so dividing by the previous pivot is
    exact."""
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = p
        rank += 1
        if rank == len(m):
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
