"""Poisson and Nambu structures on polynomial rings.

A Poisson structure is an antisymmetric matrix of polynomial brackets of the
coordinates, either given as an explicit table or constructed from n-2
Casimirs Q_i and a multiplier through

    {f, g} = multiplier * (df ^ dg ^ dQ_1 ^ ... ^ dQ_{n-2}) / (dx_1 ^ ... ^ dx_n).

Nambu structures keep m Casimirs and expose the (n-m)-ary bracket of the same
determinantal shape.  A Poisson structure carries the Casimirs declared for
it, and :attr:`PoissonStructure.certified` decides once what they prove;
every predicate that can use the proof reads it first.

Both read their brackets off one table, the minors of the Casimir gradients
keyed by column mask (the coefficients of dQ_1 ^ ... ^ dQ_l), built by
Laplace expansion one gradient row at a time (:func:`casimir_minors`):
{x_i, x_j} is the multiplier times the signed minor on the other n - 2
columns, and a Nambu bracket stacks its argument gradients on the table and
reads the full minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from typing import Optional, Sequence

from .errors import ArityError, DomainError, PpaError
from .exterior import indices_of, mask_of, merge_sign, pfaffian, require_max_dim
from .poly import PolyExpr, _sum_of_products, exact_divisibility


class PoissonStructure:
    """Antisymmetric bracket matrix over a fixed variable tuple, with the
    Casimirs declared for it (``casimirs``, kept as given)."""

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
        self.casimirs = ()
        # Casimir candidate -> verdict: the matrix never changes, so a
        # candidate checked once (say by the casimirs check) is not checked
        # again by a later predicate (theorem31) on the same structure.
        self._casimir_verdicts: dict[PolyExpr, bool] = {}

    @classmethod
    def _trusted(cls, variables: tuple, matrix, casimirs=()) -> "PoissonStructure":
        """Trusted constructor for a table built antisymmetric: ``matrix`` is
        a full n x n list of polynomial-grade ``PolyExpr`` over ``variables``
        with a zero diagonal and p_ji = -p_ij, so none of ``__init__``'s
        checks run."""
        ps = cls.__new__(cls)
        ps.vars = variables
        ps.n = len(variables)
        ps.matrix = [list(row) for row in matrix]
        ps.casimirs = tuple(casimirs)
        ps._casimir_verdicts = {}
        return ps

    @classmethod
    def from_table(cls, variables, entries: dict, casimirs=()) -> "PoissonStructure":
        """Build from {(i, j): PolyExpr} with 0-based i < j; rest is zero.
        The table is antisymmetric by construction, so of ``__init__``'s
        checks only the diagonal, grade and variable-set ones run, in its
        order; an index outside the variables is refused, and the rest of
        the matrix is one shared zero.  ``casimirs`` are kept as given, for
        :attr:`certified` to verify."""
        variables = tuple(variables)
        n = len(variables)
        zero = PolyExpr.zero(variables)
        matrix = [[zero] * n for _ in range(n)]
        for (i, j), p in entries.items():
            if i == j:
                raise DomainError("diagonal table entry")
            if not (0 <= i < n and 0 <= j < n):
                raise DomainError(f"table entry ({i},{j}) outside {n} variables")
            matrix[i][j] = p
            matrix[j][i] = -p
        for i, row in enumerate(matrix):
            for j in range(i + 1, n):
                p = row[j]
                if p is zero:
                    continue
                p.require_polynomial_grade(f"bracket entry ({i},{j})")
                if p.vars != variables:
                    row[j] = p = p.with_vars(variables)
                    matrix[j][i] = -p
        return cls._trusted(variables, matrix, casimirs)

    @cached_property
    def _casimir_minors(self) -> dict:
        """The :func:`casimir_minors` table of the structure's Casimirs,
        computed once; a Jacobian structure holds the one it was built
        from."""
        return casimir_minors(self.vars, [q.with_vars(self.vars) for q in self.casimirs])

    @cached_property
    def certified(self) -> bool:
        """True when l >= n - 2 of the structure's Casimirs all pass
        :func:`is_casimir` and their minor table is nonempty (dQ_1 ^ ... ^
        dQ_l != 0).  Then rank <= n - l <= 2 and pi = h J over Q(x), J the
        Jacobian bracket of n - 2 of them, so [hJ, hJ] = h^2 [J, J] +
        2h J ^ J#(dh) = 0 (Vaisman 1994; Grabowski-Marmo-Perelomov, Mod.
        Phys. Lett. A 8 (1993) 1719).  A premise raising ``PpaError``
        counts as false.  ``jacobi_witnesses``, ``plucker_rank2_test`` and
        ``generic_rank`` read it first: then its rank is 2 (0 for the zero
        bracket), with no Pfaffian.  A Jacobian structure's construction
        proves its Casimirs (see :func:`jacobian_structure`), so for it only
        the minor table is looked at; declared Casimirs of a table are
        computed."""
        try:
            return (len(self.casimirs) >= self.n - 2
                    and all(is_casimir(self, q) for q in self.casimirs)
                    and bool(self._casimir_minors))
        except PpaError:
            return False

    @cached_property
    def _rank2(self) -> tuple[bool, Optional[tuple[int, int]]]:
        """(rank <= 2, pivot): the pivot is :func:`_pivot`'s entry p_ab, or
        None for the zero matrix.  Over Q(x) the Schur complement of the
        pivot block gives rank = 2 + rank S with S_kl = Pf(a,b,k,l) / p_ab,
        so rank <= 2 iff those C(n-2, 2) Pfaffians vanish.  Computed once
        per structure, since the matrix never changes; the Pfaffians it
        computes, up to the first nonzero one, stay in
        ``_pivot_pfaffians``."""
        pivot = _pivot(self.matrix, range(self.n))
        if pivot is None:
            return True, None
        rest = [k for k in range(self.n) if k not in pivot]
        known = self._pivot_pfaffians
        for kl in combinations(rest, 2):
            known[kl] = pfaffian(self.matrix, pivot + kl)
            if not known[kl].is_zero():
                return False, pivot
        return True, pivot

    @cached_property
    def _pivot_pfaffians(self) -> dict:
        """Pf(pivot + (k, l)) by (k, l), as far as ``_rank2`` computed
        them: :func:`generic_rank`'s first step reads them."""
        return {}

    def entries_upper(self):
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield (i, j), self.matrix[i][j]

    def as_bivector(self) -> dict:
        """The bivector sum_{i<j} p_ij d/dx_i ^ d/dx_j as {mask of (i, j): p_ij}
        over the nonzero upper entries."""
        return {mask_of(ij): p for ij, p in self.entries_upper() if not p.is_zero()}

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

    @cached_property
    def _casimir_minors(self) -> dict:
        """The :func:`casimir_minors` table of the Casimirs: the bottom of
        every cofactor row, computed once per structure."""
        return casimir_minors(self.vars, self.casimirs)

    @cached_property
    def _multivector(self) -> dict:
        """The bracket as an r-vector, {a_1, ..., a_r} = sum_I L^I det(da_s
        on the columns I), as {mask I: (L^I, its gradient)} over the nonzero
        components, computed once per structure.  Laplace expansion along
        the argument rows gives L^I = multiplier * merge_sign(I, I^c) *
        M_{I^c}, M the Casimir minors."""
        full = (1 << self.n) - 1
        out = {}
        for mask, minor in self._casimir_minors.items():
            lam = self.multiplier * minor
            if not lam.is_zero():
                if merge_sign(full ^ mask, mask) < 0:
                    lam = -lam
                out[full ^ mask] = lam, _gradient(lam)
        return out

    def __repr__(self):
        return f"<NambuStructure n={self.n} arity={self.arity}>"


# ---------------- construction ----------------

def casimir_minors(variables, casimirs: Sequence[PolyExpr]) -> dict:
    """Column mask -> the nonzero l x l minor of the gradients of the l
    ``casimirs`` (top to bottom) on those columns, which is the coefficient
    of dQ_1 ^ ... ^ dQ_l on that mask; no Casimirs give {0: 1}.  Dependent
    Casimirs give an empty table."""
    return _stacked_minors([_gradient(q) for q in casimirs],
                           {0: PolyExpr.const(variables, 1)})


def _minor_table(ps: PoissonStructure, casimirs: tuple) -> dict:
    """The :func:`casimir_minors` table of ``casimirs`` (over the structure's
    variables): the structure's own when they are its Casimirs."""
    if casimirs == ps.casimirs:
        return ps._casimir_minors
    return casimir_minors(ps.vars, casimirs)


def jacobian_structure(variables, casimirs: Sequence[PolyExpr],
                       multiplier: PolyExpr | int | Fraction = 1) -> PoissonStructure:
    """Poisson structure from n-2 Casimirs and a polynomial multiplier:
    p_ij is the multiplier times the Casimir minor on the other n - 2
    columns, signed by the shuffle ({i, j}, the rest), which is
    (-1)^(i + j - 1).  Refused above ``MAX_DIM`` variables.

    The construction proves its own Casimirs central: {Q_i, x_k} is the
    multiplier times det(dQ_i, e_k, dQ_1, ..., dQ_{n-2}), which has a
    repeated row.  The structure carries them with :func:`is_casimir`'s
    verdict already ``True``, so :attr:`~PoissonStructure.certified` reduces
    to the minor table, held from the build, being nonempty."""
    variables = tuple(variables)
    n = len(variables)
    casimirs = tuple(q.with_vars(variables) for q in casimirs)
    if len(casimirs) != n - 2:
        raise ArityError(f"need exactly {n - 2} Casimirs in {n} variables, "
                         f"got {len(casimirs)}")
    if isinstance(multiplier, (int, Fraction)):
        multiplier = PolyExpr.const(variables, multiplier)
    multiplier = multiplier.with_vars(variables)
    multiplier.require_polynomial_grade("multiplier")
    for q in casimirs:
        q.require_polynomial_grade("Casimir")
    require_max_dim(n)
    minors = casimir_minors(variables, casimirs)
    full = (1 << n) - 1
    zero = PolyExpr.zero(variables)
    matrix = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeff = minors.get(full ^ (1 << i | 1 << j))
            if coeff is not None:
                p = multiplier * coeff
                matrix[i][j] = p if (i + j) & 1 else -p
                matrix[j][i] = -matrix[i][j]
    ps = PoissonStructure._trusted(variables, matrix, casimirs)
    ps._casimir_minors = minors
    # central by the docstring's repeated row; keyed as is_casimir looks up
    ps._casimir_verdicts = dict.fromkeys(casimirs, True)
    return ps


# ---------------- bracket evaluation ----------------

def nambu_bracket(ns: NambuStructure, args: Sequence[PolyExpr]) -> PolyExpr:
    """multiplier * (df_1 ^ ... ^ df_r ^ dQ_1 ^ ... ^ dQ_m) / volume: the
    argument gradients stacked on the Casimir minors, read on all columns.
    Refused above ``MAX_DIM`` variables."""
    if len(args) != ns.arity:
        raise ArityError(f"bracket takes {ns.arity} arguments, got {len(args)}")
    args = [a.with_vars(ns.vars) for a in args]
    for a in args:
        a.require_polynomial_grade("bracket argument")
    require_max_dim(ns.n)
    top = _stacked_minors([_gradient(a) for a in args], ns._casimir_minors)
    return ns.multiplier * top.get((1 << ns.n) - 1, PolyExpr.zero(ns.vars))


def _stack_row(row, minors: dict) -> dict:
    """One Laplace step: ``minors`` maps column masks of one size to the
    nonzero determinants of some rows on those columns; the result maps
    each mask one column larger to the nonzero determinant with ``row`` put
    on top, expanded along it as one fused sum per minor.  Column c of a
    mask sits at position popcount(mask below c), which gives its sign."""
    terms: dict = {}
    for c, e in enumerate(row):
        if e.is_zero():
            continue
        bit, below = 1 << c, (1 << c) - 1
        for mask, d in minors.items():
            if not mask & bit:
                odd = bin(mask & below).count("1") & 1
                terms.setdefault(mask | bit, []).append((e, d, -1 if odd else 1))
    out = {}
    for mask, pairs in terms.items():
        d = _sum_of_products(row[0].vars, pairs)
        if not d.is_zero():
            out[mask] = d
    return out


def _stacked_minors(grads, minors: dict) -> dict:
    """The nonzero minors of the rows ``grads`` (top to bottom) put on top
    of the rows whose minors are ``minors``."""
    for row in reversed(grads):
        minors = _stack_row(row, minors)
    return minors


def _cofactor_row(ns: NambuStructure, minors: dict, slot: int) -> list[PolyExpr]:
    """W with {a_1, ..., a_r} = sum_j W_j d_j a_slot, given the minors of the
    other r - 1 argument gradients (in slot order) stacked on the Casimir
    gradients: W_j is the multiplier times the cofactor (slot, j) of the
    matrix of argument and Casimir gradients, the signed (n-1)-minor of the
    other rows without column j."""
    n = ns.n
    mu = ns.multiplier
    scale = mu.constant_value() if mu.is_constant() else None
    full = (1 << n) - 1
    zero = PolyExpr.zero(ns.vars)
    out = []
    for j in range(n):
        c = minors.get(full ^ 1 << j)
        if c is None:
            out.append(zero)
            continue
        sign = -1 if (slot + j) & 1 else 1
        if scale is None:
            c = mu * c
            out.append(c if sign > 0 else -c)
        else:
            out.append(c if sign * scale == 1 else c * (sign * scale))
    return out


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


def _hamiltonian_row(ps: PoissonStructure, grad, k: int) -> PolyExpr:
    """{Q, x_k} = sum_i p_ik dQ/dx_i, given the gradient of Q, as one fused
    sum of products (zero-tested or divided only)."""
    return _sum_of_products(ps.vars, [(row[k], g) for row, g in zip(ps.matrix, grad)])


def jacobiator(ps: PoissonStructure, i: int, j: int, k: int) -> PolyExpr:
    m = ps.matrix
    return _jacobiator(m, i, j, k, _gradient(m[j][k]), _gradient(m[k][i]),
                       _gradient(m[i][j]))


def jacobi_witnesses(ps: PoissonStructure):
    """The nonzero jacobiators as (i, j, k, residual), lazily, in coordinate
    triple order.

    When rank <= 2 holds with pivot p_ab, the bivector is X ^ Y over Q(x)
    and [pi, pi] = X' ^ Y' ^ W with X'_a = Y'_b = 1, X'_b = Y'_a = 0; its
    (a, b, k) component is p_ab (W_k - W_a X'_k - W_b Y'_k), so the n - 2
    jacobiators on the triples {a, b, k} vanish iff [pi, pi] = 0 (Vaisman,
    *Lectures on the Geometry of Poisson Manifolds*, 1994).  That decides
    a pass, which yields nothing.  Anything else walks every coordinate
    triple, taking the gradient of each bracket entry once, when a triple
    first needs it, so a caller that stops at the first witness pays only
    for the triples up to it.  A :attr:`~PoissonStructure.certified`
    structure yields nothing before any of that runs."""
    if ps.certified:
        return
    low_rank, pivot = ps._rank2
    if low_rank and (pivot is None or all(
            jacobiator(ps, *sorted(pivot + (k,))).is_zero()
            for k in range(ps.n) if k not in pivot)):
        return
    m = ps.matrix
    grad = cache(lambda i, j: _gradient(m[i][j]))
    for i, j, k in combinations(range(ps.n), 3):
        r = _jacobiator(m, i, j, k, grad(j, k), grad(k, i), grad(i, j))
        if not r.is_zero():
            yield i, j, k, r


def check_jacobi(ps: PoissonStructure) -> JacobiReport:
    """Exact symbolic Jacobi check with every witness (the runner's check
    takes only the first)."""
    witnesses = list(jacobi_witnesses(ps))
    return JacobiReport(holds=not witnesses, witnesses=witnesses)


def is_casimir(s: PoissonStructure | NambuStructure, q: PolyExpr) -> bool:
    """True iff q is central.  On a Poisson structure {q, x_k} = 0 for every
    coordinate, tested on the Hamiltonian rows of q, which share one
    gradient; the verdict is kept on the structure.  On a Nambu structure
    every bracket {x_c1, ..., x_c(r-1), q} is the multiplier times an
    (m+1)-minor of (dq, dQ_1, ..., dQ_m), so q is central iff the
    multiplier is zero or one Laplace step of dq on the Casimir minors
    leaves no minor.

    The construction Casimirs of a :func:`jacobian_structure` are proved
    central by the construction, which keeps their verdicts; any other
    candidate, on any structure, takes the Hamiltonian rows."""
    q = q.with_vars(s.vars)
    q.require_polynomial_grade("Casimir candidate")
    if isinstance(s, NambuStructure):
        return s.multiplier.is_zero() or not _stack_row(_gradient(q), s._casimir_minors)
    verdict = s._casimir_verdicts.get(q)
    if verdict is None:
        grad = _gradient(q)
        verdict = all(_hamiltonian_row(s, grad, k).is_zero() for k in range(s.n))
        s._casimir_verdicts[q] = verdict
    return verdict


def is_quasi_casimir(ps: PoissonStructure, q: PolyExpr) -> bool:
    """True iff {q, x_k} is divisible by q for every coordinate.  A q that
    :func:`is_casimir` has found central passes without a bracket, since
    0 is divisible by any nonzero q."""
    q = q.with_vars(ps.vars)
    if q.is_zero():
        raise DomainError("quasi-Casimir candidate must be nonzero")
    q.require_polynomial_grade("quasi-Casimir candidate")
    if ps._casimir_verdicts.get(q):
        return True
    grad = _gradient(q)
    return all(exact_divisibility(_hamiltonian_row(ps, grad, k), q)[0]
               for k in range(ps.n))


@dataclass
class PluckerReport:
    rank_le_2: bool
    witness: Optional[tuple] = None


def plucker_rank2_test(ps: PoissonStructure) -> PluckerReport:
    """All 4x4 Pfaffians vanish iff the bivector is decomposable.  A
    :attr:`~PoissonStructure.certified` structure, or the structure's pivot
    test, decides a pass; a failure runs every 4-subset in order, so the
    witness is the first subset whose Pfaffian is nonzero."""
    if ps.certified or ps._rank2[0]:
        return PluckerReport(True)
    for sub in combinations(range(ps.n), 4):
        if not pfaffian(ps.matrix, sub).is_zero():
            return PluckerReport(False, sub)
    return PluckerReport(True)


def _pivot(matrix, indices) -> Optional[tuple[int, int]]:
    """The pivot rule of ``_rank2`` and :func:`generic_rank`: the nonzero
    entry (a, b), a < b, on ``indices`` with the fewest terms, ties going to
    the smallest pair; None when all are zero."""
    return min(((matrix[a][b].term_count, (a, b))
                for a, b in combinations(indices, 2) if not matrix[a][b].is_zero()),
               default=(0, None))[1]


def generic_rank(ps: PoissonStructure) -> int:
    """The rank of the bracket matrix over Q(x), exactly.

    A :attr:`~PoissonStructure.certified` structure, or one whose
    ``_rank2`` verdict holds, has rank 2 (0 for the zero matrix) and
    computes no Pfaffian here.  Otherwise, with P the pivot pairs taken so
    far (in order), M_kl = Pf(P, k, l) on the other indices is Pf(P) times
    the Schur complement of the P block, so rank = |P| + rank M.  Each step
    takes :func:`_pivot`'s (c, d) in M and forms

        Pf(P, c, d, k, l) = (M_cd M_kl - M_ck M_dl + M_cl M_dk) / Pf(P),

    the 4x4 Pfaffians of M divided exactly over Q[x] by the previous pivot
    (Knuth, "Overlapping Pfaffians", Electron. J. Combin. 3(2), 1996),
    until M is zero.  The first step is ``_rank2``'s pivot test, and
    reads the Pfaffians it computed.  No fraction of polynomials and no
    sample point enters, and every Pfaffian product is held to
    ``MAX_WORK``."""
    if ps.certified or ps._rank2[0]:
        return 2 if any(not p.is_zero() for _, p in ps.entries_upper()) else 0
    n, m, indices, rank, pivot = ps.n, ps.matrix, range(ps.n), 0, ps._rank2[1]
    prev, zero = PolyExpr.const(ps.vars, 1), PolyExpr.zero(ps.vars)
    known = ps._pivot_pfaffians
    while pivot is not None:
        indices = [k for k in indices if k not in pivot]
        nxt = [[zero] * n for _ in range(n)]
        for k, l in combinations(indices, 2):
            pf = known.get((k, l))
            if pf is None:
                pf = pfaffian(m, pivot + (k, l))
            q = exact_divisibility(pf, prev)[1]
            nxt[k][l], nxt[l][k] = q, -q
        prev, m, rank, known = m[pivot[0]][pivot[1]], nxt, rank + 2, {}
        pivot = _pivot(m, indices)
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

    With X = {f_1, ..., f_{r-1}, .} and g = (f_r, ..., f_{2r-1}), X(L(dg))
    = (L_X L)(dg) + sum_s L(..., d(X g_s), ...) for the bracket's r-vector
    L (``NambuStructure._multivector``), so the residual is -(L_X L)(dg) =
    -sum_I C_I T_I over r-masks I, T_I the minor of the tail gradients on
    the columns I and

        C_I = sum_k X^k d_k L^I - sum_{s,k} eps L^J d_k X^(i_s),

    J = I with i_s -> k, eps = (-1)^(the elements of I - {i_s} between
    i_s and k), the sign that sorts k into slot s.  X is the head's
    cofactor row (:func:`_cofactor_row`), r - 1 Laplace steps on the
    Casimir minors, and T takes r steps from {0: 1}.  The sum is grouped as

        -sum_k X^k (sum_I T_I d_k L^I) + sum_J L^J (sum eps T_I d_k X^(i_s)),

    so that a product of two large factors happens once per k and per J,
    not once per (I, s, k).  Each d_k X^i is taken once, when a nonzero
    L^J first needs it, and every product is held to ``MAX_WORK``.
    """
    r = ns.arity
    if len(test_args) != 2 * r - 1:
        raise ArityError(f"need {2 * r - 1} arguments for arity {r}")
    f = [a.with_vars(ns.vars) for a in test_args]
    for a in f:
        a.require_polynomial_grade("bracket argument")
    grads = [_gradient(a) for a in f]
    x = _cofactor_row(ns, _stacked_minors(grads[:r - 1], ns._casimir_minors), r - 1)
    dx = cache(lambda i, k: x[i].diff(ns.vars[k]))
    lam = ns._multivector
    tail = _stacked_minors(grads[r - 1:], {0: PolyExpr.const(ns.vars, 1)})
    by_k = [[] for _ in range(ns.n)]        # the pairs of sum_I T_I d_k L^I
    by_j: dict = {}                         # J -> the pairs beside L^J
    for mask, t in tail.items():
        if mask in lam:
            for k, d in enumerate(lam[mask][1]):
                if not d.is_zero():
                    by_k[k].append((t, d))
        for i in indices_of(mask):
            rest = mask ^ 1 << i
            at_i = bin(rest & (1 << i) - 1).count("1")
            for k in range(ns.n):
                # k in rest leaves r - 1 columns, which no component has;
                # eps is the parity of the places of i and k in rest
                j = rest | 1 << k
                if j in lam:
                    odd = bin(rest & (1 << k) - 1).count("1") - at_i & 1
                    by_j.setdefault(j, []).append((t, dx(i, k), -1 if odd else 1))
    pairs = [(w, _sum_of_products(ns.vars, ps), -1) for w, ps in zip(x, by_k) if ps]
    pairs += [(lam[j][0], _sum_of_products(ns.vars, ps)) for j, ps in by_j.items()]
    residual = _sum_of_products(ns.vars, pairs)
    return FundamentalIdentityReport(residual.is_zero(), residual)
