"""Poisson and Nambu structures on polynomial rings.

A Poisson structure is an antisymmetric matrix of polynomial brackets of the
coordinates, either given as an explicit table or constructed from n-2
Casimirs Q_i and a multiplier through

    {f, g} = multiplier * (df ^ dg ^ dQ_1 ^ ... ^ dQ_{n-2}) / (dx_1 ^ ... ^ dx_n).

Nambu structures keep m Casimirs and expose the (n-m)-ary bracket of the same
determinantal shape.  ``jacobi`` and the Casimir rows are Hamiltonian
derivations X_s(f) = {x_s, f} = sum_l p_sl d_l f, each one fused sum
(:func:`_derivation`) over ``poly._gradient(f)``; the pivot triples and the
walk both take :func:`jacobiator`, which reads each upper entry's gradient
once per structure.  A Poisson structure carries the Casimirs declared for
it, and :attr:`PoissonStructure.certified` decides once what they prove;
every predicate that can use the proof reads it first.

Both read their brackets off one table, the minors of the Casimir gradients
keyed by column mask (the coefficients of dQ_1 ^ ... ^ dQ_l), built by
Laplace expansion one gradient row at a time (:func:`casimir_minors`):
{x_i, x_j} is the multiplier times the signed minor on the other n - 2
columns, and a Nambu vector field stacks its Hamiltonians' gradients on
the table and reads one cofactor row.  A Jacobian structure builds that
table, and its matrix from it, only when something reads them; a refusal
while building the table is kept and raised again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .errors import ArityError, DomainError, PpaError
from .exterior import mask_of, pfaffian, require_max_dim
from .poly import (PolyExpr, _coeff_bits, _gradient, _independent_mod_p, _require_work,
                   _sum_of_products, exact_divisibility)


class _CasimirMinors:
    """What a Poisson and a Nambu structure share: the minor table of their
    Casimirs, off which they read their brackets."""

    _minors_refusal: Optional[PpaError] = None

    @cached_property
    def _casimir_minors(self) -> dict:
        """The :func:`casimir_minors` table of the structure's Casimirs,
        computed once.  A cached property keeps no exception, so the first
        refusal (``PpaError``, say ``MAX_WORK``) is kept and raised again on
        every later read: no check expands the minors a second time."""
        if self._minors_refusal is not None:
            raise self._minors_refusal
        try:
            return casimir_minors(self.vars, [q.with_vars(self.vars) for q in self.casimirs])
        except PpaError as e:
            self._minors_refusal = e
            raise


class PoissonStructure(_CasimirMinors):
    """Antisymmetric bracket matrix over a fixed variable tuple, with the
    Casimirs declared for it (``casimirs``, kept as given)."""

    # the multiplier of a :func:`jacobian_structure`, and it as a constant
    # mu when it is one, from which theorem31 reads lambda'; None for a
    # table (and mu None for a polynomial multiplier)
    multiplier: Optional[PolyExpr] = None
    constant_multiplier: Optional[Fraction] = None

    @classmethod
    def _trusted(cls, variables: tuple, matrix, casimirs=()) -> "PoissonStructure":
        """The internal constructor, which checks nothing: ``matrix`` is a
        full n x n list of polynomial-grade ``PolyExpr`` over ``variables``
        with a zero diagonal and p_ji = -p_ij.  ``matrix`` None leaves it to
        :attr:`matrix`."""
        ps = cls.__new__(cls)
        ps.vars = variables
        ps.n = len(variables)
        if matrix is not None:
            ps.matrix = [list(row) for row in matrix]
        ps.casimirs = tuple(casimirs)
        # Casimir candidate -> verdict: the matrix never changes, so a
        # candidate checked once (say by the casimirs check) is not checked
        # again by a later predicate (theorem31) on the same structure.
        ps._casimir_verdicts = {}
        # (i, j), i < j -> the gradient of p_ij, read once (see jacobiator)
        ps._entry_gradients = {}
        return ps

    @classmethod
    def from_table(cls, variables, entries: dict, casimirs=()) -> "PoissonStructure":
        """Build from {(i, j): PolyExpr} with 0-based i < j; rest is zero.
        The table is antisymmetric by construction; a diagonal entry, an
        index outside the variables and an entry that is not
        polynomial-grade are refused, as are more than ``MAX_DIM``
        variables, and the rest of the matrix is one shared zero.
        ``casimirs`` are kept as given, for :attr:`certified` to verify."""
        variables = tuple(variables)
        n = len(variables)
        require_max_dim(n)
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
    def matrix(self) -> list:
        """The n x n bracket matrix.  A table sets it at construction; a
        :func:`jacobian_structure` builds it here, on first read: p_ij is
        the multiplier times the minor on the columns other than i and j,
        signed (-1)^(i + j - 1), a constant mu scaling each minor as a
        scalar."""
        n, minors, mu = self.n, self._casimir_minors, self.constant_multiplier
        full = (1 << n) - 1
        zero = PolyExpr.zero(self.vars)
        matrix = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                coeff = minors.get(full ^ (1 << i | 1 << j))
                if coeff is not None:
                    p = self.multiplier * coeff if mu is None else coeff * mu
                    matrix[i][j] = p if (i + j) & 1 else -p
                    matrix[j][i] = -matrix[i][j]
        return matrix

    @cached_property
    def _independent(self) -> bool:
        """dQ_1 ^ ... ^ dQ_l != 0 for the structure's Casimirs: their minor
        table is nonempty.  A Jacobian structure whose Casimirs are
        independent at one point mod p holds ``True`` from construction
        (see :func:`jacobian_structure`); anything else reads the table."""
        return bool(self._casimir_minors)

    @cached_property
    def certified(self) -> bool:
        """True when l >= n - 2 of the structure's Casimirs all pass
        :func:`is_casimir` and are independent (``_independent``: dQ_1 ^
        ... ^ dQ_l != 0).  Then rank <= n - l <= 2 and pi = h J over Q(x),
        J the Jacobian bracket of n - 2 of them, so [hJ, hJ] = h^2 [J, J] +
        2h J ^ J#(dh) = 0 (Vaisman 1994; Grabowski-Marmo-Perelomov, Mod.
        Phys. Lett. A 8 (1993) 1719).  A premise raising ``PpaError``
        counts as false.  ``jacobi_witnesses``, ``plucker_rank2_test`` and
        ``generic_rank`` read it first: then its rank is 2 (0 for the zero
        bracket), with no Pfaffian.  A Jacobian structure's construction
        proves its Casimirs central, and one evaluation mod p most often
        proves them independent (see :func:`jacobian_structure`), so it is
        certified with no entry of its bracket built; declared Casimirs of
        a table are computed, and their independence read off their minor
        table."""
        try:
            return (len(self.casimirs) >= self.n - 2
                    and all(is_casimir(self, q) for q in self.casimirs)
                    and self._independent)
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


class NambuStructure(_CasimirMinors):
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

def casimir_minors(variables, casimirs: Sequence[PolyExpr]) -> dict:
    """Column mask -> the nonzero l x l minor of the gradients of the l
    ``casimirs`` (top to bottom) on those columns, which is the coefficient
    of dQ_1 ^ ... ^ dQ_l on that mask; no Casimirs give {0: 1}.  Dependent
    Casimirs give an empty table.  The 1 x 1 minors are the last gradient's
    nonzero entries, each held to ``MAX_WORK`` as its product by the
    constant 1 would be."""
    if not casimirs:
        return {0: PolyExpr.const(variables, 1)}
    *grads, last = [_gradient(q) for q in casimirs]
    minors = {}
    for c, e in enumerate(last):
        if e._num:
            _require_work(1, 1, len(e._num), _coeff_bits(e))
            minors[1 << c] = e
    return _stacked_minors(grads, minors)


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

    The construction keeps the Casimirs and the multiplier (a constant one
    also as ``constant_multiplier``) and builds no minor: the matrix is
    built on its first read (:attr:`~PoissonStructure.matrix`), so a
    refusal inside the minor expansion (``MAX_WORK``, ``MAX_EXPONENT``)
    fails the first check that reads the bracket, not the construction.

    The construction proves its own Casimirs central: {Q_i, x_k} is the
    multiplier times det(dQ_i, e_k, dQ_1, ..., dQ_{n-2}), which has a
    repeated row.  The structure carries them with :func:`is_casimir`'s
    verdict already ``True``.  When their gradients are independent at one
    fixed point mod p (``poly._independent_mod_p``, whose docstring holds
    the soundness argument), ``_independent`` is ``True`` too, so
    :attr:`~PoissonStructure.certified` holds with no minor computed;
    otherwise the minor table decides it.  Arithmetic mod p only ever
    proves independence."""
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
    ps = PoissonStructure._trusted(variables, None, casimirs)
    ps.multiplier = multiplier
    ps.constant_multiplier = multiplier.constant_value() if multiplier.is_constant() else None
    # central by the docstring's repeated row; keyed as is_casimir looks up
    ps._casimir_verdicts = dict.fromkeys(casimirs, True)
    if _independent_mod_p(casimirs):
        ps._independent = True
    return ps


# ---------------- bracket evaluation ----------------

def _stack_row(row, minors: dict) -> dict:
    """One Laplace step: ``minors`` maps column masks of one size to the
    nonzero determinants of some rows on those columns; the result maps
    each mask one column larger to the nonzero determinant with ``row`` put
    on top, expanded along it as one fused sum per minor.  Column c of a
    mask sits at position popcount(mask below c), which gives its sign, the
    sign of the entry's product in the sum."""
    terms: dict = {}
    for c, e in enumerate(row):
        if e.is_zero():
            continue
        bit, below = 1 << c, (1 << c) - 1
        for mask, d in minors.items():
            if not mask & bit:
                terms.setdefault(mask | bit, []).append(
                    (e, d, -1 if (mask & below).bit_count() & 1 else 1))
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
            out.append(c * (sign * scale))
    return out


# ---------------- verification predicates ----------------

def _derivation(variables, fields) -> PolyExpr:
    """The sum over (p, grad, sign) in ``fields`` of sign * sum_l p_l d_l f,
    given the :func:`~ppa.poly._gradient` of f and a row p_s of the bracket
    matrix: the Hamiltonian derivations sign * X_s(f) = sign * {x_s, f}, as
    one fused sum of products, l-major, each held to ``MAX_WORK`` as
    ``p_l * f.diff(x_l)`` is.  Zero-tested, divided or rendered only."""
    return _sum_of_products(variables, [(p[l], grad[l], sign) for l in range(len(variables))
                                        for p, grad, sign in fields])


def jacobiator(ps: PoissonStructure, i: int, j: int, k: int) -> PolyExpr:
    """X_i(p_jk) + X_j(p_ki) + X_k(p_ij), one :func:`_derivation`.  The
    gradient of each upper entry is computed once per structure, kept in
    ``ps._entry_gradients``; a lower entry p_ba = -p_ab reads its upper
    entry's gradient with sign -1."""
    m, known, fields = ps.matrix, ps._entry_gradients, []
    for s, a, b in ((i, j, k), (j, k, i), (k, i, j)):
        ab = (a, b) if a < b else (b, a)
        if ab not in known:
            known[ab] = _gradient(m[ab[0]][ab[1]])
        fields.append((m[s], known[ab], 1 if a < b else -1))
    return _derivation(ps.vars, fields)


def jacobi_witnesses(ps: PoissonStructure):
    """The nonzero jacobiators as (i, j, k, residual), lazily, in coordinate
    triple order.

    When rank <= 2 holds with pivot p_ab, the bivector is X ^ Y over Q(x)
    and [pi, pi] = X' ^ Y' ^ W with X'_a = Y'_b = 1, X'_b = Y'_a = 0; its
    (a, b, k) component is p_ab (W_k - W_a X'_k - W_b Y'_k), so the n - 2
    jacobiators on the triples {a, b, k} vanish iff [pi, pi] = 0 (Vaisman,
    *Lectures on the Geometry of Poisson Manifolds*, 1994).  That decides
    a pass, which yields nothing.  Anything else walks every coordinate
    triple.  The pivot triples and the walk each call :func:`jacobiator`,
    which reads each upper entry's gradient once per structure, when a
    triple first needs it, so a caller that stops at the first witness pays
    only for the entries of the triples up to it.  A
    :attr:`~PoissonStructure.certified` structure yields nothing before any
    of that runs."""
    if ps.certified:
        return
    low_rank, pivot = ps._rank2
    if low_rank and (pivot is None or all(
            jacobiator(ps, *sorted(pivot + (k,))).is_zero()
            for k in range(ps.n) if k not in pivot)):
        return
    for i, j, k in combinations(range(ps.n), 3):
        r = jacobiator(ps, i, j, k)
        if not r.is_zero():
            yield i, j, k, r


def is_casimir(s: PoissonStructure | NambuStructure, q: PolyExpr) -> bool:
    """True iff q is central.  On a Poisson structure {q, x_k} = 0 for every
    coordinate, each row -{q, x_k} = X_k(q) one :func:`_derivation` over
    the gradient of q, read once; the verdict is kept on the structure.
    On a Nambu structure every bracket {x_c1, ..., x_c(r-1), q} is the
    multiplier times an (m+1)-minor of (dq, dQ_1, ..., dQ_m), so q is
    central iff the multiplier is zero or one Laplace step of dq on the
    Casimir minors leaves no minor.

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
        verdict = all(_derivation(s.vars, [(row, grad, 1)]).is_zero() for row in s.matrix)
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
    return all(exact_divisibility(_derivation(ps.vars, [(row, grad, 1)]), q)[0]
               for row in ps.matrix)


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
    computes no Pfaffian here.  A certified :func:`jacobian_structure`
    reads no entry either: its entries are the multiplier times the
    Casimir minors, of which one is nonzero, so its rank is 0 iff the
    multiplier is zero.  Otherwise, with P the pivot pairs taken so
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
    if ps.certified and ps.multiplier is not None:
        return 0 if ps.multiplier.is_zero() else 2
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
