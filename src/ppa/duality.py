"""Theorem 3.1 duality between the bracket Pfaffians and the Casimir minors,
and the other determinantal relations between brackets and Casimirs.

For a structure of rank n - l with Casimirs Q_1..Q_l and even n - l = 2m, the
m-th wedge power of the bivector equals a constant multiple of the volume
dual of dQ_1 ^ ... ^ dQ_l.  Coefficientwise, on each 2m-subset S,
m! * Pf(pi_S) is that constant times the l x l minor of the Casimir
gradients on the complementary columns, up to the shuffle sign.  The check
computes exactly that: the principal 2m x 2m Pfaffians of the bracket matrix
against the table of Casimir minors (``structures.casimir_minors``, kept on
the structure), each moved to the complement of its column mask with the
shuffle sign.  The constant reported as ``lam`` carries the m!;
``lam_coord`` = lam / m! is the coordinate-level constant relating the
Pfaffians to the minors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .errors import DegenerateCasimirError, DomainError, ParityError, VariableSetError
from .exterior import indices_of, mask_of, merge_sign, pfaffian
from .poly import PolyExpr, _constant_ratio
from .structures import PoissonStructure, _minor_table, is_casimir


@dataclass
class DualityReport:
    holds: bool
    lam: Optional[Fraction]          # None encodes a non-constant ratio
    lam_coord: Optional[Fraction]    # lam / m!
    m: int
    residual: dict    # subset -> nonzero m! * Pf; empty when proportional
    # (bracket matrix, dual side by mask, masks) that ``detail`` is read from
    _sources: tuple = field(repr=False, compare=False)

    @cached_property
    def detail(self) -> dict:
        """subset -> (Pfaffian of the bracket block, dual coefficient) over the
        union of both supports, computed on first read."""
        matrix, dual_side, masks = self._sources
        zero = PolyExpr.zero(matrix[0][0].vars)
        return {indices_of(mask): (pfaffian(matrix, indices_of(mask)),
                                   dual_side.get(mask, zero))
                for mask in masks}


def duality_check(ps: PoissonStructure, casimirs: Sequence[PolyExpr]) -> DualityReport:
    """Compare m! times the principal 2m x 2m Pfaffians of the bracket, the
    coefficients of the m-th wedge power with 2m = n - l, with the dual of
    dQ_1 ^ ... ^ dQ_l, and extract the constant factor.

    The Casimirs are verified first; the comparison refuses functions that
    are not actually central.  Every Pfaffian on the support of the dual
    side must be one and the same rational multiple of its dual coefficient,
    and every Pfaffian off it must vanish.  A non-constant or mismatched
    ratio anywhere fails the check, and only then is the whole wedge power
    formed, as the residual: subset -> m! * Pf on every subset where that is
    nonzero.
    """
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
    if m < 1:
        raise ParityError("rank-0 comparison is vacuous")
    # the volume dual of dQ_1 ^ ... ^ dQ_l: each minor moves to the
    # complement of its mask, signed by the shuffle (mask, complement)
    full = (1 << n) - 1
    dual_side = {full ^ mask: d if merge_sign(mask, full ^ mask) > 0 else -d
                 for mask, d in _minor_table(ps, tuple(casimirs)).items()}
    if not dual_side:
        raise DegenerateCasimirError(
            "dQ_1 ^ ... ^ dQ_l vanishes identically; Casimirs are dependent")

    # One constant for every mask: each Pfaffian on the dual support must be
    # the same multiple of its (nonzero) dual coefficient.
    matrix = ps.matrix
    proportional = True
    lam_coord: Optional[Fraction] = None
    for mask, d in dual_side.items():
        cand = _constant_ratio(pfaffian(matrix, indices_of(mask)), d)
        if cand is None or (lam_coord is not None and lam_coord != cand):
            proportional = False
            break
        lam_coord = cand
    # Pfaffians outside the dual support must vanish
    if proportional and any(not pfaffian(matrix, sub).is_zero()
                            for sub in combinations(range(n), 2 * m)
                            if mask_of(sub) not in dual_side):
        proportional = False

    fact = math.factorial(m)
    if proportional:
        # the dual side is nonzero, so lam is set, and the wedge power is
        # exactly lam times the dual side
        residual = {}
        masks = sorted(dual_side)
    else:
        residual = {sub: pf * fact for sub in combinations(range(n), 2 * m)
                    if not (pf := pfaffian(matrix, sub)).is_zero()}
        masks = sorted(set(map(mask_of, residual)) | set(dual_side))
    return DualityReport(
        holds=proportional and lam_coord != 0,
        lam=lam_coord * fact if proportional else None,
        lam_coord=lam_coord if proportional else None,
        m=m,
        residual=residual,
        _sources=(matrix, dual_side, masks),
    )


def bdu_relation_sides(ps: PoissonStructure, p1: PolyExpr, p2: PolyExpr):
    """Left and right sides of the quartic/quadratic determinantal relation
    on the six Stokes coordinates (p, q, r, x, y, z):

        {x,y}{p,z} + {y,z}{p,x} + {z,x}{p,y}
            = det [[dP1/dq, dP1/dr], [dP2/dq, dP2/dr]].

    The left side is the Pfaffian of the bracket block on (p, x, y, z).
    """
    if ps.n != 6:
        raise DomainError("the determinantal relation needs six variables")
    vp, vq, vr, vx, vy, vz = range(6)
    lhs = pfaffian(ps.matrix, (vp, vx, vy, vz))
    names = ps.vars
    d1q, d1r = p1.diff(names[vq]), p1.diff(names[vr])
    d2q, d2r = p2.diff(names[vq]), p2.diff(names[vr])
    rhs = d1q * d2r - d1r * d2q
    return lhs, rhs


@dataclass
class DegreeSumReport:
    degrees: list
    sum_of_degrees: int
    weight_sum: int
    equals_dimension: bool


def degree_sum_check(casimirs: Sequence[PolyExpr], n: int,
                     weights: Sequence[int] | None = None,
                     require_homogeneous: bool = False) -> DegreeSumReport:
    """Sum of (weighted) top degrees of the Casimirs against the weight sum.

    With unit weights the comparison target is the dimension n.  Top degree
    is used so that non-homogeneous degenerations (Markov-type Casimirs,
    quartic z^2 - F families) are measured by their leading part; pass
    ``require_homogeneous=True`` to insist on exact homogeneity instead.
    """
    if weights is None:
        weights = [1] * n
    weights = list(weights)
    if len(weights) != n:
        raise VariableSetError("need one weight per variable")
    degrees = []
    for q in casimirs:
        if q.is_zero():
            raise DomainError("zero Casimir has no degree")
        if require_homogeneous and not q.is_weighted_homogeneous(weights):
            raise DomainError(f"not weighted-homogeneous: {q}")
        degrees.append(q.weighted_degree(weights))
    total = sum(degrees)
    wsum = sum(weights)
    return DegreeSumReport(degrees, total, wsum, total == wsum)
