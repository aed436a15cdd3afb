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
    # mask -> nonzero principal 2m-Pfaffian, and mask -> dual coefficient
    pfaffians: dict = field(repr=False, compare=False)
    dual: dict = field(repr=False, compare=False)

    @cached_property
    def detail(self) -> dict:
        """subset -> (Pfaffian of the bracket block, dual coefficient) over the
        union of both supports, assembled on first read."""
        zero = PolyExpr.zero(next(iter(self.dual.values())).vars)
        return {indices_of(mask): (self.pfaffians.get(mask, zero),
                                   self.dual.get(mask, zero))
                for mask in sorted(self.pfaffians.keys() | self.dual.keys())}


def duality_check(ps: PoissonStructure, casimirs: Sequence[PolyExpr]) -> DualityReport:
    """Compare m! times the principal 2m x 2m Pfaffians of the bracket, the
    coefficients of the m-th wedge power with 2m = n - l, with the dual of
    dQ_1 ^ ... ^ dQ_l, and extract the constant factor.

    The Casimirs are verified first; the comparison refuses functions that
    are not actually central.  Each principal Pfaffian is computed once,
    into a mask table of the nonzero ones.  Every Pfaffian on the support of
    the dual side must be one and the same rational multiple of its dual
    coefficient, and every Pfaffian off it must vanish.  A non-constant or
    mismatched ratio anywhere fails the check, with the whole wedge power as
    the residual: subset -> m! * Pf on every subset where that is nonzero.
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
    pfaffians = {mask_of(sub): pf for sub in combinations(range(n), 2 * m)
                 if not (pf := pfaffian(ps.matrix, sub)).is_zero()}

    # One constant for every mask: each Pfaffian on the dual support must be
    # the same multiple of its (nonzero) dual coefficient.
    zero = PolyExpr.zero(ps.vars)
    ratios = {_constant_ratio(pfaffians.get(mask, zero), d)
              for mask, d in dual_side.items()}
    proportional = (len(ratios) == 1 and None not in ratios
                    and pfaffians.keys() <= dual_side.keys())
    lam_coord = ratios.pop() if proportional else None
    fact = math.factorial(m)
    return DualityReport(
        holds=proportional and lam_coord != 0,
        lam=lam_coord * fact if proportional else None,
        lam_coord=lam_coord,
        m=m,
        residual=({} if proportional else
                  {indices_of(mask): pf * fact for mask, pf in pfaffians.items()}),
        pfaffians=pfaffians,
        dual=dual_side,
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
                     weights: Sequence[int] | None = None) -> DegreeSumReport:
    """Sum of (weighted) top degrees of the Casimirs against the weight sum.

    With unit weights the comparison target is the dimension n.  Top degree
    is used so that non-homogeneous degenerations (Markov-type Casimirs,
    quartic z^2 - F families) are measured by their leading part.
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
        degrees.append(q.weighted_degree(weights))
    total = sum(degrees)
    wsum = sum(weights)
    return DegreeSumReport(degrees, total, wsum, total == wsum)
