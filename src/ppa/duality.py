"""Wedge-power duality between the bracket bivector and the Casimir minors,
and the other determinantal relations between brackets and Casimirs.

For a structure of rank n - l with Casimirs Q_1..Q_l and even n - l = 2m, the
m-th wedge power of the bivector equals a constant multiple of the volume
dual of dQ_1 ^ ... ^ dQ_l.  The constant reported as ``lam`` carries the m!
of the wedge power; ``lam_coord`` = lam / m! matches the coordinate-level
identity relating 2m x 2m Pfaffians to l x l Jacobian minors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import DegenerateCasimirError, DomainError, ParityError, VariableSetError
from .exterior import PolyMultivector, differential, indices_of, pfaffian, volume_dual, wedge_all, wedge_power
from .poly import PolyExpr
from .structures import PoissonStructure, is_casimir


@dataclass
class DualityReport:
    holds: bool
    lam: Optional[Fraction]          # None encodes a non-constant ratio
    lam_coord: Optional[Fraction]    # lam / m!
    m: int
    residual: PolyMultivector
    # (bracket matrix, dual side, masks) that ``detail`` is computed from
    _sources: tuple = field(repr=False, compare=False)

    @property
    def lambda_text(self) -> str:
        return "non-constant" if self.lam is None else str(self.lam)

    @cached_property
    def detail(self) -> dict:
        """subset -> (Pfaffian of the bracket block, dual coefficient) over the
        union of both supports, computed on first read."""
        matrix, dual_side, masks = self._sources
        zero = PolyExpr.zero(dual_side.vars)
        return {indices_of(mask): (pfaffian(matrix, indices_of(mask)),
                                   dual_side.coeffs.get(mask, zero))
                for mask in masks}


def duality_check(ps: PoissonStructure, casimirs: Sequence[PolyExpr]) -> DualityReport:
    """Compare the (n-l)/2-th wedge power of the bivector with the dual of
    dQ_1 ^ ... ^ dQ_l and extract the constant factor.

    The Casimirs are verified first; the comparison refuses functions that
    are not actually central.  The constant is read off one leading
    coefficient of the dual side and every entry is then compared exactly
    against that multiple, so a non-constant or mismatched ratio anywhere
    fails the check.
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

    wedge_side = wedge_power(ps.as_bivector(), m) if m >= 1 else None
    if wedge_side is None:
        raise ParityError("rank-0 comparison is vacuous")
    dual_side = volume_dual(wedge_all([differential(q) for q in casimirs]))

    if dual_side.is_zero():
        raise DegenerateCasimirError(
            "dQ_1 ^ ... ^ dQ_l vanishes identically; Casimirs are dependent")

    # One constant for every mask: read it off a leading coefficient of the
    # dual side, then confirm the whole entry.  A zero dual entry never
    # divides: the stored coefficients are nonzero.
    zero = PolyExpr.zero(ps.vars)
    proportional = True
    lam: Optional[Fraction] = None
    for mask, d in dual_side.coeffs.items():
        w = wedge_side.coeffs.get(mask, zero)
        dm, dc = d.leading()
        cand = w.coefficient(dm) / dc
        if w != d * cand or (lam is not None and lam != cand):
            proportional = False
            break
        lam = cand
    # entries of the wedge side outside the dual support must vanish
    if proportional and any(mask not in dual_side.coeffs for mask in wedge_side.coeffs):
        proportional = False

    # the dual side is nonzero, so a proportional outcome has set lam
    residual = wedge_side - dual_side.scaled(lam) if proportional else wedge_side
    holds = proportional and lam != 0 and residual.is_zero()

    fact = math.factorial(m)
    return DualityReport(
        holds=holds,
        lam=lam if proportional else None,
        lam_coord=lam / fact if proportional else None,
        m=m,
        residual=residual,
        _sources=(ps.matrix, dual_side,
                  sorted(set(wedge_side.coeffs) | set(dual_side.coeffs))),
    )


def bdu_relation_sides(ps: PoissonStructure, p1: PolyExpr, p2: PolyExpr):
    """Left and right sides of the quartic/quadratic determinantal relation
    on the six Stokes coordinates (p, q, r, x, y, z):

        {x,y}{p,z} + {y,z}{p,x} + {z,x}{p,y}
            = det [[dP1/dq, dP1/dr], [dP2/dq, dP2/dr]].
    """
    if ps.n != 6:
        raise DomainError("the determinantal relation needs six variables")
    vp, vq, vr, vx, vy, vz = range(6)
    m = ps.matrix
    lhs = (m[vx][vy] * m[vp][vz] + m[vy][vz] * m[vp][vx]
           + m[vz][vx] * m[vp][vy])
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
