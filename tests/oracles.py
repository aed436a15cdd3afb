"""Reference implementations that tests compare the library against.

``wedge_power`` is the m-th wedge power as a chain of full wedges, and
``duality_check_by_wedges`` is theorem31 computed from it and from the
volume dual of the wedged Casimir differentials, as the library computed
it before it took the wedge side from principal Pfaffians.
"""

import math
from typing import Optional

from ppa.duality import DualityReport
from ppa.errors import ArityError, DegenerateCasimirError, DomainError, ParityError
from ppa.exterior import (PolyForm, PolyMultivector, differential, indices_of,
                          shuffle_signature, wedge, wedge_all)
from ppa.poly import PolyExpr
from ppa.structures import is_casimir


def wedge_power(a, m: int):
    if m < 1:
        raise ArityError("wedge power needs m >= 1")
    acc = a
    for _ in range(m - 1):
        acc = wedge(acc, a)
    return acc


def volume_dual(element):
    """The coefficient on the complement T of S picks up the signature of
    the shuffle (S, T)."""
    n = element.n
    full = (1 << n) - 1
    target = PolyMultivector if isinstance(element, PolyForm) else PolyForm
    out = {}
    for mask, p in element.coeffs.items():
        comp = full & ~mask
        sign = shuffle_signature(indices_of(mask), indices_of(comp))
        out[comp] = p if sign > 0 else p * -1
    return target(element.vars, n - element.grade, out)


def duality_check_by_wedges(ps, casimirs) -> DualityReport:
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

    zero = PolyExpr.zero(ps.vars)
    proportional = True
    lam: Optional = None
    for mask, d in dual_side.coeffs.items():
        w = wedge_side.coeffs.get(mask, zero)
        dm, dc = d.leading()
        cand = w.coefficient(dm) / dc
        if w != d * cand or (lam is not None and lam != cand):
            proportional = False
            break
        lam = cand
    if proportional and any(mask not in dual_side.coeffs for mask in wedge_side.coeffs):
        proportional = False

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
