"""Wedge-power duality and degree-sum checks."""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest

from oracles import bivector, differential, volume_dual, wedge_all, wedge_power
from ppa import catalog, duality, structures
from ppa.duality import degree_sum_check, duality_check
from ppa.errors import DomainError, ParityError
from ppa.exterior import indices_of, mask_of, pfaffian
from ppa.poly import PolyExpr
from ppa.structures import PoissonStructure, jacobian_structure

V3 = ("x1", "x2", "x3")


def test_q3_constant_one():
    m = catalog.build("q3", {"k": 2})
    rep = duality_check(m.structure, m.casimir_polys())
    assert rep.holds and rep.lam == 1 and rep.lam_coord == 1 and rep.m == 1
    assert rep.residual == {}


def test_jacobian_multiplier_is_recovered():
    x1, x2, x3 = PolyExpr.gens(V3)
    p = x1 ** 2 + x2 ** 2 + x3 ** 2 + x1 * x2 * x3 * 3
    for lam in (F(1), F(-1), F(7, 3)):
        ps = jacobian_structure(V3, [p], lam)
        rep = duality_check(ps, [p])
        assert rep.holds and rep.lam == lam


def test_q5_coordinate_constant_is_one_fifth():
    for k in (F(2), F(3, 2), F(-5, 7)):
        m = catalog.build("q5", {"k": k})
        rep = duality_check(m.structure, m.casimir_polys())
        assert rep.holds
        assert rep.m == 2
        assert rep.lam == F(2, 5)
        assert rep.lam_coord == F(1, 5)


def test_parity_error_on_odd_corank():
    v4 = ("x1", "x2", "x3", "x4")
    x1, x2, x3, x4 = PolyExpr.gens(v4)
    q1 = x1 ** 2 + x2 ** 2 + x3 ** 2
    q2 = x4 ** 2 + x1 ** 2 + x2 ** 2 * 2 + x3 ** 2 * 3
    ps = jacobian_structure(v4, [q1, q2], 1)
    with pytest.raises(ParityError):
        duality_check(ps, [q1])


def test_non_casimir_refused():
    m = catalog.build("q3", {"k": 2})
    with pytest.raises(DomainError):
        duality_check(m.structure, [PolyExpr.var("x1", V3)])


def test_zero_structure_reports_zero_constant():
    m = catalog.build("bdu_casimirs")
    rep = duality_check(m.structure, m.casimir_polys())
    assert not rep.holds
    assert rep.lam == 0


def test_detail_ties_pfaffian_to_minor():
    m = catalog.build("q5", {"k": 2})
    ps, qs = m.structure, m.casimir_polys()
    rep = duality_check(ps, qs)
    # the detail covers the union of both supports, one entry per mask
    wedge = wedge_power(bivector(ps), rep.m)
    dual = volume_dual(wedge_all([differential(q) for q in qs]))
    support = {indices_of(mask) for mask in set(wedge.coeffs) | set(dual.coeffs)}
    assert support and set(rep.detail) == support
    # binding identity: 2! * Pf(T) = lam * (dual coefficient on T)
    for sub, (pf, minor) in rep.detail.items():
        assert pf == pfaffian(ps.matrix, sub)
        assert pf * 2 == minor * rep.lam


def test_failed_residual_is_keyed_by_subset_like_detail():
    x1, x2, x3 = PolyExpr.gens(V3)
    ps = jacobian_structure(V3, [x3], x1)         # {x1,x2} = x1: a non-constant ratio
    rep = duality_check(ps, [x3])
    assert not rep.holds and rep.lam is None
    assert rep.residual == {(0, 1): x1}
    assert set(rep.residual) <= set(rep.detail)
    for sub, value in rep.residual.items():
        assert value == rep.detail[sub][0] * math.factorial(rep.m)


def test_each_principal_pfaffian_is_computed_once(monkeypatch):
    # h * pi keeps the Casimirs of pi and scales m! Pf by h^m: a fail path
    m = catalog.build("q5", {"k": 2})
    ps, qs = m.structure, m.casimir_polys()
    h = PolyExpr.var("x1", ps.vars)
    scaled = PoissonStructure.from_table(ps.vars, {ij: p * h for ij, p in ps.entries_upper()})
    calls = []
    monkeypatch.setattr(duality, "pfaffian",
                        lambda matrix, sub: calls.append(tuple(sub)) or pfaffian(matrix, sub))
    for structure, holds in ((ps, True), (scaled, False)):
        calls.clear()
        rep = duality_check(structure, qs)
        assert rep.holds is holds and bool(rep.residual) is not holds and rep.detail
        assert sorted(calls) == list(combinations(range(ps.n), 2 * rep.m))


def test_bivector_is_the_mask_dict_of_the_upper_entries():
    ps = catalog.build("q3", {"k": 2}).structure
    pi = ps.as_bivector()
    assert pi == {mask_of((i, j)): ps.matrix[i][j]
                  for i, j in combinations(range(ps.n), 2)
                  if not ps.matrix[i][j].is_zero()}
    assert pi and bivector(ps).coeffs == pi


def test_wedge_coefficient_equals_factorial_times_pfaffian_catalog_wide():
    for name in ("q3", "markov", "sklyanin", "quadrics61", "q5", "dell",
                 "askey_wilson", "euler_top"):
        ps = catalog.build(name).structure
        if not isinstance(ps, PoissonStructure):
            continue
        pi = bivector(ps)
        n = ps.n
        for m_power in range(1, n // 2 + 1):
            wp = wedge_power(pi, m_power)
            fact = 1
            for t in range(2, m_power + 1):
                fact *= t
            for sub in combinations(range(n), 2 * m_power):
                assert wp.coefficient(sub) == pfaffian(ps.matrix, sub) * fact, \
                    (name, m_power, sub)


# ---------------- degree sums ----------------

def test_degree_sum_q5():
    m = catalog.build("q5", {"k": 2})
    rep = degree_sum_check(m.casimir_polys(), 5)
    assert rep.sum_of_degrees == 5 and rep.equals_dimension


def test_degree_sum_sklyanin():
    m = catalog.build("sklyanin")
    rep = degree_sum_check(m.casimir_polys(), 4)
    assert rep.degrees == [2, 2] and rep.sum_of_degrees == 4
    assert rep.equals_dimension


def test_degree_sum_weighted_quartic_family():
    m = catalog.build("askey_wilson")
    rep = degree_sum_check(m.casimir_polys(), 3, weights=(1, 1, 2))
    assert rep.sum_of_degrees == 4 and rep.weight_sum == 4
    assert rep.equals_dimension


def test_degree_sum_euler_not_equal():
    m = catalog.build("euler_top")
    rep = degree_sum_check(m.casimir_polys(), 3)
    assert rep.sum_of_degrees == 2 and not rep.equals_dimension


def test_casimir_verdicts_shared_within_a_structure(monkeypatch):
    m = catalog.build("q5", {"k": 2})
    ps, qs = m.structure, m.casimir_polys()
    calls = []
    real = structures._derivation
    monkeypatch.setattr(structures, "_derivation",
                        lambda *args: calls.append(args) or real(*args))
    assert all(structures.is_casimir(ps, q) for q in qs)
    verified = len(calls)
    # theorem31 after the casimirs check brackets nothing again ...
    assert verified and duality_check(ps, qs).holds
    assert len(calls) == verified
    # ... while a fresh structure is still verified, and refused when wrong
    with pytest.raises(DomainError):
        duality_check(catalog.build("q5", {"k": 2}).structure,
                      [PolyExpr.var("x1", ps.vars)])
    assert len(calls) > verified
