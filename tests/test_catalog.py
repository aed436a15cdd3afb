"""Catalog-wide invariants: every entry passes its expected checks at the
default parameters and at the registered alternates."""

from fractions import Fraction as F

import pytest

from ppa import catalog
from ppa.duality import bdu_relation_sides, degree_sum_check, duality_check
from ppa.errors import DomainError
from ppa.geometry import check_projective_extendability
from ppa.poly import PolyExpr
from ppa.structures import (NambuStructure, PoissonStructure, check_jacobi,
                            generic_rank, is_casimir, jacobian_structure,
                            plucker_rank2_test)


def _bindings(name):
    e = catalog.entry(name)
    return [None] + list(e.alternates)


def all_bindings():
    for name in catalog.names():
        for b in _bindings(name):
            yield name, b


@pytest.mark.parametrize("name,binding", list(all_bindings()),
                         ids=lambda v: str(v))
def test_expected_outcomes(name, binding):
    m = catalog.build(name, binding)
    exp = m.expected
    ps = m.structure
    if isinstance(ps, PoissonStructure):
        if "jacobi" in exp:
            assert check_jacobi(ps).holds == exp["jacobi"]
        if "casimirs" in exp:
            assert all(is_casimir(ps, q) for q in m.casimir_polys()) == exp["casimirs"]
        if "lambda_coord" in exp and (ps.n - len(m.casimirs)) % 2 == 0:
            rep = duality_check(ps, m.casimir_polys())
            assert rep.holds
            if binding is None:
                assert rep.lam_coord == exp["lambda_coord"]
        if "plucker" in exp:
            assert plucker_rank2_test(ps).rank_le_2 == exp["plucker"]
        if "rank" in exp:
            assert generic_rank(ps, 0) == exp["rank"]
        if "degree_sum" in exp:
            rep = degree_sum_check(m.casimir_polys(), len(m.vars), m.weights)
            assert rep.sum_of_degrees == exp["degree_sum"]
            assert rep.equals_dimension == exp["degree_sum_equals"]
        if "extendability" in exp:
            v = check_projective_extendability(ps)
            assert v.extendable_necessary_conditions == exp["extendability"]


def test_lambda_constant_across_parameter_bindings():
    # the coordinate-normalized constant is parameter-independent for the
    # homogeneous families
    for name in ("q3", "q5", "sklyanin", "quadrics61", "mirror_y", "mirror_z"):
        values = set()
        for b in _bindings(name):
            m = catalog.build(name, b)
            values.add(duality_check(m.structure, m.casimir_polys()).lam_coord)
        assert len(values) == 1, name


def test_quadrics61_table_vs_jacobian_global_constant():
    for b in _bindings("quadrics61"):
        m = catalog.build("quadrics61", b)
        jac = jacobian_structure(m.vars, m.casimir_polys(), 1)
        for (i, j), e in m.structure.entries_upper():
            assert e == jac.matrix[i][j] * (-1), (b, i, j)


def test_dell_table_vs_printed_entries():
    m = catalog.build("dell")
    x1, x2, x3, x4, x5, x6 = PolyExpr.gens(m.vars)
    ps = m.structure
    assert ps.matrix[0][1].is_zero() and ps.matrix[0][2].is_zero() \
        and ps.matrix[1][2].is_zero()
    assert ps.matrix[4][0] == -(x2 * x3 * x4 * x6)
    assert ps.matrix[4][1] == -(x1 * x3 * x4 * x6)
    assert ps.matrix[4][2] == -(x1 * x2 * x4 * x6)
    assert ps.matrix[4][3] == -(x1 * x2 * x3 * x6 * 4)
    assert ps.matrix[4][5].is_zero()


def test_dell_multiplier_tracks_parameters():
    m = catalog.build("dell", {"kt": F(2)})
    assert m.multiplier.constant_value() == F(-1, 4)
    rep = duality_check(m.structure, m.casimir_polys())
    assert rep.holds and rep.lam_coord == F(-1, 4)


def test_q5_casimir_gradient_identity_closed_form():
    # P = sum_i x_i * Pf(block_i) for the homogeneous quintic center
    from ppa.exterior import pfaffian
    m = catalog.build("q5", {"k": F(3, 2)})
    p = m.casimirs[0][1]
    gens = PolyExpr.gens(m.vars)
    total = PolyExpr.zero(m.vars)
    for i in range(5):
        block = tuple((i + t) % 5 for t in (1, 2, 3, 4))
        total = total + gens[i] * pfaffian(m.structure.matrix, block)
    assert total == p


def test_parameter_guards():
    with pytest.raises(DomainError):
        catalog.build("q5", {"k": 0})
    with pytest.raises(DomainError):
        catalog.build("sklyanin", {"J1": 2, "J2": 2, "J3": 3})
    with pytest.raises(DomainError):
        catalog.build("dell", {"g2": -1})
    with pytest.raises(DomainError):
        catalog.build("dell", {"kt": 0})
    with pytest.raises(DomainError):
        catalog.build("fairlie", {"g2": 0})
    with pytest.raises(DomainError):
        catalog.build("markov", {"bogus": 1})
    with pytest.raises(DomainError):
        catalog.build("no_such_entry")


def test_cone_defaults_to_fermat_cone():
    m = catalog.build("canonical_cone4")
    x1, x2, x3 = PolyExpr.gens(m.vars)
    assert m.casimirs[0][1] == x1 ** 4 + x2 ** 4 + x3 ** 4
    assert check_jacobi(m.structure).holds
    custom = catalog.build("canonical_cone4", {"c211": F(5)})
    assert custom.casimirs[0][1].coefficient((2, 1, 1)) == 5
    assert check_jacobi(custom.structure).holds


def test_bdu_relation_machinery():
    m = catalog.build("bdu_casimirs")
    p1, p2 = m.casimir_polys()
    # a structure that cannot satisfy the relation: canonical {p,q}=1 table
    table = {(0, 1): PolyExpr.const(m.vars, 1)}
    ps = PoissonStructure.from_table(m.vars, table)
    lhs, rhs = bdu_relation_sides(ps, p1, p2)
    assert lhs.is_zero()
    names = m.vars
    pq, pr = p1.diff(names[1]), p1.diff(names[2])
    qq, qr = p2.diff(names[1]), p2.diff(names[2])
    assert rhs == pq * qr - pr * qq
    assert not rhs.is_zero()


def test_bdu_casimir_shapes():
    m = catalog.build("bdu_casimirs")
    p1, p2 = m.casimir_polys()
    assert p1.total_degree() == 4 and p2.total_degree() == 2
    assert p1.eval_exact([1, 1, 1, 1, 1, 1]) == 3
    assert p1.eval_exact([0, 0, 0, 0, 0, 0]) == 0
    assert p2.eval_exact([1, 0, 0, 0, 0, 1]) == 1


def test_nambu_entries_have_consistent_arity():
    for name in ("fairlie", "dell_nambu"):
        m = catalog.build(name)
        assert isinstance(m.structure, NambuStructure)
        assert m.structure.arity == 4
        assert len(m.hamiltonians) == 3


def test_each_expected_fact_stated_once():
    # a template's expect pins, and for a Jacobian structure its multiplier,
    # are the only statement of those outcomes
    for name in catalog.names():
        e = catalog.entry(name)
        m = e.build()
        assert not set(e.facts) & set(m.expects), name
        assert set(m.expects) <= set(m.expected), name
        if m.structure_kind == "jacobian":
            assert "lambda_coord" not in e.facts, name
