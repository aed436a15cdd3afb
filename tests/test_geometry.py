"""Monomial-map transport, extendability conditions, chart comparison."""

from fractions import Fraction as F

import pytest

from ppa import catalog
from ppa.errors import DomainError
from ppa.geometry import chart_compare, check_projective_extendability, transport_bracket
from ppa.poly import MonomialMap, PolyExpr, exact_divisibility, substitute
from ppa.structures import PoissonStructure, is_casimir, jacobi_witnesses

V3 = ("x1", "x2", "x3")


def map_a():
    return MonomialMap(V3, ("y1", "y2", "y3"),
                       [[1, 0, 0], [0, 1, F(-1, 2)], [0, 0, F(3, 2)]])


def map_b():
    return MonomialMap(V3, ("z1", "z2", "z3"),
                       [[F(-3, 4), F(3, 2), 0], [F(1, 4), F(-1, 2), 1],
                        [F(3, 2), 0, 0]])


# ---------------- mirror transport ----------------

def test_first_map_transport_matches_gradient_times_jacobian():
    m = catalog.build("q3", {"k": 2})
    res = transport_bracket(m.structure, map_a())
    assert res.polynomial_grade
    vy = ("y1", "y2", "y3")
    pv = catalog.build("mirror_y", {"k": 2}).casimirs[0][1]
    c = F(3, 2)
    assert res.entries[0][1] == pv.diff("y3") * c
    assert res.entries[1][2] == pv.diff("y1") * c
    assert res.entries[2][0] == pv.diff("y2") * c
    assert map_a().jacobian_det_monomial() == c


def test_second_map_transport_matches_gradient_times_jacobian():
    m = catalog.build("q3", {"k": 2})
    res = transport_bracket(m.structure, map_b())
    assert res.polynomial_grade
    pz = catalog.build("mirror_z", {"k": 2}).casimirs[0][1]
    c = F(9, 4)
    assert res.entries[0][1] == pz.diff("z3") * c
    assert res.entries[1][2] == pz.diff("z1") * c
    assert res.entries[2][0] == pz.diff("z2") * c
    assert map_b().jacobian_det_monomial() == c


def test_transported_casimirs_verbatim():
    p = catalog.build("q3", {"k": 2}).casimirs[0][1]
    assert substitute(p, map_a()) == catalog.build("mirror_y", {"k": 2}).casimirs[0][1]
    assert substitute(p, map_b()) == catalog.build("mirror_z", {"k": 2}).casimirs[0][1]


def test_identity_transport():
    m = catalog.build("markov")
    identity = MonomialMap(V3, V3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = transport_bracket(m.structure, identity)
    assert res.structure() == m.structure


def test_inverse_round_trip():
    m = catalog.build("q3", {"k": 3})
    res = transport_bracket(m.structure, map_b())
    back = transport_bracket(res.structure(), map_b().inverse())
    assert back.structure() == m.structure


def test_transport_preserves_jacobi_and_casimirs():
    m = catalog.build("q3", {"k": 2})
    res = transport_bracket(m.structure, map_a())
    ts = res.structure()
    assert list(jacobi_witnesses(ts)) == []
    assert is_casimir(ts, substitute(m.casimirs[0][1], map_a()))


def test_weighted_homogeneity_of_transported_brackets():
    # bracket degree w_i + w_j + (deg P - sum w)
    for name, weights in (("mirror_y", (2, 1, 3)), ("mirror_z", (1, 1, 2))):
        m = catalog.build(name, {"k": 2})
        ps = m.structure
        pdeg = m.casimirs[0][1].weighted_degree(weights)
        extra = pdeg - sum(weights)
        for (i, j), e in ps.entries_upper():
            degrees = {sum(w * x for w, x in zip(weights, m)) for m in e.terms}
            assert len(degrees) <= 1, (name, i, j)
            assert e.weighted_degree(weights) == weights[i] + weights[j] + extra


def test_transported_structure_is_weighted_curve_form():
    # the transported structure coincides with the catalog image models
    m = catalog.build("q3", {"k": 2})
    assert transport_bracket(m.structure, map_a()).structure() == \
        catalog.build("mirror_y", {"k": 2}).structure
    assert transport_bracket(m.structure, map_b()).structure() == \
        catalog.build("mirror_z", {"k": 2}).structure


# ---------------- extendability ----------------

def test_low_degree_structures_pass_vacuously():
    for name in ("q3", "markov", "sklyanin", "quadrics61", "q5"):
        v = check_projective_extendability(catalog.build(name).structure)
        assert v.degree_ok and v.extendable_necessary_conditions, name


def test_fermat_obstruction_witness():
    m = catalog.build("fermat_k3")
    v = check_projective_extendability(m.structure)
    x1, x2, x3 = PolyExpr.gens(V3)
    assert v.degree_ok
    assert v.cyclic_residuals[(0, 1, 2)] == (x1 ** 4 + x2 ** 4 + x3 ** 4) * (-4)
    assert not v.extendable_necessary_conditions


def test_decomposable_cubic_table_passes():
    v4 = ("X1", "X2", "X3", "X4")
    gens = PolyExpr.gens(v4)
    table = {}
    for i in range(4):
        for j in range(i + 1, 4):
            table[(i, j)] = gens[i] * gens[j] ** 2 - gens[j] * gens[i] ** 2
    ps = PoissonStructure.from_table(v4, table)
    v = check_projective_extendability(ps)
    assert v.extendable_necessary_conditions
    assert v.max_degree == 3


def test_quartic_brackets_fail_on_degree():
    v = check_projective_extendability(catalog.build("dell").structure)
    assert v.max_degree == 4 and not v.degree_ok
    assert not v.extendable_necessary_conditions


def test_split_charts_agree_up_to_global_constant():
    aff = catalog.build("singular_k3_affine")
    spl = catalog.build("singular_k3_split")
    cc = chart_compare(aff.structure, spl.structure, spl.casimirs[0][1])
    assert cc.constant == -1
    assert cc.eliminated_var == "Z"
    assert (0, 1) not in cc.residuals      # {X2,X3} matches exactly
    assert (0, 2) not in cc.residuals      # {X2,X4} matches exactly
    # the remaining entry agrees only on the surface: residual is exactly -P
    assert cc.residuals[(1, 2)] == -aff.casimirs[0][1]
    ok, _ = exact_divisibility(cc.residuals[(1, 2)], aff.casimirs[0][1])
    assert ok


def test_split_chart_bracket_value():
    aff = catalog.build("singular_k3_affine")
    spl = catalog.build("singular_k3_split")
    a2, a3, a4 = PolyExpr.gens(aff.vars)
    assert aff.structure.matrix[0][1] == (a2 + 1) * a4 ** 2 * (-3)
    z2, z3, z4, zz = PolyExpr.gens(spl.vars)
    assert spl.structure.matrix[0][1] == (PolyExpr.const(spl.vars, 1) - zz) * z2 * z4 ** 2 * 3


def test_trivial_restriction_agrees():
    m = catalog.build("markov")
    v4 = V3 + ("w",)
    table = {}
    for (i, j), e in m.structure.entries_upper():
        table[(i, j)] = e.with_vars(v4)
    psb = PoissonStructure.from_table(v4, table)
    w = PolyExpr.var("w", v4)
    cc = chart_compare(m.structure, psb, w - 1)
    assert cc.agree and cc.constant == 1 and not cc.residuals


def test_tampered_entry_detected():
    aff = catalog.build("singular_k3_affine")
    spl = catalog.build("singular_k3_split")
    table = {k: v for k, v in spl.structure.entries_upper()}
    x4 = PolyExpr.var("X4", spl.vars)
    table[(0, 1)] = table[(0, 1)] + x4
    bad = PoissonStructure.from_table(spl.vars, table)
    cc = chart_compare(aff.structure, bad, spl.casimirs[0][1])
    assert not cc.agree
    assert (0, 1) in cc.residuals


def test_eliminator_contract():
    aff = catalog.build("singular_k3_affine")
    spl = catalog.build("singular_k3_split")
    zz = PolyExpr.var("Z", spl.vars)
    with pytest.raises(DomainError):
        chart_compare(aff.structure, spl.structure, zz * zz + 1)
    x2 = PolyExpr.var("X2", spl.vars)
    with pytest.raises(DomainError):
        chart_compare(aff.structure, spl.structure, (x2 + 1) * zz + 1)
