"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here: symbolic identities are exact (tolerance
zero); the numeric drift bounds are 1e-8 with the step sizes stated inline.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest

from oracles import bivector, wedge_power
from ppa import catalog, dsl
from ppa.cli import main as cli_main
from ppa.duality import degree_sum_check, duality_check
from ppa.dynamics import (decoupling_check, hamiltonian_vector_field, integrate,
                          nambu_vector_field)
from ppa.errors import DivergenceError
from ppa.exterior import pfaffian
from ppa.geometry import (chart_compare, check_projective_extendability,
                          transport_bracket)
from ppa.poly import MonomialMap, PolyExpr, substitute
from ppa.structures import (PoissonStructure, check_jacobi,
                            jacobian_structure)


def _ok(label):
    print(f"ACCEPTANCE {label}: PASS")


def _entry_bindings(name):
    return [None] + list(catalog.entry(name).alternates)


def test_q5_pfaffian_identity_all_cyclic_blocks():
    """Each cyclic 4x4 Pfaffian equals one fifth of the center gradient."""
    for k in (F(2), F(3, 2), F(-5, 7)):
        m = catalog.build("q5", {"k": k})
        p = m.casimirs[0][1]
        for i in range(5):
            block = tuple((i + t) % 5 for t in (1, 2, 3, 4))
            lhs = pfaffian(m.structure.matrix, block)
            rhs = p.diff(m.vars[i]) / 5
            assert lhs == rhs, (k, i)
    _ok("q5 Pfaffian identity (k = 2, 3/2, -5/7; exact)")


def test_duality_constant_for_seven_families():
    names = ("q3", "markov", "askey_wilson", "sklyanin", "quadrics61",
             "q5", "dell")
    for name in names:
        for binding in _entry_bindings(name):
            m = catalog.build(name, binding)
            rep = duality_check(m.structure, m.casimir_polys())
            assert rep.holds, (name, binding)
            assert rep.lam_coord is not None and rep.lam_coord != 0
    for binding in _entry_bindings("q5"):
        m = catalog.build("q5", binding)
        assert duality_check(m.structure, m.casimir_polys()).lam_coord == F(1, 5)
    _ok("wedge-power duality holds with constant multiplier; "
        "q5 coordinate constant = 1/5 exactly")


def test_jacobi_catalog_wide_and_tamper_detection():
    for name in catalog.names():
        m = catalog.build(name)
        if isinstance(m.structure, PoissonStructure):
            assert check_jacobi(m.structure).holds, name
    q3 = catalog.build("q3", {"k": 2}).structure
    table = {(i, j): q3.matrix[i][j] for i, j in combinations(range(3), 2)}
    table[(0, 1)] = table[(0, 1)] + PolyExpr.var("x1", q3.vars) ** 2
    rep = check_jacobi(PoissonStructure.from_table(q3.vars, table))
    assert not rep.holds and rep.witnesses and not rep.witnesses[0][3].is_zero()
    _ok("Jacobi holds for every catalog structure; tampering detected "
        "with nonzero witness")


def test_mirror_transport_polynomial_and_exact():
    q3 = catalog.build("q3", {"k": 2})
    p = q3.casimirs[0][1]
    map_a = MonomialMap(q3.vars, ("y1", "y2", "y3"),
                        [[1, 0, 0], [0, 1, F(-1, 2)], [0, 0, F(3, 2)]])
    map_b = MonomialMap(q3.vars, ("z1", "z2", "z3"),
                        [[F(-3, 4), F(3, 2), 0], [F(1, 4), F(-1, 2), 1],
                         [F(3, 2), 0, 0]])

    res_a = transport_bracket(q3.structure, map_a)
    assert res_a.polynomial_grade
    pv = substitute(p, map_a)
    y1, y2, y3 = PolyExpr.gens(("y1", "y2", "y3"))
    assert pv == (y1 ** 3 + y2 ** 3 * y3 + y3 ** 2) / 3 + y1 * y2 * y3 * 2
    ca = map_a.jacobian_det_monomial().constant_value()
    assert ca == F(3, 2)
    assert res_a.entries[0][1] == pv.diff("y3") * ca
    assert res_a.entries[1][2] == pv.diff("y1") * ca
    assert res_a.entries[2][0] == pv.diff("y2") * ca

    res_b = transport_bracket(q3.structure, map_b)
    assert res_b.polynomial_grade
    pz = substitute(p, map_b)
    z1, z2, z3 = PolyExpr.gens(("z1", "z2", "z3"))
    assert pz == (z3 ** 2 + z1 ** 2 * z3 + z1 * z2 ** 3) / 3 + z1 * z2 * z3 * 2
    cb = map_b.jacobian_det_monomial().constant_value()
    assert cb == F(9, 4)
    assert res_b.entries[0][1] == pz.diff("z3") * cb
    assert res_b.entries[1][2] == pz.diff("z1") * cb
    assert res_b.entries[2][0] == pz.diff("z2") * cb
    _ok("mirror transport: polynomial brackets equal to the map constant "
        "(3/2 resp. 9/4) times the image gradient; Casimirs transported "
        "exactly")


def test_extendability_three_way():
    fm = catalog.build("fermat_k3")
    v = check_projective_extendability(fm.structure)
    x1, x2, x3 = PolyExpr.gens(fm.vars)
    assert v.cyclic_residuals[(0, 1, 2)] == (x1 ** 4 + x2 ** 4 + x3 ** 4) * (-4)
    assert not v.extendable_necessary_conditions

    v4 = ("X1", "X2", "X3", "X4")
    gens = PolyExpr.gens(v4)
    table = {(i, j): gens[i] * gens[j] ** 2 - gens[j] * gens[i] ** 2
             for i in range(4) for j in range(i + 1, 4)}
    assert check_projective_extendability(
        PoissonStructure.from_table(v4, table)).extendable_necessary_conditions

    q3v = check_projective_extendability(catalog.build("q3").structure)
    assert q3v.extendable_necessary_conditions and not q3v.cyclic_residuals
    _ok("extendability: quartic surface blocked with witness "
        "-4(x1^4+x2^4+x3^4); decomposable cubic table passes; q3 vacuous")


def test_singular_k3_chart_consistency():
    aff = catalog.build("singular_k3_affine")
    spl = catalog.build("singular_k3_split")
    cc = chart_compare(aff.structure, spl.structure, spl.casimirs[0][1])
    assert cc.constant == -1
    assert (0, 1) not in cc.residuals
    a2, a3, a4 = PolyExpr.gens(aff.vars)
    assert aff.structure.matrix[0][1] == (a2 + 1) * a4 ** 2 * (-3)
    # split-side entry before elimination: 3*X2*X4^2*(1 - Z)
    split_entry = spl.structure.matrix[0][1]
    zz = PolyExpr.var("Z", spl.vars)
    one = PolyExpr.const(spl.vars, 1)
    x2s = PolyExpr.var("X2", spl.vars)
    x4s = PolyExpr.var("X4", spl.vars)
    assert split_entry == x2s * x4s ** 2 * (one - zz) * 3
    _ok("singular-surface charts: {X2,X3} derivations agree up to the "
        "global constant -1, reproducing +-3*X4^2*(X2+1) exactly")


def test_dell_coherence():
    m = catalog.build("dell")
    x1, x2, x3, x4, x5, x6 = PolyExpr.gens(m.vars)
    # bracket table regenerated from the quadrics against the anchor entries
    anchor = {(4, 0): -(x2 * x3 * x4 * x6), (4, 1): -(x1 * x3 * x4 * x6),
              (4, 2): -(x1 * x2 * x4 * x6), (4, 3): -(x1 * x2 * x3 * x6 * 4),
              (0, 1): PolyExpr.zero(m.vars), (0, 2): PolyExpr.zero(m.vars),
              (1, 2): PolyExpr.zero(m.vars), (4, 5): PolyExpr.zero(m.vars)}
    raw = jacobian_structure(m.vars, m.casimir_polys(), 1)
    scale = None
    for (i, j), val in anchor.items():
        if raw.matrix[i][j].is_zero():
            assert val.is_zero(), (i, j)
            continue
        (mono, c), = val.terms.items()
        ratio = c / raw.matrix[i][j].coefficient(mono)
        assert raw.matrix[i][j] * ratio == val, (i, j)
        if scale is None:
            scale = ratio
        assert ratio == scale, (i, j)
    assert m.structure.matrix[4][0] == anchor[(4, 0)]

    field = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    assert field.components[0] == x2 * x3 * x4 * x6
    assert field.components[1] == x1 * x3 * x4 * x6
    assert field.components[2] == x1 * x2 * x4 * x6
    assert field.components[3] == x1 * x2 * x3 * x6 * 4
    assert field.components[4].is_zero() and field.components[5].is_zero()

    dn = catalog.build("dell_nambu")
    nf = nambu_vector_field(dn.structure, dn.hamiltonians)
    one = PolyExpr.const(m.vars, 1)
    for i in range(4):
        # proportionality constant 1 after fixing the conserved x6 level
        assert field.components[i].subs_var("x6", one).with_vars(dn.vars) \
            == nf.components[i]

    invs = m.casimir_polys() + [x6]
    assert all(field.apply_to(f).is_zero() for f in invs)
    _ok("dell: quadric-generated table anchored by one global constant; "
        "x5 flow exact; level-section bracket field proportional; all "
        "five invariants symbolically conserved")


def test_nahm_decoupling_multiplier():
    rep = decoupling_check(F(4))
    assert rep.solved_coefficient == 2          # a^2 = g^2
    assert rep.nahm_match
    assert all(r.is_zero() for r in rep.residuals_at_solution)
    v4 = ("x1", "x2", "x3", "x4")
    x1, x2, x3, x4 = PolyExpr.gens(v4)
    assert rep.plus_residual.with_vars(v4) == x1 * x2 * x3 ** 2 * 12
    rep9 = decoupling_check(F(9))
    assert rep9.solved_coefficient == 3 and rep9.nahm_match
    _ok("decoupling: solved multiplier satisfies a^2 = g^2 with all six "
        "residuals zero; literal a = g^2 leaves (g^4-g^2)*x1*x2*x3^2 at "
        "g^2 = 4")


def test_numerics_euler_top_bounds():
    m = catalog.build("euler_top")
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    mon = [("Q1", m.casimirs[0][1]), ("H", m.hamiltonians[0])]
    rep = integrate(f, (1.0, 0.5, 0.25), 1e-3, 10.0, mon)
    assert max(rep.drift.values()) <= 1e-8
    # convergence-order clause checked where truncation dominates the
    # roundoff floor (drift at 1e-3 is ~1e-14, below any h^4 signal)
    d1 = integrate(f, (1.0, 0.5, 0.25), 0.05, 10.0, mon[:1]).drift["Q1"]
    d2 = integrate(f, (1.0, 0.5, 0.25), 0.025, 10.0, mon[:1]).drift["Q1"]
    assert d1 / d2 >= 8.0
    _ok("numerics: Euler-top drift <= 1e-8 at step 1e-3 over [0,10]; "
        f"halving improves {d1 / d2:.1f}x (>= 8x)")


def test_numerics_dell_conservation_window():
    m = catalog.build("dell")
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    monitors = list(m.casimirs) + [("x6", PolyExpr.var("x6", m.vars))]
    rep = integrate(f, m.integrate.x0, 1e-3, 0.15, monitors)
    assert max(rep.drift.values()) <= 1e-8
    _ok("numerics: dell invariants drift <= 1e-8 at step 1e-3 on the "
        "pre-escape horizon [0, 0.15]")


@pytest.mark.xfail(strict=True, raises=DivergenceError,
                   reason="the quartic product flow escapes to infinity in "
                          "finite time (~t = 0.2) from this level set, so no "
                          "drift bound can hold out to t = 10; see the "
                          "conservation-window test for the honest bound")
def test_numerics_dell_full_horizon_as_stated():
    m = catalog.build("dell")
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    monitors = list(m.casimirs) + [("x6", PolyExpr.var("x6", m.vars))]
    rep = integrate(f, m.integrate.x0, 1e-3, 10.0, monitors)
    assert max(rep.drift.values()) <= 1e-8


def test_degree_sums_exact():
    cases = (("sklyanin", None, [2, 2], 4),
             ("q5", None, [5], 5),
             ("q3", None, [3], 3),
             ("askey_wilson", (1, 1, 2), [4], 4))
    for name, weights, degrees, total in cases:
        m = catalog.build(name)
        rep = degree_sum_check(m.casimir_polys(), len(m.vars),
                               weights or m.weights if name == "askey_wilson"
                               else weights)
        assert rep.degrees == degrees and rep.sum_of_degrees == total
        assert rep.equals_dimension, name
    _ok("degree sums: 2+2=4, 5=5, 3=3, weighted 4=1+1+2, exact")


def test_wedge_pfaffian_cross_oracle():
    checked = 0
    for name in catalog.names():
        m = catalog.build(name)
        ps = m.structure
        if not isinstance(ps, PoissonStructure) or ps.n > 6:
            continue
        pi = bivector(ps)
        for mp in range(1, ps.n // 2 + 1):
            wp = wedge_power(pi, mp)
            fact = 1
            for t in range(2, mp + 1):
                fact *= t
            for sub in combinations(range(ps.n), 2 * mp):
                assert wp.coefficient(sub) == pfaffian(ps.matrix, sub) * fact
                checked += 1
    assert checked > 100
    _ok(f"wedge powers equal m! times Pfaffians on all {checked} even "
        "subsets across the catalog")


def test_cli_round_trip_and_exit_codes(tmp_path):
    from ppa.runner import run_checks
    for name in catalog.names():
        built = catalog.build(name)
        text = dsl.render_model(dsl.model_spec_from_built(built))
        spec = dsl.parse_model(text, name=name)
        assert dsl.render_model(spec) == text, name
        report = run_checks(spec, seed=0)
        assert not report.failed, (name, report.format_text())

    model = tmp_path / "q3.ppa"
    assert cli_main(["catalog", "q3", "--emit", str(model)]) == 0
    assert cli_main(["check", str(model)]) == 0

    bad = tmp_path / "bad.ppa"
    bad.write_text(model.read_text() + "expect rank = 3;\n")
    assert cli_main(["check", str(bad)]) == 1

    tampered = tmp_path / "tampered.ppa"
    q5_text = dsl.render_model(dsl.model_spec_from_built(catalog.build("q5")))
    tampered.write_text(q5_text.replace(
        "{x1,x2} = 19/8*x1*x2", "{x1,x2} = x1^2 + 19/8*x1*x2"))
    assert cli_main(["check", str(tampered)]) == 1

    broken = tmp_path / "broken.ppa"
    broken.write_text("vars x1 x2; structure table { zz };")
    assert cli_main(["check", str(broken)]) == 2
    _ok("CLI: emission -> parse -> re-check byte-identical for all entries; "
        "exit codes 0/1/2 honored")
