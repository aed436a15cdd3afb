"""Cross-module invariants promised by the library as a whole."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ppa import catalog, dsl
from ppa.cli import main as cli_main
from ppa.dynamics import constants_of_motion_check, hamiltonian_vector_field
from ppa.poly import PolyExpr
from ppa.runner import run_checks
from ppa.structures import PoissonStructure, generic_rank, plucker_rank2_test

V2 = ("a", "b")


def _poly2(terms):
    p = PolyExpr.zero(V2)
    for e1, e2, c in terms:
        p = p + PolyExpr(V2, {(e1, e2): F(c)})
    return p


poly_terms = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)),
    min_size=0, max_size=4)


@settings(max_examples=40, deadline=None)
@given(poly_terms, poly_terms, poly_terms)
def test_ring_axioms(ts1, ts2, ts3):
    p, q, r = _poly2(ts1), _poly2(ts2), _poly2(ts3)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(poly_terms, poly_terms)
def test_product_rule(ts1, ts2):
    p, q = _poly2(ts1), _poly2(ts2)
    for v in V2:
        assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


def test_product_rule_with_rational_exponents():
    p = PolyExpr(V2, {(F(3, 2), 0): F(2), (0, F(-1, 2)): F(1)})
    q = PolyExpr(V2, {(F(1, 2), 1): F(1), (0, 0): F(-3)})
    for v in V2:
        assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


def test_plucker_equivalent_to_low_rank_catalog_wide():
    for name in catalog.names():
        m = catalog.build(name)
        if not isinstance(m.structure, PoissonStructure):
            continue
        decomposable = plucker_rank2_test(m.structure).rank_le_2
        low_rank = generic_rank(m.structure, 0) <= 2
        assert decomposable == low_rank, name


def test_energy_conserved_for_every_catalog_flow():
    for name in catalog.names():
        m = catalog.build(name)
        if not isinstance(m.structure, PoissonStructure) or not m.hamiltonians:
            continue
        f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
        rep, = constants_of_motion_check(f, [m.hamiltonians[0]])
        assert rep.conserved, name


def test_jacobi_for_arbitrary_quadratic_hamiltonian_flow():
    # Casimirs of a structure are constants of any flow it generates
    m = catalog.build("q5", {"k": F(3, 2)})
    x = PolyExpr.gens(m.vars)
    for h in (x[0] * x[1], x[2] ** 2 - x[4] * x[0], x[3]):
        f = hamiltonian_vector_field(m.structure, h)
        rep, = constants_of_motion_check(f, [m.casimirs[0][1]])
        assert rep.conserved


def test_bare_extendability_check_fails_on_quartic_surface(tmp_path, capsys):
    # without an expect pin, the obstruction is reported as a failure
    built = catalog.build("fermat_k3")
    spec = dsl.model_spec_from_built(built)
    spec.checks = [("extendability", None)]
    spec.expects = {}
    f = tmp_path / "fermat_bare.ppa"
    f.write_text(dsl.render_model(spec))
    assert cli_main(["check", str(f)]) == 1
    out = capsys.readouterr().out
    assert "extendability: fail" in out
    assert "-4*x1^4 - 4*x2^4 - 4*x3^4" in out


def test_bdu_relation_pass_path(tmp_path):
    # a table cooked to satisfy the determinantal identity:
    # with {p,x} = {p,y} = 0 and {p,z} = 1 the left side collapses to {x,y},
    # so setting {x,y} to the minor makes the relation hold
    built = catalog.build("bdu_casimirs")
    p1, p2 = built.casimir_polys()
    minor = (p1.diff("q") * p2.diff("r") - p1.diff("r") * p2.diff("q"))
    idx = {v: i for i, v in enumerate(built.vars)}
    table = {(idx["p"], idx["z"]): PolyExpr.const(built.vars, 1),
             (idx["x"], idx["y"]): minor}
    ps = PoissonStructure.from_table(built.vars, table)
    spec = dsl.ModelSpec(name="bdu_test")
    spec.vars = built.vars
    spec.casimirs = list(built.casimirs)
    spec.structure_kind = "table"
    spec.table = {k: v for k, v in ps.entries_upper() if not v.is_zero()}
    spec.checks = [("bdu_relation", None)]
    report = run_checks(spec)
    assert [r.status for r in report.results] == ["pass"]

    # tampering one side breaks it
    spec.table[(idx["x"], idx["y"])] = minor + PolyExpr.var("p", built.vars)
    report = run_checks(spec)
    assert report.results[0].status == "fail"


def test_reports_identical_between_built_and_reparsed_models():
    for name in catalog.names():
        built_spec = dsl.model_spec_from_built(catalog.build(name))
        text = dsl.render_model(built_spec)
        parsed = dsl.parse_model(text, name=name)
        r1 = run_checks(built_spec, seed=3)
        r2 = run_checks(parsed, seed=3)
        r1.model = r2.model = name
        assert r1.to_json() == r2.to_json(), name
