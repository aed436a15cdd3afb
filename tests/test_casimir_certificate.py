"""The Casimir certificate against the predicates it stands in for.

``casimir_certificate`` holds when l >= n - 2 declared Casimirs pass
``is_casimir`` and their minor table is nonempty; the runner then reports
``jacobi`` and binary ``fi`` as passing, ``plucker = true`` and the exact
``rank`` without running the pivot, the jacobiators or the sampling.  Here
every certified structure must satisfy the full library predicates, and
every uncertified one must give the report the runner gives with the
certificate switched off.
"""

import pytest
from hypothesis import given, settings, strategies as st

import synthetic
from ppa import catalog, dsl, poly, runner, structures
from ppa.cli import main
from ppa.poly import PolyExpr
from ppa.structures import (PoissonStructure, casimir_certificate, check_jacobi,
                            generic_rank, jacobi_witnesses, plucker_rank2_test)

VARS = tuple(f"x{i + 1}" for i in range(6))


def jacobian_spec(n, seed):
    return dsl.parse_model(synthetic.model_text(n, seed))


def scaled_table(ps, h, extra=None):
    """The table h * p_ij of ``ps``, plus ``extra`` at {x1,x2}."""
    entries = {ij: h * p for ij, p in ps.entries_upper()}
    if extra is not None:
        entries[0, 1] = entries[0, 1] + extra
    return PoissonStructure.from_table(ps.vars, entries)


def small_poly(n):
    mono = st.tuples(*[st.integers(0, 1)] * n)
    return st.dictionaries(mono, st.integers(-3, 3).filter(bool),
                           max_size=3).map(lambda d: PolyExpr(VARS[:n], d))


def uncertified_json(spec, monkeypatch, seed=0):
    """The report with the certificate switched off: today's path alone."""
    with monkeypatch.context() as m:
        m.setattr(runner, "casimir_certificate", lambda ps, qs: False)
        return runner.run_checks(spec, seed).to_json()


def assert_enumeration_agrees(ps):
    """A certified structure is Poisson, of rank 2 or (when zero) 0."""
    rank = 2 if any(not p.is_zero() for _, p in ps.entries_upper()) else 0
    assert check_jacobi(ps).holds
    assert plucker_rank2_test(ps).rank_le_2
    assert generic_rank(ps) == rank


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6).flatmap(
    lambda n: st.tuples(st.integers(0, 10 ** 6), small_poly(n))))
def test_multiples_of_a_jacobian_bracket_are_certified(case):
    seed, h = case
    spec = jacobian_spec(len(h.vars), seed)
    ps = scaled_table(spec.build_structure(), h)
    qs = spec.casimir_polys()
    fires = casimir_certificate(ps, qs)
    assert fires == bool(structures.casimir_minors(ps.vars, qs))
    if fires:
        assert_enumeration_agrees(ps)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6).flatmap(
    lambda n: st.tuples(st.integers(0, 10 ** 6), small_poly(n),
                        small_poly(n).filter(lambda e: not e.is_zero()))))
def test_a_perturbed_multiple_is_certified_only_when_poisson(case):
    # eps * x1 * x2 at {x1,x2} mostly breaks both Jacobi and the Casimirs;
    # when the quadrics do not involve x1 and x2 it breaks neither
    seed, h, eps = case
    x1, x2 = PolyExpr.gens(h.vars)[:2]
    spec = jacobian_spec(len(h.vars), seed)
    ps = scaled_table(spec.build_structure(), h, eps * x1 * x2)
    if casimir_certificate(ps, spec.casimir_polys()):
        assert_enumeration_agrees(ps)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_perturbed_model_is_refused_with_the_report_of_the_full_path(n, monkeypatch):
    spec = dsl.parse_model(synthetic.perturbed_model_text(n))
    ps = spec.build_structure()
    assert not casimir_certificate(ps, spec.casimir_polys())
    report = runner.run_checks(spec)
    assert report.to_json() == uncertified_json(spec, monkeypatch)
    i, j, k, resid = check_jacobi(ps).witnesses[0]
    assert report.results[0].witness == (f"jacobiator(x{i + 1},x{j + 1},x{k + 1}) = "
                                         f"{resid.render()}")


def test_the_cli_exit_codes_of_the_synthetic_models(tmp_path, capsys):
    failing, passing = tmp_path / "perturbed.ppa", tmp_path / "fi.ppa"
    failing.write_text(synthetic.perturbed_model_text(6))
    passing.write_text(synthetic.model_text(6).replace(synthetic.CHECKS, "fi(5)"))
    assert main(["check", str(failing)]) == 1
    assert "jacobi: fail  jacobiator(x1,x2,x3) = " in capsys.readouterr().out
    assert main(["check", str(passing)]) == 0
    assert capsys.readouterr().out == "fi(5): pass\noverall: pass\n"


def test_the_first_witness_takes_only_its_own_gradients(monkeypatch):
    ps = dsl.parse_model(synthetic.perturbed_model_text(6)).build_structure()
    assert not ps._rank2[0]                  # no pivot jacobiators
    calls = []
    real = structures._gradient
    monkeypatch.setattr(structures, "_gradient",
                        lambda p: calls.append(p) or real(p))
    first = next(jacobi_witnesses(ps))
    assert len(calls) == 3                  # the three entries of (x1, x2, x3)
    assert first == check_jacobi(ps).witnesses[0]


def test_dependent_casimirs_do_not_certify(monkeypatch):
    # {x1,x2} = {x3,x4} = 1 has rank 4; the constants 1 and 2 are central
    # but dQ_1 ^ dQ_2 = 0
    text = ("vars x1 x2 x3 x4;\ncasimir A = 1;\ncasimir B = 2;\n"
            "structure table { {x1,x2} = 1; {x3,x4} = 1; };\n"
            "check jacobi, casimirs, plucker, rank, fi(2);\n")
    spec = dsl.parse_model(text)
    assert not casimir_certificate(spec.build_structure(), spec.casimir_polys())
    report = runner.run_checks(spec)
    assert [r.witness for r in report.results[2:4]] == [
        "plucker = false (x1,x2,x3,x4)", "rank = 4"]
    assert report.to_json() == uncertified_json(spec, monkeypatch)
    # x3 and x3^2 are central on the 3 x 3 block of x1, x2, x4 and dependent
    ps = PoissonStructure.from_table(VARS[:4], {(0, 1): PolyExpr.var("x4", VARS[:4]),
                                               (0, 3): PolyExpr.var("x1", VARS[:4])})
    x3 = PolyExpr.var("x3", VARS[:4])
    assert all(structures.is_casimir(ps, q) for q in (x3, x3 ** 2))
    assert not casimir_certificate(ps, [x3, x3 ** 2])


def test_fewer_than_n_minus_2_casimirs_do_not_certify(monkeypatch):
    for binding in [None] + list(catalog.entry("q5").alternates):
        built = catalog.build("q5", binding)
        spec = dsl.parse_model(dsl.render_model(dsl.model_spec_from_built(built)))
        ps = spec.build_structure()
        assert len(spec.casimirs) == ps.n - 4
        assert all(structures.is_casimir(ps, q) for q in spec.casimir_polys())
        assert not casimir_certificate(ps, spec.casimir_polys())
        assert runner.run_checks(spec).to_json() == uncertified_json(spec, monkeypatch)


def test_multiplier_zero_is_certified_with_rank_zero(monkeypatch):
    text = synthetic.model_text(6).replace("lambda 1", "lambda 0")
    spec = dsl.parse_model(text.replace(synthetic.CHECKS, synthetic.CHECKS + ", fi(3)"))
    ps = spec.build_structure()
    assert ps.as_bivector() == {}
    assert casimir_certificate(ps, spec.casimir_polys())
    report = runner.run_checks(spec)
    got = {r.name: (r.status, r.witness) for r in report.results}
    assert got["jacobi"] == ("pass", None) and got["fi(3)"] == ("pass", None)
    assert got["plucker"] == ("info", "plucker = true")
    assert got["rank"] == ("info", "rank = 0")
    assert report.to_json() == uncertified_json(spec, monkeypatch)


def test_a_non_polynomial_casimir_falls_back(monkeypatch):
    text = ("vars x1 x2 x3;\ncasimir P = x3^(1/2);\n"
            "structure table { {x1,x2} = x1; };\n"
            "check jacobi, casimirs, plucker, rank, fi(1);\n")
    spec = dsl.parse_model(text)
    assert not casimir_certificate(spec.build_structure(), spec.casimir_polys())
    report = runner.run_checks(spec)
    assert report.results[0].status == "pass"
    assert "fractional or negative exponents" in report.results[1].witness
    assert report.to_json() == uncertified_json(spec, monkeypatch)


def test_a_premise_past_the_work_budget_falls_back(monkeypatch):
    spec = dsl.parse_model(synthetic.model_text(5).replace(
        "structure jacobian lambda 1;",
        "structure table { {x1,x2} = (x1 + x2 + x3 + x4 + x5)^8; };"))
    expected = uncertified_json(spec, monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(poly, "MAX_WORK", 400)
        ps = spec.build_structure()
        assert not casimir_certificate(ps, spec.casimir_polys())
        assert ps._casimir_verdicts[tuple(spec.casimir_polys())] is False
        assert runner.run_checks(spec).to_json() == uncertified_json(spec, monkeypatch)
        assert "MAX_WORK" in runner.run_checks(spec).results[1].witness
    assert runner.run_checks(spec).to_json() == expected


def catalog_bindings():
    for name in catalog.names():
        for binding in [None] + list(catalog.entry(name).alternates):
            yield name, binding


def test_every_catalog_certificate_agrees_with_the_enumeration():
    fired = []
    for name, binding in catalog_bindings():
        built = catalog.build(name, binding)
        ps = built.structure
        if not isinstance(ps, PoissonStructure):
            continue
        if casimir_certificate(ps, built.casimir_polys()):
            assert_enumeration_agrees(ps)
            fired.append(name)
    # every Poisson binding with n - 2 Casimirs: all but q5 and bdu_casimirs
    assert len(fired) == 29
    assert {"q5", "bdu_casimirs"}.isdisjoint(fired)


@pytest.mark.parametrize("name", list(catalog.names()))
def test_catalog_reports_equal_the_uncertified_path(name, monkeypatch):
    for binding in [None] + list(catalog.entry(name).alternates):
        built = catalog.build(name, binding)
        spec = dsl.parse_model(dsl.render_model(dsl.model_spec_from_built(built)))
        assert runner.run_checks(spec).to_json() == uncertified_json(spec, monkeypatch)


def count_minor_tables(monkeypatch):
    calls = []
    real = structures.casimir_minors
    monkeypatch.setattr(structures, "casimir_minors",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_table_structure_builds_its_minors_once(monkeypatch):
    built = catalog.build("quadrics61")
    spec = dsl.parse_model(dsl.render_model(dsl.model_spec_from_built(built)))
    assert spec.structure_kind == "table"
    assert ("jacobi", None) in spec.checks and ("theorem31", None) in spec.checks
    calls = count_minor_tables(monkeypatch)
    report = runner.run_checks(spec)
    assert not report.failed
    assert len(calls) == 1


def test_a_jacobian_structure_reuses_its_construction_minors(monkeypatch):
    spec = jacobian_spec(6, 1)
    ps = spec.build_structure()
    calls = count_minor_tables(monkeypatch)
    pfaffians = []
    monkeypatch.setattr(structures, "pfaffian",
                        lambda *args: pfaffians.append(args))
    assert casimir_certificate(ps, spec.casimir_polys())
    assert casimir_certificate(ps, spec.casimir_polys())
    assert calls == [] and pfaffians == []
    assert ps._casimir_verdicts[tuple(spec.casimir_polys())] is True
