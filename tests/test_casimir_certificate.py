"""The Casimir certificate against the predicates it stands in for.

``PoissonStructure.certified`` holds when l >= n - 2 of the structure's
Casimirs pass ``is_casimir`` and their minor table is nonempty; then
``jacobi_witnesses`` yields nothing, ``plucker_rank2_test`` passes,
``generic_rank`` is the exact 2 or 0, without the pivot, the jacobiators or
the sampling.  Here every certified structure must satisfy the full
enumeration, every uncertified one must give the report the runner gives
with the certificate switched off, and the library must give the verdicts
and witnesses that ``run_checks`` reports.  A binary ``fi`` is Jacobi's
identity: it reports what ``jacobi`` reports, with the certificate on or
off.
"""

import pytest
from hypothesis import given, settings, strategies as st

import synthetic
from ppa import catalog, dsl, poly, runner, structures
from ppa.cli import main
from ppa.poly import PolyExpr
from ppa.structures import (PoissonStructure, check_jacobi, generic_rank,
                            jacobi_witnesses, plucker_rank2_test)

VARS = tuple(f"x{i + 1}" for i in range(6))


def jacobian_spec(n, seed):
    return dsl.parse_model(synthetic.model_text(n, seed))


def scaled_table(ps, h, extra=None):
    """The table h * p_ij of ``ps``, plus ``extra`` at {x1,x2}, with the
    Casimirs of ``ps``."""
    entries = {ij: h * p for ij, p in ps.entries_upper()}
    if extra is not None:
        entries[0, 1] = entries[0, 1] + extra
    return PoissonStructure.from_table(ps.vars, entries, ps.casimirs)


def small_poly(n):
    mono = st.tuples(*[st.integers(0, 1)] * n)
    return st.dictionaries(mono, st.integers(-3, 3).filter(bool),
                           max_size=3).map(lambda d: PolyExpr(VARS[:n], d))


def uncertified_json(spec, monkeypatch, seed=0):
    """The report with the certificate switched off: today's path alone."""
    with monkeypatch.context() as m:
        m.setattr(PoissonStructure, "certified", False)
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
    fires = ps.certified
    assert fires == bool(structures.casimir_minors(ps.vars, spec.casimir_polys()))
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
    if ps.certified:
        assert_enumeration_agrees(ps)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_perturbed_model_is_refused_with_the_report_of_the_full_path(n, monkeypatch):
    spec = dsl.parse_model(synthetic.perturbed_model_text(n))
    ps = spec.build_structure()
    assert ps.casimirs == tuple(spec.casimir_polys()) and not ps.certified
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
    assert not ps.certified                 # decided before the count starts
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
    assert not spec.build_structure().certified
    report = runner.run_checks(spec)
    assert [r.witness for r in report.results[2:4]] == [
        "plucker = false (x1,x2,x3,x4)", "rank = 4"]
    assert report.to_json() == uncertified_json(spec, monkeypatch)
    # x3 and x3^2 are central on the 3 x 3 block of x1, x2, x4 and dependent
    x3 = PolyExpr.var("x3", VARS[:4])
    ps = PoissonStructure.from_table(VARS[:4], {(0, 1): PolyExpr.var("x4", VARS[:4]),
                                               (0, 3): PolyExpr.var("x1", VARS[:4])},
                                     [x3, x3 ** 2])
    assert all(structures.is_casimir(ps, q) for q in ps.casimirs)
    assert not ps.certified


def test_fewer_than_n_minus_2_casimirs_do_not_certify(monkeypatch):
    for binding in [None] + list(catalog.entry("q5").alternates):
        built = catalog.build("q5", binding)
        spec = dsl.parse_model(dsl.render_model(dsl.model_spec_from_built(built)))
        ps = spec.build_structure()
        assert len(spec.casimirs) == ps.n - 4
        assert all(structures.is_casimir(ps, q) for q in spec.casimir_polys())
        assert not ps.certified
        assert runner.run_checks(spec).to_json() == uncertified_json(spec, monkeypatch)


def test_multiplier_zero_is_certified_with_rank_zero(monkeypatch):
    text = synthetic.model_text(6).replace("lambda 1", "lambda 0")
    spec = dsl.parse_model(text.replace(synthetic.CHECKS, synthetic.CHECKS + ", fi(3)"))
    ps = spec.build_structure()
    assert ps.as_bivector() == {}
    assert ps.certified
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
    assert not spec.build_structure().certified
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
        assert not ps.certified
        assert "certified" in ps.__dict__            # decided once, kept
        assert all(isinstance(q, PolyExpr) for q in ps._casimir_verdicts)
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
        if ps.certified:
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
    pfaffians, rows = [], []
    monkeypatch.setattr(structures, "pfaffian",
                        lambda *args: pfaffians.append(args))
    monkeypatch.setattr(structures, "_hamiltonian_row",
                        lambda *args: rows.append(args))
    assert ps.certified and ps.certified
    assert calls == [] and pfaffians == [] and rows == []
    assert list(ps._casimir_verdicts) == list(ps.casimirs)
    assert all(ps._casimir_verdicts.values())


def library_results(spec, seed):
    """(status, witness) of jacobi, plucker and rank as the library predicates
    give them on a structure of their own, in the runner's words."""
    ps = spec.build_structure()
    jacobi = check_jacobi(ps)
    if jacobi.holds:
        out = [("pass", None)]
    else:
        i, j, k, resid = jacobi.witnesses[0]
        out = [("fail", f"jacobiator({spec.vars[i]},{spec.vars[j]},{spec.vars[k]}) = "
                        f"{resid.render()}")]
    plucker = plucker_rank2_test(ps)
    out.append(("info", "plucker = true" if plucker.rank_le_2 else
                "plucker = false (" + ",".join(spec.vars[i] for i in plucker.witness) + ")"))
    out.append(("info", f"rank = {generic_rank(ps, seed)}"))
    return out


def poisson_specs():
    for name, binding in catalog_bindings():
        built = catalog.build(name, binding)
        if isinstance(built.structure, PoissonStructure):
            yield dsl.parse_model(dsl.render_model(dsl.model_spec_from_built(built)))
    for n in (4, 5, 6):
        yield dsl.parse_model(synthetic.model_text(n))
        yield dsl.parse_model(synthetic.perturbed_model_text(n))
        yield dsl.parse_model(synthetic.table_model_text(n))    # the pivot decides


@pytest.mark.parametrize("seed", [0, 777])
def test_the_library_gives_the_verdicts_the_runner_reports(seed):
    specs = list(poisson_specs())
    assert len(specs) == 33 + 9             # 33 Poisson catalog bindings
    for spec in specs:
        spec.checks, spec.expects = [("jacobi", None), ("plucker", None),
                                     ("rank", None)], {}
        report = runner.run_checks(spec, seed)
        assert [(r.status, r.witness) for r in report.results] == \
            library_results(spec, seed), spec.name


def test_binary_fi_fails_where_jacobi_fails():
    # the coordinate tuple (x1, x2, x3) and the drawn tuples all miss this
    # failing triple, which a nested-bracket smoke test let pass
    text = ("vars x1 x2 x3 x4;\n"
            "structure table { {x2,x3} = x4 + x2; {x3,x4} = x2; {x4,x2} = x3; };\n"
            "check jacobi, fi(0), fi(3);\n")
    report = runner.run_checks(dsl.parse_model(text))
    assert [(r.name, r.status, r.witness) for r in report.results] == [
        (name, "fail", "jacobiator(x2,x3,x4) = x3")
        for name in ("jacobi", "fi(0)", "fi(3)")]


def jacobi_and_fi(spec, seed):
    """(status, witness) of ``jacobi`` and of ``fi(3)``, unpinned and both
    pinned true."""
    spec.checks = [("jacobi", None), ("fi", 3)]
    got = []
    for expects in ({}, {"jacobi": True, "fi(3)": True}):
        spec.expects = expects
        got += [(r.status, r.witness) for r in runner.run_checks(spec, seed).results]
    return got[0::2], got[1::2]


@pytest.mark.parametrize("seed", [0, 777])
@pytest.mark.parametrize("certified", [True, False])
def test_binary_fi_reports_what_jacobi_reports(seed, certified, monkeypatch):
    if not certified:
        monkeypatch.setattr(PoissonStructure, "certified", False)
    specs = list(poisson_specs())
    assert len(specs) == 33 + 9
    for spec in specs:
        ps = spec.build_structure()
        assert runner._run_fi(spec, ps, 3, seed) == \
            runner._run_jacobi(spec, ps, None, seed), spec.name
        jacobi, fi = jacobi_and_fi(spec, seed)
        assert fi == jacobi, spec.name
