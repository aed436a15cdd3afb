"""A Jacobian structure's construction proves its own Casimirs.

{Q_i, x_k} = mu * det(dQ_i, e_k, dQ_1, ..., dQ_{n-2}) has a repeated row,
so ``jacobian_structure`` keeps ``True`` as ``is_casimir``'s verdict on each
construction Casimir.  Here that kept verdict must be the one the
Hamiltonian rows compute, on every Jacobian catalog binding, on the
synthetic models and on random constructions (constant, zero and polynomial
multipliers, dependent Casimirs); a Jacobian model's checks must bracket
nothing for those Casimirs, and every other candidate, and every table
structure, must still be computed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import synthetic
from ppa import catalog, dsl, runner, structures
from ppa.errors import DomainError, PolynomialGradeError
from ppa.poly import PolyExpr
from ppa.structures import (PoissonStructure, is_casimir, is_quasi_casimir,
                            jacobian_structure)

VARS = tuple(f"x{i + 1}" for i in range(6))


def computed_verdicts(ps, casimirs):
    """{q: whether every Hamiltonian row of q vanishes}, computed."""
    out = {}
    for q in casimirs:
        grad = [q.diff(v) for v in q.vars]
        out[q] = all(oracles.hamiltonian_row(ps, grad, k).is_zero()
                     for k in range(ps.n))
    return out


def assert_kept_verdicts_are_computed(ps):
    assert ps._casimir_verdicts == dict.fromkeys(ps.casimirs, True)
    assert ps._casimir_verdicts == computed_verdicts(ps, ps.casimirs)


def count_rows(monkeypatch):
    calls = []
    real = structures._derivation
    monkeypatch.setattr(structures, "_derivation",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def jacobian_catalog_structures():
    for name in catalog.names():
        for binding in [None] + list(catalog.entry(name).alternates):
            built = catalog.build(name, binding)
            if dsl.model_spec_from_built(built).structure_kind == "jacobian":
                yield built.structure


def test_every_jacobian_catalog_binding_keeps_the_computed_verdicts():
    structures_ = list(jacobian_catalog_structures())
    assert len(structures_) == 23
    for ps in structures_:
        assert_kept_verdicts_are_computed(ps)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_the_synthetic_models_keep_the_computed_verdicts(n):
    assert_kept_verdicts_are_computed(
        dsl.parse_model(synthetic.model_text(n)).build_structure())


def small_poly(n):
    mono = st.tuples(*[st.integers(0, 2)] * n)
    return st.dictionaries(mono, st.integers(-3, 3).filter(bool),
                           max_size=3).map(lambda d: PolyExpr(VARS[:n], d))


@st.composite
def random_jacobian(draw):
    n = draw(st.integers(3, 6))
    qs = [draw(small_poly(n)) for _ in range(n - 2)]
    if draw(st.booleans()):
        # dependent Casimirs: dQ_1 ^ ... ^ dQ_{n-2} = 0, an empty minor table
        qs[-1] = (PolyExpr.const(VARS[:n], draw(st.integers(-2, 2))) if n == 3
                  else qs[0] * draw(st.sampled_from([qs[0], 2])))
    kind = draw(st.sampled_from(["constant", "zero", "polynomial"]))
    if kind == "constant":
        mu = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    elif kind == "zero":
        mu = 0
    else:
        mu = draw(small_poly(n))
    return jacobian_structure(VARS[:n], qs, mu)


@settings(max_examples=60, deadline=None)
@given(random_jacobian())
def test_random_constructions_keep_the_computed_verdicts(ps):
    assert_kept_verdicts_are_computed(ps)
    assert ps.certified == bool(ps._casimir_minors)
    for q in ps.casimirs:
        if not q.is_zero():
            assert is_quasi_casimir(ps, q)


def test_a_jacobian_model_brackets_none_of_its_casimirs(monkeypatch):
    spec = dsl.parse_model(synthetic.model_text(6))
    assert spec.checks == [(name, None) for name in
                           ("jacobi", "casimirs", "theorem31", "plucker", "rank")]
    calls = count_rows(monkeypatch)
    report = runner.run_checks(spec)
    assert not report.failed and calls == []
    ps = spec.build_structure()
    for q in ps.casimirs:
        assert is_casimir(ps, q) and is_quasi_casimir(ps, q)
    assert calls == []


def test_other_candidates_are_computed(monkeypatch):
    ps = dsl.parse_model(synthetic.model_text(6)).build_structure()
    x1 = PolyExpr.var("x1", ps.vars)
    q1 = ps.casimirs[0]
    calls = count_rows(monkeypatch)
    assert not is_casimir(ps, x1)
    assert calls and ps._casimir_verdicts[x1] is False
    before = len(calls)
    assert is_casimir(ps, q1 * q1 + 1)              # central, not declared
    assert len(calls) > before
    before = len(calls)
    assert not is_quasi_casimir(ps, x1)             # a held False is no proof
    assert len(calls) > before


def test_a_table_of_the_same_bracket_keeps_nothing(monkeypatch):
    ps = dsl.parse_model(synthetic.model_text(6)).build_structure()
    table = PoissonStructure.from_table(ps.vars, dict(ps.entries_upper()),
                                        casimirs=ps.casimirs)
    assert table == ps and table._casimir_verdicts == {}
    calls = count_rows(monkeypatch)
    assert table.certified and calls
    assert table._casimir_verdicts == computed_verdicts(table, ps.casimirs)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_perturbed_table_computes_its_declared_casimirs(n):
    spec = dsl.parse_model(synthetic.perturbed_model_text(n))
    ps = spec.build_structure()
    assert ps._casimir_verdicts == {}
    assert not ps.certified
    computed = computed_verdicts(ps, ps.casimirs)
    assert [is_casimir(ps, q) for q in ps.casimirs] == list(computed.values())
    assert ps._casimir_verdicts == computed and not all(computed.values())
    result = runner.run_checks(spec).results[1]
    assert (result.name, result.status) == ("casimirs", "fail")
    assert result.witness.startswith("not central: ")


def test_quasi_keeps_its_refusals_before_a_kept_verdict():
    ps = jacobian_structure(VARS[:3], [PolyExpr.const(VARS[:3], 0)])
    assert ps._casimir_verdicts == {PolyExpr.zero(VARS[:3]): True}
    with pytest.raises(DomainError, match="must be nonzero"):
        is_quasi_casimir(ps, PolyExpr.zero(VARS[:3]))
    root = PolyExpr(VARS[:3], {(Fraction(1, 2), 0, 0): 1})
    with pytest.raises(PolynomialGradeError, match="quasi-Casimir candidate"):
        is_quasi_casimir(ps, root)
