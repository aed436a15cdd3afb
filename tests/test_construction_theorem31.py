"""theorem31 and the Nambu Casimir verdicts read off the construction.

A ``jacobian_structure`` with a constant multiplier mu satisfies Theorem 3.1
against its own Casimirs with lambda' = mu by construction, and
``duality_check`` returns that report without a Pfaffian or a ratio.  Here
its report must be the one the computed path gives on a table of the same
bracket and Casimirs, and the one ``oracles.duality_check_by_wedges`` gives
from wedge powers, on random constructions (n = 3..7, integer and rational
Casimirs of degree <= 3, mu zero, negative or a fraction, dependent
Casimirs).  A Nambu structure's own Casimirs are central by a repeated row;
the Laplace step of ``is_casimir`` must find them so.  Also here: the cached
coefficient bit length survives negation.
"""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import synthetic
from oracles import duality_check_by_wedges, nambu_is_casimir_by_cofactors
from ppa import dsl, duality, poly, runner
from ppa.duality import duality_check
from ppa.errors import DegenerateCasimirError
from ppa.poly import PolyExpr, _coeff_bits
from ppa.structures import NambuStructure, PoissonStructure, is_casimir, jacobian_structure

VARS = tuple(f"x{i + 1}" for i in range(7))
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def polys(variables, coeff, max_terms=3, max_degree=3):
    """Nonzero polynomials without a constant term, of degree <= max_degree."""
    mono = st.lists(st.integers(0, len(variables) - 1), min_size=1,
                    max_size=max_degree).map(
        lambda picks: tuple(picks.count(i) for i in range(len(variables))))
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda d: PolyExpr(variables, d))


INTEGER = st.integers(-5, 5).filter(bool)
RATIONAL = st.fractions(-3, 3, max_denominator=5).filter(bool)
MULTIPLIER = st.one_of(st.sampled_from([0, 1, -1, F(-7, 3)]),
                       st.fractions(-4, 4, max_denominator=6))


@st.composite
def constant_mu_jacobians(draw):
    """(structure, Casimirs): n = 3..7, integer or rational Casimirs, a
    constant mu; a quarter of the time the last Casimir depends on the
    first (a constant when n = 3)."""
    n = draw(st.integers(3, 7))
    v = VARS[:n]
    coeff = draw(st.sampled_from([INTEGER, RATIONAL]))
    qs = [draw(polys(v, coeff)) for _ in range(n - 2)]
    if draw(st.integers(0, 3)) == 0:
        qs[-1] = PolyExpr.const(v, 2) if n == 3 else qs[0] * qs[0]
    return jacobian_structure(v, qs, draw(MULTIPLIER)), qs


def outcome(check, ps, qs):
    try:
        rep = check(ps, qs)
    except Exception as e:                          # noqa: BLE001 - compared
        return type(e), str(e)
    return (rep.holds, rep.lam, rep.lam_coord, rep.m, rep.residual, rep.detail)


@SETTINGS
@given(constant_mu_jacobians())
def test_the_construction_report_is_the_computed_and_the_wedge_report(case):
    ps, qs = case
    table = PoissonStructure.from_table(ps.vars, dict(ps.entries_upper()),
                                        casimirs=ps.casimirs)
    assert ps.constant_multiplier is not None and table.constant_multiplier is None
    built = outcome(duality_check, ps, qs)
    assert built == outcome(duality_check, table, qs)
    assert built == outcome(duality_check_by_wedges, ps, qs)
    if ps._casimir_minors:
        mu = ps.constant_multiplier
        assert built[:5] == (mu != 0, mu, mu, 1, {})
    else:
        assert built[0] is DegenerateCasimirError


def test_dependent_casimirs_are_refused_on_the_construction_path():
    v = VARS[:5]
    x1, x2, x3, x4, x5 = PolyExpr.gens(v)
    q = x1 * x2 + x3 ** 2 - x4 * x5
    for qs in ([q, q * q, x5], [q, x1 + x2, q * 3]):
        ps = jacobian_structure(v, qs, F(-7, 3))
        assert not ps._casimir_minors
        with pytest.raises(DegenerateCasimirError):
            duality_check(ps, qs)


def count_theorem31(monkeypatch):
    """The calls of ``pfaffian`` and ``_constant_ratio`` from duality."""
    calls = {"pfaffian": 0, "_constant_ratio": 0}
    for name in calls:
        real = getattr(duality, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(duality, name, counted)
    return calls


def test_the_construction_path_computes_no_pfaffian_and_no_ratio(monkeypatch):
    spec = dsl.parse_model(synthetic.model_text(6).replace("lambda 1", "lambda -7/3"))
    calls = count_theorem31(monkeypatch)
    report = runner.run_checks(spec)
    theorem31 = next(r for r in report.results if r.name == "theorem31")
    assert (theorem31.status, theorem31.lam) == ("pass", "-7/3")
    assert calls == {"pfaffian": 0, "_constant_ratio": 0}
    ps, qs = spec.build_structure(), spec.casimir_polys()
    assert duality_check(ps, qs).holds and calls == {"pfaffian": 0, "_constant_ratio": 0}


def test_a_polynomial_multiplier_or_a_table_is_computed(monkeypatch):
    spec = dsl.parse_model(synthetic.model_text(6))
    ps, qs = spec.build_structure(), spec.casimir_polys()
    x1 = PolyExpr.var("x1", ps.vars)
    table = PoissonStructure.from_table(ps.vars, dict(ps.entries_upper()), qs)
    calls = count_theorem31(monkeypatch)
    for structure in (jacobian_structure(ps.vars, qs, x1 + 2), table):
        assert structure.constant_multiplier is None
        calls.update(pfaffian=0, _constant_ratio=0)
        rep = duality_check(structure, qs)
        assert rep.holds == (structure is table)
        assert calls["pfaffian"] == 15 and calls["_constant_ratio"] > 0
    # other Casimirs than the construction's take the computed path too
    calls.update(pfaffian=0, _constant_ratio=0)
    assert duality_check(ps, [q * 2 for q in qs]).lam == F(1, 2 ** 4)
    assert calls["pfaffian"] == 15


@st.composite
def nambu_structures(draw):
    n = draw(st.integers(2, 6))
    v = VARS[:n]
    coeff = draw(st.sampled_from([INTEGER, RATIONAL]))
    qs = draw(st.lists(polys(v, coeff, 3, 2), min_size=0, max_size=n - 1))
    return NambuStructure(v, qs, draw(st.one_of(MULTIPLIER, polys(v, INTEGER, 2, 1))))


@SETTINGS
@given(nambu_structures())
def test_nambu_construction_casimirs_are_central(ns):
    for q in ns.casimirs:
        assert is_casimir(ns, q) is True
        assert nambu_is_casimir_by_cofactors(ns, q)


def test_negation_keeps_the_coefficient_bit_length():
    x1, x2 = PolyExpr.gens(("x1", "x2"))
    p = x1 * F(-1000, 3) + x2 * 7
    bits = _coeff_bits(p)
    assert p * 1 is p
    for q in (-p, p * -1, p * F(-1)):
        assert q._bits == bits and (q + p).is_zero()
        poly._set_bits(q, 0)
        assert _coeff_bits(q) == bits
    assert (-x1)._bits == 0                         # nothing cached, nothing carried
