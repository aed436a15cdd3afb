"""A Jacobian structure's bracket, built on first read, and its Casimirs
proved independent at one point mod p.

``jacobian_structure`` keeps the Casimirs and the multiplier and builds its
matrix on the first read.  Its ``_independent`` premise is ``True`` from
construction when ``poly._independent_mod_p`` finds the Casimir gradients of
full rank at a fixed point mod 2^61 - 1, and is otherwise read off the minor
table.  Here: the mod-p verdict is never ``True`` for dependent Casimirs,
and ``certified`` is what the minor table alone gives; the deferred matrix
has the entries, signs and term order of the eager construction; the
certified checks expand no minor; and a refusal inside the minor expansion
fails the first check that reads the bracket, not the whole command, and
is kept, so a later check raises it again without a second expansion.
"""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import synthetic
from ppa import catalog, dsl, runner, structures
from ppa.cli import main
from ppa.duality import duality_check
from ppa.errors import DomainError
from ppa.poly import _P, _POINT, PolyExpr, _independent_mod_p
from ppa.structures import (NambuStructure, casimir_minors, generic_rank, is_casimir,
                            jacobi_witnesses, jacobian_structure, plucker_rank2_test)

VARS = tuple(f"x{i + 1}" for i in range(8))
SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
INTEGER = st.integers(-5, 5).filter(bool)
RATIONAL = st.fractions(-3, 3, max_denominator=5).filter(bool)


def polys(variables, coeff, max_terms=3, max_degree=3):
    """Nonzero polynomials without a constant term, of degree <= max_degree."""
    mono = st.lists(st.integers(0, len(variables) - 1), min_size=1,
                    max_size=max_degree).map(
        lambda picks: tuple(picks.count(i) for i in range(len(variables))))
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda d: PolyExpr(variables, d))


@st.composite
def casimir_sets(draw):
    """(variables, Casimirs): n = 2..8, l = 0..n-2 integer or rational
    Casimirs, made dependent half of the time by one of Q3 = Q1 + 2 Q2,
    Q2 = Q1^2 or a constant Casimir."""
    n = draw(st.integers(2, 8))
    v = VARS[:n]
    coeff = draw(st.sampled_from([INTEGER, RATIONAL]))
    qs = draw(st.lists(polys(v, coeff, max_degree=2 if n > 5 else 3),
                       min_size=0, max_size=n - 2))
    dependence = draw(st.sampled_from(["none", "sum", "square", "constant"]))
    if dependence == "sum" and len(qs) >= 3:
        qs[2] = qs[0] + 2 * qs[1]
    elif dependence == "square" and len(qs) >= 2:
        qs[1] = qs[0] ** 2
    elif dependence == "constant" and qs:
        qs[draw(st.integers(0, len(qs) - 1))] = PolyExpr.const(v, draw(coeff))
    return v, qs


@SETTINGS
@given(casimir_sets())
def test_the_mod_p_verdict_proves_only_independence(case):
    v, qs = case
    independent = bool(casimir_minors(v, qs))
    if _independent_mod_p(qs):
        assert independent
    if len(qs) == len(v) - 2:
        # the certificate of the construction: what the minor table gives
        ps = jacobian_structure(v, qs)
        assert ps.certified == independent
        assert "matrix" not in vars(ps)


def rank_mod_p(rows):
    """The rank of integer ``rows`` mod ``_P``, by Gauss-Jordan with inverses."""
    rows, rank = [r[:] for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, _P)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % _P
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def at_point_mod_p(p):
    """``p`` at ``_POINT`` mod ``_P``, read off its exponent tuples."""
    total = 0
    for mono, c in p.terms.items():
        t = c.numerator * pow(c.denominator, -1, _P)
        for x, e in zip(_POINT, mono):
            t = t * pow(x, e, _P) % _P
        total += t
    return total % _P


@SETTINGS
@given(casimir_sets())
def test_the_mod_p_verdict_is_the_rank_of_the_gradients_at_the_point(case):
    # the gradients by PolyExpr.diff, the rank by inverses: a row scaled by
    # its denominator, or a column by its coordinate, keeps the rank
    v, qs = case
    rows = [[at_point_mod_p(q.diff(x)) for x in v] for q in qs]
    assert _independent_mod_p(qs) == (rank_mod_p(rows) == len(qs))


def eager_matrix(variables, casimirs, multiplier):
    """The matrix as ``jacobian_structure`` built it at construction: every
    minor, then p_ij = +-multiplier * minor, a constant scaling as a
    scalar."""
    n = len(variables)
    minors = casimir_minors(variables, casimirs)
    mu = multiplier.constant_value() if multiplier.is_constant() else None
    full = (1 << n) - 1
    zero = PolyExpr.zero(variables)
    matrix = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeff = minors.get(full ^ (1 << i | 1 << j))
            if coeff is not None:
                p = multiplier * coeff if mu is None else coeff * mu
                matrix[i][j] = p if (i + j) & 1 else -p
                matrix[j][i] = -matrix[i][j]
    return matrix


def stored(matrix):
    """Every entry's numerators in term order, and its denominator."""
    return [[(list(p._num.items()), p._den) for p in row] for row in matrix]


def assert_deferred_is_eager(ps):
    assert ps.multiplier is not None and "matrix" not in vars(ps)
    assert stored(ps.matrix) == stored(eager_matrix(ps.vars, ps.casimirs, ps.multiplier))


def test_every_catalog_jacobian_matrix_is_the_eager_one():
    built = 0
    for name in catalog.names():
        for binding in [None] + list(catalog.entry(name).alternates):
            spec = dsl.parse_model(dsl.render_model(dsl.model_spec_from_built(
                catalog.build(name, binding))))
            if spec.structure_kind == "jacobian":
                assert_deferred_is_eager(spec.build_structure())
                built += 1
    assert built >= 10


MULTIPLIERS = st.one_of(st.sampled_from([0, 1, -1, F(-7, 3)]),
                        st.fractions(-4, 4, max_denominator=6))


@SETTINGS
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(polys(VARS[:n], st.sampled_from([1, -2, 3, F(1, 2), F(-5, 3)])),
             min_size=n - 2, max_size=n - 2),
    st.one_of(MULTIPLIERS, polys(VARS[:n], INTEGER, max_degree=2)))))
def test_a_random_deferred_matrix_is_the_eager_one(case):
    qs, mu = case
    v = VARS[:len(qs) + 2]
    assert_deferred_is_eager(jacobian_structure(v, qs, mu))


@pytest.mark.parametrize("n", [6, 8])
def test_the_certified_checks_expand_no_minor(n, monkeypatch):
    calls = []
    real = structures._stack_row
    monkeypatch.setattr(structures, "_stack_row",
                        lambda *args: calls.append(args) or real(*args))
    text = synthetic.model_text(n)
    report = runner.run_checks(dsl.parse_model(text))
    assert not report.failed and calls == []
    # a check that reads the bracket builds the minor table once
    tables = []
    real_table = structures.casimir_minors
    monkeypatch.setattr(structures, "casimir_minors",
                        lambda *args: tables.append(args) or real_table(*args))
    text = text.replace(synthetic.CHECKS, synthetic.CHECKS + ", extendability")
    report = runner.run_checks(dsl.parse_model(text))
    assert [r.name for r in report.results][-1] == "extendability"
    # the last gradient's entries are the 1 x 1 minors: n - 3 Laplace steps
    assert len(tables) == 1 and len(calls) == n - 3


@pytest.mark.parametrize("mu", [0, 1, F(-7, 3), "x1"])
def test_the_library_predicates_read_no_entry_of_a_certified_structure(mu):
    spec = dsl.parse_model(synthetic.model_text(6))
    qs = spec.casimir_polys()
    if mu == "x1":
        mu = PolyExpr.var("x1", spec.vars)
    ps = jacobian_structure(spec.vars, qs, mu)
    assert ps.certified and next(jacobi_witnesses(ps), None) is None
    assert all(is_casimir(ps, q) for q in qs)
    assert plucker_rank2_test(ps).rank_le_2
    assert generic_rank(ps) == (0 if mu == 0 else 2)
    if ps.constant_multiplier is not None:
        rep = duality_check(ps, qs)
        assert rep.lam_coord == mu and "pfaffians" not in vars(rep)
    assert "matrix" not in vars(ps) and "_casimir_minors" not in vars(ps)


# (x1 + x2 + x3 + x4)^20 and (x1 + 2 x2 + 3 x3 + 4 x4)^20: each partial has
# 1540 terms, so the first product of two of them costs 1540^2 units, more
# than MAX_WORK, while the gradients are independent at the point mod p.
REFUSED = ("vars x1 x2 x3 x4;\n"
           "casimir P = (x1 + x2 + x3 + x4)^20;\n"
           "casimir Q = (x1 + 2*x2 + 3*x3 + 4*x4)^20;\n"
           "structure jacobian;\n")


def test_a_refused_minor_expansion_fails_only_the_checks_that_read_the_bracket(
        tmp_path, capsys):
    path = tmp_path / "refused.ppa"
    path.write_text(REFUSED + f"check {synthetic.CHECKS};\n")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == (
        "jacobi: pass\ncasimirs: pass\ntheorem31: pass  lambda' = 1\n"
        "plucker: info  plucker = true\nrank: info  rank = 2\noverall: pass\n")
    path.write_text(REFUSED + "check extendability;\n")
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("extendability: fail  a product of polynomials with "
                          "1540 x 1540 terms")
    assert "more than MAX_WORK" in out and out.endswith("overall: fail\n")
    # a flow reads the bracket before anything else: refused with exit 2
    path.write_text(REFUSED + "hamiltonian x1;\n"
                    "integrate from (1.0, 0.5, 0.25, 0.75) step 0.1 until 0.2;\n")
    assert main(["integrate", str(path), "--out", str(tmp_path / "flow.csv")]) == 2
    assert "more than MAX_WORK" in capsys.readouterr().err
    assert not (tmp_path / "flow.csv").exists()


def test_a_refused_minor_expansion_is_kept_and_raised_again(tmp_path, capsys, monkeypatch):
    """A cached property keeps no exception: the structure keeps the first
    refusal, so three checks that read the bracket expand the minors once
    and report the same refusal; a Nambu structure keeps it too."""
    tables = []
    real = structures.casimir_minors
    monkeypatch.setattr(structures, "casimir_minors",
                        lambda *args: tables.append(args) or real(*args))
    path = tmp_path / "refused.ppa"
    path.write_text(REFUSED + "check extendability, quasi(x1), extendability;\n")
    assert main(["check", str(path)]) == 1
    refusal = ("a product of polynomials with 1540 x 1540 terms and coefficients "
               "of 36 and 63 bits costs 2371600 units, more than MAX_WORK = 1000000")
    assert capsys.readouterr().out == (
        f"extendability: fail  {refusal}\nquasi(x1): fail  {refusal}\n"
        f"extendability: fail  {refusal}\noverall: fail\n")
    assert len(tables) == 1
    spec = dsl.parse_model(REFUSED + "check rank;\n")
    ns = NambuStructure(spec.vars, spec.casimir_polys())
    for _ in range(2):
        with pytest.raises(DomainError, match="more than MAX_WORK"):
            is_casimir(ns, PolyExpr.var("x1", spec.vars))
    assert len(tables) == 2
