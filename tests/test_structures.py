"""Bracket structures: construction, predicates, Nambu brackets."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from oracles import (bracket_of, fundamental_identity_by_cofactor_rows,
                     nambu_bracket_by_wedges)
from ppa import catalog
from ppa.errors import ArityError, DomainError
from ppa.poly import PolyExpr
from ppa.structures import (NambuStructure, PoissonStructure, generic_rank,
                            is_casimir, is_quasi_casimir, jacobi_witnesses,
                            jacobian_structure, plucker_rank2_test)

V3 = ("x1", "x2", "x3")
V4 = ("x1", "x2", "x3", "x4")


def so3_structure():
    x1, x2, x3 = PolyExpr.gens(V3)
    return PoissonStructure.from_table(V3, {(0, 1): x3, (1, 2): x1, (0, 2): -x2})


# ---------------- jacobian construction ----------------

def test_markov_brackets():
    x1, x2, x3 = PolyExpr.gens(V3)
    p = x1 ** 2 + x2 ** 2 + x3 ** 2 + x1 * x2 * x3 * 3
    ps = jacobian_structure(V3, [p], 1)
    assert ps.matrix[0][1] == x3 * 2 + x1 * x2 * 3
    assert ps.matrix[1][2] == x1 * 2 + x2 * x3 * 3
    assert ps.matrix[2][0] == x2 * 2 + x1 * x3 * 3


def test_sklyanin_first_bracket_against_minor():
    """The (1,2) entry equals the 2x2 Casimir-gradient minor over (x3,x4)."""
    x1, x2, x3, x4 = PolyExpr.gens(V4)
    q1 = x1 ** 2 + x2 ** 2 + x3 ** 2
    q2 = x4 ** 2 + x1 ** 2 * 1 + x2 ** 2 * 2 + x3 ** 2 * 3
    ps = jacobian_structure(V4, [q1, q2], 1)
    minor = q1.diff("x3") * q2.diff("x4") - q1.diff("x4") * q2.diff("x3")
    assert ps.matrix[0][1] == minor == x3 * x4 * 4
    s1, s2, s3, s4 = sp.symbols("x1:5")
    sq1 = s1**2 + s2**2 + s3**2
    sq2 = s4**2 + s1**2 + 2*s2**2 + 3*s3**2
    det = sp.det(sp.Matrix([[sp.diff(sq1, s3), sp.diff(sq1, s4)],
                            [sp.diff(sq2, s3), sp.diff(sq2, s4)]]))
    got = sum(sp.Rational(c) * s3 ** m[2] * s4 ** m[3]
              for m, c in ps.matrix[0][1].terms.items())
    assert sp.expand(got - det) == 0


def test_canonical_plane():
    x1, x2, x3 = PolyExpr.gens(V3)
    ps = jacobian_structure(V3, [x3], 1)
    assert ps.matrix[0][1] == 1
    assert ps.matrix[0][2].is_zero() and ps.matrix[1][2].is_zero()


def test_wrong_casimir_count():
    x1, x2, x3 = PolyExpr.gens(V3)
    with pytest.raises(ArityError):
        jacobian_structure(V3, [x1, x2], 1)


# ---------------- bracket evaluation ----------------

def test_coordinate_reproduction():
    q3 = catalog.build("q3", {"k": 2}).structure
    gens = PolyExpr.gens(V3)
    for i in range(3):
        for j in range(3):
            assert bracket_of(q3, gens[i], gens[j]) == q3.matrix[i][j]


def test_bracket_antisymmetry_on_same_argument():
    q3 = catalog.build("q3", {"k": 2}).structure
    x1, x2, _ = PolyExpr.gens(V3)
    f = x1 * x2 + x1 ** 3
    assert bracket_of(q3, f, f).is_zero()


def test_leibniz_from_table():
    q3 = catalog.build("q3", {"k": 2}).structure
    x1, x2, x3 = PolyExpr.gens(V3)
    assert bracket_of(q3, x1, x1 * x2) == x1 * (x1 * x2 * 2 + x3 ** 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_leibniz_rule_randomized(a, b, c, e1, e2, e3):
    ps = catalog.build("markov").structure
    x1, x2, x3 = PolyExpr.gens(V3)
    f = x1 ** e1 * a + x2 * x3 * b
    g = x2 ** e2 * b + x1 * c
    h = x3 ** e3 * c + x1 * x2 * a
    assert bracket_of(ps, f * g, h) == f * bracket_of(ps, g, h) + g * bracket_of(ps, f, h)


# ---------------- Jacobi ----------------

def test_q3_jacobi_holds():
    assert list(jacobi_witnesses(catalog.build("q3", {"k": 2}).structure)) == []


def test_tampered_q3_fails_with_witness():
    q3 = catalog.build("q3", {"k": 2}).structure
    x1, x2, x3 = PolyExpr.gens(V3)
    table = {(i, j): q3.matrix[i][j] for i, j in combinations(range(3), 2)}
    table[(0, 1)] = table[(0, 1)] + x1 ** 2
    bad = PoissonStructure.from_table(V3, table)
    witnesses = list(jacobi_witnesses(bad))
    assert witnesses
    i, j, k, resid = witnesses[0]
    assert not resid.is_zero()


def test_so3_jacobi():
    assert list(jacobi_witnesses(so3_structure())) == []


# ---------------- Casimirs ----------------

def test_q5_casimir_central():
    m = catalog.build("q5", {"k": 2})
    assert is_casimir(m.structure, m.casimirs[0][1])


def test_markov_casimir_central():
    m = catalog.build("markov")
    assert is_casimir(m.structure, m.casimirs[0][1])


def test_coordinate_not_central():
    q3 = catalog.build("q3", {"k": 2}).structure
    assert not is_casimir(q3, PolyExpr.var("x1", V3))


def test_quasi_casimir_examples():
    x1, x2, x3 = PolyExpr.gens(V3)
    ps = PoissonStructure.from_table(V3, {(0, 1): x1})
    assert list(jacobi_witnesses(ps)) == []
    assert is_quasi_casimir(ps, x1)
    assert not is_casimir(ps, x1)
    assert not is_quasi_casimir(ps, x2)
    with pytest.raises(DomainError):
        is_quasi_casimir(ps, PolyExpr.zero(V3))


def test_any_casimir_is_quasi():
    m = catalog.build("markov")
    assert is_quasi_casimir(m.structure, m.casimirs[0][1])


# ---------------- Plucker / rank ----------------

def test_plucker_trivial_in_low_dimension():
    assert plucker_rank2_test(so3_structure()).rank_le_2


def test_sklyanin_plucker():
    assert plucker_rank2_test(catalog.build("sklyanin").structure).rank_le_2


def test_q5_plucker_fails_with_witness():
    rep = plucker_rank2_test(catalog.build("q5", {"k": 2}).structure)
    assert not rep.rank_le_2 and rep.witness is not None


def test_jacobian_structures_always_plucker():
    for name in ("q3", "markov", "sklyanin", "dell", "singular_k3_split"):
        ps = catalog.build(name).structure
        assert plucker_rank2_test(ps).rank_le_2, name


def test_generic_rank_values():
    x1, x2, x3 = PolyExpr.gens(V3)
    plane = jacobian_structure(V3, [x3], 1)
    assert generic_rank(plane) == 2
    assert generic_rank(catalog.build("q5", {"k": 2}).structure) == 4
    assert generic_rank(catalog.build("dell").structure) == 2


# ---------------- Nambu brackets ----------------

def test_canonical_identity_jacobian():
    ns = NambuStructure(V3, [], 1)
    gens = PolyExpr.gens(V3)
    assert nambu_bracket_by_wedges(ns, list(gens)) == 1


def test_swap_negates():
    ns = NambuStructure(V3, [], 1)
    x1, x2, x3 = PolyExpr.gens(V3)
    args = [x1 * x2, x2 + x3, x1 ** 2]
    swapped = [args[1], args[0], args[2]]
    assert nambu_bracket_by_wedges(ns, args) == -nambu_bracket_by_wedges(ns, swapped)


def test_wrong_arity():
    ns = NambuStructure(V3, [], 1)
    with pytest.raises(ArityError):
        nambu_bracket_by_wedges(ns, PolyExpr.gens(V3)[:2])


def test_level_section_flow():
    m = catalog.build("dell_nambu")
    gens = PolyExpr.gens(m.vars)
    assert nambu_bracket_by_wedges(m.structure, m.hamiltonians + [gens[4]]).is_zero()
    flow1 = nambu_bracket_by_wedges(m.structure, m.hamiltonians + [gens[0]])
    assert flow1 == gens[1] * gens[2] * gens[3]


def test_nambu_per_slot_leibniz():
    ns = NambuStructure(V4, [PolyExpr.var("x4", V4)], F(1, 2))
    x1, x2, x3, x4 = PolyExpr.gens(V4)
    f1, h = x1 * x2 + x3, x2 ** 2 - x4
    f2, f3 = x1 + x3 * x4, x2 * x3
    lhs = nambu_bracket_by_wedges(ns, [f1 * h, f2, f3])
    rhs = (f1 * nambu_bracket_by_wedges(ns, [h, f2, f3])
           + h * nambu_bracket_by_wedges(ns, [f1, f2, f3]))
    assert lhs == rhs


def test_binary_nambu_matches_poisson():
    x1, x2, x3 = PolyExpr.gens(V3)
    p = x1 ** 2 + x2 ** 2 + x3 ** 2 + x1 * x2 * x3 * 3
    ps = jacobian_structure(V3, [p], 1)
    ns = NambuStructure(V3, [p], 1)
    f = x1 * x2 + x3
    g = x2 ** 2 - x1
    assert nambu_bracket_by_wedges(ns, [f, g]) == bracket_of(ps, f, g)


# ---------------- fundamental identity ----------------

def test_fi_on_coordinates():
    ns = NambuStructure(V3, [], 1)
    gens = PolyExpr.gens(V3)
    residual = fundamental_identity_by_cofactor_rows(
        ns, [gens[0], gens[1], gens[2], gens[0], gens[1]])
    assert residual.is_zero()


def test_fi_with_repeated_arguments():
    ns = NambuStructure(V3, [], 1)
    x1, x2, x3 = PolyExpr.gens(V3)
    assert fundamental_identity_by_cofactor_rows(ns, [x1, x1, x2, x3, x2]).is_zero()


def test_fi_random_quadratics():
    rng = random.Random(23)
    ns = NambuStructure(V3, [], 1)
    gens = PolyExpr.gens(V3)
    for _ in range(4):
        args = []
        for _ in range(5):
            p = PolyExpr.zero(V3)
            for _ in range(2):
                mono = [0, 0, 0]
                for _ in range(rng.randint(1, 2)):
                    mono[rng.randrange(3)] += 1
                p = p + PolyExpr(V3, {tuple(mono): rng.choice([1, -1, 2, F(1, 2)])})
            args.append(p)
        assert fundamental_identity_by_cofactor_rows(ns, args).is_zero()


def test_catalog_jacobian_casimirs_are_central():
    for name in ("q3", "sklyanin", "dell", "singular_k3_split"):
        m = catalog.build(name)
        for _, q in m.casimirs:
            assert is_casimir(m.structure, q), name


# ---------------- trusted tables ----------------

def full_matrix(variables, entries):
    n = len(variables)
    matrix = [[None] * n for _ in range(n)]
    for (i, j), p in entries.items():
        matrix[i][j], matrix[j][i] = p, -p
    return matrix


def checked_constructor(variables, matrix):
    """The validating full-matrix constructor ``PoissonStructure`` had
    before ``from_table`` and ``jacobian_structure`` became its only public
    ones: every entry polynomial-grade and re-embedded in ``variables``, in
    row order, then a zero diagonal and antisymmetry."""
    n = len(variables)
    out = [[PolyExpr.zero(variables)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if matrix[i][j] is not None:
                matrix[i][j].require_polynomial_grade(f"bracket entry ({i},{j})")
                out[i][j] = matrix[i][j].with_vars(variables)
    for i in range(n):
        if not out[i][i].is_zero():
            raise DomainError(f"nonzero diagonal bracket at {i}")
        for j in range(i + 1, n):
            if out[i][j] != -out[j][i]:
                raise DomainError(f"bracket matrix not antisymmetric at ({i},{j})")
    return PoissonStructure._trusted(tuple(variables), out)


def outcome(build):
    try:
        ps = build()
        return ps.vars, ps.matrix
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("entries", [
    {},
    {(0, 1): "x1", (1, 2): "x1*x2 - 3", (0, 2): "-x2^2"},
    {(2, 1): "x3", (0, 1): "1/2"},
    {(0, 1): "0", (1, 2): "x1"},
    {(0, 2): "x1^(1/2)", (0, 1): "x2^(-1)"},      # the first in row order fails
    {(1, 2): "x1^(1/2)", (0, 2): "y"},            # the wrong variables come first
    {(0, 1): "c"},                                # a constant over no variables
])
def test_from_table_matches_the_checked_constructor(entries):
    from ppa.dsl import parse_polynomial
    env = {"y": PolyExpr.var("y", ("x1", "x2", "x3", "y")), "c": PolyExpr.const((), 3)}
    table = {ij: parse_polynomial(text, V3, env) for ij, text in entries.items()}
    assert outcome(lambda: PoissonStructure.from_table(V3, table)) == \
        outcome(lambda: checked_constructor(V3, full_matrix(V3, table)))


def test_from_table_refuses_the_diagonal_and_foreign_indices():
    x1 = PolyExpr.var("x1", V3)
    with pytest.raises(DomainError, match="diagonal table entry"):
        PoissonStructure.from_table(V3, {(1, 1): x1})
    for ij in ((0, 3), (-1, 0)):
        with pytest.raises(DomainError, match="outside 3 variables"):
            PoissonStructure.from_table(V3, {ij: x1})


def test_from_table_refuses_more_than_max_dim():
    v = tuple(f"x{i + 1}" for i in range(9))
    with pytest.raises(DomainError, match="ambient dimension 9 exceeds 8"):
        PoissonStructure.from_table(v, {(0, 1): PolyExpr.var("x3", v)})
