"""The fused zero tests and the integer sampled rank against their definitions.

``is_casimir`` and ``is_quasi_casimir`` test the Hamiltonian rows
{Q, x_k} = sum_i p_ik dQ/dx_i, ``bracket_of`` contracts those rows with a
gradient, ``_jacobiator`` and ``pfaffian`` sum their products in one fused
kernel, and ``generic_rank`` takes the rank of integer matrices by
fraction-free elimination.  Each is compared here with what it replaces:
``oracles.bracket_by_entries``, a ``_sum`` chain of products, the
recursive ``oracles.pfaffian`` and a ``Fraction`` elimination over the same
sample points.  ``bdu_relation_sides`` reads its left side as a 4x4
Pfaffian, compared here with the three products it sums.
"""

import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import synthetic
from ppa import dsl, structures
from ppa.duality import bdu_relation_sides
from ppa.dynamics import hamiltonian_vector_field
from ppa.errors import PolynomialGradeError
from ppa.exterior import pfaffian
from ppa.poly import PolyExpr, _bareiss, exact_divisibility
from ppa.structures import (SAMPLE_GRID, SAMPLES, PoissonStructure, bracket_of,
                            generic_rank, is_casimir, is_quasi_casimir)

VARS = tuple(f"x{i + 1}" for i in range(8))


def table(n, entries):
    return PoissonStructure.from_table(VARS[:n], entries)


def polys(n, max_terms=3):
    mono = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.fractions(-3, 3, max_denominator=4).filter(bool)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda d: PolyExpr(VARS[:n], d))


@st.composite
def random_tables(draw):
    """Rational entries, odd and even n, many of them zero."""
    n = draw(st.integers(2, 7))
    return table(n, {ij: draw(polys(n, 2)) for ij in combinations(range(n), 2)
                     if draw(st.booleans())})


@st.composite
def zero_tables(draw):
    return table(draw(st.integers(2, 7)), {})


@st.composite
def rank4_tables(draw):
    """X ^ Y + Z ^ W: rank 4 unless the planes meet."""
    n = draw(st.integers(4, 6))
    x, y, z, w = (draw(st.lists(polys(n, 2), min_size=n, max_size=n))
                  for _ in range(4))
    return table(n, {(i, j): x[i] * y[j] - x[j] * y[i] + z[i] * w[j] - z[j] * w[i]
                     for i, j in combinations(range(n), 2)})


@st.composite
def log_canonical_tables(draw):
    """{x_i, x_j} = c_ij x_i x_j: every monomial is a quasi-Casimir."""
    n = draw(st.integers(2, 6))
    gens = PolyExpr.gens(VARS[:n])
    return table(n, {(i, j): gens[i] * gens[j] * draw(st.fractions(-2, 2, max_denominator=3))
                     for i, j in combinations(range(n), 2)})


def jacobian(n, seed):
    return dsl.parse_model(synthetic.model_text(n, seed)).build_structure()


@st.composite
def jacobian_structures(draw):
    """Rank 2 and Poisson, with known Casimirs (odd n included)."""
    n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 10 ** 6))
    spec = dsl.parse_model(synthetic.model_text(n, seed))
    return spec.build_structure(), spec.casimir_polys()


tables = st.one_of(random_tables(), zero_tables(), rank4_tables(),
                   log_canonical_tables(), jacobian_structures().map(lambda t: t[0]))


# ---------------- Casimir and quasi-Casimir rows ----------------

def casimir_by_definition(ps, q):
    return all(oracles.bracket_by_entries(ps, q, x).is_zero()
               for x in PolyExpr.gens(ps.vars))


def quasi_by_definition(ps, q):
    return all(exact_divisibility(oracles.bracket_by_entries(ps, q, x), q)[0]
               for x in PolyExpr.gens(ps.vars))


@st.composite
def structures_and_candidates(draw):
    """(structure, candidate) pairs where either verdict can come out true."""
    kind = draw(st.sampled_from(["jacobian", "log", "random"]))
    if kind == "jacobian":
        ps, qs = draw(jacobian_structures())
        q = draw(st.sampled_from(qs))
        if draw(st.booleans()):
            q = q + draw(polys(ps.n, 1))
    elif kind == "log":
        ps = draw(log_canonical_tables())
        q = draw(polys(ps.n, 1 if draw(st.booleans()) else 3))
    else:
        ps = draw(random_tables())
        q = draw(polys(ps.n))
    return ps, q


@settings(max_examples=120, deadline=None)
@given(structures_and_candidates())
def test_hamiltonian_rows_are_the_brackets(case):
    ps, q = case
    grad = [q.diff(v) for v in ps.vars]
    for k, x in enumerate(PolyExpr.gens(ps.vars)):
        assert structures._hamiltonian_row(ps, grad, k) == \
            oracles.bracket_by_entries(ps, q, x)
    assert is_casimir(ps, q) == casimir_by_definition(ps, q)
    if not q.is_zero():
        assert is_quasi_casimir(ps, q) == quasi_by_definition(ps, q)


@settings(max_examples=80, deadline=None)
@given(structures_and_candidates(), st.data())
def test_bracket_is_the_entry_chain(case, data):
    ps, f = case
    g = data.draw(polys(ps.n))
    assert bracket_of(ps, f, g) == oracles.bracket_by_entries(ps, f, g)


@settings(max_examples=80, deadline=None)
@given(structures_and_candidates())
def test_hamiltonian_field_keeps_the_term_order_of_the_entry_chain(case):
    # the RK4 float sums run over the terms in order, so the components must
    # match the chain term for term, not only as values
    ps, h = case
    field = hamiltonian_vector_field(ps, h)
    for x, comp in zip(PolyExpr.gens(ps.vars), field.components):
        ref = oracles.bracket_by_entries(ps, x, h)
        assert list(comp.terms.items()) == list(ref.terms.items())


@pytest.mark.parametrize("a,b", list(permutations(range(4), 2)))
def test_every_row_is_tested(a, b):
    # {x_a, x_b} = 1 alone: x_a fails to be central, and to be a
    # quasi-Casimir, in row b and nowhere else
    ps = table(4, {tuple(sorted((a, b))): PolyExpr.const(VARS[:4], 1 if a < b else -1)})
    xa = PolyExpr.var(VARS[a], VARS[:4])
    assert not is_casimir(ps, xa) and not casimir_by_definition(ps, xa)
    assert not is_quasi_casimir(ps, xa) and not quasi_by_definition(ps, xa)
    grad = [xa.diff(v) for v in ps.vars]
    assert [not structures._hamiltonian_row(ps, grad, k).is_zero()
            for k in range(4)] == [k == b for k in range(4)]


# ---------------- jacobiators and Pfaffians ----------------

def jacobiator_chain(m, i, j, k):
    """The jacobiator as a ``_sum`` chain of products."""
    g = {(r, s): [m[r][s].diff(v) for v in m[r][s].vars]
         for r, s in ((j, k), (k, i), (i, j))}
    total = PolyExpr.zero(m[0][0].vars)
    for l in range(len(m)):
        total = (total + m[i][l] * g[j, k][l] + m[j][l] * g[k, i][l]
                 + m[k][l] * g[i, j][l])
    return total


@settings(max_examples=60, deadline=None)
@given(tables)
def test_jacobiator_equals_the_sum_chain(ps):
    for i, j, k in combinations(range(ps.n), 3):
        assert structures.jacobiator(ps, i, j, k) == jacobiator_chain(ps.matrix, i, j, k)


@settings(max_examples=40, deadline=None)
@given(tables.filter(lambda ps: 4 <= ps.n <= 5))
def test_four_by_four_pfaffians_equal_pfaffian(ps):
    # every ordering, since a pivot need not come first in index order
    for sub in permutations(range(ps.n), 4):
        assert pfaffian(ps.matrix, sub) == oracles.pfaffian(ps.matrix, sub)


@st.composite
def upper_matrices(draw):
    """Rows filled above the diagonal only (zeros below and on it), n = 6..8:
    the Pfaffian reads the entries (s_i, s_j) with i < j in tuple order, so
    an ordering that is not increasing reads zeros, as the recursion does."""
    n = draw(st.integers(6, 8))
    zero = PolyExpr.zero(VARS[:n])
    m = [[zero] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        m[i][j] = draw(polys(n, 2))
    return m


@settings(max_examples=40, deadline=None)
@given(st.one_of(upper_matrices(),
                 random_tables().filter(lambda ps: ps.n >= 6).map(lambda ps: ps.matrix),
                 jacobian_structures().filter(lambda t: t[0].n == 6)
                 .map(lambda t: t[0].matrix)),
       st.data())
def test_six_and_eight_pfaffians_equal_the_recursion(m, data):
    n = len(m)
    for size in range(2, n + 1, 2):
        sub = data.draw(st.permutations(range(n)))[:size]
        assert pfaffian(m, sub) == oracles.pfaffian(m, sub)
        assert pfaffian(m, sorted(sub)) == oracles.pfaffian(m, sorted(sub))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(list(combinations(range(6), 2))), polys(6, 2)))
def test_bdu_left_side_is_the_three_product_sum(entries):
    ps = table(6, entries)
    m, zero = ps.matrix, PolyExpr.zero(ps.vars)
    p, x, y, z = 0, 3, 4, 5
    lhs, _ = bdu_relation_sides(ps, zero, zero)
    assert lhs == m[x][y] * m[p][z] + m[y][z] * m[p][x] + m[z][x] * m[p][y]


def test_a_laurent_block_raises_polynomial_grade_error():
    # the fused sum takes packed keys only; a 2-subset is its entry, and an
    # ordering that reads (3, 1) in place of (1, 3) never sees the Laurent
    # entry
    v = VARS[:4]
    x1, x2, x3, x4 = PolyExpr.gens(v)
    laurent = PolyExpr(v, {(-1, 0, 0, 1): F(1, 2)})
    m = [[PolyExpr.zero(v)] * 4 for _ in range(4)]
    m[0][1], m[0][2], m[0][3], m[1][2], m[1][3], m[2][3] = x1, x2, x3, x4, laurent, x1
    with pytest.raises(PolynomialGradeError, match=r"pfaffian entry \(1,3\)"):
        pfaffian(m, (0, 1, 2, 3))
    with pytest.raises(PolynomialGradeError, match=r"pfaffian entry \(1,3\)"):
        pfaffian(m, (2, 1, 3, 0))
    assert pfaffian(m, (1, 3)) == laurent
    assert pfaffian(m, (0, 3, 1, 2)) == oracles.pfaffian(m, (0, 3, 1, 2))


# ---------------- the sampled rank ----------------

def fraction_rank(rows):
    m = [row[:] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def value(p, point):
    total = F(0)
    for mono, c in p.terms.items():
        for x, e in zip(point, mono):
            c *= x ** e
        total += c
    return total


def reference_rank(ps, samples, seed):
    """The largest rank over every sample point, with no early exit."""
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        point = [rng.choice(SAMPLE_GRID) for _ in range(ps.n)]
        best = max(best, fraction_rank([[value(p, point) for p in row]
                                        for row in ps.matrix]))
    return best


@settings(max_examples=80, deadline=None)
@given(tables, st.integers(0, 10 ** 6), st.booleans())
def test_generic_rank_equals_fraction_elimination(ps, seed, verdict_first):
    if verdict_first:
        ps._rank2           # as jacobi or plucker would leave it
    got, sampled = generic_rank(ps, seed), reference_rank(ps, SAMPLES, seed)
    if ps.certified:
        # the exact rank, 2 or 0, which no sample point exceeds
        assert got == (2 if any(not p.is_zero() for _, p in ps.entries_upper())
                       else 0) >= sampled
    else:
        assert got == sampled


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6), st.randoms())
def test_integer_rank_equals_fraction_rank(rows, cols, inner, rnd):
    # a product of rows x inner and inner x cols integer factors, so every
    # rank up to min(rows, cols) comes up, with zero columns skipped
    a = [[rnd.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
    b = [[rnd.randint(-3, 3) * rnd.randint(0, 1) for _ in range(cols)]
         for _ in range(inner)]
    m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if b
         else [0] * cols for row in a]
    assert _bareiss([r[:] for r in m])[0] == fraction_rank([[F(x) for x in r] for r in m])


def test_rank_four_is_not_cut_at_two():
    # Pf(x1,x2,x3,x4) = x1 - v, with v the first sampled value of x1: rank
    # 2 at the first point and 4 at the later ones, whether or not the
    # rank-2 verdict (false here) is already held
    v = random.Random(0).choice(SAMPLE_GRID)
    x1 = PolyExpr.var("x1", VARS[:4])
    ps = table(4, {(0, 1): PolyExpr.const(VARS[:4], 1), (2, 3): x1 - v})
    assert reference_rank(ps, 1, 0) == 2 and reference_rank(ps, 8, 0) == 4
    assert generic_rank(ps) == 4
    assert ps._rank2[0] is False
    assert generic_rank(ps) == 4


def test_rank_stops_at_a_proven_bound(monkeypatch):
    calls = []
    monkeypatch.setattr(structures, "_bareiss",
                        lambda m: calls.append(m) or _bareiss(m))
    ps = jacobian(6, 1)
    assert ps.certified
    assert generic_rank(ps) == 2 and calls == []     # exact, never sampled
    # the same bracket without its Casimirs samples all 8 points, whether
    # or not the rank-2 verdict is held: its bound is n - n % 2 = 6
    bare = table(6, dict(ps.entries_upper()))
    assert not bare.certified
    assert generic_rank(bare) == 2 and len(calls) == 8
    assert bare._rank2[0]
    calls.clear()
    assert generic_rank(bare) == 2 and len(calls) == 8
    # a constant table of full rank stops at n - n % 2 = 4 in five variables
    calls.clear()
    const = table(5, {(0, 1): PolyExpr.const(VARS[:5], 1),
                      (2, 3): PolyExpr.const(VARS[:5], 1)})
    assert generic_rank(const) == 4 and len(calls) == 1
