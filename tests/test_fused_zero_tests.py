"""The fused zero tests and the exact rank against their definitions.

``is_casimir`` and ``is_quasi_casimir`` test the Hamiltonian rows
{Q, x_k} = sum_i p_ik dQ/dx_i, ``oracles.bracket_of`` contracts those rows
with a gradient, ``_jacobiator`` and ``pfaffian`` sum their products in one
fused kernel, and ``generic_rank`` eliminates by Pfaffians over Q[x].  Each is
compared here with what it replaces or defines it: ``oracles.bracket_by_entries``,
a ``_sum`` chain of products, the recursive ``oracles.pfaffian``, sympy's
rank over Q(x) and a ``Fraction`` elimination at rational points.
``bdu_relation_sides`` reads its left side as a 4x4 Pfaffian, compared here
with the three products it sums.  ``poly._bareiss`` is compared with the
``Fraction`` elimination on integer matrices.
"""

from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import oracles
import synthetic
from ppa import dsl, runner, structures
from ppa.duality import bdu_relation_sides
from ppa.dynamics import hamiltonian_vector_field
from ppa.errors import PolynomialGradeError
from ppa.exterior import pfaffian
from ppa.poly import PolyExpr, _bareiss, exact_divisibility
from ppa.structures import (PoissonStructure, generic_rank, is_casimir, is_quasi_casimir,
                            jacobi_witnesses, plucker_rank2_test)

VARS = tuple(f"x{i + 1}" for i in range(8))


def table(n, entries):
    return PoissonStructure.from_table(VARS[:n], entries)


def polys(n, max_terms=3):
    mono = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.fractions(-3, 3, max_denominator=4).filter(bool)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda d: PolyExpr(VARS[:n], d))


@st.composite
def random_tables(draw, max_n=7):
    """Rational entries, odd and even n, many of them zero."""
    n = draw(st.integers(2, max_n))
    return table(n, {ij: draw(polys(n, 2)) for ij in combinations(range(n), 2)
                     if draw(st.booleans())})


@st.composite
def zero_tables(draw, max_n=7):
    return table(draw(st.integers(2, max_n)), {})


@st.composite
def rank4_tables(draw, max_n=6, max_terms=2):
    """X ^ Y + Z ^ W: rank 4 unless the planes meet."""
    n = draw(st.integers(4, max_n))
    x, y, z, w = (draw(st.lists(polys(n, max_terms), min_size=n, max_size=n))
                  for _ in range(4))
    return table(n, {(i, j): x[i] * y[j] - x[j] * y[i] + z[i] * w[j] - z[j] * w[i]
                     for i, j in combinations(range(n), 2)})


@st.composite
def log_canonical_tables(draw, max_n=6):
    """{x_i, x_j} = c_ij x_i x_j: every monomial is a quasi-Casimir."""
    n = draw(st.integers(2, max_n))
    gens = PolyExpr.gens(VARS[:n])
    return table(n, {(i, j): gens[i] * gens[j] * draw(st.fractions(-2, 2, max_denominator=3))
                     for i, j in combinations(range(n), 2)})


def jacobian(n, seed):
    return dsl.parse_model(synthetic.model_text(n, seed)).build_structure()


@st.composite
def jacobian_structures(draw, max_n=6):
    """Rank 2 and Poisson, with known Casimirs (odd n included)."""
    n = draw(st.integers(3, max_n))
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
    assert oracles.bracket_of(ps, f, g) == oracles.bracket_by_entries(ps, f, g)


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


# ---------------- the exact rank ----------------

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


def sympy_rank(ps):
    """The rank over Q(x_1, ..., x_n), as sympy's ``DomainMatrix`` takes it."""
    xs = sp.symbols(ps.vars)
    rows = [[sp.Add(*(sp.Rational(c.numerator, c.denominator)
                      * sp.Mul(*(x ** e for x, e in zip(xs, m)))
                      for m, c in p.terms.items()))
             for p in row] for row in ps.matrix]
    return (DomainMatrix.from_list_sympy(ps.n, ps.n, rows)
            .convert_to(QQ.frac_field(*xs)).rank())


# sympy's rank over Q(x) takes tens of milliseconds at n = 4 and minutes at
# n = 5, so the comparison stays at n <= 4, and X ^ Y + Z ^ W takes monomial
# factors: with two-term ones some entries take sympy ten seconds and more
small_tables = st.one_of(random_tables(4), zero_tables(4), rank4_tables(4, 1),
                         log_canonical_tables(4),
                         jacobian_structures(4).map(lambda t: t[0]))


@settings(max_examples=60, deadline=None)
@given(small_tables, st.booleans())
def test_generic_rank_equals_the_rank_over_rational_functions(ps, verdict_first):
    if verdict_first:
        ps._rank2           # as jacobi or plucker would leave it
    assert generic_rank(ps) == sympy_rank(ps)


@settings(max_examples=60, deadline=None)
@given(tables, st.data())
def test_generic_rank_bounds_the_rank_at_rational_points(ps, data):
    grid = [F(i, 3) for i in range(-7, 8)]
    rank = generic_rank(ps)
    assert rank % 2 == 0 and rank <= ps.n
    for _ in range(3):
        point = data.draw(st.lists(st.sampled_from(grid), min_size=ps.n,
                                   max_size=ps.n))
        assert rank >= fraction_rank([[value(p, point) for p in row]
                                      for row in ps.matrix])


@st.composite
def block_sums(draw):
    """(structure, 2k): sum_i h_i u_i ^ v_i over k = 2 or 3 blocks in n = 6..8
    variables, with h_i nonzero polynomials, u_i = e_2i and v_i = e_2i+1 plus
    polynomial multiples of the coordinates after 2i + 1, in shuffled
    coordinates.  The u_i and v_i are unitriangular on their first 2k
    coordinates, so independent over Q(x): the rank is exactly 2k, and the
    Pfaffians are polynomials of several terms."""
    n = draw(st.integers(6, 8))
    k = draw(st.integers(2, 3))
    order = draw(st.permutations(range(n)))
    zero = PolyExpr.zero(VARS[:n])
    one = PolyExpr.const(VARS[:n], 1)
    tail = st.one_of(st.just(zero), polys(n, 1))
    bivector = [[zero] * n for _ in range(n)]
    for i in range(k):
        h = draw(polys(n, 2).filter(lambda p: not p.is_zero()))
        u, v = ([zero] * (2 * i) + head + [draw(tail) for _ in range(n - 2 * i - 2)]
                for head in ([one, zero], [zero, one]))
        for a, b in combinations(range(n), 2):
            bivector[a][b] = bivector[a][b] + h * (u[a] * v[b] - u[b] * v[a])
    entries = {}
    for a, b in combinations(range(n), 2):
        i, j = order[a], order[b]
        entries[min(i, j), max(i, j)] = bivector[a][b] if i < j else -bivector[a][b]
    return table(n, entries), 2 * k


@settings(max_examples=30, deadline=None)
@given(block_sums(), st.booleans())
def test_block_sums_have_rank_four_and_six(case, verdict_first):
    ps, rank = case
    if verdict_first:
        ps._rank2
    assert generic_rank(ps) == rank
    assert not plucker_rank2_test(ps).rank_le_2


def test_a_full_rank_table_at_max_dim():
    # x_(2i-1) x_(2i) added to each {x_(2i-1), x_(2i)} of the synthetic n = 8
    # table: three steps divide Pfaffians of hundreds of terms by pivots
    # that are not constant; a point of rank 8 shows the rank is 8
    entries = dict(dsl.parse_model(synthetic.table_model_text(8)).build_structure()
                   .entries_upper())
    x = PolyExpr.gens(VARS)
    for i in range(0, 8, 2):
        entries[i, i + 1] = entries[i, i + 1] + x[i] * x[i + 1]
    ps = table(8, entries)
    point = [F(i, 3) for i in range(1, 9)]
    assert fraction_rank([[value(p, point) for p in row] for row in ps.matrix]) == 8
    assert generic_rank(ps) == 8


def test_rank_after_jacobi_computes_no_pfaffian(monkeypatch):
    calls = []
    monkeypatch.setattr(structures, "pfaffian",
                        lambda m, sub: calls.append(sub) or pfaffian(m, sub))
    text = synthetic.table_model_text(6)
    ps = dsl.parse_model(text).build_structure()
    assert not ps.certified
    assert next(jacobi_witnesses(ps), None) is None
    assert len(calls) == 6                  # the pivot test: C(4, 2) Pfaffians
    assert generic_rank(ps) == 2 and len(calls) == 6
    # through the runner, jacobi's pivot test is all that computes
    calls.clear()
    report = runner.run_checks(dsl.parse_model(text))
    assert [r.witness for r in report.results[1:]] == ["plucker = true", "rank = 2"]
    assert len(calls) == 6
    # and a certified structure computes none
    calls.clear()
    assert generic_rank(jacobian(6, 1)) == 2 and calls == []


def test_rank_reads_the_pfaffians_the_rank_2_test_computed(monkeypatch):
    calls = []
    monkeypatch.setattr(structures, "pfaffian",
                        lambda m, sub: calls.append((m is ps.matrix, sub)) or pfaffian(m, sub))
    # python tests/synthetic.py 8 --perturbed: rank 4, and the first pivot
    # Pfaffian, Pf(x1,x7,x2,x3), is nonzero
    ps = dsl.parse_model(synthetic.perturbed_model_text(8)).build_structure()
    assert not ps.certified and ps._rank2 == (False, (0, 6))
    assert calls == [(True, (0, 6, 1, 2))]
    assert generic_rank(ps) == 4
    # the first step's other C(6, 2) - 1 Pfaffians, then the second's C(4, 2)
    assert len(calls) == 1 + 14 + 6 and len(set(calls)) == len(calls)
    assert sum(on_matrix for on_matrix, _ in calls) == 15


def test_the_degree_14_model_has_rank_four():
    ps = dsl.parse_model(synthetic.degree14_model_text()).build_structure()
    assert generic_rank(ps) == 4 and ps._rank2 == (False, (0, 1))
    # each x5 in the grid is a root of the Pfaffian
    grid = [F(i, 3) for i in range(-7, 8) if i]
    assert all(fraction_rank([[value(p, (1, 1, 1, 1, x)) for p in row]
                              for row in ps.matrix]) == 2 for x in grid)


def test_a_rank_past_the_work_budget_fails_with_its_message():
    # the pivot is {x1,x2} = 1, and Pf(x1,x2,x3,x4) multiplies two entries
    # of 1287 terms each
    spec = dsl.parse_model("vars x1 x2 x3 x4 x5 x6;\n"
                           "let s = (x1 + x2 + x3 + x4 + x5 + x6)^8;\n"
                           "structure table { {x1,x2} = 1; {x1,x3} = s; "
                           "{x2,x4} = s + 1; };\ncheck rank;\n")
    result, = runner.run_checks(spec).results
    assert result.status == "fail" and "MAX_WORK" in result.witness


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
