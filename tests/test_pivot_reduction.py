"""The pivot-reduced rank-2 tests against the full enumeration.

``plucker_rank2_test`` and ``jacobi_witnesses`` decide a pass from one pivot
entry p_ab: the C(n-2, 2) Pfaffians Pf(a,b,k,l) and the n-2 jacobiators on
{a, b, k}.  Every verdict, witness subset and witness list here must equal
what enumerating all 4-subsets and all triples gives.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import synthetic
from ppa import dsl, structures
from ppa.exterior import pfaffian
from ppa.poly import PolyExpr
from ppa.structures import (PoissonStructure, jacobi_witnesses, jacobiator,
                            plucker_rank2_test)

VARS = tuple(f"x{i + 1}" for i in range(6))


def full_enumeration(ps):
    """(first 4-subset with a nonzero Pfaffian or None, every nonzero
    jacobiator as (i, j, k, residual)), computed without the pivot."""
    subset = next((s for s in combinations(range(ps.n), 4)
                   if not pfaffian(ps.matrix, s).is_zero()), None)
    witnesses = [(i, j, k, r) for i, j, k in combinations(range(ps.n), 3)
                 if not (r := jacobiator(ps, i, j, k)).is_zero()]
    return subset, witnesses


def assert_matches_full(ps):
    subset, witnesses = full_enumeration(ps)
    plucker = plucker_rank2_test(ps)
    assert (plucker.rank_le_2, plucker.witness) == (subset is None, subset)
    assert list(jacobi_witnesses(ps)) == witnesses


def table(n, entries):
    return PoissonStructure.from_table(VARS[:n], entries)


def wedge(xs, ys):
    n = len(xs)
    return {(i, j): xs[i] * ys[j] - xs[j] * ys[i]
            for i, j in combinations(range(n), 2)}


def small_polys(n, size):
    """Lists of ``size`` polynomials with up to two squarefree terms."""
    mono = st.tuples(*[st.integers(0, 1)] * n)
    poly = st.dictionaries(mono, st.integers(-3, 3).filter(bool),
                           max_size=2).map(lambda d: PolyExpr(VARS[:n], d))
    return st.lists(poly, min_size=size, max_size=size)


def jacobian(n, seed):
    return dsl.parse_model(synthetic.model_text(n, seed)).build_structure()


@st.composite
def wedge_tables(draw):
    """Rank <= 2 by construction; Jacobi mostly fails."""
    n = draw(st.integers(3, 6))
    return table(n, wedge(draw(small_polys(n, n)), draw(small_polys(n, n))))


@st.composite
def rank4_tables(draw):
    """X ^ Y + Z ^ W: rank 4 unless the planes meet."""
    n = draw(st.integers(4, 6))
    a = wedge(draw(small_polys(n, n)), draw(small_polys(n, n)))
    b = wedge(draw(small_polys(n, n)), draw(small_polys(n, n)))
    return table(n, {ij: a[ij] + b[ij] for ij in a})


@st.composite
def constant_tables(draw):
    """Always Poisson, mostly of rank 4 or 6."""
    n = draw(st.integers(4, 6))
    return table(n, {ij: PolyExpr.const(VARS[:n], draw(st.integers(-2, 2)))
                     for ij in combinations(range(n), 2)})


@st.composite
def jacobian_structures(draw):
    """Poisson and rank <= 2: the synthetic family at other seeds, as tables
    without their Casimirs, so that the pivot decides the pass."""
    ps = jacobian(draw(st.integers(3, 6)), draw(st.integers(0, 10 ** 6)))
    return table(ps.n, dict(ps.entries_upper()))


@st.composite
def perturbed_jacobian_structures(draw):
    """A Jacobian structure with one upper entry changed."""
    ps = draw(jacobian_structures())
    i, j = draw(st.sampled_from(list(combinations(range(ps.n), 2))))
    delta, = draw(small_polys(ps.n, 1).filter(lambda d: not d[0].is_zero()))
    entries = {ij: p for ij, p in ps.entries_upper()}
    entries[i, j] = entries[i, j] + delta
    return table(ps.n, entries)


@settings(max_examples=80, deadline=None)
@given(st.one_of(wedge_tables(), rank4_tables(), constant_tables(),
                 jacobian_structures(), perturbed_jacobian_structures()))
def test_reduced_verdicts_equal_full_enumeration(ps):
    assert_matches_full(ps)


@pytest.mark.parametrize("third", [2, 3])
def test_every_pivot_triple_is_checked(third):
    # {x1,x2} = 1 is the pivot (it ties {x1,x_k} = x1 at one term and comes
    # first); rank 2, and only the jacobiator on (x1, x2, x_k) is nonzero,
    # k being the first or the last of the pivot triples' third indices
    x1 = PolyExpr.var("x1", VARS[:4])
    ps = table(4, {(0, 1): PolyExpr.const(VARS[:4], 1), (0, third): x1})
    assert ps._rank2 == (True, (0, 1))
    assert plucker_rank2_test(ps).rank_le_2
    assert list(jacobi_witnesses(ps)) == [(0, 1, third, PolyExpr.const(VARS[:4], 1))]
    assert_matches_full(ps)


def test_pivot_triples_alone_miss_rank_four():
    # Pf(x1,x2,x3,x4) = x1: rank 4.  Both pivot triples vanish, yet Jacobi
    # fails on (x2, x3, x4), so a pass needs the rank test first
    one, x1 = PolyExpr.const(VARS[:4], 1), PolyExpr.var("x1", VARS[:4])
    ps = table(4, {(0, 1): one, (2, 3): x1})
    assert ps._rank2 == (False, (0, 1))
    assert jacobiator(ps, 0, 1, 2).is_zero() and jacobiator(ps, 0, 1, 3).is_zero()
    assert plucker_rank2_test(ps).witness == (0, 1, 2, 3)
    assert list(jacobi_witnesses(ps)) == [(1, 2, 3, -one)]
    assert_matches_full(ps)


def test_pivot_is_the_sparsest_entry_first_in_order():
    x1, x2, x3 = PolyExpr.gens(VARS[:3])
    assert table(3, {(0, 1): x1 + x2, (0, 2): x3, (1, 2): x1})._rank2 == (True, (0, 2))
    assert table(3, {})._rank2 == (True, None)
    assert list(jacobi_witnesses(table(3, {}))) == []


def test_rank_test_runs_once_per_structure(monkeypatch):
    calls = []
    real = structures.pfaffian
    monkeypatch.setattr(structures, "pfaffian",
                        lambda *args: calls.append(args) or real(*args))
    # the synthetic bracket without its Casimirs, so nothing certifies it
    ps = table(6, dict(jacobian(6, 1).entries_upper()))
    assert not ps.certified
    assert list(jacobi_witnesses(ps)) == [] and plucker_rank2_test(ps).rank_le_2
    assert len(calls) == 6          # C(4, 2) Pfaffians for both checks
