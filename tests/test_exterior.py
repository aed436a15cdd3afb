"""Exterior algebra: the reference wedge and duality signs of ``oracles``,
and the library's Pfaffians."""

import random
from itertools import combinations

import pytest
import sympy as sp
from oracles import (PolyForm, PolyMultivector, differential, one_form, volume_dual,
                     wedge, wedge_all, wedge_power)
from ppa.errors import ArityError
from ppa.exterior import mask_of, pfaffian
from ppa.poly import PolyExpr

V3 = ("x1", "x2", "x3")
V5 = ("x1", "x2", "x3", "x4", "x5")


def dx(i, variables=V3):
    coeffs = [PolyExpr.zero(variables)] * len(variables)
    coeffs[i] = PolyExpr.const(variables, 1)
    return one_form(variables, coeffs)


def test_dx1_wedge_dx2():
    w = wedge(dx(0), dx(1))
    assert w.coefficient((0, 1)) == 1
    assert len(w.coeffs) == 1


def test_square_vanishes():
    assert wedge(dx(0), dx(0)).is_zero()


def test_anticommutativity():
    a, b = dx(0), dx(1)
    assert wedge(a, b).coefficient((0, 1)) == -wedge(b, a).coefficient((0, 1))


def test_grade_overflow_is_zero():
    w = wedge_all([dx(0), dx(1), dx(2)])
    assert wedge(w, dx(0)).is_zero()


def _random_form(rng, variables, grade):
    n = len(variables)
    coeffs = {}
    for sub in combinations(range(n), grade):
        c = rng.randint(-3, 3)
        if c:
            coeffs[mask_of(sub)] = PolyExpr.const(variables, c) \
                + PolyExpr.var(variables[rng.randrange(n)], variables) * rng.randint(-2, 2)
    return PolyForm(variables, grade, coeffs)


def test_wedge_associativity_randomized():
    rng = random.Random(7)
    for _ in range(12):
        a = _random_form(rng, V5, 1)
        b = _random_form(rng, V5, 1)
        c = _random_form(rng, V5, 2)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_volume_dual_n3():
    d = volume_dual(dx(2))
    assert isinstance(d, PolyMultivector)
    assert d.coefficient((0, 1)) == 1


def test_volume_dual_n2_signs():
    v2 = ("x1", "x2")
    assert volume_dual(dx(0, v2)).coefficient((1,)) == 1
    assert volume_dual(dx(1, v2)).coefficient((0,)) == -1


def test_double_dual_sign_law():
    rng = random.Random(3)
    n = 5
    for grade in (1, 2, 3):
        w = _random_form(rng, V5, grade)
        dd = volume_dual(volume_dual(w))
        sign = (-1) ** (grade * (n - grade))
        assert dd == (w if sign > 0 else w.scaled(-1))


def test_pfaffian_2x2():
    p = PolyExpr.var("x1", V3)
    m = [[PolyExpr.zero(V3), p], [-p, PolyExpr.zero(V3)]]
    assert pfaffian(m, (0, 1)) == p


def _antisym_matrix(rng, variables, n):
    zero = PolyExpr.zero(variables)
    m = [[zero for _ in range(n)] for _ in range(n)]
    gens = PolyExpr.gens(variables)
    for i in range(n):
        for j in range(i + 1, n):
            e = PolyExpr.const(variables, rng.randint(-3, 3)) \
                + gens[rng.randrange(len(gens))] * rng.randint(-2, 2)
            m[i][j] = e
            m[j][i] = -e
    return m


def test_pfaffian_4x4_classical_formula():
    rng = random.Random(11)
    m = _antisym_matrix(rng, V5, 4)
    expect = (m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2])
    assert pfaffian(m, (0, 1, 2, 3)) == expect


def test_pfaffian_squares_to_determinant():
    rng = random.Random(5)
    m = _antisym_matrix(rng, V5, 4)
    sym = sp.symbols("x1:6")
    def to_sp(p):
        return sum(sp.Rational(c) * sp.prod([sym[i] ** e for i, e in enumerate(mono)])
                   for mono, c in p.terms.items())
    mat = sp.Matrix(4, 4, lambda i, j: to_sp(m[i][j]))
    pf = to_sp(pfaffian(m, (0, 1, 2, 3)))
    assert sp.expand(pf ** 2 - mat.det()) == 0


def test_pfaffian_odd_reorder_flips_sign():
    rng = random.Random(13)
    m = _antisym_matrix(rng, V5, 4)
    base = pfaffian(m, (0, 1, 2, 3))
    assert pfaffian(m, (1, 0, 2, 3)) == -base
    assert pfaffian(m, (1, 2, 3, 0)) == -base       # 4-cycle is odd
    assert pfaffian(m, (2, 3, 0, 1)) == base        # double transposition


def test_pfaffian_odd_size_rejected():
    m = _antisym_matrix(random.Random(1), V5, 4)
    with pytest.raises(ArityError):
        pfaffian(m, (0, 1, 2))


def test_wedge_power_coefficient_is_factorial_times_pfaffian():
    rng = random.Random(17)
    n = 5
    m = _antisym_matrix(rng, V5, n)
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if not m[i][j].is_zero():
                coeffs[mask_of((i, j))] = m[i][j]
    pi = PolyMultivector(V5, 2, coeffs)
    sq = wedge_power(pi, 2)
    for sub in combinations(range(n), 4):
        assert sq.coefficient(sub) == pfaffian(m, sub) * 2


def test_differential():
    x1, x2, x3 = PolyExpr.gens(V3)
    d = differential(x1 * x2 + x3 ** 2)
    assert d.coefficient((0,)) == x2
    assert d.coefficient((1,)) == x1
    assert d.coefficient((2,)) == x3 * 2
