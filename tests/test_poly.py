"""Polynomial kernel: exact arithmetic, calculus, division, substitution."""

from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from ppa.errors import (DomainError, PolynomialGradeError, SingularMapError,
                        VariableSetError)
from ppa.poly import (MonomialMap, PolyExpr, exact_divisibility, substitute)

V3 = ("x1", "x2", "x3")


def gens3():
    return PolyExpr.gens(V3)


def markov_poly():
    x1, x2, x3 = gens3()
    return x1 ** 2 + x2 ** 2 + x3 ** 2 + x1 * x2 * x3 * 3


def torus_poly(k):
    x1, x2, x3 = gens3()
    return (x1 ** 3 + x2 ** 3 + x3 ** 3) / 3 + x1 * x2 * x3 * F(k)


# ---------------- arithmetic ----------------

def test_difference_of_squares():
    x1, x2, _ = gens3()
    assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2


def test_self_cancellation():
    p = markov_poly()
    assert (p - p).is_zero()


def test_torus_assembly():
    x1, x2, x3 = gens3()
    cubes = (x1 ** 3 + x2 ** 3 + x3 ** 3) / 3
    assert cubes + x1 * x2 * x3 * 2 == torus_poly(2)


def test_mismatched_variables_rejected():
    x1 = PolyExpr.var("x1", ("x1",))
    y1 = PolyExpr.var("y1", ("y1",))
    with pytest.raises(VariableSetError):
        x1 + y1


def test_constant_adapts_to_either_side():
    x1, _, _ = gens3()
    c = PolyExpr.const(("t",), F(5))
    assert x1 + c == x1 + 5
    assert c * x1 == x1 * 5


def test_zero_terms_pruned():
    x1, x2, _ = gens3()
    p = x1 * x2 - x1 * x2
    assert p.is_zero() and p.terms == {}


# ---------------- derivative ----------------

def test_markov_partial():
    x1, x2, x3 = gens3()
    assert markov_poly().diff("x3") == x3 * 2 + x1 * x2 * 3


def test_fractional_power_rule():
    x = PolyExpr(("x",), {(F(3, 2),): F(1)})
    d = x.diff("x")
    assert d == PolyExpr(("x",), {(F(1, 2),): F(3, 2)})


def test_affine_quartic_partial():
    v = ("X2", "X3", "X4")
    a2, a3, a4 = PolyExpr.gens(v)
    p = a3 ** 3 + a4 ** 3 - a2 ** 4 - a2 * a3 ** 3 + a2 * a4 ** 3 + 1
    assert p.diff("X4") == (a2 + 1) * a4 ** 2 * 3


@settings(max_examples=30, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3))
def test_product_rule_matches_sympy(c1, c2, e1, e2, e3):
    x1, x2, x3 = gens3()
    p = x1 ** e1 * x2 ** e2 * c1 + x3 ** e3 * c2 + x1 * x2
    q = x2 ** e3 * c2 + x1 * x3 * c1 - 1
    lhs = (p * q).diff("x2")
    rhs = p.diff("x2") * q + p * q.diff("x2")
    assert lhs == rhs
    s1, s2, s3 = sp.symbols("x1 x2 x3")
    sp_p = s1 ** e1 * s2 ** e2 * c1 + s3 ** e3 * c2 + s1 * s2
    sp_q = s2 ** e3 * c2 + s1 * s3 * c1 - 1
    expect = sp.expand(sp.diff(sp_p * sp_q, s2))
    got = sum(c * sp.Rational(1) * s1 ** m[0] * s2 ** m[1] * s3 ** m[2]
              for m, c in lhs.terms.items())
    assert sp.expand(got - expect) == 0


# ---------------- divisibility ----------------

def test_common_factor():
    x1, x2, x3 = gens3()
    ok, q = exact_divisibility(x1 ** 2 * x2 + x1 * x3, x1)
    assert ok and q == x1 * x2 + x3


def test_remainder_blocks():
    x1, _, _ = gens3()
    ok, q = exact_divisibility(x1 + 1, x1)
    assert not ok and q is None


def test_zero_dividend_divisible():
    x1, _, _ = gens3()
    ok, q = exact_divisibility(PolyExpr.zero(V3), x1)
    assert ok and q.is_zero()


def test_division_by_zero_rejected():
    x1, _, _ = gens3()
    with pytest.raises(DomainError):
        exact_divisibility(x1, PolyExpr.zero(V3))


def test_puiseux_dividend_rejected():
    p = PolyExpr(("x",), {(F(1, 2),): F(1)})
    with pytest.raises(PolynomialGradeError):
        exact_divisibility(p, PolyExpr.var("x", ("x",)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-3, 3)), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-3, 3)), min_size=1, max_size=4))
def test_product_always_divisible(ts1, ts2):
    def mk(ts):
        p = PolyExpr.zero(("a", "b"))
        for e1, e2, c in ts:
            p = p + PolyExpr(("a", "b"), {(e1, e2): F(c)})
        return p
    p, q = mk(ts1), mk(ts2)
    if q.is_zero():
        return
    ok, quot = exact_divisibility(p * q, q)
    assert ok and quot == p


# ---------------- evaluation ----------------

def test_markov_at_ones():
    assert markov_poly().eval_exact([1, 1, 1]) == 6


def test_torus_k2_at_ones():
    assert torus_poly(2).eval_exact([1, 1, 1]) == 3


def test_constant_term_at_origin():
    x1, _, _ = gens3()
    p = x1 ** 3 + 7
    assert p.eval_exact([0, 0, 0]) == 7


def test_float_eval_and_domain_error():
    p = PolyExpr(("x",), {(F(1, 2),): F(1)})
    assert p.eval_float([4.0]) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        p.eval_float([-4.0])
    with pytest.raises(DomainError):
        p.eval_exact([4])


def test_dimension_mismatch():
    with pytest.raises(VariableSetError):
        markov_poly().eval_exact([1, 1])


# ---------------- monomial maps ----------------

def map_a():
    return MonomialMap(V3, ("y1", "y2", "y3"),
                       [[1, 0, 0], [0, 1, F(-1, 2)], [0, 0, F(3, 2)]])


def map_b():
    return MonomialMap(V3, ("z1", "z2", "z3"),
                       [[F(-3, 4), F(3, 2), 0], [F(1, 4), F(-1, 2), 1],
                        [F(3, 2), 0, 0]])


def test_mirror_casimir_first_map():
    vy = ("y1", "y2", "y3")
    y1, y2, y3 = PolyExpr.gens(vy)
    expect = (y1 ** 3 + y2 ** 3 * y3 + y3 ** 2) / 3 + y1 * y2 * y3 * 2
    assert substitute(torus_poly(2), map_a()) == expect


def test_mirror_casimir_second_map():
    vz = ("z1", "z2", "z3")
    z1, z2, z3 = PolyExpr.gens(vz)
    expect = (z3 ** 2 + z1 ** 2 * z3 + z1 * z2 ** 3) / 3 + z1 * z2 * z3 * 2
    assert substitute(torus_poly(2), map_b()) == expect


def test_identity_map_is_identity():
    m = MonomialMap.identity(V3)
    p = markov_poly()
    assert substitute(p, m) == p


def test_singular_map_rejected():
    with pytest.raises(SingularMapError):
        MonomialMap(("x", "y"), ("u", "v"), [[1, 1], [2, 2]])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([[[1, 0, 0], [0, 1, F(-1, 2)], [0, 0, F(3, 2)]],
                        [[F(-3, 4), F(3, 2), 0], [F(1, 4), F(-1, 2), 1],
                         [F(3, 2), 0, 0]],
                        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                        [[2, 0, 0], [0, 1, 0], [1, 0, 1]]]),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(-3, 3))
def test_substitute_round_trip(rows, e1, e2, e3, c):
    m = MonomialMap(V3, ("u1", "u2", "u3"), rows)
    x1, x2, x3 = gens3()
    p = x1 ** e1 * x2 ** e2 * x3 ** e3 * c + x1 * 2 - x2 * x3
    there = substitute(p, m)
    back = substitute(there, m.inverse())
    assert back == p


def test_jacobian_constant_of_mirror_maps():
    assert map_a().jacobian_det_monomial() == F(3, 2)
    assert map_b().jacobian_det_monomial() == F(9, 4)


# ---------------- order, degrees, rendering ----------------

def test_graded_lex_leading_term():
    x1, x2, x3 = gens3()
    p = x1 * x2 + x3 ** 3 + x1
    mono, c = p.leading()
    assert mono == (0, 0, 3) and c == 1


def test_weighted_degree():
    v = ("x", "y", "z")
    x, y, z = PolyExpr.gens(v)
    p = z ** 2 - x ** 2 * y ** 2 - x
    assert p.weighted_degree((1, 1, 2)) == 4
    assert p.total_degree() == 4
    assert not p.is_weighted_homogeneous((1, 1, 2))


def test_homogeneous_component():
    x1, x2, _ = gens3()
    p = x1 ** 3 + x1 * x2 + 5
    assert p.homogeneous_component(3) == x1 ** 3
    assert p.homogeneous_component(2) == x1 * x2
    assert p.homogeneous_component(1).is_zero()


def test_render_canonical_forms():
    x1, x2, x3 = gens3()
    assert (x1 ** 2 - x2 / 3 + 5).render() == "x1^2 - 1/3*x2 + 5"
    assert PolyExpr.zero(V3).render() == "0"
    assert (-x1).render() == "-x1"
    frac = PolyExpr(V3, {(F(3, 2), 0, -2): F(2)})
    assert frac.render() == "2*x1^(3/2)*x3^(-2)"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.integers(0, 4),
                          st.fractions(min_value=-5, max_value=5)),
                min_size=0, max_size=6))
def test_render_parse_round_trip(terms):
    from ppa.dsl import parse_polynomial
    p = PolyExpr.zero(V3)
    for e1, e2, e3, c in terms:
        p = p + PolyExpr(V3, {(e1, e2, e3): c})
    text = p.render()
    assert parse_polynomial(text, V3) == p


def test_render_parse_fractional_exponents():
    from ppa.dsl import parse_polynomial
    p = PolyExpr(V3, {(F(3, 2), 0, 0): F(1), (0, F(-1, 2), 1): F(-2, 3)})
    assert parse_polynomial(p.render(), V3) == p


# ---------------- kernel oracle: sympy on random rational polynomials ----------------

SX = sp.symbols("x1 x2 x3", positive=True)
COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
INT_EXPS = st.integers(0, 3)
RAT_EXPS = st.sampled_from([F(-3, 2), F(-1), F(-1, 3), 0, F(1, 2), 1, F(3, 2), 2])


def polys(exps):
    return st.dictionaries(st.tuples(exps, exps, exps), COEFFS,
                           max_size=5).map(lambda d: PolyExpr(V3, d))


def pairs(exps):
    """(p, q) where q shares terms with -p half the time, so sums cancel."""
    return st.tuples(polys(exps), polys(exps), st.booleans()).map(
        lambda t: (t[0], t[1] - t[0] if t[2] else t[1]))


def to_sympy(p):
    return sum((sp.Rational(c.numerator, c.denominator)
                * sp.Mul(*[s ** sp.Rational(e) for s, e in zip(SX, m)])
                for m, c in p.terms.items()), sp.Integer(0))


def same(p, expr):
    return sp.expand(to_sympy(p) - expr) == 0


def assert_canonical(p):
    """The stored form is unique: rebuilding from the Fraction view gives an
    equal value with an equal hash, and every coefficient is a Fraction."""
    q = PolyExpr(p.vars, p.terms)
    assert q == p and hash(q) == hash(p)
    assert all(type(c) is F and c != 0 for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.one_of(pairs(INT_EXPS), pairs(RAT_EXPS)))
def test_ring_operations_match_sympy(pq):
    p, q = pq
    sp_p, sp_q = to_sympy(p), to_sympy(q)
    for got, want in ((p + q, sp_p + sp_q), (p - q, sp_p - sp_q),
                      (q - p, sp_q - sp_p), (p * q, sp_p * sp_q),
                      (p * F(-2, 3), sp_p * sp.Rational(-2, 3)), (-q, -sp_q)):
        assert same(got, sp.expand(want))
        assert_canonical(got)
    assert (p - p).is_zero() and (p + q) - q == p


@settings(max_examples=40, deadline=None)
@given(st.one_of(polys(INT_EXPS), polys(RAT_EXPS)), st.integers(0, 3))
def test_diff_and_power_match_sympy(p, k):
    for v, s in zip(V3, SX):
        d = p.diff(v)
        assert same(d, sp.expand(sp.diff(to_sympy(p), s)))
        assert_canonical(d)
    pk = p ** k
    assert same(pk, sp.expand(to_sympy(p) ** k))
    assert_canonical(pk)


@settings(max_examples=40, deadline=None)
@given(polys(INT_EXPS), st.lists(st.fractions(min_value=-4, max_value=4,
                                              max_denominator=5),
                                 min_size=3, max_size=3))
def test_eval_exact_matches_sympy(p, point):
    got = p.eval_exact(point)
    assert type(got) is F
    want = to_sympy(p).subs({s: sp.Rational(x.numerator, x.denominator)
                             for s, x in zip(SX, point)})
    assert got == F(int(sp.numer(want)), int(sp.denom(want)))


@settings(max_examples=30, deadline=None)
@given(polys(st.integers(-2, 2)), st.lists(st.sampled_from(
    [F(-3, 2), F(-1), F(1, 3), F(2), F(5, 4)]), min_size=3, max_size=3))
def test_eval_exact_laurent_matches_sympy(p, point):
    want = to_sympy(p).subs({s: sp.Rational(x.numerator, x.denominator)
                             for s, x in zip(SX, point)})
    assert p.eval_exact(point) == F(int(sp.numer(want)), int(sp.denom(want)))


@settings(max_examples=30, deadline=None)
@given(polys(INT_EXPS), polys(INT_EXPS))
def test_subs_var_matches_sympy(p, value):
    got = p.subs_var("x2", value)
    assert same(got, sp.expand(to_sympy(p).subs(SX[1], to_sympy(value))))
    assert_canonical(got)


def test_eval_exact_refuses_fractional_exponents():
    p = PolyExpr(V3, {(F(1, 2), 0, 0): F(2, 3), (1, 0, 0): F(1)})
    with pytest.raises(DomainError):
        p.eval_exact([4, 1, 1])


@settings(max_examples=40, deadline=None)
@given(st.one_of(polys(INT_EXPS), polys(RAT_EXPS)), st.integers(-3, 3))
def test_exact_accessors_return_fractions(p, k):
    # callers divide these (rc / qc in exact_divisibility): an int would let
    # true division turn a verdict into a float
    c = p * k + k
    assert all(type(v) is F for v in c.terms.values())
    assert type(c.coefficient((0, 0, 0))) is F
    assert type(c.coefficient((7, 7, 7))) is F
    assert type(PolyExpr.const(V3, k).constant_value()) is F
    assert type(PolyExpr.zero(V3).constant_value()) is F
    if not c.is_zero():
        assert type(c.leading()[1]) is F


def _reference_product(p, q):
    """The Fraction-coefficient accumulation the kernel must reproduce term
    for term, order included: a sum that cancels drops its key."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, F(0)) + c1 * c2
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


@settings(max_examples=60, deadline=None)
@given(pairs(INT_EXPS))
# x1*x2 cancels (x1 * x2 - x2 * x1) and then comes back (1 * x1*x2): it
# must move to the end of the product
@example((gens3()[0] + gens3()[1] + 1, gens3()[1] - gens3()[0] + gens3()[0] * gens3()[1]))
def test_term_order_follows_fraction_accumulation(pq):
    p, q = pq
    assert list((p * q).terms.items()) == list(_reference_product(p, q).items())
    total = dict(p.terms)
    for m, c in q.terms.items():
        s = total.get(m, F(0)) + c
        if s == 0:
            total.pop(m)
        else:
            total[m] = s
    assert list((p + q).terms.items()) == list(total.items())


def test_terms_view_is_read_only():
    p = markov_poly()
    with pytest.raises(TypeError):
        p.terms[(0, 0, 0)] = F(1)
    assert p == markov_poly()
