"""Polynomial kernel: exact arithmetic, calculus, division, substitution."""

import math
import struct
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from ppa import poly
from ppa.dsl import parse_polynomial
from ppa.errors import (DomainError, PolynomialGradeError, SingularMapError,
                        VariableSetError)
from ppa.geometry import chart_compare
from ppa.poly import (MAX_EXPONENT, MonomialMap, PolyExpr, exact_divisibility,
                      float_evaluator, substitute)
from ppa.structures import PoissonStructure, is_casimir, jacobiator

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

@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_gens_are_the_variables(n):
    v = tuple(f"y{i}" for i in range(n))
    assert PolyExpr.gens(v) == tuple(PolyExpr.var(x, v) for x in v)
    assert [list(g._num.items()) for g in PolyExpr.gens(v)] == \
        [list(PolyExpr.var(x, v)._num.items()) for x in v]


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


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__"])
def test_a_constant_over_no_variables_adapts_in_either_order(op):
    k = PolyExpr.const((), F(2))
    for other in (PolyExpr.const(("x", "y"), 3), PolyExpr.var("x", ("x", "y"))):
        assert getattr(k, op)(other).vars == ("x", "y")
        assert getattr(other, op)(k).vars == ("x", "y")
    # between constants over variables the left operand's set still wins
    t = PolyExpr.const(("t",), 1)
    assert getattr(t, op)(PolyExpr.const(("x", "y"), 3)).vars == ("t",)


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
    m = MonomialMap(V3, V3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    p = markov_poly()
    assert substitute(p, m) == p


def test_singular_map_rejected():
    with pytest.raises(SingularMapError):
        MonomialMap(("x", "y"), ("u", "v"), [[1, 1], [2, 2]])


@pytest.mark.parametrize("old, new", [(V3, ("y1", "y1", "y3")),
                                      (("x1", "x2", "x1"), ("y1", "y2", "y3"))])
def test_repeated_map_names_rejected(old, new):
    with pytest.raises(VariableSetError, match="named twice"):
        MonomialMap(old, new, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_map_caches_are_the_computed_values():
    m = MonomialMap(("x",), ("y",), [[2]], scales=[F(4)])     # y = 4x^2
    assert m.jacobian_det_monomial() is m.jacobian_det_monomial()
    assert m.jacobian_det_monomial() == PolyExpr(("x",), {(1,): F(8)})
    assert m.inverse().scales == (F(1, 2),)                   # x = (y/4)^(1/2)


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
    assert {sum(w * e for w, e in zip((1, 1, 2), m)) for m in p.terms} == {1, 4}


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
    assert p.term_count == len(p.terms)
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


@settings(max_examples=80, deadline=None)
@given(polys(INT_EXPS), polys(INT_EXPS), polys(INT_EXPS), st.booleans())
def test_divisibility_matches_sympy(p, q, r, exact):
    # a single divisor is a Groebner basis of its ideal, so the remainder
    # of sympy's division is zero iff q divides
    if q.is_zero():
        return
    a = p * q if exact else p * q + r
    ok, quot = exact_divisibility(a, q)
    assert ok == (sp.expand(sp.rem(to_sympy(a), to_sympy(q), *SX)) == 0)
    if ok:
        assert quot * q == a
        assert_canonical(quot)
    else:
        assert quot is None


def test_division_near_max_exponent():
    # lex order takes x1 as the divisor's leading term: an exact quotient
    # stays within the dividend's exponents, and an inexact one whose next
    # step would need x2^60000 is refused, not raised
    x1, x2, _ = gens3()
    assert exact_divisibility(x1 ** 2 - x2 ** 32000, x1 - x2 ** 16000) == \
        (True, x1 + x2 ** 16000)
    assert exact_divisibility(x1 ** 2, x1 - x2 ** 30000) == (False, None)


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


# ---------------- compiled float evaluation: bitwise against eval_float ----------------

def mostly(common, rare):
    """``common`` nine times in ten, ``rare`` otherwise."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else common)


# Ordinary rationals, 1 and -1 (which the compiled form drops or folds into
# the sum), and now and then one that is subnormal or zero as a float
# (10^-330 .. 10^-300) or large enough to overflow a product or the
# conversion itself (10^300 .. 10^330).
FLOAT_COEFFS = mostly(
    st.one_of(st.sampled_from([F(1), F(-1)]),
              st.fractions(min_value=-1000, max_value=1000,
                           max_denominator=1000).filter(bool)),
    st.builds(lambda n, k: F(n) * F(10) ** k, st.integers(-9, 9).filter(bool),
              st.one_of(st.integers(-330, -300), st.integers(300, 330))))
# a quiet NaN with a payload: an operation on two NaNs keeps the bits of one
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
# Signed zeros and infinities, NaNs of either sign, subnormals, and values
# whose square (1e200, -1e155) or sixth power (1e100) overflows.
FLOAT_POINT_VALUES = mostly(
    st.floats(-10, 10),
    st.sampled_from([0.0, -0.0, -1.0, 1e100, -1e100, 3e-120, 1e200, -1e155,
                     5e-324, -2.5e-310, math.inf, -math.inf, math.nan, -math.nan,
                     PAYLOAD_NAN]))


def float_case(n):
    variables = tuple(f"x{i + 1}" for i in range(n))
    poly = st.dictionaries(st.tuples(*[st.integers(0, 6)] * n), FLOAT_COEFFS,
                           max_size=30).map(lambda d: PolyExpr(variables, d))
    return st.tuples(st.just(variables), st.lists(poly, min_size=1, max_size=3),
                     st.lists(FLOAT_POINT_VALUES, min_size=n, max_size=n))


def float_outcome(evaluate, point=()):
    """Each value's IEEE bytes (so -0.0, inf and nan count), or the type of
    the arithmetic exception raised instead.  At a ``point`` holding a NaN,
    any NaN value reads ``"nan"``: of two NaN operands with different bits,
    CPython's float add keeps the first or the second depending on whether
    the instruction has been specialized, so ``eval_float``'s own NaN bits
    change after its first calls.  Every NaN the arithmetic makes itself
    has the same bits, so elsewhere they are compared."""
    nan_bits = not any(map(math.isnan, point))
    try:
        return [struct.pack("d", v) if nan_bits or v == v else "nan"
                for v in evaluate()]
    except ArithmeticError as e:
        return type(e)


def _float_example(terms, point):
    """A case of one polynomial in len(point) variables, ``terms`` as
    {exponents: coefficient}."""
    variables = tuple(f"x{i + 1}" for i in range(len(point)))
    return (variables, [PolyExpr(variables, terms)], point)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(float_case))
# -x1*x2 at x1 = 0.0 is -0.0, which the first sum turns into +0.0
@example(_float_example({(1, 1): F(-1)}, [0.0, 1.0]))
@example(_float_example({(1, 1): F(-1), (0, 2): F(1)}, [-0.0, 2.5]))
# a NaN sum meets a NaN term of another sign or payload
@example(_float_example({(1, 0): F(1), (0, 1): F(-1)}, [math.nan, -math.nan]))
@example(_float_example({(1, 0): F(1), (1, 1): F(-1)}, [PAYLOAD_NAN, math.inf]))
@example(_float_example({(1, 0): F(-1), (0, 1): F(1)}, [math.inf, -math.inf]))
# x1 ** 2 overflows after an exponent-1 factor, in a term and in a first term
@example(_float_example({(0, 1): F(1), (2, 1): F(-1)}, [1e200, 2.0]))
@example(_float_example({(2, 1): F(1)}, [-1e155, math.nan]))
def test_float_evaluator_bitwise_matches_eval_float(case):
    variables, ps, point = case
    want = float_outcome(lambda: [p.eval_float(point) for p in ps], point)
    got = float_outcome(lambda: float_evaluator(ps, variables)(point), point)
    assert got == want


def test_float_evaluator_compiles_many_terms():
    x1, x2 = PolyExpr.gens(("x1", "x2"))
    p = sum((x1 ** i * x2 ** j * F(2 * i - 7, j + 2)
             for i in range(20) for j in range(15)), PolyExpr.zero(("x1", "x2")))
    assert len(p.terms) == 300
    f = float_evaluator([p, -p], p.vars)
    point = [0.9, -1.05]
    assert f(point) == [p.eval_float(point), (-p).eval_float(point)]


def test_float_evaluator_refuses_fractional_exponents():
    p = PolyExpr(("x",), {(F(1, 2),): F(1)})
    with pytest.raises(PolynomialGradeError):
        float_evaluator([p], p.vars)


# ---------------- packed exponent keys: a tuple/Fraction reference ----------------

MAX_E = MAX_EXPONENT
HALF = MAX_E // 2
# Small exponents, and now and then one near MAX_EXPONENT / 2, so that
# products and squares reach the limit from both sides.
PACK_EXPS = mostly(st.integers(0, 3), st.integers(HALF - 2, HALF + 1))


def packed_case(n):
    """(variables, p, q, point): p and q as dicts over n variables, q sharing
    terms with -p half the time."""
    variables = tuple(f"x{i + 1}" for i in range(n))
    terms = st.dictionaries(st.tuples(*[PACK_EXPS] * n), COEFFS, max_size=5)
    point = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                     min_size=n, max_size=n)
    return st.tuples(st.just(variables), terms, terms, st.booleans(), point).map(
        lambda t: (t[0], t[1], _ref_add(t[2], t[1], -1) if t[3] else t[2], t[4]))


def _ref_add(p, q, sign):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, F(0)) + sign * c
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, F(0)) + c1 * c2
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _ref_pow(p, k, n):
    out = {(0,) * n: F(1)}
    for _ in range(k):
        out = _ref_mul(out, p)
    return out


def _ref_diff(p, i):
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in p.items() if m[i]}


def _ref_eval(p, point):
    total = F(0)
    for m, c in p.items():
        for x, e in zip(point, m):
            c *= x ** e
        total += c
    return total


def agrees(got, want, ordered=True):
    """``got`` (a PolyExpr, or the exception it raised) against the reference
    dict: equal terms, in the same order when ``ordered``, or DomainError
    exactly when the reference has an exponent past MAX_EXPONENT."""
    if max((e for m in want for e in m), default=0) > MAX_E:
        return isinstance(got, DomainError)
    if not isinstance(got, PolyExpr):
        return False
    assert_canonical(got)
    if ordered:
        return list(got.terms.items()) == list(want.items())
    return dict(got.terms) == want


def outcome(fn):
    try:
        return fn()
    except DomainError as e:
        return e


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(packed_case), st.integers(0, 3))
# in p * q, x1*x2 cancels (x1 * x2 - x2 * x1) and then comes back
# (1 * x1*x2): it must move to the end
@example((V3, {(1, 0, 0): F(1), (0, 1, 0): F(1), (0, 0, 0): F(1)},
          {(0, 1, 0): F(1), (1, 0, 0): F(-1), (1, 1, 0): F(1)}, [F(1), F(2), F(3)]), 2)
# a single term takes the direct power path
@example((V3, {(1, 0, 2): F(-2, 3)}, {(0, 1, 0): F(1)}, [F(1), F(2), F(3)]), 3)
def test_packed_kernel_matches_tuple_reference(case, k):
    variables, dp, dq, point = case
    n = len(variables)
    p, q = PolyExpr(variables, dp), PolyExpr(variables, dq)
    assert p.is_polynomial_grade() and q.is_polynomial_grade()
    assert agrees(p + q, _ref_add(dp, dq, 1))
    assert agrees(p - q, _ref_add(dp, dq, -1))
    assert agrees(outcome(lambda: p * q), _ref_mul(dp, dq))
    assert agrees(outcome(lambda: q * p), _ref_mul(dq, dp))
    assert agrees(outcome(lambda: p ** k), _ref_pow(dp, k, n), ordered=False)
    for i, v in enumerate(variables):
        assert agrees(p.diff(v), _ref_diff(dp, i))
    if max((e for m in dp for e in m), default=0) <= 3:
        assert p.eval_exact(point) == _ref_eval(dp, point)
    # reversed variables, plus one unused variable in front
    wider = ("w",) + variables[::-1]
    assert agrees(p.with_vars(wider), {(0,) + m[::-1]: c for m, c in dp.items()})
    assert p.with_vars(wider).with_vars(variables) == p
    if max((m[0] for m in dp), default=0) <= 3:
        # x1 -> q, expanded in the reference by repeated products
        subbed = {}
        for m, c in dp.items():
            term = _ref_mul({(0,) + m[1:]: c}, _ref_pow(dq, m[0], n))
            subbed = _ref_add(subbed, term, 1)
        assert agrees(outcome(lambda: p.subs_var(variables[0], q)), subbed,
                      ordered=False)


def test_laurent_result_that_is_polynomial_equals_direct_value():
    x1, x2, x3 = gens3()
    root = PolyExpr(V3, {(F(1, 2), 0, 0): F(1)})
    inverse = PolyExpr(V3, {(-1, 0, 0): F(2)})
    for laurent, direct in ((root * root, x1),
                            (inverse * x1 ** 2 * x2, x1 * x2 * 2),
                            (root + x3 - root, x3),
                            (PolyExpr(V3, {(F(1, 2), 1, 0): F(1)}) ** 4, x1 ** 2 * x2 ** 4),
                            (PolyExpr(V3, {(F(3, 2), 0, 0): F(2, 3)}).diff("x1")
                             * root, x1),
                            (PolyExpr(V3, {(F(4, 2), F(0), 1): F(1)}), x1 ** 2 * x3)):
        assert laurent.is_polynomial_grade()
        assert laurent == direct and hash(laurent) == hash(direct)
        assert list(laurent.terms) == list(direct.terms)


def test_exponent_limit_in_construction():
    assert PolyExpr(V3, {(0, MAX_E, 0): F(1)}) == gens3()[1] ** MAX_E
    with pytest.raises(DomainError):
        PolyExpr(V3, {(0, MAX_E + 1, 0): F(1)})
    # a Laurent or Puiseux value keeps the same limit, on |e| and on the
    # reduced denominator
    for mono, bad in (((-1, MAX_E + 1, 0), MAX_E + 1), ((0, 0, -MAX_E - 1), -MAX_E - 1),
                      ((F(1, MAX_E + 1), 0, 0), F(1, MAX_E + 1))):
        with pytest.raises(DomainError) as info:
            PolyExpr(V3, {mono: F(1)})
        assert str(info.value) == f"exponent {bad} exceeds MAX_EXPONENT = {MAX_E}"
    assert PolyExpr(V3, {(-MAX_E, F(1, MAX_E), F(2 * MAX_E - 1, 2)): F(1)}).terms == \
        {(-MAX_E, F(1, MAX_E), F(2 * MAX_E - 1, 2)): F(1)}


def test_exponent_limit_in_products():
    x1, x2, x3 = gens3()
    top = x3 ** MAX_E
    assert (x3 ** (MAX_E - 1) * x3).terms == top.terms
    assert (top * x2 ** MAX_E).terms == {(0, MAX_E, MAX_E): F(1)}
    # x3 sits in the lowest field: one more must raise, not carry into x2
    for a, b in ((top, x3), (x3, top), (top, x3 + x1),
                 (x3 ** HALF, x3 ** (HALF + 2))):
        with pytest.raises(DomainError):
            a * b
    root = PolyExpr(V3, {(0, 0, F(1, 2)): F(1)})
    assert root * PolyExpr(V3, {(0, 0, F(2 * MAX_E - 1, 2)): F(1)}) == top
    with pytest.raises(DomainError):
        root * PolyExpr(V3, {(0, 0, F(2 * MAX_E + 1, 2)): F(1)})


def test_exponent_limit_in_powers():
    x1, x2, x3 = gens3()
    assert (x1 ** MAX_E).terms == {(MAX_E, 0, 0): F(1)}
    assert ((x1 * x2 ** 2) ** HALF).terms == {(HALF, 2 * HALF, 0): F(1)}
    assert PolyExpr.const(V3, 1) ** MAX_E == 1
    # refused before any multiplication, so a large base costs nothing
    for base, k in ((x1, MAX_E + 1), (x1 * x2 ** 2, HALF + 1),
                    (x1 + x2 + x3, MAX_E + 1), (PolyExpr.const(V3, 2), MAX_E + 1),
                    ((x1 + x2 + x3) ** 3, HALF)):
        with pytest.raises(DomainError):
            base ** k


def test_off_grade_powers_are_refused_before_multiplying(monkeypatch):
    products = []
    product = poly._product
    monkeypatch.setattr(poly, "_product", lambda a, b: products.append(1) or product(a, b))
    for base, k, top in ((PolyExpr(V3, {(F(3, 2), 0, 0): 1}), 30000, 45000),
                         (PolyExpr(V3, {(-2, 0, 0): 1, (0, 0, F(1, 2)): 1}), HALF + 1,
                          -2 * (HALF + 1)),
                         (PolyExpr(V3, {(F(3, 2), -1, 0): 2}), 21845, F(2 * MAX_E + 1, 2))):
        with pytest.raises(DomainError) as info:
            base ** k
        assert str(info.value) == \
            f"exponent {abs(top)} of the power exceeds MAX_EXPONENT = {MAX_E}"
    assert not products
    # half of 30000 is within the limit, and the power is polynomial-grade
    assert PolyExpr(V3, {(F(1, 2), 0, 0): 1}) ** 30000 == gens3()[0] ** 15000
    assert products


def test_values_built_from_judged_exponents_judge_none(monkeypatch):
    terms = {(i - 1000, i % 7, F(1, 2)): i + 1 for i in range(2000)}
    p, rows = PolyExpr(V3, terms), {}
    for m, c in terms.items():
        rows.setdefault(sum(m), {})[m] = c
    calls = []
    outside = poly._outside
    monkeypatch.setattr(poly, "_outside", lambda e: calls.append(e) or outside(e))
    wide, q = ("w",) + V3[::-1], PolyExpr(V3, {(1, 1, 0): 2, (0, 0, F(1, 2)): 1})
    del calls[:]
    built = [-p, p * 3, p / 4, p.with_vars(wide), q.homogeneous_component(2)]
    built += [p.homogeneous_component(degree) for degree in list(rows)[::300]]
    assert not calls
    assert built[:4] == [PolyExpr(V3, {m: -c for m, c in terms.items()}),
                         PolyExpr(V3, {m: 3 * c for m, c in terms.items()}),
                         PolyExpr(V3, {m: F(c, 4) for m, c in terms.items()}),
                         PolyExpr(wide, {(0,) + m[::-1]: c for m, c in terms.items()})]
    # a polynomial-grade component of an off-grade value is packed
    assert built[4] == gens3()[0] * gens3()[1] * 2 and built[4].is_polynomial_grade()
    assert built[5:] == [PolyExpr(V3, rows[degree]) for degree in list(rows)[::300]]
    del calls[:]
    PolyExpr(V3, {(F(1, 2), 0, 0): 1})              # a fresh value is judged
    assert calls


# Off-grade exponents at the limit: +-MAX_EXPONENT, MAX_EXPONENT - 1/2 and
# denominators near MAX_EXPONENT, and now and then one just past it.
EDGE_EXPS = mostly(st.sampled_from([0, 1, -1, F(1, 2), HALF, MAX_E, -MAX_E, MAX_E - F(1, 2),
                                    F(1, 2) - MAX_E, F(1, MAX_E), F(-1, MAX_E - 1),
                                    F(MAX_E - 1, MAX_E)]),
                   st.sampled_from([MAX_E + 1, -MAX_E - 1, F(1, MAX_E + 1)]))
# unimodular scales only, so that every coefficient stays rational
EDGE_MAPS = st.sampled_from([[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                             [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
                             [[2, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]],
                             [[1, 1, 0], [0, 1, 0], [0, 0, -1]]])


def within_the_limit(build):
    """``build()``: either ``DomainError`` naming MAX_EXPONENT (then None), or
    a value whose exponents all keep the limit and whose rendering reads
    back to it."""
    try:
        p = build()
    except DomainError as e:
        assert "MAX_EXPONENT" in str(e)
        return None
    assert all(abs(e) <= MAX_E and F(e).denominator <= MAX_E for m in p.terms for e in m)
    assert parse_polynomial(p.render(), p.vars) == p
    return p


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.tuples(EDGE_EXPS, EDGE_EXPS, EDGE_EXPS), COEFFS,
                                min_size=1, max_size=3), min_size=2, max_size=2),
       st.integers(0, 3), st.sampled_from(V3), EDGE_MAPS, EDGE_EXPS)
def test_every_value_keeps_the_exponent_limit(dicts, k, var, rows, e):
    p, q = (within_the_limit(lambda d=d: PolyExpr(V3, d)) for d in dicts)
    if p is None or q is None:
        return
    within_the_limit(lambda: p * q)
    within_the_limit(lambda: p + q)
    within_the_limit(lambda: p ** k)
    within_the_limit(lambda: p.diff(var))
    within_the_limit(lambda: p.with_vars(("w",) + V3[::-1]))
    within_the_limit(lambda: substitute(p, MonomialMap(V3, ("y1", "y2", "y3"), rows)))
    # a DSL power of the first monomial, coefficient 1
    mono = PolyExpr(V3, {next(iter(p.terms)): 1}).render()
    within_the_limit(lambda: parse_polynomial(f"({mono})^({e})", V3))


def test_term_limit_in_powers(monkeypatch):
    # about 2.9e9 terms: refused at the squaring of the 8th power, 1287 x
    # 1287 terms, the first product over the work budget
    y = PolyExpr.gens([f"y{i}" for i in range(6)])
    with pytest.raises(DomainError, match="MAX_WORK = 1000000"):
        sum(y[1:], y[0]) ** 200
    x1, x2, x3 = gens3()
    # 3 x 3 term pairs for the square, then 3 x 6 for the cube
    monkeypatch.setattr(poly, "MAX_WORK", 18)
    assert (x1 + x2 + x3) ** 3 == (x1 + x2 + x3) * (x1 + x2 + x3) ** 2
    with pytest.raises(DomainError):
        (x1 + x2 + x3) ** 4       # squares the 6-term square: 36 units
    # 4 x 4 for the square, then 4 x 7 for the cube
    x, = PolyExpr.gens(("x",))
    q = x + x ** 2 + x ** 3 + x ** 4
    monkeypatch.setattr(poly, "MAX_WORK", 28)
    assert (q ** 3).term_count == 10
    monkeypatch.setattr(poly, "MAX_WORK", 27)
    with pytest.raises(DomainError):
        q ** 3


def test_term_limit_in_products(monkeypatch):
    # 6188 x 6188 terms of degree 12 and 42: refused before anything is
    # multiplied
    y = PolyExpr.gens([f"y{i}" for i in range(6)])
    a = sum(y[1:], y[0]) ** 12
    with pytest.raises(DomainError, match="6188 x 6188 terms and coefficients of 23 and "
                                          "23 bits costs 38291344 units, more than "
                                          "MAX_WORK = 1000000"):
        a * (a * y[0] ** 30)
    with pytest.raises(DomainError, match="MAX_WORK"):
        poly._sum_of_products(a.vars, [(y[0], y[1]), (a, a * y[0] ** 30)])
    x1, x2, x3 = gens3()
    s = x1 + x2 + x3
    monkeypatch.setattr(poly, "MAX_WORK", 18)
    # 3 x 6 term pairs of small coefficients, 18 units
    assert (s * s ** 2).term_count == 10
    assert poly._sum_of_products(V3, [(s, s ** 2)]) == s ** 3
    with pytest.raises(DomainError):
        s * (s + 1) ** 2          # 3 x 10
    with pytest.raises(DomainError):
        poly._sum_of_products(V3, [(s, (s + 1) ** 2)])
    # a power costs what its own products cost: 3 x 3, then 3 x 6
    p = x1 ** 9 + x2 ** 9 + x3 ** 9
    assert (p ** 3).term_count == 10 and p * p ** 2 == p ** 3
    monkeypatch.setattr(poly, "MAX_WORK", 17)
    with pytest.raises(DomainError):
        p ** 3
    with pytest.raises(DomainError):
        p * p ** 2
    # a Laurent factor has the same budget
    z = PolyExpr(V3, {(F(1, 2), 0, 0): 1, (0, F(1, 2), 0): 1, (0, 0, -1): 1})
    with pytest.raises(DomainError):
        z * (s * s)


def test_term_pair_limit(monkeypatch):
    # (y0+...+y5)^24: the squaring of its 16th power takes 1287 x 1287 term
    # pairs, refused before it multiplies
    y = PolyExpr.gens([f"y{i}" for i in range(6)])
    s = sum(y[1:], y[0])
    with pytest.raises(DomainError, match="1287 x 1287 terms and coefficients of 14 and "
                                          "14 bits costs 1656369 units, more than "
                                          "MAX_WORK = 1000000"):
        s ** 24                   # the squaring of the 16th power
    x1, x2, x3 = gens3()
    t = x1 + x2 + x3
    monkeypatch.setattr(poly, "MAX_WORK", 9)
    assert (t * t).term_count == 6
    with pytest.raises(DomainError, match="3 x 6 terms"):
        t * t ** 2
    with pytest.raises(DomainError, match="MAX_WORK = 9"):
        t ** 4                    # squares the 6-term square
    assert poly._sum_of_products(V3, [(t, t), (x1, t ** 2)]) == t * t + x1 * t ** 2
    with pytest.raises(DomainError, match="3 x 6 terms"):
        poly._sum_of_products(V3, [(t, t), (t ** 2, t)])
    # a Laurent product has the same budget
    z = PolyExpr(V3, {(F(1, 2), 0, 0): 1, (0, F(1, 2), 0): 1, (0, 0, -1): 1, (1, 0, 0): 1})
    with pytest.raises(DomainError, match="4 x 3 terms"):
        z * t


def test_every_product_site_holds_the_work_budget(monkeypatch):
    # a term pair costs one unit per 512-bit block of each coefficient, so
    # 2^512 counts twice; the costs of each site are in its comment
    x1, x2, _ = gens3()
    small, big = x1 + x2, x1 + x2 * 2 ** 512
    va = ("x", "y")
    ps_a = PoissonStructure.from_table(va, {(0, 1): PolyExpr.var("y", va)})
    x, y, z = PolyExpr.gens(va + ("z",))
    ps_b = PoissonStructure.from_table(x.vars, {(0, 1): z * z})
    # {x1,x2} = big: d/dx2 of small^2 (2 terms) meets it in the jacobiator
    # and in the first Hamiltonian row of small^2, which no cache keeps
    ps_c = PoissonStructure.from_table(V3, {(0, 1): big, (1, 2): small * small})
    sites = [
        lambda: small * big,                                        # 8
        lambda: big ** 2,                                           # 16
        lambda: poly._sum_of_products(V3, [(small, small), (small, big)]),  # 4, 8
        lambda: parse_polynomial("2^512*2^512*2^512*x1", V3),       # 2, 4, 6
        lambda: chart_compare(ps_a, ps_b, z - x - y - 1),           # 3, 9
        lambda: jacobiator(ps_c, 0, 1, 2),                          # 8, 6
        lambda: is_casimir(PoissonStructure.from_table(V3, {(0, 1): big}),
                           small * small),                          # 4, 8
    ]
    for site in sites:
        site()
    monkeypatch.setattr(poly, "MAX_WORK", 4)
    for site in sites:
        with pytest.raises(DomainError, match="units, more than MAX_WORK = 4$"):
            site()


def test_integer_power_bits_limit():
    # a b-bit coefficient or denominator of one term has at least
    # (b - 1) * n bits in the n-th power: 2^32 to the MAX_EXPONENT is
    # 32 * 32767 bits, within MAX_POWER_BITS, and 2^33 is refused before
    # anything is computed
    x1, x2, x3 = gens3()
    assert (x1 * 2 ** 32) ** MAX_EXPONENT == \
        PolyExpr(V3, {(MAX_EXPONENT, 0, 0): 2 ** (32 * MAX_EXPONENT)})
    for p in (x1 * 2 ** 33, PolyExpr.const(V3, F(1, 2 ** 33)),
              PolyExpr(V3, {(F(1, 2), 0, 0): 2 ** 33})):
        with pytest.raises(DomainError, match=f"the power {MAX_EXPONENT} of a 34-bit "
                                              f"rational would have more than "
                                              f"MAX_POWER_BITS = {poly.MAX_POWER_BITS}"):
            p ** MAX_EXPONENT
    # a power of several terms is held to the work budget at each product,
    # which sees the large leading or trailing coefficient grow
    for p in (x1 * 3 ** 21 + x2, x1 + x2 * 3 ** 21):
        with pytest.raises(DomainError, match="MAX_WORK = 1000000"):
            p ** MAX_EXPONENT
    assert ((x1 * 3 + x2) / 2) ** 2 == (x1 * x1 * 9 + x1 * x2 * 6 + x2 * x2) / 4



def test_the_cached_hash_is_the_hash_of_the_value():
    from ppa.poly import _new, _reduced
    variables = ("x", "y")
    x, y = PolyExpr.gens(variables)
    values = [
        _new(variables, {1: 3, 1 << 16: -2}, 5, True),
        _reduced(variables, {1: 4, 0: 6}, 8, True),
        PolyExpr(variables, {(1, 2): F(1, 3), (F(1, 2), 0): 2}),
        -(x * y + 1),
        (x - 2 * y).with_vars(("y", "z", "x")),
        PolyExpr.zero(variables),
    ]
    for p in values:
        fresh = hash((p.vars, p._den, frozenset(p._num.items())))
        assert hash(p) == fresh and hash(p) == fresh    # computed, then kept
        twin = _new(p.vars, dict(p._num), p._den, p._grade)
        assert twin == p and hash(twin) == hash(p)
