"""Differential test of the closed-form, integer-lattice monomial transport.

``transport_bracket`` and ``substitute`` are checked against reference
copies of the formulas they replaced: the bracket as a chain of
``PolyExpr`` products, {y_a, y_b} = sum_{i<j} (dy_a/dx_i dy_b/dx_j -
dy_a/dx_j dy_b/dx_i) p_ij, and the substitution with ``Fraction``
exponent vectors.  Both sides must agree on every entry, on the
polynomial-grade verdict and on which inputs raise ``DomainError``.

The inverse exponent matrix and the Jacobian determinant, which the map
takes from one fraction-free elimination, are checked against sympy's
``Matrix.inv()`` and ``det()``, and so is the reference inverse.

Near ``MAX_EXPONENT`` the chain can raise on an intermediate product whose
exponents the result never reaches, while the transport judges the limit
on its entries only.  There the transport is checked against the closed
form over plain exponent dicts, with no limit at all.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ppa.errors import DomainError, SingularMapError
from ppa.geometry import TransportResult, transport_bracket
from ppa.poly import (MAX_EXPONENT, MAX_POWER_BITS, MonomialMap, PolyExpr, _exp,
                      _is_grade, _rational_pow, substitute)
from ppa.structures import PoissonStructure


# ---------------- reference formulas ----------------

def sympy_inverse(rows):
    """Exact inverse of a square rational matrix, by sympy."""
    inv = sympy.Matrix([[sympy.Rational(F(e).numerator, F(e).denominator) for e in row]
                        for row in rows]).inv()
    return [[F(int(e.p), int(e.q)) for e in inv.row(i)] for i in range(inv.rows)]


def reference_substitute(p, mmap):
    if p.vars != mmap.old_vars:
        p = p.with_vars(mmap.old_vars)
    n = len(mmap.old_vars)
    inv = sympy_inverse(mmap.matrix)
    dscales = []
    for i in range(n):
        s = F(1)
        for a in range(n):
            e = _exp(F(inv[i][a]))
            if mmap.scales[a] != 1 and e != 0:
                s *= _rational_pow(mmap.scales[a], _exp(-F(e)))
        dscales.append(s)
    out = {}
    for mono, c in p.terms.items():
        coef = c
        new_e = [F(0)] * n
        for i, e in enumerate(mono):
            if e == 0:
                continue
            coef *= _rational_pow(dscales[i], e) if dscales[i] != 1 else 1
            for a in range(n):
                new_e[a] += F(e) * F(inv[i][a])
        key = tuple(_exp(x) for x in new_e)
        s = out.get(key, F(0)) + coef
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return PolyExpr(mmap.new_vars, out)


def reference_transport(ps, mmap):
    n = ps.n
    ys = [PolyExpr(mmap.old_vars, {mmap.matrix[a]: mmap.scales[a]}) for a in range(n)]
    dy = [[y.diff(v) for v in ps.vars] for y in ys]
    entries = [[PolyExpr.zero(mmap.new_vars) for _ in range(n)] for _ in range(n)]
    grade_ok = True
    for a in range(n):
        for b in range(a + 1, n):
            acc = PolyExpr.zero(ps.vars)
            for (i, j), p in ps.entries_upper():
                if p.is_zero():
                    continue
                acc = acc + (dy[a][i] * dy[b][j] - dy[a][j] * dy[b][i]) * p
            out = reference_substitute(acc, mmap)
            entries[a][b] = out
            entries[b][a] = -out
            grade_ok = grade_ok and out.is_polynomial_grade()
    return TransportResult(tuple(mmap.new_vars), entries, grade_ok)


def limit_free_transport(ps, mmap):
    """{(a, b): {exponent tuple: coefficient}} of the closed form
    s_a s_b sum_{i<j} (M_ai M_bj - M_aj M_bi) x ** (M_a + M_b - e_i - e_j)
    p_ij, re-expressed through x_i = d_i * prod_a y_a ** inv[i][a], over
    ``Fraction`` exponent dicts with no exponent limit.  A scale factor
    outside Q raises ``DomainError``, as ``_rational_pow`` does, whenever
    there is an entry to re-express."""
    n, rows, scales = ps.n, mmap.matrix, mmap.scales
    if n < 2:
        return {}
    inv = sympy_inverse(rows)
    d = [F(1)] * n
    for i in range(n):
        for a in range(n):
            if scales[a] != 1 and inv[i][a] != 0:
                d[i] *= _rational_pow(scales[a], _exp(-F(inv[i][a])))
    entries = {}
    for a, b in combinations(range(n), 2):
        acc = {}
        for (i, j), p in ps.entries_upper():
            minor = rows[a][i] * rows[b][j] - rows[a][j] * rows[b][i]
            for mono, c in (p.terms.items() if minor else ()):
                x = tuple(rows[a][k] + rows[b][k] + mono[k] - (k == i) - (k == j)
                          for k in range(n))
                acc[x] = acc.get(x, 0) + scales[a] * scales[b] * minor * c
        out = {}
        for x, c in acc.items():
            if c:
                for i in range(n):
                    if x[i] and d[i] != 1:
                        c *= _rational_pow(d[i], _exp(x[i]))
                out[tuple(_exp(sum(x[i] * F(inv[i][k]) for i in range(n)))
                          for k in range(n))] = c
        entries[a, b] = out
    return entries


def assert_matches_limit_free(ps, mmap):
    """The transport raises ``DomainError`` exactly where the limit-free
    closed form has a scale factor outside Q or an entry with an exponent
    e outside the limit, |e| or its denominator past ``MAX_EXPONENT``;
    otherwise its entries are that form's."""
    got = outcome(transport_bracket, ps, mmap)
    ref = outcome(limit_free_transport, ps, mmap)
    if ref is not DomainError and any(
            abs(e) > MAX_EXPONENT or F(e).denominator > MAX_EXPONENT
            for terms in ref.values() for m in terms for e in m):
        ref = DomainError
    if ref is DomainError:
        assert got is DomainError
        return
    assert got is not DomainError
    for (a, b), terms in ref.items():
        want = PolyExpr(mmap.new_vars, terms)
        assert got.entries[a][b] == want and got.entries[b][a] == -want
    assert got.polynomial_grade == all(_is_grade(t) for t in ref.values())


def outcome(f, *args):
    try:
        return f(*args)
    except DomainError:
        return DomainError


def assert_same_transport(ps, mmap):
    got = outcome(transport_bracket, ps, mmap)
    want = outcome(reference_transport, ps, mmap)
    if want is DomainError or got is DomainError:
        assert got is want
        return
    assert got.new_vars == want.new_vars
    assert got.entries == want.entries
    assert got.polynomial_grade == want.polynomial_grade


def assert_same_substitute(p, mmap):
    got = outcome(substitute, p, mmap)
    want = outcome(reference_substitute, p, mmap)
    assert got is want if DomainError in (got, want) else got == want


# ---------------- strategies ----------------

# {-2..2} plus the halves and thirds between them
EXPONENTS = sorted({F(a, d) for d in (1, 2, 3) for a in range(-2 * d, 2 * d + 1)})
# 1 (half the draws), perfect squares (and a cube), non-squares, and
# negatives, whose fractional powers leave Q
SCALES = [F(4), F(9, 4), F(1, 16), F(8), F(2), F(3, 5), F(-1), F(-4)]
SCALES = st.sampled_from([F(1)] * len(SCALES) + SCALES)
COEFFS = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))


def names(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


@st.composite
def maps(draw, n, exponents=st.sampled_from(EXPONENTS), scales=SCALES):
    rows = draw(st.lists(st.lists(exponents, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    scales = draw(st.lists(scales, min_size=n, max_size=n))
    try:
        return MonomialMap(names("x", n), names("y", n), rows, scales)
    except SingularMapError:
        return draw(st.nothing())


def polys(variables, exponents, max_terms=3):
    term = st.tuples(st.tuples(*[exponents] * len(variables)), COEFFS)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: PolyExpr(variables, dict(ts)))


@st.composite
def tables(draw, n, exponents=st.integers(0, 3)):
    v = names("x", n)
    entries = {(i, j): draw(polys(v, exponents)) for i, j in combinations(range(n), 2)}
    return PoissonStructure.from_table(v, entries)


@st.composite
def unimodular_maps(draw, n):
    """Integer exponent matrices of determinant +-1, so the inverse is an
    integer matrix too: a row permutation after a few row additions."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.sampled_from([-1, 1, 2]))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    rows = [rows[i] for i in draw(st.permutations(range(n)))]
    scales = draw(st.lists(SCALES, min_size=n, max_size=n))
    return MonomialMap(names("x", n), names("y", n), rows, scales)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 4))
    return draw(tables(n)), draw(st.one_of(maps(n), unimodular_maps(n)))


# ---------------- tests ----------------

@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from(EXPONENTS), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(SCALES, min_size=n, max_size=n), st.booleans())))
def test_inverse_lattice_and_jacobian_match_sympy(case):
    rows, scales, dependent = case
    n = len(rows)
    if dependent and n > 1:
        rows[-1] = [2 * e for e in rows[0]]          # singular
    m = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                      for row in rows])
    det = m.det()
    try:
        mmap = MonomialMap(names("x", n), names("y", n), rows, scales)
    except SingularMapError as e:
        assert det == 0 and str(e) == "exponent matrix is singular"
        return
    assert det != 0
    den, num = mmap._inverse_lattice
    inv = m.inv()
    assert [[sympy.Rational(a, den) for a in row] for row in num] == \
        [list(inv.row(i)) for i in range(n)]
    # den is the least common denominator of the inverse's entries
    assert den == sympy.ilcm(1, *(e.q for e in inv))
    (exps, coef), = mmap.jacobian_det_monomial().terms.items()
    want = det
    for s in scales:
        want *= sympy.Rational(s.numerator, s.denominator)
    assert sympy.Rational(coef.numerator, coef.denominator) == want
    assert exps == tuple(_exp(sum(row[i] for row in rows) - 1) for i in range(n))


@settings(max_examples=250, deadline=None)
@given(cases())
def test_transport_matches_the_product_chain(case):
    ps, mmap = case
    assert_same_transport(ps, mmap)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.one_of(polys(names("x", n), st.integers(0, 3), max_terms=4),
              polys(names("x", n), st.sampled_from(EXPONENTS), max_terms=4)),
    st.one_of(maps(n), unimodular_maps(n)))))
def test_substitute_matches_fraction_exponents(case):
    p, mmap = case
    assert_same_substitute(p, mmap)


# Exponents near MAX_EXPONENT / 2: the chain's intermediate products can
# pass MAX_EXPONENT even where the result would not, and it raises there;
# the transport then follows the limit-free closed form.  The scales are
# +-1, since powers of other scales to exponents this large are numbers of
# millions of digits.
BIG = st.sampled_from([0, 1, F(1, 2), -1, 16382, 16383, 16384, 20000, MAX_EXPONENT])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    tables(n, st.sampled_from([0, 1, 2, MAX_EXPONENT - 1])),
    maps(n, BIG, st.sampled_from([F(1), F(-1)])))))
def test_transport_matches_the_chain_near_the_exponent_limit(case):
    ps, mmap = case
    if outcome(reference_transport, ps, mmap) is DomainError:
        assert_matches_limit_free(ps, mmap)
    else:
        assert_same_transport(ps, mmap)


@pytest.mark.parametrize("rows, entry, want", [
    # y1 = x2, y2 = x1 * x2^32767 over {x1, x2} = x1 * x2: the chain's
    # product times p_12 has x2^32768, the entry is -y1 * y2
    ([[0, 1], [1, MAX_EXPONENT]], {(1, 1): 1}, {(1, 1): -1}),
    # y1 = x1 * x3^16384, y2 = x2 * x3^16384, y3 = x3^16382 over
    # {x1, x2} = 1: dy1/dx1 * dy2/dx2 = x3^32768 in the chain, and the entry
    # is x3^32768 = y3^(16384/8191)
    ([[1, 0, 16384], [0, 1, 16384], [0, 0, 16382]], {(0, 0, 0): 1},
     {(0, 0, F(16384, 8191)): 1}),
])
def test_a_map_whose_chain_raised_returns_its_entries(rows, entry, want):
    n = len(rows)
    v, w = names("x", n), names("y", n)
    mmap = MonomialMap(v, w, rows)
    ps = PoissonStructure.from_table(v, {(0, 1): PolyExpr(v, entry)})
    assert outcome(reference_transport, ps, mmap) is DomainError
    got = transport_bracket(ps, mmap)
    assert got.entries[0][1] == PolyExpr(w, want) == -got.entries[1][0]
    assert all(got.entries[a][b].is_zero() for a, b in combinations(range(n), 2)
               if (a, b) != (0, 1))
    assert got.polynomial_grade == (n == 2)
    assert_matches_limit_free(ps, mmap)


def test_an_entry_past_the_exponent_limit_raises():
    # y1 = x1^(1/2) over {x1, x2} = x1^32767 * x2: the entry is
    # 1/2 * y1^65533 * y2, polynomial-grade and past MAX_EXPONENT
    v = names("x", 2)
    mmap = MonomialMap(v, names("y", 2), [[F(1, 2), 0], [0, 1]])
    ps = PoissonStructure.from_table(v, {(0, 1): PolyExpr(v, {(MAX_EXPONENT, 1): 1})})
    with pytest.raises(DomainError, match="^exponent 65533 exceeds MAX_EXPONENT = 32767$"):
        transport_bracket(ps, mmap)
    assert_matches_limit_free(ps, mmap)


def test_cancelled_terms_take_no_scale_power():
    # In {y1, y2} the two contributions x1^(-1/2) * x2^(-2/3) * x3^(-2)
    # cancel.  Their scale factor would need (-8)^(-2/3), a negative base
    # under a fractional exponent, which raises DomainError; the terms that
    # survive elsewhere need none, so the transport must not raise.
    v = names("x", 3)
    mmap = MonomialMap(v, names("y", 3),
                       [[F(1, 2), -1, -1], [0, F(1, 3), -1], [0, 0, -1]],
                       [F(1, 4), F(-1), F(2)])
    ps = PoissonStructure.from_table(v, {(0, 1): PolyExpr(v, {(0, 1, 0): 1}),
                                         (0, 2): PolyExpr(v, {(0, 0, 1): F(1, 3)})})
    got = transport_bracket(ps, mmap)
    assert got.entries[0][1].is_zero()
    assert got.entries == reference_transport(ps, mmap).entries


@pytest.mark.parametrize("rows, scales", [
    ([[2]], [F(2)]),                        # d = 2^(-1/2)
    ([[1, F(1, 2)], [0, 1]], [F(1), F(-1)]),  # a square root of -1
])
def test_scale_factors_raise_in_substitute_transport_and_inverse(rows, scales):
    n = len(rows)
    mmap = MonomialMap(names("x", n), names("y", n), rows, scales)
    zero = PolyExpr.zero(mmap.old_vars)
    for _ in range(2):                      # nothing is cached by a failure
        with pytest.raises(DomainError):
            substitute(zero, mmap)
        with pytest.raises(DomainError):
            mmap.inverse()
    ps = PoissonStructure.from_table(mmap.old_vars, {})
    if n > 1:
        with pytest.raises(DomainError):
            transport_bracket(ps, mmap)
    else:                                   # no pair, so no substitution
        assert transport_bracket(ps, mmap).polynomial_grade


def test_rational_pow_refuses_by_predicted_bits():
    # a b-bit part has at least (b - 1) * |e| bits in the power: 2^e has
    # |e| + 1 bits, so e = MAX_POWER_BITS is computed and one more refused
    assert _rational_pow(F(1, 2), -MAX_POWER_BITS) == 2 ** MAX_POWER_BITS
    assert _rational_pow(F(-1), -10 ** 12) == 1          # 1-bit parts never grow
    assert _rational_pow(F(4), F(MAX_POWER_BITS, 2)) == 2 ** MAX_POWER_BITS
    for base, e in ((F(2), MAX_POWER_BITS + 1), (F(1, 3), -MAX_POWER_BITS - 1),
                    (F(4), F(MAX_POWER_BITS + 1, 2))):
        with pytest.raises(DomainError, match="MAX_POWER_BITS"):
            _rational_pow(base, e)
