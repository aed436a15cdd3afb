"""Differential test of the chart comparison on the integer exponent lattice.

``chart_compare`` is checked against the reference copy in
``tests/oracles.py``, which substitutes z = -rest / a into each entry with
``PolyExpr.subs_var`` and clears denominators with a monomial product.
Both sides must agree on every field of the result (the residuals equal as
``PolyExpr`` values) or raise the same exception type with the same
message.  The charts are random tables; the second chart is the first's
variables, reordered, with z spliced in at any position.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ppa.errors import DomainError, PolynomialGradeError, PpaError
from ppa.geometry import chart_compare
from ppa.poly import MAX_EXPONENT, MAX_WORK, PolyExpr
from ppa.structures import PoissonStructure

NAMES = ("x1", "x2", "x3", "x4")


def outcome(f, *args):
    try:
        cc = f(*args)
    except (PpaError, ValueError) as e:
        return type(e), str(e)
    return cc.agree, cc.constant, cc.residuals, cc.eliminated_var


def assert_same(ps_a, ps_b, elim):
    got = outcome(chart_compare, ps_a, ps_b, elim)
    assert got == outcome(oracles.chart_compare, ps_a, ps_b, elim)
    if len(got) == 4:
        assert all(r.is_polynomial_grade() for r in got[2].values())
    return got


# ---------------- strategies ----------------

COEFFS = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4), F(7)])
EXPONENTS = {"grade": st.integers(0, 2),
             "laurent": st.sampled_from([-2, -1, 0, 0, 0, 1, 1, 2, 3]),
             "puiseux": st.sampled_from([-1, 0, 0, 1, 2, F(1, 2), F(-1, 3), F(3, 2)])}


@st.composite
def polys(draw, variables, exps=st.integers(0, 3), max_terms=3, skip=None):
    """A nonzero polynomial over ``variables`` whose exponent of ``skip`` is 0."""
    terms = draw(st.dictionaries(st.tuples(*[exps] * len(variables)), COEFFS,
                                 min_size=1, max_size=max_terms))
    if skip is not None:
        terms = {m[:skip] + (0,) + m[skip + 1:]: c for m, c in terms.items()}
    return PolyExpr(variables, terms)


@st.composite
def charts(draw):
    """(ps_a, ps_b, eliminator).  The entries of ps_b are those of ps_a
    times one constant plus multiples of the eliminator (which vanish at
    z = -rest / a), optionally with one entry tampered with, or random."""
    n = draw(st.integers(2, 4))
    va = NAMES[:n]
    order = draw(st.permutations(va))
    k = draw(st.integers(0, n))
    vb = tuple(order[:k]) + ("z",) + tuple(order[k:])
    table = {(i, j): draw(polys(va)) if draw(st.integers(0, 3)) else PolyExpr.zero(va)
             for i in range(n) for j in range(i + 1, n)}
    ps_a = PoissonStructure.from_table(va, table)

    exps = EXPONENTS[draw(st.sampled_from(sorted(EXPONENTS)))]
    a = PolyExpr(vb, {tuple(1 if v == "z" else draw(exps) for v in vb): draw(COEFFS)})
    elim = a + draw(polys(vb, exps, skip=k)) if draw(st.integers(0, 7)) < 7 else a
    cleared = None
    if all(isinstance(e, int) for m in elim.terms for e in m):
        shift = tuple(max(0, -min(m[i] for m in elim.terms)) for i in range(n + 1))
        cleared = elim * PolyExpr(vb, {shift: 1})

    mode = draw(st.sampled_from(["agree", "scaled", "tampered", "random"]))
    scale = F(1) if mode == "agree" else draw(COEFFS)
    btable = {}
    for (i, j), p in ps_a.entries_upper():
        if mode == "random":
            e = draw(polys(vb))
        else:
            e = p.with_vars(vb) * scale
            if cleared is not None and draw(st.booleans()):
                e = e + draw(polys(vb, st.integers(0, 1), max_terms=2)) * cleared
        btable[(vb.index(va[i]), vb.index(va[j]))] = e
    if mode == "tampered":
        key = draw(st.sampled_from(sorted(btable)))
        btable[key] = btable[key] + draw(polys(vb, max_terms=2))
    return ps_a, PoissonStructure.from_table(vb, btable), elim


# ---------------- the differential test ----------------

@settings(max_examples=400, deadline=None)
@given(charts())
def test_lattice_matches_substitution(chart):
    assert_same(*chart)


@settings(max_examples=100, deadline=None)
@given(charts(), st.integers(0, 6))
def test_eliminator_contract_matches(chart, which):
    ps_a, ps_b, elim = chart
    vb = ps_b.vars
    z = PolyExpr.var("z", vb)
    x = PolyExpr.var(ps_a.vars[0], vb)
    bad = [z * z + elim,                                    # degree 2 in z
           elim - elim,                                     # zero
           x + 1,                                           # no z
           PolyExpr(vb, {tuple(F(1, 2) if v == "z" else 0 for v in vb): 1}) + x,
           PolyExpr(vb, {tuple(-1 if v == "z" else 0 for v in vb): 1}) + elim,
           (x + 1) * z + 1,                                 # two z-terms
           PolyExpr.var("w", vb + ("w",)) + z.with_vars(vb + ("w",))][which]
    assert len(assert_same(ps_a, ps_b, bad)) == 2


def test_eliminator_contract_messages():
    va, vb = ("x", "y"), ("x", "z", "y")
    ps_a = PoissonStructure.from_table(va, {(0, 1): PolyExpr.var("x", va)})
    ps_b = PoissonStructure.from_table(vb, {(0, 2): PolyExpr.var("x", vb)})
    z, x = PolyExpr.var("z", vb), PolyExpr.var("x", vb)
    cases = [(ps_b, z * z, "eliminator must have degree exactly 1 in z"),
             (ps_b, x + 1, "eliminator must have degree exactly 1 in z"),
             (ps_b, (x + 1) * z + 1, "z-coefficient of the eliminator must be one monomial"),
             (ps_a, PolyExpr.var("x", va), "second structure must add exactly one variable")]
    for second, elim, message in cases:
        assert assert_same(ps_a, second, elim) == (DomainError, message)


# ---------------- named cases ----------------

def test_constant_fixed_by_first_nonzero_pair():
    va, vb = ("x", "y", "w"), ("z", "x", "y", "w")
    x, y, w = PolyExpr.gens(va)
    ps_a = PoissonStructure.from_table(va, {(0, 1): x * y, (1, 2): w - x * 3})
    z, xb, yb, wb = PolyExpr.gens(vb)
    # at z = -x/y: {x,y} = -2 x y and {y,w} = -2 (w - 3x) + x, one x too many
    ps_b = PoissonStructure.from_table(vb, {(1, 2): yb * yb * z * 2,
                                            (2, 3): wb * -2 + xb * 7 + yb * z + xb})
    agree, constant, residuals, var = assert_same(ps_a, ps_b, yb * z + xb)
    assert (agree, constant, var) == (False, -2, "z")
    assert residuals == {(1, 2): x}


def test_non_proportional_anchor_and_zero_entries():
    va, vb = ("x", "y", "w"), ("x", "y", "w", "z")
    x, y, w = PolyExpr.gens(va)
    ps_a = PoissonStructure.from_table(va, {(0, 2): x + y})
    xb, yb, wb, z = PolyExpr.gens(vb)
    ps_b = PoissonStructure.from_table(vb, {(0, 2): xb * z + yb})
    agree, constant, residuals, _ = assert_same(ps_a, ps_b, z * xb - 1)
    # at z = 1/x the entry is 1 + y: no constant, residual 1 - x
    assert constant is None and not agree
    assert residuals == {(0, 2): 1 - x}


def test_fractional_exponent_residual():
    va, vb = ("x", "y"), ("x", "y", "z")
    ps_a = PoissonStructure.from_table(va, {(0, 1): PolyExpr.var("x", va)})
    xb, yb, z = PolyExpr.gens(vb)
    ps_b = PoissonStructure.from_table(vb, {(0, 1): xb * z})
    elim = z - PolyExpr(vb, {(F(1, 2), 0, 0): 1})
    assert assert_same(ps_a, ps_b, elim) == (
        PolynomialGradeError, "fractional exponents cannot be cleared by a monomial")


def test_split_k3_charts_match_the_reference():
    from ppa import catalog
    aff = catalog.build("singular_k3_affine")
    spl = catalog.build("singular_k3_split")
    agree, constant, residuals, _ = assert_same(aff.structure, spl.structure,
                                                spl.casimirs[0][1])
    assert constant == -1 and set(residuals) == {(1, 2)}


# ---------------- deliberate changes ----------------

def test_first_chart_variable_missing_from_the_second():
    # the reference failed inside tuple.index; the lattice form names the variable
    va, vb = ("x", "y", "w"), ("x", "y", "z")
    ps_a = PoissonStructure.from_table(va, {(0, 1): PolyExpr.var("w", va)})
    ps_b = PoissonStructure.from_table(vb, {(0, 1): PolyExpr.var("z", vb)})
    elim = PolyExpr.var("z", vb) - 1
    with pytest.raises(ValueError):
        oracles.chart_compare(ps_a, ps_b, elim)
    with pytest.raises(DomainError) as info:
        chart_compare(ps_a, ps_b, elim)
    assert str(info.value) == "variable w of the first structure is not a variable of the second"


def test_exponent_limit_is_judged_on_results():
    va, vb = ("x", "y"), ("x", "y", "z")
    ps_a = PoissonStructure.from_table(va, {(0, 1): PolyExpr.var("y", va)})
    xb, yb, z = PolyExpr.gens(vb)
    elim = z - xb ** 20000
    # z ** 2 = x ** 40000 cancels against x ** 20000 * z: the reference
    # refused the power z ** 2, while the entry itself is y
    ps_b = PoissonStructure.from_table(vb, {(0, 1): z * z - xb ** 20000 * z + yb})
    with pytest.raises(DomainError, match="MAX_EXPONENT"):
        oracles.chart_compare(ps_a, ps_b, elim)
    cc = chart_compare(ps_a, ps_b, elim)
    assert cc.agree and cc.constant == 1
    # an exponent past the limit that survives in an entry is refused
    ps_b = PoissonStructure.from_table(vb, {(0, 1): z * z + yb})
    with pytest.raises(DomainError) as info:
        chart_compare(ps_a, ps_b, elim)
    assert str(info.value) == f"exponent 40000 exceeds MAX_EXPONENT = {MAX_EXPONENT}"
    # and so is one that the clearing monomial pushes past it, as before
    ps_b = PoissonStructure.from_table(vb, {(0, 1): z * yb + xb ** 30000 * yb})
    low = z - PolyExpr(vb, {(-5000, 0, 0): 1})
    assert assert_same(ps_a, ps_b, low) == (
        DomainError, f"exponent 35000 exceeds MAX_EXPONENT = {MAX_EXPONENT}")


def test_powers_of_z_hold_the_term_pair_budget():
    va, vb = ("x", "y"), ("x", "y", "z")
    ps_a = PoissonStructure.from_table(va, {(0, 1): PolyExpr.var("y", va)})
    z = PolyExpr.var("z", vb)
    rest = PolyExpr(vb, {(i, j, 0): 1 for i in range(32) for j in range(32)})
    ps_b = PoissonStructure.from_table(vb, {(0, 1): z * z})
    with pytest.raises(DomainError) as info:
        chart_compare(ps_a, ps_b, z + rest)
    assert str(info.value) == ("a product of polynomials with 1024 x 1024 terms and "
                               "coefficients of 1 and 1 bits costs 1048576 units, more "
                               f"than MAX_WORK = {MAX_WORK}")
