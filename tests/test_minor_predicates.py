"""The minor-based predicates against the exterior-algebra chains they replace.

``casimir_minors`` is compared with the coefficients of ``wedge_all`` of the
Casimir differentials, and ``jacobian_structure`` with
``oracles.jacobian_structure_by_wedges``, the construction read off that
wedge.  A Nambu bracket with g in slot k is the cofactor contraction
sum_j W_j d_j g, W built from the minors of the other argument and Casimir
gradients; it is compared with ``oracles.nambu_bracket_by_wedges``, the
top coefficient of a full ``wedge_all``.  ``is_casimir`` on a Nambu
structure, one Laplace step of dq on the Casimir minors, is compared with
those brackets and with
``oracles.nambu_is_casimir_by_cofactors``, one cofactor contraction per
coordinate tuple.  theorem31 reads m! Pf(pi_S) against the Casimir minors;
every field of its report is compared with ``oracles.duality_check_by_wedges``,
which computes the wedge side by ``wedge_power`` chains.  ``fi`` passes a
Nambu structure by its construction; the guard is
``oracles.fundamental_identity_by_cofactor_rows``, whose residual is zero on
random genuine Nambu structures and agrees with the wedge brackets, and which
equals the nested library brackets (``nambu_vector_field`` applied to the
last argument), in general nonzero, on structures whose Casimir minors are
replaced by an arbitrary table.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from oracles import (contract, differential, duality_check_by_wedges,
                     fundamental_identity_by_cofactor_rows,
                     jacobian_structure_by_wedges, nambu_bracket_by_wedges,
                     nambu_is_casimir_by_cofactors, wedge_all)
from ppa import catalog, dsl
from ppa.duality import duality_check
from ppa.dynamics import nambu_vector_field
from ppa.geometry import transport_bracket
from ppa.errors import DomainError
from ppa.exterior import MAX_DIM, mask_of, merge_sign
from ppa.poly import MonomialMap, PolyExpr, _gradient
from ppa.structures import (NambuStructure, PoissonStructure, _cofactor_row,
                            _stacked_minors, casimir_minors, is_casimir,
                            jacobian_structure)

VARS = tuple(f"x{i + 1}" for i in range(8))
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def polys(variables, max_terms=3, max_degree=2):
    """Polynomials without a constant term, never zero: a constant argument
    would make every bracket zero."""
    mono = st.lists(st.integers(0, len(variables) - 1), min_size=1,
                    max_size=max_degree).map(
        lambda picks: tuple(picks.count(i) for i in range(len(variables))))
    coeff = st.fractions(-3, 3, max_denominator=4).filter(bool)
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda d: PolyExpr(variables, d))


def polys_in(variables, indices, max_terms=3, max_degree=2):
    """Polynomials over ``variables`` in the variables at ``indices`` only."""
    sub = tuple(variables[i] for i in indices)
    return polys(sub, max_terms, max_degree).map(lambda p: p.with_vars(variables))


@st.composite
def nambu_structures(draw):
    """n = 2..6, m = 0..n-1 Casimirs, a constant or polynomial multiplier."""
    n = draw(st.integers(2, 6))
    v = VARS[:n]
    casimirs = draw(st.lists(polys(v), min_size=0, max_size=n - 1))
    multiplier = draw(st.one_of(st.fractions(-2, 2, max_denominator=3).filter(bool),
                                polys(v, 2, 1)))
    return NambuStructure(v, casimirs, multiplier)


# ---------------- the minor table ----------------

@st.composite
def casimir_tuples(draw):
    """n = 2..8 variables and l = 0..n Casimirs; half the time the last is
    a function of the first (a constant when l = 1), so dQ_1 ^ ... ^ dQ_l
    vanishes and the table is empty."""
    n = draw(st.integers(2, 8))
    v = VARS[:n]
    qs = draw(st.lists(polys(v, 2), min_size=0, max_size=n))
    if qs and draw(st.booleans()):
        qs[-1] = qs[0] * qs[0] if len(qs) > 1 else PolyExpr.const(v, 3)
    return v, qs


@SETTINGS
@given(casimir_tuples())
def test_casimir_minors_are_the_wedge_coefficients(case):
    v, qs = case
    expected = (wedge_all([differential(q) for q in qs]).coeffs if qs
                else {0: PolyExpr.const(v, 1)})
    assert casimir_minors(v, qs) == expected
    # the last gradient's entries seed the table: the first Laplace step,
    # on {0: 1}, would give the same minors in the same order
    first = _stacked_minors([_gradient(q) for q in qs], {0: PolyExpr.const(v, 1)})
    assert list(casimir_minors(v, qs).items()) == list(first.items())


@st.composite
def jacobian_cases(draw):
    """n = 2..6 variables, n - 2 Casimirs, a constant or polynomial
    multiplier."""
    n = draw(st.integers(2, 6))
    v = VARS[:n]
    qs = draw(st.lists(polys(v, 3), min_size=n - 2, max_size=n - 2))
    mult = draw(st.one_of(st.fractions(-2, 2, max_denominator=3),
                          polys(v, 2, 1)))
    return v, qs, mult


@SETTINGS
@given(jacobian_cases())
def test_jacobian_structure_equals_the_wedge_construction(case):
    ps, ref = jacobian_structure(*case), jacobian_structure_by_wedges(*case)
    for i in range(ps.n):
        for j in range(ps.n):
            assert ps.matrix[i][j] == ref.matrix[i][j], (i, j)


def test_catalog_jacobian_entries_keep_the_wedge_term_order():
    built_jacobian = 0
    for name in catalog.names():
        for bindings in [None] + list(catalog.entry(name).alternates):
            built = catalog.build(name, bindings)
            spec = dsl.model_spec_from_built(built)
            if spec.structure_kind != "jacobian":
                continue
            built_jacobian += 1
            mult = spec.multiplier if spec.multiplier is not None else 1
            ref = jacobian_structure_by_wedges(spec.vars, spec.casimir_polys(), mult)
            for (ij, p), (_, r) in zip(built.structure.entries_upper(),
                                       ref.entries_upper()):
                assert list(p._num.items()) == list(r._num.items()), (name, ij)
                assert p._den == r._den
    assert built_jacobian > 0


# ---------------- the cofactor bracket ----------------

@SETTINGS
@given(nambu_structures(), st.data())
def test_cofactor_contraction_equals_wedge_bracket_in_every_slot(ns, data):
    args = data.draw(st.lists(polys(ns.vars), min_size=ns.arity, max_size=ns.arity))
    expected = nambu_bracket_by_wedges(ns, args)
    grads = [_gradient(a) for a in args]
    for k in range(ns.arity):
        minors = _stacked_minors(grads[:k] + grads[k + 1:], ns._casimir_minors)
        row = _cofactor_row(ns, minors, k)
        assert contract(row, grads[k]) == expected, k


@SETTINGS
@given(nambu_structures(), st.data())
def test_nambu_casimir_verdict_matches_wedge_brackets(ns, data):
    central = [q * q + q for q in ns.casimirs]       # functions of the Casimirs
    q = data.draw(st.one_of(polys(ns.vars), st.sampled_from(central))
                  if central else polys(ns.vars))
    expected = all(nambu_bracket_by_wedges(ns, list(combo) + [q]).is_zero()
                   for combo in combinations(PolyExpr.gens(ns.vars), ns.arity - 1))
    assert is_casimir(ns, q) == expected
    assert nambu_is_casimir_by_cofactors(ns, q) == expected


@st.composite
def nambu_casimir_cases(draw):
    """(structure, candidate, central by construction): n = 3..6, m = 0..n-2
    Casimirs, the multiplier 0, a nonzero constant or a non-constant
    polynomial.  Half the time the last Casimir is a function of the first
    (a constant when m = 1), so their minor table is empty.  The candidate
    is a function of the Casimirs, a constant, or a random polynomial."""
    n = draw(st.integers(3, 6))
    v = VARS[:n]
    m = draw(st.integers(0, n - 2))
    qs = draw(st.lists(polys(v, 2), min_size=m, max_size=m))
    if qs and draw(st.booleans()):
        qs[-1] = qs[0] * qs[0] if m > 1 else PolyExpr.const(v, 3)
    mult = draw(st.one_of(st.just(0), st.fractions(-2, 2, max_denominator=3).filter(bool),
                          polys(v, 2, 1)))
    central = [PolyExpr.const(v, 2)] + [q * q - q for q in qs]
    if m > 1:
        central.append(qs[0] * qs[1] + qs[-1])
    if draw(st.booleans()):
        return NambuStructure(v, qs, mult), draw(st.sampled_from(central)), True
    return NambuStructure(v, qs, mult), draw(polys(v)), False


@settings(max_examples=150, deadline=None)
@given(nambu_casimir_cases())
def test_nambu_is_casimir_equals_the_cofactor_reference(case):
    ns, q, central = case
    verdict = is_casimir(ns, q)
    assert verdict == nambu_is_casimir_by_cofactors(ns, q)
    if central or not ns._casimir_minors or ns.multiplier.is_zero():
        assert verdict


def test_nambu_is_casimir_on_the_catalog():
    for name in ("fairlie", "dell_nambu"):
        for bindings in [None] + list(catalog.entry(name).alternates):
            built = catalog.build(name, bindings)
            ns = built.structure
            qs = built.casimir_polys()
            candidates = (qs + [q * q + 1 for q in qs] + list(PolyExpr.gens(ns.vars))
                          + list(built.hamiltonians))
            verdicts = [is_casimir(ns, q) for q in candidates]
            assert verdicts == [nambu_is_casimir_by_cofactors(ns, q) for q in candidates]
            assert all(verdicts[:2 * len(qs)]), (name, bindings)
            assert not all(verdicts), (name, bindings)


def fi_by_wedges(ns, args, bracket=nambu_bracket_by_wedges):
    """The residual of the fundamental identity as nested brackets, each
    the top coefficient of a full wedge unless ``bracket`` says otherwise."""
    r = ns.arity
    head, tail = args[:r - 1], args[r - 1:]
    lhs = PolyExpr.zero(ns.vars)
    for pos in range(r):
        inner = bracket(ns, head + [tail[pos]])
        lhs = lhs + bracket(ns, tail[:pos] + [inner] + tail[pos + 1:])
    return lhs - bracket(ns, head + [bracket(ns, tail)])


def library_bracket(ns, args):
    """{a_1, ..., a_r} as the library computes it: the Nambu vector field of
    the first r - 1 arguments, which reads the structure's Casimir minors,
    applied to the last."""
    return nambu_vector_field(ns, args[:-1]).apply_to(args[-1])


@st.composite
def genuine_nambu_cases(draw):
    """(structure, arguments): n = 3..6, every arity r = 1..n, so n - r
    Casimirs of degree <= 2, a constant or polynomial multiplier, and
    2r - 1 arguments of degree <= 2."""
    n = draw(st.integers(3, 6))
    r = draw(st.integers(1, n))
    v = VARS[:n]
    qs = draw(st.lists(polys(v, 2), min_size=n - r, max_size=n - r))
    mult = draw(st.one_of(st.fractions(-2, 2, max_denominator=3).filter(bool),
                          polys(v, 2, 1)))
    args = draw(st.lists(polys(v, 2), min_size=2 * r - 1, max_size=2 * r - 1))
    return NambuStructure(v, qs, mult), args


# no shrink phase: a failing draw is reported as drawn, in seconds, where
# shrinking through the cofactor-row reference took minutes
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(genuine_nambu_cases())
def test_fundamental_identity_residual_matches_wedge_brackets(case):
    """The guard behind ``fi``'s pass by construction: the cofactor-row
    residual of a genuine Nambu structure is zero, and so is the wedge
    chain's where it is quick (arity <= 3)."""
    ns, args = case
    assert fundamental_identity_by_cofactor_rows(ns, args).is_zero()
    if ns.arity <= 3:
        assert fi_by_wedges(ns, args).is_zero()


def test_fundamental_identity_on_the_nambu_catalog_entries():
    for name in ("fairlie", "dell_nambu"):
        for bindings in [None] + list(catalog.entry(name).alternates):
            ns = catalog.build(name, bindings).structure
            gens = list(PolyExpr.gens(ns.vars))
            args = [gens[i % ns.n] * gens[(3 * i + 1) % ns.n] + gens[i % 2]
                    for i in range(2 * ns.arity - 1)]
            assert fundamental_identity_by_cofactor_rows(ns, args).is_zero()
            assert fi_by_wedges(ns, args).is_zero()


@st.composite
def injected_tables(draw):
    """(structure, arguments): n = 3..6 and arity r = 2..4, an arbitrary
    table of (n - r)-minors put in place of the Casimir minors, and 2r - 1
    cubic arguments.  The bracket's r-vector is then in general not
    Nambu-Poisson, so the residual is in general not zero."""
    n = draw(st.integers(3, 6))
    r = draw(st.integers(2, min(4, n)))
    v = VARS[:n]
    masks = [mask_of(c) for c in combinations(range(n), n - r)]
    minors = st.one_of(polys(v, 2), st.fractions(-3, 3, max_denominator=2).filter(bool)
                       .map(lambda c: PolyExpr.const(v, c)))
    mult = draw(st.one_of(st.fractions(-2, 2, max_denominator=3).filter(bool),
                          polys(v, 2, 1)))
    ns = NambuStructure(v, PolyExpr.gens(v)[:n - r], mult)
    ns._casimir_minors = draw(st.dictionaries(st.sampled_from(masks), minors,
                                              max_size=len(masks)))
    args = draw(st.lists(polys(v, 2, 3), min_size=2 * r - 1, max_size=2 * r - 1))
    return ns, args


@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(injected_tables())
def test_fundamental_identity_residual_on_an_arbitrary_table(case):
    """Off the construction the cofactor-row residual is the identity as
    nested library brackets, which read the injected table."""
    ns, args = case
    assert fundamental_identity_by_cofactor_rows(ns, args) == \
        fi_by_wedges(ns, args, bracket=library_bracket)


def test_fundamental_identity_fails_off_the_nambu_poisson_brackets():
    """The minor table x2 dx1 + dx3 with w ^ dw = -dx1 ^ dx2 ^ dx3 != 0,
    and a 3-vector from an arbitrary 1-minor table in four variables: both
    residuals are nonzero, so the guard can fail, and both are the nested
    library brackets."""
    v = VARS[:3]
    x1, x2, x3 = PolyExpr.gens(v)
    ns = NambuStructure(v, [x1])
    ns._casimir_minors = {0b001: x2, 0b100: PolyExpr.const(v, 1)}
    args = [x1 * x3, x2 + x3 * x3, x1 * x2]
    residual = fundamental_identity_by_cofactor_rows(ns, args)
    assert not residual.is_zero()
    assert residual == fi_by_wedges(ns, args, bracket=library_bracket)
    v = VARS[:4]
    x1, x2, x3, x4 = PolyExpr.gens(v)
    ns = NambuStructure(v, [x1], x4 + 2)
    ns._casimir_minors = {0b0001: x2 * x3, 0b0100: x1 - x4, 0b1000: x3}
    args = [x1 * x2, x3 * x4, x1 + x2 * x4, x3 * x3, x2 * x4]
    residual = fundamental_identity_by_cofactor_rows(ns, args)
    assert not residual.is_zero()
    assert residual == fi_by_wedges(ns, args, bracket=library_bracket)


# ---------------- theorem31 ----------------

@st.composite
def duality_cases(draw):
    """(structure, Casimirs) at m = 1, 2, 3 with l = 1 or 2 Casimirs.

    The Casimirs are functions of the last l variables, so a table on the
    first 2m is a genuine structure, with one dual mask S = {0..2m-1}:
    ``proportional`` sets Pf(S) = c * d_S (c = 0 gives lambda 0), ``random``
    draws the block, usually a non-constant ratio.  ``outside`` adds entries
    on the Casimir variables, so Pfaffians off the dual support appear; no
    table with genuine Casimirs has those, so its Casimir verdicts are
    entered as verified and the comparison runs on the table as it is.
    ``jacobian`` is ``jacobian_structure`` from n - 2 random Casimirs, which
    keeps their minor table; they come back reordered half the time."""
    kind = draw(st.sampled_from(["proportional", "random", "outside", "jacobian"]))
    if kind == "jacobian":
        n = draw(st.integers(3, 5))
        v = VARS[:n]
        qs = draw(st.lists(polys(v, 2), min_size=n - 2, max_size=n - 2))
        mult = draw(st.one_of(st.fractions(-2, 2, max_denominator=3).filter(bool),
                              polys(v, 2, 1)))
        ps = jacobian_structure(v, qs, mult)
        return ps, qs[::-1] if draw(st.booleans()) else qs
    m = draw(st.integers(1, 3))
    l = draw(st.integers(1, 2))
    n = 2 * m + l
    v = VARS[:n]
    block, central = list(range(2 * m)), list(range(2 * m, n))
    # Q_t = x_(2m+t) + p_t keeps dQ_1 ^ ... ^ dQ_l nonzero for most p_t
    gens = PolyExpr.gens(v)
    qs = [gens[k] + draw(polys_in(v, central, 2)) for k in central]
    entries = {}
    if kind == "random":
        for ij in combinations(block, 2):
            if draw(st.booleans()):
                entries[ij] = draw(polys(v, 2, 1))
    else:
        dual = wedge_all([differential(q) for q in qs]).coeffs.get(
            sum(1 << k for k in central))
        c = draw(st.fractions(-2, 2, max_denominator=3))
        # Pf(S) = p_01 p_23 p_45 on this block
        entries[(0, 1)] = (dual or PolyExpr.zero(v)) * c
        for k in range(2, 2 * m, 2):
            entries[(k, k + 1)] = PolyExpr.const(v, draw(st.sampled_from([1, -2])))
    if kind == "outside":
        for i, k in combinations(range(n), 2):
            if k in central and draw(st.booleans()):
                entries[(i, k)] = draw(polys(v, 2, 1))
    ps = PoissonStructure.from_table(v, entries)
    if kind == "outside":
        for q in qs:
            ps._casimir_verdicts[q] = True
    return ps, qs


def outcome(check, ps, qs):
    try:
        rep = check(ps, qs)
    except Exception as e:                          # noqa: BLE001 - compared
        return type(e), str(e)
    return (rep.holds, rep.lam, rep.lam_coord, rep.m, rep.residual, rep.detail)


@SETTINGS
@given(duality_cases())
def test_theorem31_report_matches_wedge_power_oracle(case):
    ps, qs = case
    assert outcome(duality_check, ps, qs) == outcome(duality_check_by_wedges, ps, qs)


@pytest.mark.parametrize("name", ["q3", "markov", "q5", "dell", "sklyanin",
                                  "quadrics61", "askey_wilson", "euler_top",
                                  "bdu_casimirs"])
def test_theorem31_report_matches_wedge_power_oracle_on_the_catalog(name):
    for bindings in [None] + list(catalog.entry(name).alternates):
        built = catalog.build(name, bindings)
        spec = dsl.parse_model(dsl.render_model(dsl.model_spec_from_built(built)))
        ps, qs = spec.build_structure(), spec.casimir_polys()
        assert outcome(duality_check, ps, qs) == outcome(duality_check_by_wedges, ps, qs)


@pytest.mark.parametrize("n", [9, 10])
def test_jacobian_and_nambu_brackets_refuse_more_than_max_dim(n):
    v = tuple(f"x{i + 1}" for i in range(n))
    x = PolyExpr.gens(v)
    qs = [x[k] ** 2 + x[k + 1] * x[k + 2] for k in range(n - 2)]
    with pytest.raises(DomainError, match=f"ambient dimension {n} exceeds {MAX_DIM}"):
        jacobian_structure(v, qs)
    ns = NambuStructure(v, qs[:1])
    with pytest.raises(DomainError, match=f"ambient dimension {n} exceeds {MAX_DIM}"):
        nambu_vector_field(ns, x[:n - 2])


@pytest.mark.parametrize("n", [2, 3, 8, 10, 12])
def test_merge_sign_of_a_pair_and_its_complement(n):
    """The shuffle ({i, j}, rest) has i + j - 1 inversions, at every n."""
    full = (1 << n) - 1
    for i, j in combinations(range(n), 2):
        pair = 1 << i | 1 << j
        assert merge_sign(pair, full ^ pair) == (-1) ** (i + j - 1), (n, i, j)


# ---------------- the trusted constructor ----------------

def checked_copy(ps):
    """``ps`` rebuilt by ``from_table`` from its upper entries, which it
    checks; equal to ``ps`` only if ``ps`` is zero on the diagonal and
    antisymmetric."""
    return PoissonStructure.from_table(ps.vars, dict(ps.entries_upper()))


def test_jacobian_structure_passes_the_checked_constructor():
    v = VARS[:5]
    x = PolyExpr.gens(v)
    qs = [x[0] * x[1] + x[2] ** 2, x[3] * x[4] - x[0], x[2] + x[4] ** 3]
    ps = jacobian_structure(v, qs, x[0] - 2)
    assert checked_copy(ps) == ps
    assert ps.casimirs == tuple(qs)
    assert ps._casimir_minors == wedge_all([differential(q) for q in qs]).coeffs
    assert all(ps.matrix[i][i].is_zero() for i in range(5))


def test_transported_structure_passes_the_checked_constructor():
    q3 = catalog.build("q3", {"k": F(3)}).structure
    mmap = MonomialMap.from_monomials(q3.vars, [
        ("y1", PolyExpr(q3.vars, {(0, 1, 0): 1})),
        ("y2", PolyExpr(q3.vars, {(1, 0, 0): 2})),
        ("y3", PolyExpr(q3.vars, {(0, 0, 1): F(1, 3)}))])
    result = transport_bracket(q3, mmap)
    ps = result.structure()
    assert checked_copy(ps) == ps
    assert ps.casimirs == ()
    ps.matrix[0][1] = ps.matrix[1][0]       # the structure holds its own rows
    assert result.entries[0][1] == -ps.matrix[0][1]
