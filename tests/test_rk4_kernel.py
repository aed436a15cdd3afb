"""The generated RK4 run against the list form it replaced, bit for bit.

``integrate`` runs one generated function per call: the field and the
monitors are called with positional floats, and the stages, the update,
the ``isfinite`` test and the drift maxima are inline code.  ``reference_rk4`` is
the list form over ``eval_float``.  Every time, state and drift must have
the same bits, and a divergence must report the same last valid time.
"""

import math
import struct
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import trajectory_states
from ppa import catalog, dsl
from ppa.dynamics import PolyVectorField, hamiltonian_vector_field, integrate
from ppa.errors import DivergenceError
from ppa.poly import PolyExpr

VARS = ("x1", "x2", "x3", "x4")


def reference_rk4(components, x0, step, steps, monitors):
    """``(times, states, drifts)``, or ``("diverged", t)``: classical RK4
    with every value from ``eval_float`` and the stages as lists."""
    n = len(x0)

    def f(x):
        return [c.eval_float(x) for c in components]

    def mon(x):
        return [p.eval_float(x) for p in monitors]

    x = [float(v) for v in x0]
    times, states = [0.0], [tuple(x)]
    t = 0.0
    half = step / 2.0
    sixth = step / 6.0
    try:
        base = mon(x)
        scale = [max(1.0, abs(b)) for b in base]
        drift = [0.0] * len(monitors)
        for s in range(steps):
            k1 = f(x)
            k2 = f([x[i] + half * k1[i] for i in range(n)])
            k3 = f([x[i] + half * k2[i] for i in range(n)])
            k4 = f([x[i] + step * k3[i] for i in range(n)])
            x = [x[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                 for i in range(n)]
            if not all(map(math.isfinite, x)):
                return "diverged", t
            values = mon(x)
            t = (s + 1) * step
            times.append(t)
            states.append(tuple(x))
            for j, (v, b, sc) in enumerate(zip(values, base, scale)):
                d = abs(v - b) / sc
                if d > drift[j]:
                    drift[j] = d
    except OverflowError:
        return "diverged", t
    return times, states, drift


def bits(value):
    """Every float in ``value`` as its 8 bytes, so -0.0 differs from 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def kernel_run(field, x0, step, steps, monitors):
    named = [(f"M{j}", p) for j, p in enumerate(monitors)]
    try:
        rep = integrate(field, x0, step, steps * step, named)
    except DivergenceError as e:
        return "diverged", e.last_valid_time
    return (list(rep.times), trajectory_states(rep),
            [rep.drift[name] for name, _ in named])


def assert_same_run(field, x0, step, steps, monitors):
    got = kernel_run(field, x0, step, steps, monitors)
    want = reference_rk4(field.components, x0, step, steps,
                         [p.with_vars(field.vars) for p in monitors])
    assert bits(got) == bits(want)
    return got


def polys(n):
    mono = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.fractions(-4, 4, max_denominator=7).filter(bool)
    general = st.dictionaries(mono, coeff, max_size=4)
    constant = coeff.map(lambda c: {(0,) * n: c})
    return st.one_of(st.just({}), constant, general).map(
        lambda d: PolyExpr(VARS[:n], d))


@st.composite
def runs(draw):
    n = draw(st.integers(1, 4))
    field = PolyVectorField(VARS[:n], draw(st.lists(polys(n), min_size=n,
                                                    max_size=n)))
    x0 = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    step = draw(st.sampled_from([1e-3, 0.01, 0.05, 0.125, 0.3]))
    steps = draw(st.integers(1, 30))
    monitors = draw(st.lists(polys(n), max_size=3))
    return field, x0, step, steps, monitors


@settings(max_examples=150, deadline=None)
@given(runs())
def test_random_fields_match_list_form(run):
    assert_same_run(*run)


def _catalog_requests():
    for name in catalog.names():
        for i, bindings in enumerate([None] + catalog.entry(name).alternates):
            if catalog.build(name, bindings).integrate:
                yield pytest.param(name, bindings, id=f"{name}-{i}")


@pytest.mark.parametrize("name,bindings", list(_catalog_requests()))
def test_catalog_requests_match_list_form(name, bindings):
    built = catalog.build(name, bindings)
    spec = dsl.parse_model(dsl.render_model(dsl.model_spec_from_built(built)),
                           name=name)
    req = spec.integrate
    field = hamiltonian_vector_field(spec.build_structure(), spec.hamiltonians[0])
    monitors = [spec.named_poly(m) for m in req.monitors]
    times, _, _ = assert_same_run(field, req.x0, req.step, 100, monitors)
    assert len(times) == 101


def test_blow_up_reports_the_same_last_valid_time():
    x1, = PolyExpr.gens(("x1",))
    field = PolyVectorField(("x1",), [x1 ** 2])
    # x = 1/(1 - t) leaves the float range shortly after t = 1
    outcome = assert_same_run(field, [1.0], 1e-3, 2000, [x1])
    assert outcome[0] == "diverged" and 1.0 < outcome[1] < 1.1


def test_overflow_in_a_monitor_reports_the_same_last_valid_time():
    x1, = PolyExpr.gens(("x1",))
    field = PolyVectorField(("x1",), [PolyExpr.const(("x1",), 2 * 10 ** 102)])
    assert assert_same_run(field, [0.0], 1.0, 10, [x1, x1 ** 3]) == ("diverged", 2.0)


def test_eval_float_monitors_match_list_form():
    v = ("x1", "x2")
    x1, x2 = PolyExpr.gens(v)
    field = PolyVectorField(v, [PolyExpr.const(v, 1), -x1 * x2])
    root = PolyExpr(v, {(F(1, 2), 1): F(3), (0, 2): F(1, 3)})
    outcome = assert_same_run(field, [1.0, 0.5], 0.01, 50, [root, x1 * x2])
    assert outcome[0] != "diverged"



def test_a_negated_product_at_zero_sums_to_positive_zero():
    v = ("x1", "x2", "x3")
    x1, x2, x3 = PolyExpr.gens(v)
    zero = PolyExpr.zero(v)
    # -x1*x3 is -0.0 at x1 = 0.0; its sum is +0.0, which moves x2 from -0.0
    # to +0.0 (a -0.0 would leave it at -0.0)
    field = PolyVectorField(v, [zero, -x1 * x3, zero])
    times, states, _ = assert_same_run(field, [0.0, -0.0, 1.0], 0.1, 3, [-x1 * x3])
    assert bits(states[0][1]) == bits(-0.0) and bits(states[1][1]) == bits(0.0)


def test_overflow_inside_a_stage_reports_the_same_last_valid_time():
    v = ("x1", "x2")
    x1, x2 = PolyExpr.gens(v)
    # x2 = 10^153 t; x2 ** 2 overflows once x2 passes 1.34e154: the stage
    # point x2 + step/2 * 10^153 does so at t = 13, where x2 itself does not
    field = PolyVectorField(v, [x2 ** 2 * F(1, 10 ** 10), PolyExpr.const(v, 10 ** 153)])
    assert assert_same_run(field, [0.0, 0.0], 1.0, 30, [x1]) == ("diverged", 13.0)
