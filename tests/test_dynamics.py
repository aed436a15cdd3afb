"""Vector fields, conservation, decoupling, RK4 drift."""

import csv
import math
from fractions import Fraction as F

import pytest

from ppa import catalog, dsl, dynamics
from ppa.dynamics import (MAX_STEPS, PolyVectorField, decoupling_check,
                          fairlie_field, hamiltonian_vector_field, integrate,
                          nambu_vector_field, write_trajectory_csv)
from ppa.errors import DivergenceError, DomainError
from ppa.poly import PolyExpr
from ppa.structures import NambuStructure, nambu_bracket

# Euler-top drift at step 1e-3 sits at the roundoff floor; the frozen value
# is the regression number for this integrator on this platform.
EULER_DRIFT_REGRESSION = 8.992806499463768e-15


def euler_model():
    return catalog.build("euler_top")


# ---------------- fields ----------------

def test_sklyanin_vertex_flow():
    m = catalog.build("sklyanin")              # J = (1, 2, 3), multiplier 1/4
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    x1, x2, x3, x4 = PolyExpr.gens(m.vars)
    assert f.components[0] == x2 * x3          # (J3 - J2) x2 x3
    assert f.components[1] == x1 * x3 * (-2)   # (J1 - J3) x1 x3
    assert f.components[2] == x1 * x2          # (J2 - J1) x1 x2
    assert f.components[3].is_zero()


def test_euler_flow():
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    x1, x2, x3 = PolyExpr.gens(m.vars)
    assert f.components[0] == x2 * x3 * (-1)   # (J2 - J3) x2 x3
    assert f.components[1] == x1 * x3 * 2      # (J3 - J1) x1 x3
    assert f.components[2] == x1 * x2 * (-1)   # (J1 - J2) x1 x2


def test_dell_flow_is_quartic_product_system():
    m = catalog.build("dell")
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    x1, x2, x3, x4, x5, x6 = PolyExpr.gens(m.vars)
    assert f.components[0] == x2 * x3 * x4 * x6
    assert f.components[1] == x1 * x3 * x4 * x6
    assert f.components[2] == x1 * x2 * x4 * x6
    assert f.components[3] == x1 * x2 * x3 * x6 * 4
    assert f.components[4].is_zero()
    assert f.components[5].is_zero()


def test_casimirs_are_constants_of_every_flow():
    for name in ("q3", "sklyanin", "dell"):
        m = catalog.build(name)
        h = m.hamiltonians[0] if m.hamiltonians \
            else PolyExpr.var(m.vars[0], m.vars) * PolyExpr.var(m.vars[1], m.vars)
        f = hamiltonian_vector_field(m.structure, h)
        for q in m.casimir_polys():
            assert f.apply_to(q).is_zero(), name


def test_energy_conserved():
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    assert f.apply_to(m.hamiltonians[0]).is_zero()


def test_x6_and_quadrics_conserved_in_dell():
    m = catalog.build("dell")
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    invs = m.casimir_polys() + [PolyExpr.var("x6", m.vars)]
    assert all(f.apply_to(q).is_zero() for q in invs)


def test_zero_field_conserves_everything():
    f = PolyVectorField(("x1", "x2"), [PolyExpr.zero(("x1", "x2"))] * 2)
    x1, x2 = PolyExpr.gens(("x1", "x2"))
    assert f.apply_to(x1 * x2 + x1).is_zero()


def test_nambu_field_proportional_to_poisson_flow():
    dl = catalog.build("dell")
    dn = catalog.build("dell_nambu")
    fd = hamiltonian_vector_field(dl.structure, dl.hamiltonians[0])
    fn = nambu_vector_field(dn.structure, dn.hamiltonians)
    one = PolyExpr.const(dl.vars, 1)
    for i in range(4):
        restricted = fd.components[i].subs_var("x6", one).with_vars(dn.vars)
        assert restricted == fn.components[i]
    assert fn.components[4].is_zero()


def test_nambu_field_components_are_the_brackets_with_their_term_order():
    # one cofactor row gives every {H_1, ..., H_{r-1}, x_i}, term for term
    cases = [(m.structure, m.hamiltonians)
             for m in (catalog.build(name, b) for name in catalog.names()
                       for b in [None] + list(catalog.entry(name).alternates))
             if isinstance(m.structure, NambuStructure)]
    assert len(cases) == 6
    x1, x2, x3 = PolyExpr.gens(("x1", "x2", "x3"))
    cases.append((NambuStructure(x1.vars, [], x1 + x2 * 2), [x1 * x3 + x2 ** 2, x3 - x1]))
    for ns, hams in cases:
        field = nambu_vector_field(ns, hams)
        for x, c in zip(PolyExpr.gens(ns.vars), field.components):
            assert list(c.terms.items()) == \
                list(nambu_bracket(ns, list(hams) + [x]).terms.items())


def test_fairlie_flow_matches_its_nambu_presentation():
    m = catalog.build("fairlie")
    field = fairlie_field(F(4))
    via_brackets = nambu_vector_field(m.structure, m.hamiltonians)
    assert field.components == via_brackets.components


def test_fairlie_decoupling_difference_conserved():
    field = fairlie_field(F(4))
    v5 = field.vars + ("a",)
    x1, x2, x3, x4, a = PolyExpr.gens(v5)
    up = x3 * x4 + x1 * x2 * 2
    vp = x2 * x4 + x1 * x3 * 2
    lifted = PolyVectorField(v5, [c.with_vars(v5) for c in field.components]
                             + [PolyExpr.zero(v5)])
    assert lifted.apply_to(up * up - vp * vp).is_zero()


# ---------------- decoupling ----------------

def test_decoupling_solves_square_root():
    rep = decoupling_check(F(4))
    assert rep.solved_coefficient == 2
    assert rep.nahm_match
    assert all(r.is_zero() for r in rep.residuals_at_solution)
    assert rep.conserved_difference.is_zero()


def test_decoupling_literal_residual():
    rep = decoupling_check(F(4))
    v4 = ("x1", "x2", "x3", "x4")
    x1, x2, x3, x4 = PolyExpr.gens(v4)
    assert rep.plus_residual.with_vars(v4) == x1 * x2 * x3 ** 2 * 12
    assert rep.minus_residual.with_vars(v4) == x1 * x2 * x3 ** 2 * 12


def test_decoupling_unit_coupling_literal_works():
    rep = decoupling_check(F(1))
    assert rep.solved_coefficient == 1 and rep.nahm_match
    assert rep.plus_residual.is_zero() and rep.minus_residual.is_zero()


def test_decoupling_irrational_root_floating():
    rep = decoupling_check(F(2))
    assert rep.solved_coefficient is None
    assert rep.solved_float == pytest.approx(math.sqrt(2.0))
    assert rep.nahm_match


@pytest.mark.parametrize("g2", [F(1000001), F(123456789), F(10**12 + 1)])
def test_decoupling_matches_exactly_for_large_irrational_roots(g2):
    rep = decoupling_check(g2)
    assert rep.solved_coefficient is None and rep.nahm_match
    assert rep.solved_float == pytest.approx(math.sqrt(float(g2)))


def test_decoupling_guards():
    with pytest.raises(DomainError):
        decoupling_check(F(-1))


def test_conserved_difference_factorization():
    v5 = ("x1", "x2", "x3", "x4", "a")
    x1, x2, x3, x4, a = PolyExpr.gens(v5)
    up = x3 * x4 + a * x1 * x2
    vp = x2 * x4 + a * x1 * x3
    lhs = up * up - vp * vp
    rhs = (x3 * x3 - x2 * x2) * (x4 * x4 - a * a * x1 * x1)
    assert lhs == rhs


# ---------------- integration ----------------

def test_zero_field_constant_trajectory():
    v = ("x1", "x2")
    f = PolyVectorField(v, [PolyExpr.zero(v)] * 2)
    x1, _ = PolyExpr.gens(v)
    rep = integrate(f, (1.5, -2.0), 0.1, 1.0, [("x1", x1)])
    assert rep.drift["x1"] == 0.0
    assert all(s == (1.5, -2.0) for s in rep.states)


def test_euler_drift_regression():
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    rep = integrate(f, (1.0, 0.5, 0.25), 1e-3, 10.0,
                    [("Q1", m.casimirs[0][1])])
    assert rep.drift["Q1"] <= 1e-8
    assert rep.drift["Q1"] == EULER_DRIFT_REGRESSION


def test_step_halving_fourth_order():
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    mon = [("Q1", m.casimirs[0][1])]
    # truncation-dominated regime; at 1e-3 the drift sits on the roundoff floor
    d_coarse = integrate(f, (1.0, 0.5, 0.25), 0.05, 10.0, mon).drift["Q1"]
    d_fine = integrate(f, (1.0, 0.5, 0.25), 0.025, 10.0, mon).drift["Q1"]
    assert d_coarse / d_fine >= 8.0


def test_dell_window_conserves_quadrics():
    m = catalog.build("dell")
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    monitors = list(m.casimirs) + [("x6", PolyExpr.var("x6", m.vars))]
    rep = integrate(f, m.integrate.x0, 1e-3, 0.15, monitors)
    assert max(rep.drift.values()) <= 1e-8


def test_dell_long_horizon_diverges():
    m = catalog.build("dell")
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    with pytest.raises(DivergenceError) as e:
        integrate(f, m.integrate.x0, 1e-3, 10.0, [])
    assert 0.1 < e.value.last_valid_time < 1.0


def test_invalid_integration_arguments():
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    with pytest.raises(DomainError):
        integrate(f, (1.0, 0.5, 0.25), -0.1, 1.0, [])
    with pytest.raises(DomainError):
        integrate(f, (1.0, 0.5), 0.1, 1.0, [])


def test_window_over_max_steps_rejected():
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    for step, t_end in ((1e-9, 1e9), (1.0, MAX_STEPS + 1.0), (1e-300, 1e300),
                        (1e-3, math.inf)):
        with pytest.raises(DomainError):
            integrate(f, (1.0, 0.5, 0.25), step, t_end, [])


def test_window_not_a_whole_number_of_steps_rejected():
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    with pytest.raises(DomainError) as e:
        integrate(f, (1.0, 0.5, 0.25), 0.3, 1.0, [])
    assert "nearest reachable t_end is 0.9" in str(e.value)
    with pytest.raises(DomainError) as e:
        integrate(f, (1.0, 0.5, 0.25), 1.0, 0.4, [])
    assert "nearest reachable t_end is 1" in str(e.value)
    # a window that is whole up to float rounding ends on steps * step
    rep = integrate(f, (1.0, 0.5, 0.25), 0.1, 0.7, [])
    assert len(rep.times) == 8 and rep.times[-1] == pytest.approx(0.7)


def test_trajectory_csv_format(tmp_path):
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    mon = [("Q1", m.casimirs[0][1])]
    rep = integrate(f, (1.0, 0.5, 0.25), 0.25, 1.0, mon)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rep, m.vars, mon, path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["t", "x1", "x2", "x3", "Q1"]
    assert len(rows) == 1 + len(rep.times)
    # 17 significant digits survive a float round-trip
    for text, value in zip(rows[2][1:4], rep.states[1]):
        assert float(text) == value


def reference_csv(report, field_vars, monitors):
    """The trajectory CSV written term by term: "%.17g" on each time,
    coordinate and eval_float monitor value."""
    lines = [",".join(["t", *field_vars, *(name for name, _ in monitors)])]
    for t, state in zip(report.times, report.states):
        values = [t, *state, *(p.eval_float(list(state)) for _, p in monitors)]
        lines.append(",".join("%.17g" % v for v in values))
    return "".join(line + "\n" for line in lines).encode()


def reference_drift(report, monitors):
    out = {}
    for name, p in monitors:
        base = p.eval_float(list(report.states[0]))
        out[name] = max(abs(p.eval_float(list(s)) - base) / max(1.0, abs(base))
                        for s in report.states)
    return out


@pytest.mark.parametrize("name,bindings", [
    (name, b) for name in ("euler_top", "dell")
    for b in [None] + catalog.entry(name).alternates])
def test_csv_and_drift_match_eval_float(tmp_path, name, bindings):
    text = dsl.render_model(dsl.model_spec_from_built(catalog.build(name, bindings)))
    spec = dsl.parse_model(text, name=name)
    req = spec.integrate
    field = hamiltonian_vector_field(spec.build_structure(), spec.hamiltonians[0])
    monitors = [(m, spec.named_poly(m)) for m in req.monitors]
    rep = integrate(field, req.x0, req.step, 100 * req.step, monitors)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rep, spec.vars, monitors, path)
    assert path.read_bytes() == reference_csv(rep, spec.vars, monitors)
    assert rep.drift == reference_drift(rep, monitors)


def test_fractional_monitor_keeps_domain_error():
    v = ("x1", "x2")
    f = PolyVectorField(v, [PolyExpr.const(v, -1), PolyExpr.zero(v)])
    root = PolyExpr(v, {(F(1, 2), 0): F(1)})
    rep = integrate(f, (1.0, 0.0), 0.25, 0.5, [("r", root)])
    assert rep.drift["r"] == pytest.approx(1 - math.sqrt(0.5))
    with pytest.raises(DomainError):
        integrate(f, (1.0, 0.0), 0.25, 2.0, [("r", root)])


def test_overflow_in_a_step_is_divergence():
    v = ("x1",)
    x1, = PolyExpr.gens(v)
    f = PolyVectorField(v, [x1 ** 2])
    with pytest.raises(DivergenceError) as e:
        integrate(f, (1e100,), 1e-3, 1.0, [])
    assert e.value.last_valid_time == 0.0
    # x1 = 2e102 * t stays finite; its cube overflows at t = 3
    drift = PolyVectorField(v, [PolyExpr.const(v, 2 * 10 ** 102)])
    with pytest.raises(DivergenceError) as e:
        integrate(drift, (0.0,), 1.0, 10.0, [("cube", x1 ** 3)])
    assert e.value.last_valid_time == 2.0


def test_report_views_are_read_only():
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    rep = integrate(f, (1.0, 0.5, 0.25), 0.25, 1.0, [("Q1", m.casimirs[0][1])])
    assert list(rep.times) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(rep.states) == 5 and rep.states[0] == (1.0, 0.5, 0.25)
    assert rep.states[-1] == rep.states[4]
    assert rep.states[1:3] == list(rep.states)[1:3]
    with pytest.raises(TypeError):
        rep.times[0] = 1.0
    with pytest.raises(TypeError):
        rep.states[0] = (0.0, 0.0, 0.0)
    with pytest.raises(IndexError):
        rep.states[5]


def test_csv_monitors_must_be_the_reports(tmp_path):
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    q1 = ("Q1", m.casimirs[0][1])
    energy = ("H", m.hamiltonians[0])
    rep = integrate(f, (1.0, 0.5, 0.25), 0.1, 1.0, [q1])
    path = tmp_path / "traj.csv"
    for monitors in ([], [energy], [q1, energy]):
        with pytest.raises(DomainError, match="monitors"):
            write_trajectory_csv(rep, m.vars, monitors, path)
    with pytest.raises(DomainError, match="dimension"):
        write_trajectory_csv(rep, m.vars[:2], [q1], path)
    assert not path.exists()
    write_trajectory_csv(rep, m.vars, [q1], path)
    assert len(path.read_text().splitlines()) == 12


class FailingFile:
    """A text file whose second write raises, after the first went out."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return self.fh.write(text)


def test_csv_write_failing_part_way_keeps_the_old_file(tmp_path, monkeypatch):
    m = euler_model()
    f = hamiltonian_vector_field(m.structure, m.hamiltonians[0])
    mon = [("Q1", m.casimirs[0][1])]
    rep = integrate(f, (1.0, 0.5, 0.25), 0.01, 5.0, mon)
    path = tmp_path / "traj.csv"
    path.write_text("old contents\n")
    monkeypatch.setattr(dynamics, "open",
                        lambda *a, **k: FailingFile(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="no space"):
        write_trajectory_csv(rep, m.vars, mon, path)
    assert path.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]
    monkeypatch.undo()
    write_trajectory_csv(rep, m.vars, mon, path)
    assert len(path.read_text().splitlines()) == 1 + len(rep.times)
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]
