"""The four benchmark workloads: seeded inputs, one pass of work, known answers.

Every workload is built in two phases.  The constructor is the set-up: it
imports ppa, generates the inputs from the workload seed and parses or builds
them, so its cost is what ``setup_s`` measures.  ``run_pass`` then performs
one pass over those inputs, timing each request (one model checked, one
integration job, one k through both mirror maps) and comparing every output
with an answer known by construction.  A pass always covers the whole input
set, so a pass is the same work on every commit.

The program sees only the generated inputs: DSL text for the synthetic
structures is written here, and the catalog models are emitted through
``render_model`` just as ``ppa catalog --emit`` would write them.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from fractions import Fraction

perf = time.perf_counter


class PassStats:
    """Per-run accumulator: request times, known-answer outcomes, and the
    work counters that turn into rates."""

    def __init__(self):
        self.op_s = []          # seconds of every request, in order
        self.best = {}          # request key -> fastest seconds seen
        self.work_of = {}       # request key -> work units it does
        self.work = 0           # work units (verdicts, RK4 steps, round trips)
        self.attempted = 0
        self.wrong = 0
        self.errors = []        # first few mismatch descriptions
        self.extra = {}         # named counters summed over the run

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def record(self, key, seconds, work, ok, what):
        self.op_s.append(seconds)
        self.best[key] = min(seconds, self.best.get(key, seconds))
        self.work_of[key] = work
        self.work += work
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what):
        self.wrong += 1
        if len(self.errors) < 5:
            self.errors.append(what)


# ---------------------------------------------------------------- checks ---

def _check_one(text, name, seed):
    """One ``ppa check``: DSL text to serialized report, as the CLI does."""
    from ppa import dsl, runner
    spec = dsl.parse_model(text, name=name)
    report = runner.run_checks(spec, seed=seed)
    return report, report.to_json()


class _ModelChecks:
    """A workload whose request is one ``ppa check``.  ``models`` holds
    (name, DSL text, check seed, expected answer) tuples; the reports of a
    pass are hashed, and every pass must give the same bytes."""

    def run_pass(self, stats, span):
        digest = hashlib.sha256()
        from ppa.errors import PpaError
        for key, (name, text, seed, expected) in enumerate(self.models):
            t0 = perf()
            try:
                with span("bench.request"):
                    report, js = _check_one(text, name, seed)
            except PpaError as e:
                stats.record(key, perf() - t0, 1, False, f"{name}: {e}")
                continue
            t1 = perf()
            digest.update(js.encode())
            wrong = self.wrong_answer(report, expected)
            stats.record(key, t1 - t0, 1, not wrong, f"{name}: {wrong}")
        h = digest.hexdigest()
        if self.output_hash is None:
            self.output_hash = h
        elif h != self.output_hash:
            stats.fail("reports differ between passes")


class CatalogSweep(_ModelChecks):
    """All catalog entries at their defaults plus every alternate binding."""

    name = "catalog_sweep"

    def __init__(self, seed, workdir):
        from ppa import catalog, dsl
        rng = random.Random(seed)
        self.models = []
        for entry_name in catalog.names():
            entry = catalog.entry(entry_name)
            for bindings in [None] + list(entry.alternates):
                built = catalog.build(entry_name, bindings)
                text = dsl.render_model(dsl.model_spec_from_built(built))
                dsl.parse_model(text, name=entry_name).build_structure()
                self.models.append((entry_name, text, rng.randrange(1 << 16), None))
        self.output_hash = None

    def warm_up(self):
        for name, text, seed, _ in self.models:
            _check_one(text, name, seed)

    @staticmethod
    def wrong_answer(report, expected):
        bad = [r.name for r in report.results if r.status == "fail"]
        return f"{', '.join(bad)} failed" if bad else ""


# ---- synthetic Jacobian structures in six variables ----

N6 = 6
N6_QUADRICS = 4
N6_MONOMIALS = [(i, j) for i in range(N6) for j in range(i, N6)]
# Two-digit coefficients: with small ones, chance cancellations in the 4x4
# minors change the term counts, and with them the work, from seed to seed.
N6_COEFFS = [c for c in range(-99, 100) if abs(c) >= 10]
N6_MULTIPLIERS = [c for c in range(-9, 10) if c != 0]
# The supports of the quadrics are fixed, drawn once from this seed: the cost
# of a model depends mostly on which monomials its quadrics use (1.9 s to
# 4.3 s per model over seeds 1..8 at the parent of this benchmark), so a
# workload seed that redrew them would change how much work a run holds.
# The workload seed draws everything that leaves the work unchanged: a
# variable relabelling, the coefficients and the multiplier.
# Of the first eight shapes drawn, the first costs about 1 s per model at the
# parent of this benchmark (the others 1.2 s to 4.1 s).  One model of about
# a second lets a run check it some twenty times and keep the fastest time,
# which the host's noise needs (see METRICS.md).
N6_SHAPE_SEED = 20011003
N6_SHAPES_KEPT = (0,)


def _n6_shapes():
    rng = random.Random(N6_SHAPE_SEED)
    drawn = [[rng.sample(N6_MONOMIALS, 4) for _ in range(N6_QUADRICS)]
             for _ in range(max(N6_SHAPES_KEPT) + 1)]
    return [drawn[i] for i in N6_SHAPES_KEPT]


def _gradient_rank(quadrics, point):
    """Exact rank of the Jacobian matrix of the quadrics at a rational point;
    rank 4 means dQ1 ^ ... ^ dQ4 does not vanish there."""
    rows = []
    for q in quadrics:
        row = [Fraction(0)] * N6
        for (i, j), c in q:
            row[i] += c * point[j]
            row[j] += c * point[i]
        rows.append(row)
    rank = 0
    for col in range(N6):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _quadric_text(q):
    out = []
    for (i, j), c in q:
        mono = f"x{i + 1}^2" if i == j else f"x{i + 1}*x{j + 1}"
        sign = "-" if c < 0 else "+"
        out.append(f"{sign} {abs(c)}*{mono}")
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def n6_models(seed):
    """[(name, DSL text, multiplier)] for the workload seed."""
    rng = random.Random(seed)
    perm = list(range(N6))
    rng.shuffle(perm)
    models = []
    for idx, shape in enumerate(_n6_shapes()):
        for _ in range(100):
            quadrics = [[((min(perm[i], perm[j]), max(perm[i], perm[j])),
                          rng.choice(N6_COEFFS)) for i, j in support]
                        for support in shape]
            point = [Fraction(rng.randint(1, 97), rng.randint(1, 13))
                     for _ in range(N6)]
            if _gradient_rank(quadrics, point) == N6_QUADRICS:
                break
        else:
            raise RuntimeError(f"shape {idx} gives dependent quadrics")
        mult = rng.choice(N6_MULTIPLIERS)
        lines = ["vars " + " ".join(f"x{i + 1}" for i in range(N6)) + ";"]
        lines += [f"casimir Q{k + 1} = {_quadric_text(q)};"
                  for k, q in enumerate(quadrics)]
        lines += [f"structure jacobian lambda {mult};",
                  "check jacobi, casimirs, theorem31, plucker, rank;",
                  f"expect theorem31 = {mult};",
                  "expect plucker = true;",
                  "expect rank = 2;"]
        models.append((f"syn6_{idx}", "\n".join(lines) + "\n", mult))
    return models


class JacobianN6(_ModelChecks):
    """A seeded Jacobian structure from four integer quadrics in six variables."""

    name = "jacobian_n6"
    EXPECTED = [(c, "pass") for c in ("jacobi", "casimirs", "theorem31", "plucker", "rank")]

    def __init__(self, seed, workdir):
        from ppa import dsl
        self.models = [(name, text, seed, mult) for name, text, mult in n6_models(seed)]
        for name, text, _, _ in self.models:
            dsl.parse_model(text, name=name).build_structure()
        self.output_hash = None

    def warm_up(self):
        # dell is the catalog's six-variable Jacobian structure: it runs the
        # same predicates in well under a second.
        from ppa import catalog, dsl
        text = dsl.render_model(dsl.model_spec_from_built(catalog.build("dell")))
        _check_one(text, "dell", 0)

    def wrong_answer(self, report, mult):
        got = [(r.name, r.status) for r in report.results]
        lam = next((r.lam for r in report.results if r.name == "theorem31"), None)
        if got == self.EXPECTED and lam == str(mult):
            return ""
        return f"{got}, lambda' = {lam}, expected {mult}"


# ------------------------------------------------------------ integration ---

EULER_STARTS = 4
EULER_STEP = 1e-3
EULER_T_END = 5.0
DRIFT_LIMIT = 1e-8


class IntegrateFlows:
    """euler_top over a long horizon from seeded points, plus the dell window."""

    name = "integrate_flows"

    def __init__(self, seed, workdir):
        from ppa import catalog, dsl
        from ppa.dynamics import hamiltonian_vector_field

        def flow(name):
            text = dsl.render_model(dsl.model_spec_from_built(catalog.build(name)))
            spec = dsl.parse_model(text, name=name)
            return spec, hamiltonian_vector_field(spec.build_structure(),
                                                  spec.hamiltonians[0])

        rng = random.Random(seed)
        self.csv_path = os.path.join(workdir, "trajectory.csv")
        euler, euler_field = flow("euler_top")
        # energy joins the Casimir as a monitored invariant
        euler_monitors = [("Q1", euler.named_poly("Q1")), ("H", euler.hamiltonians[0])]
        dell, dell_field = flow("dell")
        req = dell.integrate
        dell_window = ("dell", dell_field, dell.vars, req.x0, req.step, req.t_end,
                       [(m, dell.named_poly(m)) for m in req.monitors])
        # One job is one euler_top trajectory from a seeded start and one dell
        # window, each integrated and written out as CSV.
        self.jobs = []
        for _ in range(EULER_STARTS):
            x0 = tuple(rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) for _ in euler.vars)
            self.jobs.append([("euler_top", euler_field, euler.vars, x0, EULER_STEP,
                               EULER_T_END, euler_monitors), dell_window])
        self.output_hash = None     # trajectories are float: only counts are pinned

    def warm_up(self):
        self._job(0, self.jobs[0], PassStats())

    def _job(self, key, job, stats):
        from ppa.dynamics import integrate, write_trajectory_csv
        from ppa.errors import DivergenceError
        op = 0.0
        work = 0
        ok = True
        why = ""
        for label, field, vars_, x0, step, t_end, monitors in job:
            t0 = perf()
            try:
                traj = integrate(field, x0, step, t_end, monitors)
            except DivergenceError as e:
                op += perf() - t0
                ok, why = False, f"{label}: diverged at t = {e.last_valid_time}"
                continue
            t1 = perf()
            write_trajectory_csv(traj, vars_, monitors, self.csv_path)
            t2 = perf()
            op += t2 - t0
            steps = len(traj.times) - 1
            with open(self.csv_path, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            stats.add("rk4_steps", steps)
            stats.add("rk4_s", t1 - t0)
            stats.add("csv_rows", rows)
            stats.add("csv_s", t2 - t1)
            work += steps
            drift = max(traj.drift.values())
            if steps != round(t_end / step) or rows != steps + 1 or drift > DRIFT_LIMIT:
                ok, why = False, f"{label}: {steps} steps, {rows} rows, drift {drift:.3e}"
        stats.record(key, op, work, ok, why)

    def run_pass(self, stats, span):
        for key, job in enumerate(self.jobs):
            with span("bench.request"):
                self._job(key, job, stats)


# -------------------------------------------------------------- transport ---

# The two mirror maps of the paper, with their Jacobian constants.
MAP_A = ([[1, 0, 0], [0, 1, Fraction(-1, 2)], [0, 0, Fraction(3, 2)]], Fraction(3, 2))
MAP_B = ([[Fraction(-3, 4), Fraction(3, 2), 0], [Fraction(1, 4), Fraction(-1, 2), 1],
          [Fraction(3, 2), 0, 0]], Fraction(9, 4))
TRANSPORT_KS = 4


class TransportCharts:
    """q3 at seeded k through both mirror maps and back, plus the K3 charts."""

    name = "transport_charts"

    def __init__(self, seed, workdir):
        from ppa import catalog
        from ppa.poly import MonomialMap
        rng = random.Random(seed)
        v3 = ("x1", "x2", "x3")
        ks = set()
        while len(ks) < TRANSPORT_KS:
            ks.add(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))
        self.maps = []
        for (matrix, const), image, new_vars in ((MAP_A, "mirror_y", ("y1", "y2", "y3")),
                                                (MAP_B, "mirror_z", ("z1", "z2", "z3"))):
            mmap = MonomialMap(v3, new_vars, matrix)
            self.maps.append((mmap, mmap.inverse(), const, image))
        self.cases = []
        for k in sorted(ks):
            q3 = catalog.build("q3", {"k": k})
            images = []
            for mmap, inv, const, image in self.maps:
                img = catalog.build(image, {"k": k})
                pc = img.casimirs[0][1]
                n = img.vars
                # {y1,y2} = c dP/dy3, {y2,y3} = c dP/dy1, {y3,y1} = c dP/dy2
                want = {(0, 1): pc.diff(n[2]) * const, (1, 2): pc.diff(n[0]) * const,
                        (2, 0): pc.diff(n[1]) * const}
                images.append((want, pc))
            self.cases.append((k, q3.structure, q3.casimirs[0][1], images))
        aff = catalog.build("singular_k3_affine")
        spl = catalog.build("singular_k3_split")
        self.charts = (aff.structure, spl.structure, spl.casimirs[0][1])
        self.output_hash = None

    def warm_up(self):
        self._case(0, self.cases[0], PassStats())

    def _case(self, key, case, stats):
        from ppa.errors import PpaError
        from ppa.geometry import chart_compare, transport_bracket
        from ppa.poly import substitute
        k, ps, p, images = case
        t0 = perf()
        bad = []
        try:
            for (mmap, inv, const, image), (want, pc) in zip(self.maps, images):
                res = transport_bracket(ps, mmap)
                if not res.polynomial_grade:
                    bad.append(f"{image}: not polynomial-grade")
                    continue
                if mmap.jacobian_det_monomial() != const:
                    bad.append(f"{image}: Jacobian constant")
                if any(res.entries[i][j] != w for (i, j), w in want.items()):
                    bad.append(f"{image}: entries differ from the gradient")
                back = transport_bracket(res.structure(), inv)
                if not back.polynomial_grade or back.structure() != ps:
                    bad.append(f"{image}: round trip")
                if substitute(p, mmap) != pc:
                    bad.append(f"{image}: Casimir")
            cc = chart_compare(*self.charts)
            if cc.constant != -1:
                bad.append(f"chart constant {cc.constant}")
        except PpaError as e:
            bad.append(str(e))
        stats.record(key, perf() - t0, len(self.maps), not bad,
                     f"k = {k}: {'; '.join(bad)}")

    def run_pass(self, stats, span):
        for key, case in enumerate(self.cases):
            with span("bench.request"):
                self._case(key, case, stats)


WORKLOADS = {w.name: w for w in (CatalogSweep, JacobianN6, IntegrateFlows, TransportCharts)}
