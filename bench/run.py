"""Benchmark for ppa: one workload, one seed, one run.

    python3 bench/run.py --workload catalog_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; ppa is imported from ``src/``.  The run is
single-process and single-threaded, one closed-loop client: each request
starts when the previous one has returned.  It prints readable lines first
and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs the same passes untraced and then traced, and reports the
per-layer metrics, averaged per pass.  The workloads, metrics and the
layer-to-metric interactions are described in bench/METRICS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
SETUP_PROBES = 11       # fresh processes timed for setup_s; the median counts
CLI_PROBES = 3          # sequential `ppa check` subprocesses; the median counts

REF_SHARE = 0.1         # share of each pass spent again on the reference kernel
REF_MIN_SAMPLES = 3
REF_TERMS = [((i, j, i * j % 5), Fraction(i + 1, j + 2)) for i in range(4) for j in range(4)]

perf = time.perf_counter


def reference_kernel():
    """A fixed sparse product in the standard library only: tuple exponent
    keys, Fraction coefficients, the same kind of work as ppa's polynomial
    kernel but none of its code.  Its time follows the speed the shared host
    gives this process, and nothing a change to ppa can do."""
    out = {}
    for m1, c1 in REF_TERMS:
        for m2, c2 in REF_TERMS:
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _no_span(name):
    return contextlib.nullcontext()


def measure(workload, stats, seconds, span=_no_span, refs=None):
    """Whole passes until ``seconds`` have gone by (at least one pass).

    With ``refs``, each pass is followed by reference-kernel samples for a
    tenth of the pass's time, so the host's speed is sampled all through
    the run."""
    passes = []
    deadline = perf() + seconds
    while True:
        t0 = perf()
        with span("bench.pass"):
            workload.run_pass(stats, span)
        t1 = perf()
        passes.append(t1 - t0)
        if refs is not None:
            until = t1 + REF_SHARE * (t1 - t0)
            start = len(refs)
            while len(refs) - start < REF_MIN_SAMPLES or perf() < until:
                r0 = perf()
                reference_kernel()
                refs.append(perf() - r0)
        if perf() >= deadline:
            return passes


def setup_probe_seconds(workload, seed):
    """Process start to the end of set-up, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    return float(out.split()[-1]) - t0


def cli_check_ms(workdir):
    """Wall time of one `ppa check` subprocess on an emitted catalog model."""
    from ppa import catalog, dsl
    path = os.path.join(workdir, "q3.ppa")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dsl.render_model(dsl.model_spec_from_built(catalog.build("q3"))))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_PROBES):
        t0 = perf()
        proc = subprocess.run([sys.executable, "-m", "ppa.cli", "check", path],
                              cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append((perf() - t0) * 1000)
        if proc.returncode != 0:
            raise RuntimeError(f"ppa check exited {proc.returncode}: {proc.stderr!r}")
    return statistics.median(times)


def commit_id():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ------------------------------------------------------------- untraced ---

def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples above it."""
    return max((q for q in range(50, 100) if n * (100 - q) / 100 >= 10), default=None)


def end_to_end(name, stats, setup_s, refs):
    """Request costs in reference units: each distinct request's fastest
    time in the run divided by the reference kernel's fastest time in the
    same run.  The host is shared: slow spells from other tenants only ever
    add time, and drifts in its speed move both figures alike, so the ratio
    keeps the program's cost and drops the host's load.  The raw times are
    printed beside them."""
    ref = min(refs)
    best = list(stats.best.values())
    rate = sum(stats.work_of.values()) / sum(best)
    best_ms = [s * 1000 for s in best]
    p50, p90 = statistics.median(best_ms), percentile(best_ms, 90)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_ref": (rate * ref, "1/ref"),
        "request_ref.p50": (p50 / 1000 / ref, "ref"),
        "request_ref.p90": (p90 / 1000 / ref, "ref"),
    }
    # Raw figures in real time, under per-workload names.
    named = {"wrong_frac": (stats.wrong / max(stats.attempted, 1), "1"),
             "host.ref_ms": (ref * 1000, "ms")}
    if name in ("catalog_sweep", "jacobian_n6"):
        named["verdicts_per_s"] = (rate, "1/s")
        named["verdict_ms.p50"] = (p50, "ms")
        if name == "catalog_sweep":
            named["verdict_ms.p90"] = (p90, "ms")
    elif name == "integrate_flows":
        x = stats.extra
        named["rk4_steps_per_s"] = (x["rk4_steps"] / x["rk4_s"], "1/s")
        named["csv_rows_per_s"] = (x["csv_rows"] / x["csv_s"], "1/s")
    else:
        named["transports_per_s"] = (rate, "1/s")
    all_ms = [s * 1000 for s in stats.op_s]
    named["requests"] = (len(all_ms), "count")
    named["request_ms.all.p50"] = (statistics.median(all_ms), "ms")
    q = tail_percentile(len(all_ms))
    if q is not None:
        named[f"request_ms.all.p{q}"] = (percentile(all_ms, q), "ms")
    return metrics, named


# --------------------------------------------------------------- traced ---

# metric -> (kind, source).  Self times and counts are per pass.
PER_LAYER = {
    "poly.mul.calls": ("calls", "poly.mul"),
    "poly.mul.term_pairs": ("counter", "poly.mul.term_pairs"),
    "poly.mul.self_s": ("self", "poly.mul"),
    "poly.init.calls": ("calls", "poly.init"),
    "poly.init.self_s": ("self", "poly.init"),
    "poly.diff.calls": ("calls", "poly.diff"),
    "poly.diff.self_s": ("self", "poly.diff"),
    "poly.add.calls": ("calls", "poly.add"),
    "poly.add.self_s": ("self", "poly.add"),
    "poly.max_terms": ("max", "poly.max_terms"),
    "poly.max_coeff_bits": ("max", "poly.max_coeff_bits"),
    "poly.eval_float.calls": ("calls", "poly.eval_float"),
    "poly.eval_float.self_s": ("self", "poly.eval_float"),
    "poly.eval_exact.self_s": ("self", "poly.eval_exact"),
    "poly.substitute.self_s": ("self", "poly.substitute"),
    "exterior.wedge.calls": ("calls", "exterior.wedge"),
    "exterior.wedge.self_s": ("self", "exterior.wedge"),
    "exterior.pfaffian.calls": ("calls", "exterior.pfaffian"),
    "exterior.pfaffian.self_s": ("self", "exterior.pfaffian"),
    "exterior.volume_dual.self_s": ("self", "exterior.volume_dual"),
    "structures.jacobian_structure.self_s": ("self", "structures.jacobian_structure"),
    "structures.check_jacobi.self_s": ("self", "structures.check_jacobi"),
    "structures.jacobiator.calls": ("calls", "structures.jacobiator"),
    "structures.bracket_of.calls": ("calls", "structures.bracket_of"),
    "structures.is_casimir.self_s": ("self", "structures.is_casimir"),
    "structures.plucker_rank2_test.self_s": ("self", "structures.plucker_rank2_test"),
    "structures.generic_rank.self_s": ("self", "structures.generic_rank"),
    "structures.nambu_bracket.self_s": ("self", "structures.nambu_bracket"),
    "duality.duality_check.self_s": ("self", "duality.duality_check"),
    "duality.duality_check.mul_calls": ("mul_inside", "duality.duality_check"),
    "geometry.transport_bracket.self_s": ("self", "geometry.transport_bracket"),
    "geometry.chart_compare.self_s": ("self", "geometry.chart_compare"),
    "geometry.check_projective_extendability.self_s":
        ("self", "geometry.check_projective_extendability"),
    "dynamics.field_evals": ("calls", "dynamics.field_eval"),
    "dynamics.field_eval.self_s": ("self", "dynamics.field_eval"),
    "dynamics.integrate.self_s": ("self", "dynamics.integrate"),
    "dynamics.write_trajectory_csv.self_s": ("self", "dynamics.write_trajectory_csv"),
    "dynamics.csv_bytes": ("counter", "dynamics.csv_bytes"),
    "dsl.parse_model.self_s": ("self", "dsl.parse_model"),
    "dsl.parse_model.bytes": ("counter", "dsl.parse_model.bytes"),
    "runner.run_checks.self_s": ("self", "runner.run_checks"),
    # these two run only while the inputs are built: measured on the set-up
    "dsl.render_model.self_s": ("setup_self", "dsl.render_model"),
    "catalog.build.self_s": ("setup_self", "catalog.build"),
}
LAYERS = ("poly", "exterior", "structures", "duality", "geometry", "dynamics",
          "dsl", "runner", "catalog", "bench", "trace")


def _diff(after, before):
    return {k: [v[0] - before.get(k, (0, 0.0))[0], v[1] - before.get(k, (0, 0.0))[1]]
            for k, v in after.items()}


def traced(cls, seed, workdir, seconds):
    """Untraced passes, then a traced set-up and traced passes of the same
    inputs.  Returns (the traced workload, stats of all passes, per-layer
    metrics)."""
    from workloads import PassStats
    workload = cls(seed, workdir)
    workload.warm_up()
    stats = PassStats()
    plain = measure(workload, stats, seconds / 2)

    import tracer as tracing        # the untraced path never imports it
    tr = tracing.Tracer()
    tr.install()
    with tr.span("bench.setup"):
        workload = cls(seed, workdir)
    setup = tr.by_name()
    mul_before = dict(tr.mul_inside)
    counters_before = dict(tr.counters)
    n_spans = len(tr.spans)
    passes = measure(workload, stats, seconds / 2, tr.span)
    n = len(passes)
    per_pass = _diff(tr.by_name(), setup)

    metrics = {}
    for metric, (kind, src) in PER_LAYER.items():
        if kind == "calls":
            v = per_pass.get(src, (0, 0.0))[0] / n
        elif kind == "self":
            v = per_pass.get(src, (0, 0.0))[1] / n
        elif kind == "setup_self":
            v = setup.get(src, (0, 0.0))[1]
        elif kind == "counter":
            v = (tr.counters[src] - counters_before[src]) / n
        elif kind == "max":
            v = tr.counters[src]
        else:   # mul_inside
            v = (tr.mul_inside.get(src, 0) - mul_before.get(src, 0)) / n
        metrics[metric] = v
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, (_, s) in per_pass.items():
        by_layer[name.split(".", 1)[0]] += s / n
    for layer, s in by_layer.items():
        metrics[f"{layer}.self_s"] = s
    elapsed = sum(passes) / n
    metrics["trace.elapsed_s"] = elapsed
    metrics["trace.self_coverage"] = sum(by_layer.values()) / elapsed
    metrics["trace.overhead_ratio"] = statistics.median(passes) / statistics.median(plain)
    metrics["trace.spans"] = (len(tr.spans) - n_spans) / n
    metrics["cli.check_subprocess_ms"] = cli_check_ms(workdir)
    return workload, stats, metrics


PER_LAYER_UNITS = {"self_s": "s", "elapsed_s": "s", "bytes": "bytes", "csv_bytes": "bytes",
                   "max_coeff_bits": "bits", "check_subprocess_ms": "ms",
                   "overhead_ratio": "ratio", "self_coverage": "ratio"}


def unit_of(metric):
    return PER_LAYER_UNITS.get(metric.rsplit(".", 1)[1], "count")


# ----------------------------------------------------------------- main ---

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ppa" / "__init__.py").is_file():
        print(f"error: ppa sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.setup_probe:
            cls(args.seed, workdir)
            print(time.monotonic())
            return 0
        return run(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run(cls, args, workdir):
    from workloads import PassStats
    provenance = {"workload": cls.name, "seed": args.seed, "trace": args.trace,
                  "python": platform.python_version(), "platform": platform.platform(),
                  "nproc": os.cpu_count(), "commit": commit_id()}
    if args.trace:
        workload, stats, metrics = traced(cls, args.seed, workdir, args.seconds)
        units = {m: unit_of(m) for m in metrics}
        shown = metrics
    else:
        setup_s = statistics.median(setup_probe_seconds(cls.name, args.seed)
                                    for _ in range(SETUP_PROBES))
        workload = cls(args.seed, workdir)
        workload.warm_up()
        stats = PassStats()
        refs = []
        passes = measure(workload, stats, args.seconds, refs=refs)
        provenance["passes"] = len(passes)
        values, named = end_to_end(cls.name, stats, setup_s, refs)
        metrics = {k: v for k, (v, _) in values.items()}
        shown = {k: v for k, (v, _) in list(values.items()) + list(named.items())}
        units = {k: u for k, (_, u) in list(values.items()) + list(named.items())}
    provenance["requests"] = stats.attempted
    provenance["report_sha256"] = workload.output_hash
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for k, v in shown.items():
        print(f"{cls.name}  {k:<48} {v:>16.6g} {units[k]}")
    for err in stats.errors:
        print(f"wrong: {err}")
    result = {"correct": stats.wrong == 0, "attempted": stats.attempted,
              "failed": stats.wrong,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
