"""recencysim benchmark.

    python3 perfbench/run.py --workload grid_main_w1 --seed 1 --seconds 20 --trace 0

With --trace 0 the workload's unit of work (one CLI invocation, or one
analytic sweep) is repeated for --seconds with tracing off, and the
end-to-end metrics are medians over the units.  Times are taken in
segments and normalized for the machine's speed drift (calibration.py);
the raw medians are printed too.  With --trace 1 the unit is
run once untraced and twice fully traced, each traced pass in a fresh
process, and the per-layer metrics are printed.  Both modes run the
correctness gate (gate.py) untimed.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is the JSON result; every line
before it is for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibration import SegmentClock, reference_s, scale
from workloads import WORKLOADS, build_inputs, run_unit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
MIN_UNITS = 3
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh-process helpers this script starts
    p.add_argument("--probe", choices=("setup", "trace"), help=argparse.SUPPRESS)
    p.add_argument("--out-dir", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "recencysim" / "__init__.py").is_file():
        print("perfbench: src/recencysim not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)  # keep every temporary file in the checkout
    wl = WORKLOADS[args.workload]

    if args.probe == "setup":
        ref_before = reference_s()
        t0 = perf_counter()
        build_inputs(wl, args.seed)
        raw = perf_counter() - t0
        print(json.dumps({"raw_s": raw, "scale": scale(ref_before, reference_s())}))
        return 0
    import recencysim

    if not Path(recencysim.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported recencysim from {recencysim.__file__}, "
              f"not from src/", file=sys.stderr)
        return 2
    if args.probe == "trace":
        return traced_pass(wl, args.seed, args.out_dir)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        if args.trace:
            metrics, units, problems, extra = trace_run(wl, args.seed, work)
            wanted = spec["per_layer"]
        else:
            metrics, units, problems, extra = timed_run(wl, args.seed, args.seconds, work)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(wl, args, wanted, metrics, units, problems, extra)


def probe(wl, seed, *extra):
    """Run this script as a helper in a fresh interpreter; return its JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"helper {' '.join(extra)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def grid_gate(wl, timed_dir, other_dir):
    """Cells ok, and, for the main grid, workers = 1 vs 2 byte-identical."""
    from gate import check_grid, check_identical

    problems = check_grid(timed_dir, wl.cells, wl.reps)
    if wl.command[0] == "grid":
        problems += check_identical(timed_dir, other_dir, "workers=1 and workers=2")
    return problems


def surface_gate(points, values, extra):
    from gate import check_surface

    problems, worst = check_surface(points, values)
    extra["oracle_worst_effective_mdri_rel"] = worst
    print(f"oracle: worst effective-MDRI relative error over this run's "
          f"{len(points)} points = {worst:.2e} (not gated)")
    return problems


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def timed_run(wl, seed, seconds, work):
    probes = [probe(wl, seed, "--probe", "setup") for _ in range(SETUP_PROBES)]
    setup = [p["raw_s"] * p["scale"] for p in probes]
    from recencysim import cli

    points = None if wl.is_grid else build_inputs(wl, seed)
    clock = SegmentClock()
    run_grid = cli.run_grid

    def lapped_run_grid(*args, **kwargs):
        # the run phase is a segment of its own, so it gets its own references
        clock.lap("pre")
        try:
            return run_grid(*args, **kwargs)
        finally:
            clock.lap("busy")

    cli.run_grid = lapped_run_grid
    units, segments = [], []
    deadline = perf_counter() + seconds
    while len(units) < MIN_UNITS or perf_counter() < deadline:
        units.append(run_unit(wl, seed, work / "timed", wl.workers, points,
                              lap=clock.lap))
        segments.append(clock.take())
    cli.run_grid = run_grid
    rss = peak_rss_mb()

    problems = [e for u in units for e in u.errors]
    extra = {}
    if len({u.digest for u in units}) != 1:
        problems.append("repeated units with one seed gave different outputs")
    if wl.is_grid:
        if wl.command[0] == "grid":
            run_unit(wl, seed, work / "other", 2 if wl.workers == 1 else 1)
        problems += grid_gate(wl, work / "timed", work / "other")
    else:
        problems += surface_gate(points, units[-1].values, extra)

    def summarize(which, setup_values):
        times = [seg[which] for seg in segments]
        return {
            "setup_s": statistics.median(setup_values),
            "wall_s": statistics.median(t.get("pre", 0.0) + t["busy"] + t["post"]
                                        for t in times),
            "items_per_s": statistics.median(u.items / t["busy"]
                                             for u, t in zip(units, times)),
        }

    metrics = {**summarize(1, setup), "peak_rss_mb": rss}
    raw = summarize(0, [p["raw_s"] for p in probes])
    print("raw (not normalized): " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    extra.update(raw_metrics=raw, setup_probes=probes, unit_segments=segments)
    return metrics, units, problems, extra


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def traced_pass(wl, seed, out_dir):
    """Helper process: one fully traced unit at workers = 1."""
    from tracer import Tracer, install

    import recencysim.cli  # noqa: F401  (loads every module before wrapping)

    points = None if wl.is_grid else build_inputs(wl, seed)
    tracer = Tracer()
    install(tracer)
    t0 = perf_counter()
    unit = run_unit(wl, seed, out_dir, 1, points,
                    lambda: tracer.total["harness.run_grid"])
    wall = perf_counter() - t0
    print(json.dumps({"wall": wall, "digest": unit.digest,
                      "trace": tracer.snapshot()}))
    return 0


def trace_run(wl, seed, work):
    from tracer import Tracer, install

    light = Tracer()
    install(light, keys=("harness.run_grid", "harness.run_scenario"))
    run_grid_s = lambda: light.total["harness.run_grid"]  # noqa: E731
    points = None if wl.is_grid else build_inputs(wl, seed)

    # untraced reference at workers = 1: wall for the overhead, busy time
    base = run_unit(wl, seed, work / "w1", 1, points, run_grid_s)
    if wl.is_grid:
        scenario_s = list(light.samples["harness.run_scenario"])
        busy, slowest = sum(scenario_s), max(scenario_s)
    else:
        busy, slowest = sum(base.item_times), max(base.item_times)
    units = [base]
    par_wall = base.busy_s
    if wl.is_grid and wl.command[0] == "grid":
        par = run_unit(wl, seed, work / "w2", 2, None, run_grid_s)
        units.append(par)
        if wl.workers == 2:
            par_wall = par.busy_s
    passes = [probe(wl, seed, "--probe", "trace", "--out-dir", str(work / f"traced{i}"))
              for i in range(2)]

    problems = [e for u in units for e in u.errors]
    extra = {}
    for i, p in enumerate(passes):
        if p["digest"] != base.digest:
            problems.append(f"traced pass {i} output differs from the untraced run")
    for field in ("calls", "counts", "distinct"):
        a, b = (p["trace"][field] for p in passes)
        if a != b:
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            problems.append(f"self-check: traced passes differ in exact {field}: {diff}")
    if wl.is_grid:
        problems += grid_gate(wl, work / "w1", work / "w2")
    else:
        problems += surface_gate(points, base.values, extra)

    metrics = layer_metrics(passes, base.wall_s, busy, slowest, par_wall, wl.workers)
    extra.update(
        traced_walls_s=[p["wall"] for p in passes],
        untraced_wall_s=base.wall_s,
        self_s={k: statistics.fmean(p["trace"]["self"].get(k, 0.0) for p in passes)
                for k in passes[0]["trace"]["self"]},
        calls=passes[0]["trace"]["calls"],
    )
    return metrics, units, problems, extra


def _percentile(samples, q):
    if not samples:
        return 0.0
    s = sorted(samples)
    return s[min(len(s) - 1, int(q * len(s)))]


def layer_metrics(passes, untraced_wall, busy, slowest, par_wall, workers):
    """Per-layer metrics: exact counts from pass 0, times averaged over passes."""
    traces = [p["trace"] for p in passes]
    t0 = traces[0]
    calls, counts = t0["calls"], t0["counts"]

    def self_s(key):
        return statistics.fmean(t["self"].get(key, 0.0) for t in traces)

    def pooled(key):
        return [x * 1e3 for t in traces for x in t["samples"].get(key, [])]

    m = {}
    for key in ("recency_model.mdri", "recency_model.phi",
                "estimator.effective_mdri_closed", "estimator.analytic_bias",
                "estimator.survey_composition", "estimator.kassanjee_estimate",
                "testing_history.observe_most_recent_many",
                "population.assemble_survey_rows"):
        m[f"{key}.calls"] = calls.get(key, 0)
        m[f"{key}.self_s"] = self_s(key)
    for key in ("screening_analytics.inclusion_probability",
                "screening_analytics.forecast", "testing_history.sample_residual",
                "harness.write_results"):
        m[f"{key}.self_s"] = self_s(key)
    assays = t0["distinct"].get("recency_model.mdri", 0)
    m["recency_model.mdri.per_assay"] = calls.get("recency_model.mdri", 0) / max(assays, 1)
    m["quadrature.adaptive_simpson.calls"] = calls.get("quadrature.adaptive_simpson", 0)
    m["quadrature.integrand_evals"] = counts.get("quadrature.integrand_evals", 0)
    m["testing_history.swp_active"] = counts.get("testing_history.swp_active", 0)
    drawn = counts.get("population.drawn", 0)
    m["population.drawn"] = drawn
    m["population.screened"] = counts.get("population.screened", 0)
    m["population.admit_ratio"] = counts.get("population.admitted", 0) / drawn if drawn else 0.0
    m["harness.bytes_written"] = counts.get("harness.bytes_written", 0)
    reps, cells = pooled("harness.run_replication"), pooled("harness.run_scenario")
    m["harness.run_replication.p50_ms"] = _percentile(reps, 0.50)
    m["harness.run_replication.p99_ms"] = _percentile(reps, 0.99)
    m["harness.run_scenario.p50_ms"] = _percentile(cells, 0.50)
    m["harness.run_scenario.max_ms"] = max(cells, default=0.0)
    m["harness.parallel_efficiency"] = busy / (workers * par_wall)
    m["harness.makespan_bound_s"] = max(busy / workers, slowest)

    from tracer import LAYERS

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            s for t in traces for key, s in t["self"].items()
            if key.split(".", 1)[0] == layer) / len(traces)
    wall = statistics.fmean(p["wall"] for p in passes)
    bookkeeping = statistics.fmean(t["bookkeeping"] for t in traces)
    attributed = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.bookkeeping_s"] = bookkeeping
    m["trace.remainder_s"] = wall - attributed - bookkeeping
    return m


# ---------------------------------------------------------------------------
# output


def environment(seed):
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha,
            "src_sha256": h.hexdigest()}


def report(wl, args, wanted, metrics, units, problems, extra):
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"benchmark computed no value for {missing}")
    attempted = wl.cells * len(units)
    failed = sum(u.failed for u in units)
    env = environment(args.seed)
    item = "reps" if wl.is_grid else "points"

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"units={len(units)} workers={wl.workers}")
    print("# env " + json.dumps(env, sort_keys=True))
    for m in wanted:
        name = m["name"]
        note = f"  ({item} per second of the run phase)" if name == "items_per_s" else ""
        print(f"{name} = {metrics[name]:.6g} {m['unit']}{note}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g} "
          f"(scenario errors + raised points / attempted)")
    print(f"gate: {'passed' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  gate problem: {p}")

    result_name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / result_name).write_text(json.dumps(
        {"workload": wl.name, "env": env, "metrics": metrics, "attempted": attempted,
         "failed": failed, "problems": problems, **extra}, indent=1, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
