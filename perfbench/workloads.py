"""Workload definitions and the one unit of work each one repeats.

A grid workload's unit is one `recencysim grid` / `recencysim sensitivity`
invocation through `recencysim.cli.main`; the analytic workload's unit is one
sweep over a dense (rule, theta, r, c) surface followed by `emit_table1`.
Inputs depend only on the seed.  Package modules are imported inside the
functions so that a set-up probe can time the first import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

N_TARGET = 5000  # survey size; the CLI default


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # CLI words before the common flags; () for the surface
    workers: int
    reps: int  # replications per cell (grid kinds)
    cells: int  # scenarios per invocation, or surface points per sweep

    @property
    def is_grid(self) -> bool:
        return bool(self.command)


# Replications per cell are sized so one invocation takes a few seconds on a
# 2-core machine and a run holds several invocations to take a median over.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_main_w1", ("grid",), workers=1, reps=2, cells=160),
        Workload("grid_main_w2", ("grid",), workers=2, reps=2, cells=160),
        Workload("analytic_surface", (), workers=1, reps=0, cells=192),
        Workload(
            "sensitivity_uniform", ("sensitivity", "uniform_intertest"),
            workers=1, reps=5, cells=80,
        ),
    )
}

# Surface levels.  theta and interior r, c are jittered by the seed; c = 0,
# c >= T* (= 2) and r in {0, 1} stay exact because the gate checks that the
# bias is exactly zero at c >= T* and at (r = 1, c = 0).
THETA_LEVELS = (0.4, 1.0, 2.0, 3.0)
R_LEVELS = (0.0, 0.3, 0.6, 1.0)
C_LEVELS = (0.0, 0.25, 1.0, 1.5, 2.0, 2.5)
EXACT_C = (0.0, 2.0, 2.5)


def surface_points(seed: int, jitter: bool = True):
    """(rule, theta, r, c) tuples of the analytic surface.

    With `jitter`, theta and the interior r and c levels move by a
    seed-dependent amount; without it every point sits on a nominal level.
    """
    from recencysim import ObservationRule

    rng = random.Random(seed)

    def nudge(half):
        return rng.uniform(-half, half) if jitter else 0.0

    points = []
    for rule in (ObservationRule.REGULAR, ObservationRule.STOP_WHEN_POSITIVE):
        for theta in THETA_LEVELS:
            for r in R_LEVELS:
                for c in C_LEVELS:
                    points.append((
                        rule,
                        theta * (1.0 + nudge(0.1)),
                        r if r in (0.0, 1.0) else r + nudge(0.05),
                        c if c in EXACT_C else c + nudge(0.05),
                    ))
    return points


def build_inputs(wl: Workload, seed: int):
    """What a workload builds before its first unit; timed as set-up."""
    from recencysim import cli, harness  # noqa: F401  (the CLI's import cost)

    if not wl.is_grid:
        return surface_points(seed)
    if wl.command[0] == "grid":
        return harness.build_grid(seed, wl.reps)
    return harness.build_sensitivity(wl.command[1], seed, wl.reps)


def evaluate_point(point):
    """Every analytic quantity the package reports for one surface point."""
    import recencysim as rs

    rule, theta, r, c = point
    assay, params = rs.DEFAULT_ASSAY, rs.DEFAULT_PARAMS
    eff = rs.effective_mdri_closed(assay, theta, r, c, rule)
    bias = rs.analytic_bias(assay, theta, r, c, rule, params)
    process = rs.TestingProcess(rs.ExponentialInterTest(theta), rule)
    p_star, p_r = rs.survey_composition(assay, process, r, c, params)
    var = rs.log_variance(N_TARGET, p_star, p_r)
    fc = rs.forecast(rule, params, theta, r, c, N_TARGET)
    return (eff, bias, p_star, p_r, var, fc.inclusion_probability,
            fc.required_screened)


@dataclass
class UnitResult:
    wall_s: float  # the whole unit
    items: int  # replications run, or surface points evaluated
    busy_s: float  # the part that does the items (run_grid, or the points)
    failed: int  # scenarios with an error, or points that raised
    digest: str  # hash of the outputs, for determinism checks
    item_times: list  # per-point seconds (surface only)
    values: list  # per-point values, None where the point raised (surface)
    errors: list


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ("replications.csv", "summary.csv"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


SURFACE_CHUNK = 48  # points between two laps of a segment clock


def _no_lap(label):
    pass


def run_unit(wl: Workload, seed: int, out_dir: Path, workers: int,
             points=None, run_grid_total=lambda: 0.0, lap=_no_lap) -> UnitResult:
    """Run one unit of work.

    `run_grid_total()` reads the accumulated `run_grid` time of whatever
    tracer is installed, which splits a grid invocation into its run phase
    and its writer phase without timing inside the package.

    `lap(label)` marks segment ends for a segment clock: "gap" before the
    unit starts (benchmark work, not counted), "busy" after each chunk of
    surface points, and "post" when the unit's work is done.  A grid unit's
    run phase is marked by a wrapper around `cli.run_grid`.
    """
    if wl.is_grid:
        from recencysim import cli

        argv = [*wl.command, "--seed", str(seed), "--reps", str(wl.reps),
                "--workers", str(workers), "--out-dir", str(out_dir)]
        before = run_grid_total()
        lap("gap")
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        wall = perf_counter() - t0
        lap("post")
        busy = run_grid_total() - before
        failed = count_scenario_errors(out_dir)
        errors = [f"{wl.name}: exit code {rc}"] if rc and not failed else []
        return UnitResult(wall, wl.cells * wl.reps, busy, failed,
                          output_digest(out_dir), [], [], errors)

    from recencysim import harness

    values, times, errors = [], [], []
    lap("gap")
    t0 = perf_counter()
    for i, point in enumerate(points):
        if i and i % SURFACE_CHUNK == 0:
            lap("busy")
        p0 = perf_counter()
        try:
            values.append(evaluate_point(point))
        except Exception as exc:  # a raised point is counted; the sweep goes on
            values.append(None)
            errors.append(f"{point}: {exc!r}")
        times.append(perf_counter() - p0)
    busy = perf_counter() - t0
    lap("busy")
    table = harness.emit_table1(n_target=N_TARGET)
    lap("post")
    wall = perf_counter() - t0
    digest = hashlib.sha256(repr((values, table)).encode()).hexdigest()
    return UnitResult(wall, len(points), busy, len(errors), digest, times,
                      values, errors)


def count_scenario_errors(out_dir: Path) -> int:
    import csv

    with open(out_dir / "summary.csv", newline="") as fh:
        return sum(row["status"] != "ok" for row in csv.DictReader(fh))
