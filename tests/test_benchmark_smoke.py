"""One unit of every benchmark workload, each through its correctness gate.

The benchmark (perfbench/) drives the package through the CLI, the grid
builders and the public analytic entry points.  Running one unit of each
workload in BENCHMARK.json at seed 1 here makes a change to a name or a
signature the benchmark calls fail with the other tests, and one traced run
of the main grid does the same for the functions its tracer wraps.  This
module only reads perfbench/; it checks no timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = [
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]
SEED = 1


@pytest.fixture(scope="module")
def bench():
    """perfbench's `workloads` and `gate` modules, imported as its scripts
    import them: from the perfbench directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import gate
        import workloads
    return workloads, gate


@pytest.fixture(scope="module")
def units(bench, tmp_path_factory):
    """Each workload's inputs, unit result and output directory."""
    workloads, _ = bench
    done = {}
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        inputs = workloads.build_inputs(wl, SEED)
        points = None if wl.is_grid else inputs
        out_dir = tmp_path_factory.mktemp(name)
        done[name] = (points, workloads.run_unit(wl, SEED, out_dir, wl.workers,
                                                 points), out_dir)
    return done


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_unit_passes_its_gate(bench, units, name):
    workloads, gate = bench
    wl = workloads.WORKLOADS[name]
    points, unit, out_dir = units[name]
    assert (unit.failed, unit.errors) == (0, [])
    if wl.is_grid:
        assert unit.items == wl.cells * wl.reps
        problems = gate.check_grid(out_dir, wl.cells, wl.reps)
    else:
        assert unit.items == len(points) == wl.cells
        problems, _ = gate.check_surface(points, unit.values)
    assert problems == []


def test_grid_workloads_write_the_same_files(bench, units):
    _, gate = bench
    assert gate.check_identical(units["grid_main_w1"][2], units["grid_main_w2"][2],
                                "workers=1 and workers=2") == []


def test_traced_run_samples_each_scenario():
    # perfbench's tracer wraps `harness.run_scenario` by name: a grid that
    # stopped calling it through the module would sample nothing
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_main_w1",
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "gate: passed" in lines
    metrics = json.loads(lines[-1])["metrics"]
    assert metrics["harness.run_scenario.p50_ms"]["value"] > 0
