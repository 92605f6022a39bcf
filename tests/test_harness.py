import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recencysim
from recencysim import population

from recencysim.cli import main as cli_main
from recencysim.estimator import analytic_bias, log_variance, survey_composition
from recencysim import harness
from recencysim.harness import (
    SUMMARY_COLUMNS,
    Scenario,
    ScenarioResult,
    build_grid,
    build_sensitivity,
    emit_histogram,
    emit_table1,
    run_grid,
    run_replication,
    run_scenario,
    write_histogram,
    write_results,
    write_table1,
)
from recencysim.population import DEFAULT_PARAMS, ScreeningPolicy
from recencysim.recency_model import DEFAULT_ASSAY, LONG_ASSAY
from recencysim.testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
)


def small_grid(seed=7, reps=2, n_target=400):
    return build_grid(
        seed, reps, n_target=n_target,
        thetas=(1.0,), rs=(0.6, 1.0), cs=(0.0, 1.0),
    )


class TestGridConstruction:
    def test_main_grid_cardinality(self):
        assert len(build_grid(1, 1)) == 2 * 4 * 4 * 5

    def test_frr_suite_cardinality(self):
        assert len(build_sensitivity("frr", 1, 1)) == 2 * 2 * 4 * 4 * 2

    def test_labels_unique(self):
        labels = [s.label for s in build_grid(1, 1)]
        assert len(labels) == len(set(labels))

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            build_sensitivity("nope", 1, 1)

    def test_assay_by_name(self):
        long = build_grid(1, 1, thetas=(1.0,), rs=(1.0,), cs=(0.0,), assay_name="long")
        assert [s.label for s in long] == ["regular_theta1_r1_c0_long",
                                           "swp_theta1_r1_c0_long"]
        assert long[0].assay.gamma_shape == LONG_ASSAY.gamma_shape
        default = build_grid(1, 1, thetas=(1.0,), rs=(1.0,), cs=(0.0,))
        assert default[0].assay == DEFAULT_ASSAY

    def test_unknown_assay(self):
        with pytest.raises(ValueError, match="unknown assay 'defualt'"):
            build_grid(1, 1, assay_name="defualt")


class TestDeterminism:
    def test_replication_repeatable(self):
        s = small_grid()[0]
        assert run_replication(s, 3) == run_replication(s, 3)

    def test_replications_differ(self):
        s = small_grid()[0]
        a = run_replication(s, 0)
        b = run_replication(s, 1)
        assert a != b

    def test_worker_count_invariant(self, tmp_path):
        scenarios = small_grid()
        files = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            results = run_grid(scenarios, workers=workers)
            write_results(results, out, config_echo={}, seed=7, wall_time=0.0)
            files[workers] = {
                name: (out / name).read_bytes()
                for name in ("replications.csv", "summary.csv")
            }
        assert files[1] == files[2]

    def test_uniform_suite_streams_unchanged(self, tmp_path):
        # sha256 of the files written when uniform laws moved onto the
        # count-level engine
        results = run_grid(build_sensitivity("uniform_intertest", 11, 2, n_target=500))
        write_results(results, tmp_path, config_echo={}, seed=11, wall_time=0.0)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("replications.csv", "summary.csv")
        }
        assert digests == {
            "replications.csv":
                "ab480a26a284eddce736bc68a5348ad806405a8f10d16ba3be4538b4129964c1",
            "summary.csv":
                "0fb0765a6e9e7f157bb3045be1fe96085d9fb4a70a93dcd6f6d7cdf3b9a99e3f",
        }

    def test_label_keyed_streams_match_across_grids(self):
        # an frr=0 sensitivity scenario reproduces its main-grid twin
        main = {s.label: s for s in build_grid(7, 2, n_target=300, thetas=(1.0,))}
        sens = [
            s
            for s in build_sensitivity("frr", 7, 2, n_target=300)
            if s.assay.frr == 0.0 and s.label in main
        ]
        assert sens
        twin = sens[0]
        assert run_replication(twin, 0) == run_replication(main[twin.label], 0)


class TestSummaries:
    def test_summary_recomputation(self):
        s = Scenario(
            label="swp_theta1_r1_c0",
            assay=DEFAULT_ASSAY,
            process=TestingProcess(
                ExponentialInterTest(1.0), ObservationRule.STOP_WHEN_POSITIVE
            ),
            policy=ScreeningPolicy(q1=1.0, exclusion_window=0.0),
            params=DEFAULT_PARAMS,
            n_target=500,
            replications=20,
            seed=11,
        )
        res = run_scenario(s)
        est = np.array(res.estimates)
        summ = res.summary()
        assert summ["median"] == pytest.approx(np.median(est))
        assert summ["mean"] == pytest.approx(np.mean(est))
        positive = est[est > 0]  # var_log drops zero/negative estimates
        assert summ["var_log"] == pytest.approx(np.var(np.log(positive), ddof=1))
        assert summ["n_negative"] == 0 and summ["n_undefined"] == 0

    def test_mc_mean_matches_analytic_bias(self):
        # heavier check: simulated mean vs incidence + closed-form bias
        rule = ObservationRule.STOP_WHEN_POSITIVE
        theta, r, c = 1.0, 0.6, 1.0
        s = Scenario(
            label="consistency",
            assay=DEFAULT_ASSAY,
            process=TestingProcess(ExponentialInterTest(theta), rule),
            policy=ScreeningPolicy(q1=r, exclusion_window=c),
            params=DEFAULT_PARAMS,
            n_target=5000,
            replications=60,
            seed=17,
        )
        res = run_scenario(s)
        expected = DEFAULT_PARAMS.incidence + analytic_bias(
            DEFAULT_ASSAY, theta, r, c, rule, DEFAULT_PARAMS
        )
        p_star, p_r = survey_composition(DEFAULT_ASSAY, s.process, r, c, DEFAULT_PARAMS)
        sd_log = np.sqrt(log_variance(5000, p_star, p_r))
        se_mean = expected * sd_log / np.sqrt(s.replications)
        assert np.mean(res.estimates) == pytest.approx(expected, abs=3.5 * se_mean)


class TestHistogram:
    def test_no_exclusion_no_excluded_mass(self):
        rows = emit_histogram(
            ObservationRule.STOP_WHEN_POSITIVE, ExponentialInterTest(1.0), 0.0,
            n_infected=5000, seed=1,
        )
        assert sum(r[3] + r[5] for r in rows) == 0
        assert sum(r[2] + r[4] for r in rows) == 5000

    def test_swp_exclusion_targets_recent_durations(self):
        rows = emit_histogram(
            ObservationRule.STOP_WHEN_POSITIVE, ExponentialInterTest(1.0), 2.0,
            n_infected=50_000, seed=2,
        )
        def frac_excluded(row):
            total = row[2] + row[3] + row[4] + row[5]
            return (row[3] + row[5]) / total if total else 0.0

        first = frac_excluded(rows[0])  # durations in [0, 0.25)
        last = frac_excluded(rows[-1])
        assert first > 0.8
        assert last < first

    def test_bins_cover_duration_support(self):
        rows = emit_histogram(
            ObservationRule.REGULAR, ExponentialInterTest(1.0), 1.0,
            n_infected=2000, seed=3,
        )
        assert rows[0][0] == 0.0
        assert rows[-1][1] >= DEFAULT_PARAMS.max_duration


class TestTable1:
    def test_shape_and_unbiased_rows(self):
        rows = emit_table1()
        assert len(rows) == 3 * 2 * 3
        for row in rows:
            if row["c"] == 2.0:
                assert abs(row["bias_x1e3"]) < 5e-9
                assert row["unbiased"]
            if row["c"] == 0.0 and row["r"] == 1.0:
                assert abs(row["bias_x1e3"]) < 5e-9

    def test_screening_monotone_in_r(self):
        rows = emit_table1()
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row["c"], row["theta"]), []).append(
                (row["r"], row["required_screened"])
            )
        for cell, pairs in by_cell.items():
            pairs.sort()
            screened = [n for _, n in pairs]
            assert all(a >= b for a, b in zip(screened, screened[1:])), cell


class TestOutputsAndCli:
    def test_write_results_files(self, tmp_path):
        results = run_grid(small_grid(), workers=1)
        ok = write_results(results, tmp_path, config_echo={"x": 1}, seed=7,
                           wall_time=1.0)
        assert ok
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(results)
        assert all(r["status"] == "ok" for r in rows)
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 7
        assert manifest["scenarios"] == len(results)
        assert manifest["errors"] == []

    def test_error_rows_formatted_like_ok_rows(self, tmp_path):
        # r = 1.0, c = 0.0 and frr = 0.0 are floats that _fmt prints as 1 / 0
        scenario = Scenario(
            label="swp_theta1_r1_c0",
            assay=DEFAULT_ASSAY,
            process=TestingProcess(
                ExponentialInterTest(1.0), ObservationRule.STOP_WHEN_POSITIVE
            ),
            policy=ScreeningPolicy(q0=1.0, q1=1.0, exclusion_window=0.0),
            params=DEFAULT_PARAMS,
            n_target=200,
            replications=1,
            seed=3,
        )
        good = run_scenario(scenario)
        bad = ScenarioResult(scenario=scenario, error="attempt cap hit")
        assert not write_results([good, bad], tmp_path, config_echo={}, seed=3,
                                 wall_time=0.0)
        with open(tmp_path / "summary.csv") as fh:
            ok_row, err_row = list(csv.DictReader(fh))
        assert ok_row["status"] == "ok"
        assert err_row["status"] == "error:attempt cap hit"
        shared = SUMMARY_COLUMNS[: SUMMARY_COLUMNS.index("n_target") + 1]
        assert [err_row[k] for k in shared] == [ok_row[k] for k in shared]
        assert (ok_row["r"], ok_row["c"], ok_row["frr"]) == ("1", "0", "0")

    def test_cli_grid_with_yaml_config(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "seed: 5\n"
            "replications: 1\n"
            "n_target: 200\n"
            f"out_dir: {tmp_path / 'out'}\n"
            "grid:\n"
            "  rules: [swp]\n"
            "  theta: [1.0]\n"
            "  r: [1.0]\n"
            "  c: [0.0, 1.0]\n"
        )
        rc = cli_main(["grid", "--config", str(cfg)])
        assert rc == 0
        with open(tmp_path / "out" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scenario"] for r in rows] == [
            "swp_theta1_r1_c0", "swp_theta1_r1_c1"
        ]

    def test_cli_table1_and_histogram(self, tmp_path, capsys):
        rc = cli_main(["table1", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table1.csv").exists()
        rc = cli_main(
            ["histogram", "--rule", "swp", "--theta", "1.0", "--c", "2.0",
             "--n-infected", "2000", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "histogram_swp_theta1_c2.csv").exists()
        capsys.readouterr()

    def test_cli_mdri(self, capsys):
        rc = cli_main(
            ["mdri", "--rule", "swp", "--theta", "1.0", "--r", "0.6", "--c",
             "0.25", "--check-numeric"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "effective mdri" in out

    @pytest.mark.parametrize(
        "body,key",
        [
            ("seed: 5\nreplication: 3\n", "'replication'"),
            ("seed: 5\ngrid:\n  thetas: [1.0]\n", "'thetas'"),
        ],
    )
    def test_cli_rejects_unknown_config_key(self, tmp_path, capsys, body, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(body + f"out_dir: {tmp_path / 'out'}\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["grid", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown key(s) {key}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "grid,message",
        [
            ("rules: [swpp]", "'swpp' is not a valid ObservationRule"),
            ("assay: defualt", "unknown assay 'defualt'"),
            ("theta: [0]", "theta must be positive, got 0"),
            ("c: [-1]", "exclusion window must be nonnegative, got -1"),
            ("r: [1.5]", "got q1=1.5"),
            ("frr: [1.5]", "frr must lie in [0, 1), got 1.5"),
            ("uniform_b: [0]", "need 0 <= a < b, got a=0.0, b=0"),
            ("theta: 1.0", "not iterable"),
        ],
    )
    def test_cli_rejects_bad_grid_value(self, tmp_path, capsys, grid, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"out_dir: {tmp_path / 'out'}\ngrid:\n  {grid}\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["grid", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"bad value in the grid: block of {cfg}" in err
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["grid"], ["sensitivity", "frr"]])
    @pytest.mark.parametrize(
        "body,argv,message",
        [
            ("n_target: 0\n", [], "n_target must be a positive integer, got 0"),
            ("n_target: 2.5\n", [], "n_target must be a positive integer, got 2.5"),
            ("replications: -2\n", [],
             "replications must be a positive integer, got -2"),
            ("replications: true\n", [],
             "replications must be a positive integer, got True"),
            ("", ["--reps", "-2"], "--reps must be a positive integer, got -2"),
            ("replications: 3\n", ["--reps", "0"],
             "--reps must be a positive integer, got 0"),
            ("", ["--seed", "-1"], "--seed must be a nonnegative integer, got -1"),
            ("seed: -1\n", [], "seed must be a nonnegative integer, got -1"),
            ("seed: 1.5\n", [], "seed must be a nonnegative integer, got 1.5"),
            ("workers: abc\n", [], "workers must be a positive integer, got 'abc'"),
            ("workers: 1.5\n", [], "workers must be a positive integer, got 1.5"),
            ("workers: 2\n", ["--workers", "0"],
             "--workers must be a positive integer, got 0"),
            ("", ["--workers", "-3"], "--workers must be a positive integer, got -3"),
        ],
    )
    def test_cli_rejects_bad_count(self, tmp_path, capsys, command, body, argv,
                                   message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(body + f"out_dir: {tmp_path / 'out'}\n")
        with pytest.raises(SystemExit) as exc:
            cli_main([*command, "--config", str(cfg), *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["mdri", "--r", "1.5", "--c", "0.25"], "r must lie in [0, 1], got 1.5"),
            (["mdri", "--c", "-1"], "c must be nonnegative, got -1.0"),
            (["mdri", "--c", "-1", "--check-numeric"],
             "c must be nonnegative, got -1.0"),
            (["mdri", "--theta", "0"], "theta must be positive, got 0.0"),
            (["histogram", "--theta", "-1"], "theta must be positive, got -1.0"),
            (["histogram", "--c", "-0.5"], "c must be nonnegative, got -0.5"),
            (["histogram", "--n-infected", "0"],
             "--n-infected must be a positive integer, got 0"),
            (["histogram", "--n-infected", "-5"],
             "--n-infected must be a positive integer, got -5"),
        ],
    )
    def test_cli_rejects_out_of_range_argument(self, tmp_path, capsys, argv,
                                               message):
        if argv[0] == "histogram":
            if "--n-infected" not in argv:
                argv = argv + ["--n-infected", "100"]
            argv = argv + ["--out-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestInfeasibleCell:
    """A cell that cannot fill its survey within the attempt cap."""

    # SWP, theta = 2, r = 0, c = 20: an attendee is admitted only if the
    # last test was more than 20 years ago, of probability about e^-40
    GRID = "  rules: [swp]\n  theta: [2]\n  r: [0]\n  c: [0, 20]\n"
    CAP = 24_576

    # the count-level engine rejects the cell before sampling
    ERROR = (
        f"expected draws to fill 200 places exceed {CAP} "
        "(admit probability 4.25e-18 per draw)"
    )

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(population, "ATTEMPT_CAP", self.CAP)

    def test_run_scenario_records_error(self):
        (infeasible,) = build_grid(
            5, 2, n_target=200, rules=(ObservationRule.STOP_WHEN_POSITIVE,),
            thetas=(2.0,), rs=(0.0,), cs=(20.0,),
        )
        res = run_scenario(infeasible)
        assert res.error == self.ERROR
        assert res.estimates == [] and res.count_rows == []

    def test_uniform_cell_admits_no_one(self):
        # with gaps of at most 3 years no attendee passes c = 20: the admit
        # probability is exactly 0, rejected before any draw
        (infeasible,) = build_grid(
            5, 2, n_target=200, rules=(ObservationRule.STOP_WHEN_POSITIVE,),
            rs=(0.0,), cs=(20.0,), uniform_bs=(3.0,),
        )
        res = run_scenario(infeasible)
        assert res.error == (
            "no attendee can pass the exclusion window c=20 "
            "(admit probability 0 per draw)"
        )
        assert res.estimates == [] and res.count_rows == []

    def test_cli_grid_writes_uniform_error_row(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        cfg.write_text(
            f"replications: 2\nn_target: 200\nout_dir: {out}\ngrid:\n"
            "  rules: [swp]\n  uniform_b: [3]\n  r: [0]\n  c: [20]\n"
        )
        assert cli_main(["grid", "--config", str(cfg)]) == 1
        capsys.readouterr()
        with open(out / "summary.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["scenario"] == "swp_uni0-3_r0_c20"
        assert row["status"].startswith("error:no attendee can pass")

    def test_cli_grid_writes_error_row_and_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        cfg.write_text(
            f"seed: 5\nreplications: 2\nn_target: 200\nout_dir: {out}\n"
            "grid:\n" + self.GRID
        )
        assert cli_main(["grid", "--config", str(cfg), "--workers", "1"]) == 1
        capsys.readouterr()
        with open(out / "summary.csv") as fh:
            ok_row, err_row = list(csv.DictReader(fh))
        assert (ok_row["scenario"], ok_row["status"]) == ("swp_theta2_r0_c0", "ok")
        assert err_row["scenario"] == "swp_theta2_r0_c20"
        assert err_row["status"] == f"error:{self.ERROR}"
        for key in SUMMARY_COLUMNS[1:SUMMARY_COLUMNS.index("n_target") + 1]:
            want = "20" if key == "c" else ok_row[key]
            assert err_row[key] == want, key
        for key in SUMMARY_COLUMNS[SUMMARY_COLUMNS.index("median"):-1]:
            assert err_row[key] == "", key
        with open(out / "replications.csv") as fh:
            reps = list(csv.DictReader(fh))
        assert [r["scenario"] for r in reps] == ["swp_theta2_r0_c0"] * 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"] == ["swp_theta2_r0_c20"]


def test_cli_import_leaves_scipy_integrate_and_stats_unloaded():
    # the numeric oracle imports scipy.integrate lazily; loading it (or
    # scipy.stats) at CLI import time would add to every command's start-up
    src = str(Path(recencysim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, recencysim.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


class Boom:
    """A cell value whose formatting fails, as a crash partway through."""

    def __str__(self):
        raise RuntimeError("boom")


class TestAtomicWriters:
    def test_write_results_keeps_old_files_on_failure(self, tmp_path, monkeypatch):
        results = run_grid(small_grid(reps=1, n_target=200), workers=1)
        assert write_results(results, tmp_path, config_echo={}, seed=7,
                             wall_time=0.0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["manifest.json", "replications.csv", "summary.csv"]

        calls = []
        real = harness._analytic_columns

        def fail_on_second_row(scenario):
            calls.append(scenario)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return real(scenario)

        monkeypatch.setattr(harness, "_analytic_columns", fail_on_second_row)
        with pytest.raises(RuntimeError, match="boom"):
            write_results(results[::-1], tmp_path, config_echo={"run": 2},
                          seed=8, wall_time=0.0)
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_write_results_leaves_nothing_on_first_failure(self, tmp_path,
                                                           monkeypatch):
        results = run_grid(small_grid(reps=1, n_target=200), workers=1)
        def fail(scenario):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "_analytic_columns", fail)
        with pytest.raises(RuntimeError):
            write_results(results, tmp_path, config_echo={}, seed=7,
                          wall_time=0.0)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "writer,good,bad",
        [
            (write_histogram, [(0.0, 0.25, 1, 2, 3, 4)] * 3,
             [(0.0, 0.25, 1, 2, 3, 4), (0.25, 0.5, 5, Boom(), 7, 8)]),
            (write_table1, [{"c": 0.0, "r": 1.0}] * 3,
             [{"c": 0.0, "r": 1.0}, {"c": 2.0, "r": Boom()}]),
        ],
    )
    def test_row_writers(self, tmp_path, writer, good, bad):
        out = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            writer(bad, out)
        assert list(tmp_path.iterdir()) == []
        writer(good, out)
        before = out.read_bytes()
        with pytest.raises(RuntimeError):
            writer(bad, out)
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == before
