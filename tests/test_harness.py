import concurrent.futures
import csv
import dataclasses
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import stats

import recencysim
from recencysim import cli, estimator, population

from recencysim.cli import COMMAND_KEYS, CONFIG_KEYS, SETTINGS, main as cli_main
from recencysim.estimator import (
    analytic_bias, effective_mdri_closed, kassanjee_estimate, log_variance,
    survey_composition)
from recencysim import harness
from recencysim.harness import (
    GRID_KEYS,
    SUITES,
    SUMMARY_COLUMNS,
    GridResult,
    Scenario,
    build_grid,
    build_sensitivity,
    emit_histogram,
    emit_table1,
    run_grid,
    write_histogram,
    write_results,
    write_table1,
)
from recencysim.population import DEFAULT_PARAMS, SurveyCounts
from recencysim.recency_model import DEFAULT_ASSAY, LONG_ASSAY, mdri, phi
from recencysim.testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
)
from quadrature_oracle import effective_mdri_quad
from reference_sampler import observe_most_recent_many, sample_residual
from test_count_law import (
    Cell, drawn_counts, grid_cells, holm_rejected, sha256_streams, sha256_words)


def small_grid(seed=7, reps=2, n_target=400):
    return build_grid(
        seed, reps, n_target=n_target,
        theta=(1.0,), r=(0.6, 1.0), c=(0.0, 1.0),
    )


def block(cell):
    """A drawn cell's arrays (`grid_cells`): estimates, then every count
    column."""
    return [cell.estimates, *vars(cell.counts).values()]


def assert_same_block(a, b):
    for x, y in zip(block(a), block(b), strict=True):
        assert np.array_equal(x, y, equal_nan=True)


class TestGridConstruction:
    def test_main_grid_cardinality(self):
        assert len(build_grid(1, 1)) == 2 * 4 * 4 * 5

    def test_frr_suite_cardinality(self):
        assert len(build_sensitivity("frr", 1, 1)) == 2 * 2 * 4 * 4 * 2

    def test_labels_unique(self):
        labels = [s.label for s in build_grid(1, 1)]
        assert len(labels) == len(set(labels))

    def test_labels_keep_values_beyond_g(self):
        # `:g` writes both thetas as "1"; one label would key one stream
        cells = build_grid(1, 4, n_target=300, theta=(1.0, 1.0000001), r=(0.6,),
                           c=(1.0,), rules=(ObservationRule.STOP_WHEN_POSITIVE,))
        assert [s.label for s in cells] == ["swp_theta1_r0.6_c1",
                                            "swp_theta1.0000001_r0.6_c1"]
        a, b = grid_cells(run_grid(cells))
        assert not all(np.array_equal(x, y) for x, y in zip(block(a), block(b)))

    def test_repeated_value_is_rejected(self):
        with pytest.raises(ValueError,
                           match="two cells share the label 'regular_theta1_r0_c0'"):
            build_grid(1, 1, theta=(1.0, 1.0))

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown sensitivity suite: nope; "
                           "expected one of: frr, uniform_intertest, long_mdri"):
            build_sensitivity("nope", 1, 1)

    def test_axes_are_the_grid_keys(self):
        # a config's grid: block passes its keys to build_grid as they are
        params = list(inspect.signature(build_grid).parameters)
        assert GRID_KEYS == ("rules", "theta", "r", "c", "frr", "uniform_b", "assay")
        assert params == ["seed", "replications", "n_target", *GRID_KEYS]
        assert all(set(block) <= set(GRID_KEYS) for block in SUITES.values())

    def test_rule_by_value(self):
        axes = dict(theta=(1.0,), r=(0.6,), c=(1.0,))
        assert build_grid(1, 1, rules=["swp", "regular"], **axes) == build_grid(
            1, 1, rules=(ObservationRule.STOP_WHEN_POSITIVE, ObservationRule.REGULAR),
            **axes)

    @pytest.mark.parametrize("build,assays,checks", [
        (lambda: build_grid(1, 1), 1, 4 * 5),
        (lambda: build_sensitivity("frr", 1, 1), 4, 4 * 2),
        (lambda: build_sensitivity("long_mdri", 1, 1), 1, 4 * 5),
    ], ids=["main", "frr", "long_mdri"])
    def test_one_assay_per_frr_and_one_check_per_pair(self, monkeypatch, build,
                                                      assays, checks):
        # every cell of one frr shares its assay object, and each (r, c) is
        # checked once, whatever the rules and laws
        made, checked = [], []
        real_init = harness.RecencyAssay.__post_init__
        real_check = harness._check_weight_args
        monkeypatch.setattr(harness.RecencyAssay, "__post_init__",
                            lambda self: made.append(self) or real_init(self))
        monkeypatch.setattr(harness, "_check_weight_args",
                            lambda r, c: checked.append((r, c)) or real_check(r, c))
        cells = build()
        assert len(made) == assays
        assert len({id(s.assay) for s in cells}) == assays
        assert len(checked) == len(set(checked)) == checks
        assert {(s.r, s.c) for s in cells} == set(checked)

    def test_theta_and_uniform_b_together_are_rejected(self, monkeypatch):
        # theta beside uniform_b was dropped without a word
        def refuse(**fields):
            raise AssertionError("a cell was built")

        monkeypatch.setattr(harness, "Scenario", refuse)
        with pytest.raises(ValueError, match="theta and uniform_b cannot both be set"):
            build_grid(1, 1, theta=(1.0,), uniform_b=(3.0,))

    def test_assay_by_name(self):
        long = build_grid(1, 1, theta=(1.0,), r=(1.0,), c=(0.0,), assay="long")
        assert [s.label for s in long] == ["regular_theta1_r1_c0_long",
                                           "swp_theta1_r1_c0_long"]
        assert long[0].assay.gamma_shape == LONG_ASSAY.gamma_shape
        default = build_grid(1, 1, theta=(1.0,), r=(1.0,), c=(0.0,))
        assert default[0].assay == DEFAULT_ASSAY

    def test_unknown_assay(self):
        with pytest.raises(ValueError, match="unknown assay 'defualt'"):
            build_grid(1, 1, assay="defualt")

    @pytest.mark.parametrize(
        "args,kwargs,message",
        [
            # a float seed ran silently as seed 1 through int()
            ((1.9, 2), {}, "seed must be a nonnegative integer, got 1.9"),
            ((True, 2), {}, "seed must be a nonnegative integer, got True"),
            ((-1, 2), {}, "seed must be a nonnegative integer, got -1"),
            # drew surveys of 100 and wrote n_screened as 100.5
            ((1, 2), {"n_target": 100.5},
             "n_target must be a positive integer, got 100.5"),
            ((1, 2), {"n_target": 0}, "n_target must be a positive integer, got 0"),
            # failed inside numpy, after every law was computed
            ((1, 2.5), {}, "replications must be a positive integer, got 2.5"),
            ((1, False), {}, "replications must be a positive integer, got False"),
            ((1, 0), {}, "replications must be a positive integer, got 0"),
        ],
        ids=["seed-float", "seed-bool", "seed-negative", "n_target-float",
             "n_target-zero", "replications-float", "replications-bool",
             "replications-zero"],
    )
    @pytest.mark.parametrize("build", ["grid", "sensitivity"])
    def test_rejects_a_bad_count_before_any_cell(self, monkeypatch, args, kwargs,
                                                 message, build):
        def refuse(**fields):
            raise AssertionError("a cell was built")

        monkeypatch.setattr(harness, "Scenario", refuse)
        with pytest.raises(ValueError) as exc:
            if build == "grid":
                build_grid(*args, **kwargs)
            else:
                build_sensitivity("uniform_intertest", *args, **kwargs)
        assert str(exc.value) == message

    # uint64 + int64 is float64 in numpy: n_screened was written "834.0"
    @pytest.mark.parametrize("n_target", [np.uint16(300), np.uint64(300)],
                             ids=["uint16", "uint64"])
    def test_numpy_integer_counts_are_counts(self, n_target):
        want = build_grid(3, 2, n_target=300, theta=(1.0,), r=(0.6,), c=(1.0,))
        got = build_grid(np.int64(3), np.int32(2), n_target=n_target,
                         theta=(1.0,), r=(0.6,), c=(1.0,))
        assert got == want
        for a, b in zip(grid_cells(run_grid(got)), grid_cells(run_grid(want)),
                        strict=True):
            assert_same_block(a, b)
        lines = []
        for grid in (got, want):
            fh = io.StringIO(newline="")
            harness._write_replications(run_grid(grid), fh)
            lines.append(fh.getvalue())
        assert lines[0] == lines[1]


class TestDeterminism:
    def test_scenario_repeatable(self):
        s = small_grid(reps=4)[0]
        assert_same_block(grid_cells(run_grid([s]))[0], grid_cells(run_grid([s]))[0])

    def test_replications_differ(self):
        res = grid_cells(run_grid([small_grid(reps=2)[0]]))[0]
        rows = np.column_stack(block(res))
        assert not np.array_equal(rows[0], rows[1])

    @pytest.mark.parametrize("uniform_bs", [None, (3.0,)], ids=["exp", "uniform"])
    def test_first_replications_do_not_depend_on_the_count(self, uniform_bs):
        # the block draws are R sequential draws on each generator, so the
        # first k replications of an R-replication run are a k-replication run
        cells = build_grid(3, 9, n_target=300, r=(0.3,), c=(1.0,),
                           theta=(1.5,) if uniform_bs is None else None,
                           uniform_b=uniform_bs)
        for cell in cells:
            full = grid_cells(run_grid([cell]))[0]
            for k in (1, 4):
                head = grid_cells(
                    run_grid([dataclasses.replace(cell, replications=k)]))[0]
                for x, y in zip(block(full), block(head), strict=True):
                    assert np.array_equal(x[:k], y)

    def test_worker_count_invariant(self, tmp_path, pool_forced):
        scenarios = small_grid()
        files = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            result = run_grid(scenarios, workers=workers)
            write_results(result, out, config_echo={}, seed=7, wall_time=0.0)
            files[workers] = {
                name: (out / name).read_bytes()
                for name in ("replications.csv", "summary.csv")
            }
        assert pool_forced == [2]
        assert files[1] == files[2]

    def test_uniform_suite_streams_unchanged(self, tmp_path):
        # sha256 of the files written when each generator's seed words
        # became the SHA-256 digest of (seed, label, stream)
        result = run_grid(build_sensitivity("uniform_intertest", 11, 2, n_target=500))
        write_results(result, tmp_path, config_echo={}, seed=11, wall_time=0.0)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("replications.csv", "summary.csv")
        }
        assert digests == {
            "replications.csv":
                "d6bb4d712c8543a204fd1a3aaf91face2f364c1f714de7e1717728a5ffcb1dcc",
            "summary.csv":
                "e0f4e61a1de8829efd701919819ce93e36ed919aa12051f7c9a4830e40eff348",
        }

    @pytest.mark.parametrize("suite,digests", [
        ("main", {
            "replications.csv":
                "4b90797a6076d4fd5caee21f103913f82eae91ae7a532640cb5a3a211024881e",
            "summary.csv":
                "2f0c8273743b099428efdac120f7227831d240eed5cecd6f0caae97a8c6a328b",
        }),
        ("frr", {
            "replications.csv":
                "6d4f22fc15419145c9d0fe31f4dbf3c0b359815c65aeb41ba63ae6f65d9cf299",
            "summary.csv":
                "313319d97727dc97ab21e0ba0029a6a1f7a006b8a11203717e3713d1ec3b9099",
        }),
    ])
    def test_grid_outputs_unchanged(self, tmp_path, suite, digests):
        # sha256 of the files written when each generator's seed words
        # became the SHA-256 digest of (seed, label, stream) (the frr suite's
        # rows include negative estimates)
        scenarios = (build_grid(1, 3, n_target=500) if suite == "main"
                     else build_sensitivity(suite, 1, 3, n_target=500))
        write_results(run_grid(scenarios), tmp_path, config_echo={}, seed=1,
                      wall_time=0.0)
        assert {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests
        } == digests

    def test_label_keyed_streams_match_across_grids(self):
        # every frr=0 sensitivity scenario reproduces its main-grid twin
        main = {s.label: s for s in build_grid(7, 2, n_target=300)}
        twins = [s for s in build_sensitivity("frr", 7, 2, n_target=300)
                 if s.assay.frr == 0.0]
        assert len(twins) == 2 * 2 * 4 * 2
        for got, want in zip(grid_cells(run_grid(twins)),
                             grid_cells(run_grid([main[s.label] for s in twins])),
                             strict=True):
            assert_same_block(got, want)


class TestSeedStates:
    # small and large seeds (one past 2**64) and a numpy integer, in one grid
    SEEDS = (0, 7, 2**40, 2**64 + 7, np.uint64(2**63 + 5))

    @staticmethod
    def reference_words(scenarios):
        return np.array([[sha256_words(s.seed, s.label, k) for k in (0, 1)]
                         for s in scenarios])

    def test_words_are_sha256_of_seed_label_stream(self):
        cells = small_grid()
        mixed = [dataclasses.replace(s, seed=seed)
                 for s, seed in zip(cells, itertools.cycle(self.SEEDS))]
        for scenarios in (mixed, build_grid(2**64 + 7, 1)):
            got = harness._seed_words([(s.seed, s.label) for s in scenarios])
            assert got.shape == (len(scenarios), 2, 4) and got.dtype == np.uint64
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, self.reference_words(scenarios))

    @pytest.mark.parametrize("seed,error", [
        (1.0, TypeError), (np.float64(7.0), TypeError),
        (-1, ValueError), (np.int64(-7), ValueError),
    ], ids=["float", "numpy-float", "negative", "numpy-negative"])
    def test_a_seed_that_is_not_a_nonnegative_integer_raises(self, seed, error):
        cells = small_grid()
        bad = [cells[0], dataclasses.replace(cells[1], seed=seed)]
        with pytest.raises(error):
            harness._seed_words([(s.seed, s.label) for s in bad])
        with pytest.raises(error):
            run_grid(bad)

    def test_grid_builds_no_seed_sequence(self, monkeypatch):
        scenarios = small_grid(reps=3)
        want = [drawn_counts(s.count_law, s.n_target, s.replications,
                             sha256_streams(s)) for s in scenarios]

        def refuse(*args, **kwargs):
            raise AssertionError("run_grid built a SeedSequence")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        cells = grid_cells(run_grid(scenarios, workers=1))
        for res, counts in zip(cells, want, strict=True):
            for name, column in vars(counts).items():
                assert np.array_equal(getattr(res.counts, name), column), name

    def test_empty_grid(self):
        assert harness._seed_words([]).shape == (0, 2, 4)
        assert grid_cells(run_grid([])) == []

    def test_seed_words_are_held_contiguous(self):
        words = np.random.SeedSequence([1, 5, 0]).generate_state(4, np.uint64)
        want = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([1, 5, 0]))).integers(0, 2**63, size=8)
        wide = np.zeros((4, 2), dtype=np.uint64)
        wide[:, 0] = words
        view = wide[:, 0]  # the right words, every other uint64 in memory
        assert not view.flags.c_contiguous
        for held in (view, view.copy()):
            gen = np.random.Generator(np.random.PCG64(harness._SeedWords(held)))
            np.testing.assert_array_equal(gen.integers(0, 2**63, size=8), want)

    @pytest.mark.parametrize("words", [
        np.arange(3, dtype=np.uint64), np.arange(8, dtype=np.uint64),
        np.arange(8, dtype=np.uint64).reshape(2, 4), np.arange(4, dtype=np.int64),
        np.arange(4, dtype=np.uint32), np.arange(4, dtype=np.float64),
    ], ids=["short", "long", "2-d", "int64", "uint32", "float"])
    def test_seed_words_of_another_shape_or_type_raise(self, words):
        with pytest.raises(ValueError, match="expected 4 uint64 words"):
            harness._SeedWords(words)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scenario_alone_equals_its_grid_block(self, workers, pool_forced):
        scenarios = small_grid(reps=3)
        cells = grid_cells(run_grid(scenarios, workers=workers))
        assert pool_forced == ([2] if workers == 2 else [])
        for s, res in zip(scenarios, cells, strict=True):
            assert res.scenario == s
            assert_same_block(grid_cells(run_grid([s]))[0], res)


class InProcessPool:
    """A stand-in for ProcessPoolExecutor that records `max_workers` and maps
    in this process, so a test can ask for any pool size and start none."""

    def __init__(self, started):
        self.started = started

    def __call__(self, max_workers=None):
        self.started.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def with_replications(counts):
    """One scenario per entry of `counts`, with that many replications (only
    the counts matter to `worker_processes`)."""
    cell = small_grid()[0]
    return [dataclasses.replace(cell, replications=k) for k in counts]


class TestWorkerProcesses:
    SHARE = harness._REPLICATIONS_PER_WORKER

    @pytest.mark.parametrize(
        "counts, workers, cpus, want",
        [
            # two workers from two shares of replications on
            ([SHARE, SHARE - 1], 2, 8, 1),
            ([SHARE, SHARE], 2, 8, 2),
            ([SHARE // 2] * 6, 8, 8, 3),
            ([SHARE] * 8, 8, 8, 8),
            # each cap alone: the request, the CPUs, the scenarios
            ([SHARE] * 8, 3, 8, 3),
            ([SHARE] * 8, 8, 2, 2),
            ([4 * SHARE] * 3, 8, 8, 3),
            ([SHARE] * 8, 8, None, 1),
            ([SHARE] * 8, 1, 8, 1),
            ([], 2, 8, 1),
        ],
    )
    def test_rule(self, monkeypatch, counts, workers, cpus, want):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert harness.worker_processes(with_replications(counts), workers) == want

    def test_small_grid_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_grid started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        scenarios = small_grid()
        assert harness.worker_processes(scenarios, 2) == 1
        for got, want in zip(grid_cells(run_grid(scenarios, workers=2)),
                             grid_cells(run_grid(scenarios)), strict=True):
            assert_same_block(got, want)

    def test_pool_is_sized_from_drawable_replications(self, monkeypatch):
        # six replications would size two workers; three of them are drawn
        started = []
        monkeypatch.setattr(harness, "_REPLICATIONS_PER_WORKER", 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool(started))
        grid = [small_grid(reps=3)[0], infeasible_cells(reps=3)[0]]
        result = run_grid(grid, workers=2)
        assert result.processes == 1 and started == []
        assert result.errors[0] is None and result.errors[1] is not None

    @pytest.mark.parametrize("cpus, want", [(3, 3), (64, 8)])
    def test_many_workers_start_at_most_cpus_and_scenarios(
        self, monkeypatch, cpus, want
    ):
        started = []
        monkeypatch.setattr(harness, "_REPLICATIONS_PER_WORKER", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool(started))
        scenarios = small_grid()
        assert len(scenarios) == 8
        cells = grid_cells(run_grid(scenarios, workers=5000))
        assert started == [want]
        for got, alone in zip(cells, scenarios, strict=True):
            assert_same_block(got, grid_cells(run_grid([alone]))[0])


class TestSummaries:
    def test_summary_recomputation(self):
        s = Scenario(
            label="swp_theta1_r1_c0",
            assay=DEFAULT_ASSAY,
            process=TestingProcess(
                ExponentialInterTest(1.0), ObservationRule.STOP_WHEN_POSITIVE
            ),
            r=1.0,
            c=0.0,
            params=DEFAULT_PARAMS,
            n_target=500,
            replications=20,
            seed=11,
        )
        result = run_grid([s])
        est = np.array(grid_cells(result)[0].estimates)
        summ = summary_row(result)
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
            r=r,
            c=c,
            params=DEFAULT_PARAMS,
            n_target=5000,
            replications=60,
            seed=17,
        )
        res = grid_cells(run_grid([s]))[0]
        expected = DEFAULT_PARAMS.incidence + analytic_bias(
            DEFAULT_ASSAY, theta, r, c, rule, DEFAULT_PARAMS
        )
        p_star, p_r = survey_composition(DEFAULT_ASSAY, s.process, r, c, DEFAULT_PARAMS)
        sd_log = np.sqrt(log_variance(5000, p_star, p_r))
        se_mean = expected * sd_log / np.sqrt(s.replications)
        assert np.mean(res.estimates) == pytest.approx(expected, abs=3.5 * se_mean)


def numpy_summary(est, screened):
    """The summary as numpy's reductions compute it."""
    ok = np.isfinite(est)
    valid = est[ok]
    positive = valid[valid > 0]
    if not valid.size:
        median = mean = q025 = q975 = math.nan
    else:
        median, mean = float(np.median(valid)), float(np.mean(valid))
        q025 = float(np.percentile(valid, 2.5))
        q975 = float(np.percentile(valid, 97.5))
    return {
        "median": median,
        "mean": mean,
        "q025": q025,
        "q975": q975,
        "var_log": float(np.var(np.log(positive), ddof=1))
        if positive.size > 1 else math.nan,
        "n_negative": int(np.sum(valid < 0)),
        "n_undefined": int(np.sum(~ok)),
        "mean_screened": float(np.mean(screened)) if screened.size else math.nan,
    }


def summary_row(result):
    """The row of `summary_columns` of `result`, a grid of one drawn cell."""
    return {key: column[0] for key, column in harness.summary_columns(result).items()}


def grid_of(cells):
    """The `GridResult` of `grid_cells`' cells, made up cell by cell: each
    drawn cell's counts and estimates (whatever its counts give) its row."""
    drawn = [cell for cell in cells if cell.error is None]
    counts = SurveyCounts(*(np.stack(column) for column in zip(
        *(vars(cell.counts).values() for cell in drawn))))
    return GridResult(
        tuple(cell.scenario for cell in cells), tuple(cell.error for cell in cells),
        counts, np.stack([np.asarray(cell.estimates, dtype=float) for cell in drawn]),
        processes=1)


def summary_of(est, screened):
    zeros = np.zeros(len(est), dtype=np.int64)
    counts = SurveyCounts(zeros, zeros, zeros, screened)
    return summary_row(grid_of([Cell(small_grid()[0], None, counts, est)]))


def _summary_cases():
    rng = np.random.default_rng(2024)
    cases = {
        "n1": [0.031],
        "n2": [0.031, 0.029],
        "n3": [0.031, 0.029, 0.04],
        "odd": rng.normal(0.03, 0.004, 101),
        "even": rng.normal(0.03, 0.004, 1000),
        "ties": np.round(rng.normal(0.03, 0.004, 64), 3),
        "nan": np.where(rng.random(57) < 0.2, np.nan, rng.normal(0.03, 0.01, 57)),
        "negative": rng.normal(0.002, 0.004, 40),
        "nan_and_negative": [np.nan, -0.01, 0.02, np.nan, 0.0, 0.05],
        "all_nan": [np.nan, np.nan],
        "one_positive": [-0.01, np.nan, 0.02],
        "past_one_buffer": rng.normal(0.03, 0.004, 9001),
    }
    return {k: np.asarray(v, dtype=float) for k, v in cases.items()}


SUMMARY_CASES = _summary_cases()


def same_value(a, b):
    if isinstance(b, float) and math.isnan(b):
        return isinstance(a, float) and math.isnan(a)
    return type(a) is type(b) and a == b


class TestSummaryMatchesNumpy:
    @pytest.mark.parametrize("name", SUMMARY_CASES)
    def test_bit_identical(self, name):
        est = SUMMARY_CASES[name]
        screened = np.random.default_rng(len(est)).integers(5000, 40_000, len(est))
        got, want = summary_of(est, screened), numpy_summary(est, screened)
        assert got.keys() == want.keys()
        for key in want:
            assert same_value(got[key], want[key]), (key, got[key], want[key])

    def test_random_arrays(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            est = rng.normal(0.01, 0.02, n)
            est[rng.random(n) < 0.1] = np.nan
            screened = rng.integers(5000, 9000, n)
            got, want = summary_of(est, screened), numpy_summary(est, screened)
            assert all(same_value(got[k], want[k]) for k in want), (trial, est)


class TestSummaryBlock:
    """`summary_columns` over a grid's rows at once equals numpy's 1-D
    reductions of each row alone."""

    # around numpy's pairwise-sum blocks (8, 128) and its buffer (8192)
    COUNTS = (1, 2, 7, 8, 9, 127, 128, 129, 8192, 9001)

    @staticmethod
    def rows(n, rng):
        """Regular rows mixed with rows holding a nan, a zero, a negative
        value, all of them, and only nan."""
        rows = [rng.normal(0.03, 0.004, n) for _ in range(3)]
        for marks in ([np.nan], [0.0], [-0.01], [np.nan, 0.0, -0.01]):
            row = rng.normal(0.03, 0.004, n)
            row[rng.choice(n, size=min(n, len(marks)), replace=False)] = marks[:n]
            rows.insert(int(rng.integers(len(rows) + 1)), row)
        rows.append(np.full(n, np.nan))
        return rows

    @staticmethod
    def check(rows, rng):
        screened = [rng.integers(5000, 40_000, len(row)) for row in rows]
        result = grid_of([
            Cell(small_grid()[0], None, SurveyCounts(
                *[np.zeros(len(row), dtype=np.int64)] * 3, scr), row)
            for row, scr in zip(rows, screened)
        ])
        got = harness.summary_columns(result)
        assert list(got) == list(harness.SUMMARY_STATS)
        for i, (row, scr) in enumerate(zip(rows, screened)):
            want = numpy_summary(row, scr)
            for key in want:
                assert same_value(got[key][i], want[key]), (len(row), i, key)

    @pytest.mark.parametrize("n", COUNTS)
    def test_one_block(self, n):
        rng = np.random.default_rng(n)
        self.check(self.rows(n, rng), rng)

    def test_rows_in_any_order(self):
        # one grid per replication count, a grid holding one count
        rng = np.random.default_rng(99)
        for n in self.COUNTS:
            rows = self.rows(n, rng)
            self.check([rows[i] for i in rng.permutation(len(rows))], rng)

    def test_result_without_estimates(self):
        for nothing_drawn in ([], infeasible_cells()):
            assert harness.summary_columns(run_grid(nothing_drawn)) == {
                key: [] for key in harness.SUMMARY_STATS}
        empty = np.zeros(0, dtype=np.int64)
        got = harness.summary_columns(grid_of([
            Cell(small_grid()[0], None, SurveyCounts(*[empty] * 4), empty)]))
        assert got["n_negative"] == got["n_undefined"] == [0]
        assert all(math.isnan(got[key][0]) for key in
                   ("median", "mean", "q025", "q975", "var_log", "mean_screened"))


SWP_ONLY = (ObservationRule.STOP_WHEN_POSITIVE,)


def infeasible_cells(reps=2):
    """Two cells no attendee can enter (c = 20 past every gap), each with an
    error before any draw (TestInfeasibleCell): the first capped, the second
    without a count law."""
    return [*build_grid(5, reps, n_target=200, theta=(2.0,), r=(0.0,), c=(20.0,),
                        rules=SWP_ONLY),
            *build_grid(5, reps, n_target=200, r=(0.0,), c=(20.0,), rules=SWP_ONLY,
                        uniform_b=(3.0,))]


def blocks(grid, limit):
    """Runs of consecutive cells of at most `limit` replications, a larger
    cell alone: the blocks `run_grid` scores of a grid's drawable cells at
    `harness._BLOCK_ROWS` = limit."""
    runs, rows = [[]], 0
    for s in grid:
        if rows and rows + s.replications > limit:
            runs.append([])
            rows = 0
        runs[-1].append(s)
        rows += s.replications
    return runs


class TestGridPasses:
    """A grid's drawable scenarios are one `run_scenario` call each, and a
    block's estimates one estimator call: the same blocks in-process and on
    a pool."""

    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        # each call is logged to a file, so a pool worker's calls are seen too
        log = tmp_path / "calls.log"
        log.touch()

        def logged(event, fn):
            def call(*args):
                with open(log, "a") as fh:
                    fh.write(event + "\n")
                return fn(*args)
            return call

        counting_estimate = logged("estimate", harness.kassanjee_estimate)
        monkeypatch.setattr(harness, "kassanjee_estimate", counting_estimate)
        monkeypatch.setattr(estimator, "kassanjee_estimate", counting_estimate)
        monkeypatch.setattr(harness, "run_scenario",
                            logged("scenario", harness.run_scenario))
        return lambda event: log.read_text().split().count(event)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_estimate_call_per_block(self, tmp_path, calls, pool_forced, workers):
        scenarios = build_grid(7, 3, n_target=400, theta=(1.0,), r=(0.6, 1.0),
                               c=(0.0, 0.25, 1.0, 1.5, 2.0))
        infeasible = infeasible_cells(reps=3)[0]
        grid = [*scenarios, infeasible]
        result = run_grid(grid, workers=workers)
        assert result.errors[-1] is not None
        write_results(result, tmp_path, config_echo={}, seed=7, wall_time=0.0)
        # 60 drawable replications: the grid is one block, on a pool too
        assert pool_forced == ([2] if workers == 2 else [])
        assert calls("estimate") == 1
        assert calls("scenario") == len(scenarios)
        assert [len(r.estimates) for r in grid_cells(result)] == (
            [3] * len(scenarios) + [0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.estimates = np.empty(0)

    @staticmethod
    def mixed_grid(reps):
        """Both assays, frr 0, 0.005 and 0.02, and two infeasible cells after
        the fourth, each cell of `reps` replications; the assays alternate, so
        a block of two or more drawable cells mixes them."""
        grids = [
            build_grid(9, reps, n_target=300, theta=(1.0,), r=(0.6,),
                       c=(0.0, 1.0), frr=(0.0, 0.005, 0.02),
                       assay=assay_name, rules=SWP_ONLY)
            for assay_name in ("default", "long")]
        cells = [cell for pair in zip(*grids) for cell in pair]
        return [*cells[:4], *infeasible_cells(reps), *cells[4:]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_block_holds_at_most_block_rows(self, monkeypatch, calls, pool_forced,
                                              workers):
        # 20 cells of 3 replications, then one more that cannot be drawn
        infeasible = infeasible_cells(reps=3)[0]
        grid = [*build_grid(7, 3, n_target=400, theta=(1.0,), r=(0.6, 1.0),
                            c=(0.0, 0.25, 1.0, 1.5, 2.0)), infeasible]
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 7)
        got = run_grid(grid, workers=workers)
        # the infeasible cell is in no block: 10 of two cells, on a pool too
        assert pool_forced == ([2] if workers == 2 else [])
        assert calls("estimate") == len(blocks(grid[:-1], 7)) == 10
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 4096)
        for a, b in zip(grid_cells(got), grid_cells(run_grid(grid, workers=workers)),
                        strict=True):
            assert a.error == b.error
            if a.error is None:
                assert_same_block(a, b)

    @pytest.mark.parametrize("reps", [1, 3, 7])
    @pytest.mark.parametrize("block_rows", [4096, 8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_estimates_are_each_cells_own(self, monkeypatch, pool_forced, workers,
                                                block_rows, reps):
        grid = self.mixed_grid(reps)
        assert grid[4:6] == infeasible_cells(reps)
        runs = blocks(grid[:4] + grid[6:], block_rows)
        mixed = [len({s.assay.gamma_shape for s in run}) == 2 for run in runs]
        # a block of two or more drawable cells holds both assays
        assert all(mixed) == (block_rows // reps >= 2)
        monkeypatch.setattr(harness, "_BLOCK_ROWS", block_rows)
        cells = grid_cells(run_grid(grid, workers=workers))
        assert pool_forced == ([2] if workers == 2 else [])
        errors = [r.error is not None for r in cells]
        assert errors == [False] * 4 + [True] * 2 + [False] * 8
        for res in cells:
            if res.error is not None:
                assert res.counts is None and res.estimates.size == 0
                continue
            s = res.scenario
            want = drawn_counts(s.count_law, s.n_target, s.replications,
                                sha256_streams(s))
            for name, column in vars(want).items():
                got = getattr(res.counts, name)
                assert got.dtype == column.dtype and got.tobytes() == column.tobytes()
            own = kassanjee_estimate(want, mdri(s.assay), s.assay.frr,
                                     s.assay.recency_cutoff)
            assert res.estimates.tobytes() == own.tobytes(), s.label

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_of_infeasible_cells(self, calls, pool_forced, workers):
        # no draws to stack: np.stack([]) would raise
        assert grid_cells(run_grid([], workers=workers)) == []
        result = run_grid(infeasible_cells(), workers=workers)
        assert pool_forced == [] and result.processes == 1
        assert list(result.errors) == [
            "expected draws to fill 200 places exceed 100000000 "
            "(admit probability 4.25e-18 per draw)",
            "no attendee can pass the exclusion window c=20 "
            "(admit probability 0 per draw)"]
        assert calls("estimate") == 0 and calls("scenario") == 0


class TestGridResult:
    """`run_grid`'s result: one replication count for the grid, a row of
    columns per drawn cell."""

    def test_two_replication_counts_raise_before_any_law(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a law was computed")

        monkeypatch.setattr(harness, "survey_law", refuse)
        cells = small_grid(reps=3)
        grid = [*cells[:2], dataclasses.replace(cells[2], replications=5), *cells[3:]]
        with pytest.raises(ValueError) as exc:
            run_grid(grid)
        assert str(exc.value) == "a grid runs one replication count, got [3, 5]"

    # the files of a grid with no drawn cell, as written before the grid's
    # result became one set of columns
    ERROR_ROWS = (
        "swp_theta2_r0_c20,swp,exponential,2.0,,,0,20,0,2,200,,,,,,,,,,,"
        "error:expected draws to fill 200 places exceed 100000000 "
        "(admit probability 4.25e-18 per draw)\r\n"
        "swp_uni0-3_r0_c20,swp,uniform,,0.0,3.0,0,20,0,2,200,,,,,,,,,,,"
        "error:no attendee can pass the exclusion window c=20 "
        "(admit probability 0 per draw)\r\n")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("nothing_drawn", ["empty", "infeasible"])
    def test_grid_without_rows_writes_the_same_files(self, tmp_path, pool_forced,
                                                     workers, nothing_drawn):
        grid = [] if nothing_drawn == "empty" else infeasible_cells()
        ok = write_results(run_grid(grid, workers=workers), tmp_path, config_echo={},
                           seed=5, wall_time=0.0)
        assert pool_forced == []  # nothing to draw
        assert ok == (not grid)
        rows = "" if not grid else self.ERROR_ROWS
        assert (tmp_path / "replications.csv").read_bytes() == (
            ",".join(harness.REPLICATION_COLUMNS) + "\r\n").encode()
        assert (tmp_path / "summary.csv").read_bytes() == (
            ",".join(SUMMARY_COLUMNS) + "\r\n" + rows).encode()


def csv_writer_replications(result):
    """replications.csv as csv.writer writes it, row by row."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(harness.REPLICATION_COLUMNS)
    for res in grid_cells(result):
        if res.counts is None:
            continue
        c = res.counts
        for rep, est in enumerate(res.estimates.tolist()):
            status = "undefined" if math.isnan(est) else (
                "negative" if est < 0 else "ok")
            w.writerow([res.scenario.label, rep, *(
                int(col[rep]) for col in (c.n_total, c.n_pos, c.n_neg, c.n_rec,
                                          c.n_screened)), harness._fmt(est), status])
    return fh.getvalue()


class TestReplicationsWriter:
    def test_byte_identical_to_csv_writer(self):
        cells = grid_cells(run_grid(small_grid(reps=4), workers=1))
        odd = Cell(
            small_grid()[1], None,
            SurveyCounts(np.array([4, 0, 3, 10]),
                         np.array([6, 10, 7, 0]), np.array([1, 0, 0, 2]),
                         np.array([10, 12, 13, 99])),
            [0.0125, 0.0, -3.5e-5, np.nan],
        )
        error = Cell(small_grid()[2], "no attendee", None, np.empty(0))
        result = grid_of([cells[0], odd, error, *cells[1:]])
        fh = io.StringIO(newline="")
        harness._write_replications(result, fh)
        assert fh.getvalue() == csv_writer_replications(result)
        # the odd result keeps every status
        statuses = [row[-1] for row in csv.reader(io.StringIO(fh.getvalue()))]
        assert {"ok", "negative", "undefined"} <= set(statuses)

    def test_labels_need_no_quoting(self):
        scenarios = build_grid(1, 1) + [
            s for suite in ("frr", "uniform_intertest", "long_mdri")
            for s in build_sensitivity(suite, 1, 1)
        ]
        for s in scenarios:
            fh = io.StringIO(newline="")
            csv.writer(fh).writerow([s.label, 0])
            assert fh.getvalue() == f"{s.label},0\r\n"

    def test_label_quoted_in_both_grid_csvs(self, tmp_path):
        # replications.csv rejected a label that needs quoting, which
        # summary.csv quoted: both files now write it as csv.writer does
        res = run_grid(small_grid(reps=2)[:3])
        odd = dataclasses.replace(res.scenarios[1], label='swp,"theta"1')
        res = dataclasses.replace(res, scenarios=(res.scenarios[0], odd,
                                                  *res.scenarios[2:]))
        assert write_results(res, tmp_path, config_echo={}, seed=7, wall_time=0.0)
        assert (tmp_path / "replications.csv").read_bytes() == (
            csv_writer_replications(res).encode())
        assert (tmp_path / "summary.csv").read_bytes() == (
            csv_writer_summary(res).encode())
        for name in ("replications.csv", "summary.csv"):
            with open(tmp_path / name, newline="") as fh:
                assert odd.label in [row[0] for row in csv.reader(fh)]

    def test_chunks_byte_identical_to_csv_writer(self, monkeypatch):
        # two drawn cells a chunk at 4 replications, error cells between
        # drawn ones: the chunks' lines are the one csv.writer writes
        monkeypatch.setattr(harness, "_WRITE_ROWS", 8)
        cells = [*grid_cells(run_grid(small_grid(reps=4))),
                 *grid_cells(run_grid(small_grid(seed=8, reps=4, n_target=300)))]
        error = Cell(small_grid()[0], "no attendee", None, np.empty(0))
        result = grid_of([cells[0], error, *cells[1:4], error, error,
                          *cells[4:7], error, cells[7]])

        class Writes(io.StringIO):
            calls = 0

            def write(self, text):
                Writes.calls += 1
                return super().write(text)

        fh = Writes(newline="")
        harness._write_replications(result, fh)
        assert fh.getvalue() == csv_writer_replications(result)
        assert Writes.calls == 1 + 4  # the header, then 8 drawn cells 2 a chunk


def csv_writer_summary(result):
    """summary.csv as csv.writer writes it, row by row: a cell's fields
    (theta, a and b as they are, r, c and frr through `_fmt`), then its
    `summary_columns` statistics (counts as integers, the others with
    .10g) and its analytic columns, or ten empty fields and its error."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(SUMMARY_COLUMNS)
    columns = harness.summary_columns(result)
    rows = iter(zip(*columns.values()))
    for s, error in zip(result.scenarios, result.errors, strict=True):
        law = s.process.inter_test_law
        fields = (("exponential", law.theta, "", "")
                  if isinstance(law, ExponentialInterTest) else
                  ("uniform", "", law.a, law.b))
        row = [s.label, s.process.observation_rule.value, *fields,
               harness._fmt(s.r), harness._fmt(s.c), harness._fmt(s.assay.frr),
               s.replications, s.n_target]
        if error is not None:
            w.writerow(row + [""] * 10 + [f"error:{error}"])
            continue
        stats = [value if key in ("n_negative", "n_undefined") else f"{value:.10g}"
                 for key, value in zip(columns, next(rows))]
        law = s.count_law
        w.writerow(row + stats + [harness._fmt(law.analytic_bias),
                                  harness._fmt(law.analytic_variance(s.n_target)),
                                  "ok"])
    assert next(rows, None) is None
    return fh.getvalue()


class TestSummaryWriter:
    @pytest.mark.parametrize("suite", ["main", "frr", "uniform_intertest", "long_mdri"])
    def test_byte_identical_to_csv_writer(self, suite):
        scenarios = (build_grid(1, 3, n_target=500) if suite == "main"
                     else build_sensitivity(suite, 1, 3, n_target=500))
        result = run_grid(scenarios)
        fh = io.StringIO(newline="")
        assert harness._write_summary(result, fh)
        assert fh.getvalue() == csv_writer_summary(result)

    def test_free_text_quoted_as_csv_writer_quotes_it(self):
        # the error text and a hand-made label hold every character that
        # needs quoting; csv.reader reads both back as they were
        message = 'gap "b" too short,\nsee c\r\nnext'
        cells = grid_cells(run_grid(small_grid(reps=3)))
        odd = dataclasses.replace(cells[1].scenario, label='swp,"theta"1')
        result = grid_of([cells[0], Cell(cells[2].scenario, message, None, np.empty(0)),
                          cells[1]._replace(scenario=odd), *cells[3:]])
        fh = io.StringIO(newline="")
        assert not harness._write_summary(result, fh)
        assert fh.getvalue() == csv_writer_summary(result)
        rows = list(csv.reader(io.StringIO(fh.getvalue(), newline="")))
        assert len(rows) == 1 + len(cells)
        assert rows[2][-1] == f"error:{message}"
        assert (rows[3][0], rows[3][-1]) == (odd.label, "ok")


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
        assert rows[-1][1] >= DEFAULT_PARAMS.horizon

    def test_draws_on_the_sha256_words_of_seed_histogram_stream_0(self, monkeypatch):
        # the grid's seeding: the README's hashlib recipe rebuilds the draw
        states, real = [], harness.PCG64

        def recording(words):
            bit_generator = real(words)
            states.append(bit_generator.state)
            return bit_generator

        monkeypatch.setattr(harness, "PCG64", recording)
        for seed in (0, 12345, 2**64 + 7):
            emit_histogram(ObservationRule.REGULAR, ExponentialInterTest(1.0), 0.25,
                           n_infected=100, seed=seed)
        want = [sha256_streams(dataclasses.replace(
            small_grid()[0], seed=seed, label="histogram"))[0].bit_generator.state
            for seed in (0, 12345, 2**64 + 7)]
        assert states == want

    def test_builds_each_weight_once(self, monkeypatch):
        # three weights, each built once and integrated to every bin edge,
        # after one (r, c) check: a uniform law builds three piece lists
        counted = []
        for module, name in ((estimator, "_uniform_pieces"),
                             (estimator, "_check_weight_args"),
                             (harness, "_check_weight_args")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real: (
                counted.append(name) or real(*args)))
        emit_histogram(ObservationRule.REGULAR, UniformInterTest(0.0, 3.0), 0.5, seed=1)
        assert counted.count("_uniform_pieces") == 3, len(counted)
        assert counted.count("_check_weight_args") == 1, len(counted)

    @pytest.mark.parametrize("c", [-1.0, -1e-300, math.nan])
    def test_a_bad_window_raises_before_any_draw(self, monkeypatch, c):
        def refuse(words):
            raise AssertionError("built a generator")

        monkeypatch.setattr(harness, "PCG64", refuse)
        message = re.escape(f"c must be nonnegative, got {c!r}")
        with pytest.raises(ValueError, match=message):
            emit_histogram(ObservationRule.STOP_WHEN_POSITIVE,
                           ExponentialInterTest(1.0), c, seed=1)


HISTOGRAM_ALPHA = 0.01  # family-wise over the cross-engine histogram cells
HISTOGRAM_N = 100_000
HISTOGRAM_BIN = 1.0
HISTOGRAM_CELLS = [
    (rule, law, c)
    for rule in ObservationRule
    for law in (ExponentialInterTest(1.0), UniformInterTest(0.0, 3.0))
    for c in (0.0, 0.25, 2.0)
]


def histogram_id(cell):
    rule, law, c = cell
    if isinstance(law, ExponentialInterTest):
        return f"{rule.value}_theta{law.theta:g}_c{c:g}"
    return f"{rule.value}_uni{law.a:g}-{law.b:g}_c{c:g}"


def person_level_histogram(rule, law, c, n_infected, bin_width, seed):
    """`emit_histogram`'s counts built person by person with the reference
    sampler: Uniform(0, tau) durations, then the time since the most recent
    observed test, binned by duration."""
    rng = np.random.default_rng(seed)
    process = TestingProcess(law, rule)
    tau = DEFAULT_PARAMS.horizon
    u = rng.uniform(0.0, tau, size=n_infected)
    t = observe_most_recent_many(
        sample_residual(process, rng, n_infected), u,
        np.ones(n_infected, dtype=bool), process, rng,
    )
    aware, included = u >= t, t > c
    n_bins = math.ceil(tau / bin_width)
    idx = np.minimum((u / bin_width).astype(int), n_bins - 1)
    cells = [aware & included, aware & ~included, ~aware & included,
             ~aware & ~included]
    return np.array([np.bincount(idx[m], minlength=n_bins) for m in cells]).T


@pytest.fixture(scope="module")
def histogram_pvalues():
    """Cell id -> chi-square p-value of homogeneity between the kernel's
    histogram and the person-level one; fixed seeds.  Cells with fewer than
    10 draws over both engines are pooled into one."""
    pvalues = {}
    for i, cell in enumerate(HISTOGRAM_CELLS):
        rows = emit_histogram(*cell, n_infected=HISTOGRAM_N,
                              bin_width=HISTOGRAM_BIN, seed=40 + i)
        kernel = np.array([row[2:] for row in rows])
        assert kernel.sum() == HISTOGRAM_N
        reference = person_level_histogram(*cell, HISTOGRAM_N, HISTOGRAM_BIN,
                                           seed=60 + i)
        table = np.stack([kernel.ravel(), reference.ravel()])
        small = table.sum(axis=0) < 10
        table = np.column_stack([table[:, ~small], table[:, small].sum(axis=1)])
        table = table[:, table.sum(axis=0) > 0]
        pvalues[histogram_id(cell)] = stats.chi2_contingency(table).pvalue
    return pvalues


@pytest.mark.parametrize("cell", HISTOGRAM_CELLS, ids=histogram_id)
def test_histogram_matches_person_level_sampler(cell, histogram_pvalues):
    assert len(histogram_pvalues) == len(HISTOGRAM_CELLS)
    key = histogram_id(cell)
    rejected = holm_rejected(histogram_pvalues, HISTOGRAM_ALPHA)
    assert key not in rejected, f"chi-square p = {histogram_pvalues[key]}"


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

    @pytest.mark.parametrize("assay", [DEFAULT_ASSAY, LONG_ASSAY],
                             ids=["default", "long"])
    def test_bias_is_the_rows_left_endpoint_sum(self, assay, monkeypatch):
        phi_assays = []

        def counted_phi(u, a):
            phi_assays.append(a)
            return phi(u, a)

        monkeypatch.setattr(harness, "phi", counted_phi)
        rows = emit_table1(assay=assay)
        assert phi_assays == [assay]  # one grid per table, not one per row
        step, tstar = harness.TABLE_GRID_STEP, assay.recency_cutoff
        assert len(rows) == 18
        for row in rows:
            c, theta, r = row["c"], row["theta"], row["r"]
            u = np.arange(0.0, tstar, step)
            p = phi(u, assay)
            omega = p.sum() * step
            m = u >= c
            k = (p[m] * (1.0 - np.exp(theta * (c - u[m])))).sum() * step
            if c >= tstar:
                k = 0.0
            omega_eff = omega - (1.0 - r * math.exp(theta * c)) * k
            want = DEFAULT_PARAMS.incidence * (omega_eff / omega - 1.0)
            assert row["bias_x1e3"] == want * 1e3, (c, theta, r)

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


HISTOGRAM_COLUMNS = ["bin_lo", "bin_hi", "aware_included", "aware_excluded",
                     "unaware_included", "unaware_excluded"]


def csv_writer_report(header, rows):
    """A report CSV as csv.writer writes it: the header, then each row's
    values through `_fmt`."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows([harness._fmt(v) for v in row] for row in rows)
    return fh.getvalue()


class TestReportWriters:
    # Table 1 and the histogram are hand-joined like the grid CSVs
    FREE_TEXT = 'none, "at all",\r\nreally'

    def test_table1_bytes_are_csv_writers(self, tmp_path):
        rows = emit_table1()
        rows[1] = {**rows[1], "exclusion_period": self.FREE_TEXT}
        write_table1(rows, tmp_path / "table1.csv")
        assert (tmp_path / "table1.csv").read_bytes() == csv_writer_report(
            list(rows[0]), [list(row.values()) for row in rows]).encode()

    def test_histogram_bytes_are_csv_writers(self, tmp_path):
        rows = emit_histogram(ObservationRule.STOP_WHEN_POSITIVE,
                              ExponentialInterTest(1.0), 1.0, n_infected=1000)
        rows[1] = (self.FREE_TEXT, *rows[1][1:])
        write_histogram(rows, tmp_path / "histogram.csv")
        assert (tmp_path / "histogram.csv").read_bytes() == csv_writer_report(
            HISTOGRAM_COLUMNS, rows).encode()

    def test_the_directory_is_made_where_a_file_is_written(self, tmp_path):
        out = tmp_path / "a" / "b" / "table1.csv"
        write_table1([{"c": 0.0, "r": 1.0}], out)
        assert out.read_bytes() == b"c,r\r\n0,1\r\n"


class TestOutputsAndCli:
    def test_write_results_files(self, tmp_path):
        result = run_grid(small_grid(), workers=1)
        ok = write_results(result, tmp_path, config_echo={"x": 1}, seed=7,
                           wall_time=1.0)
        assert ok
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.scenarios)
        assert all(r["status"] == "ok" for r in rows)
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 7
        assert manifest["scenarios"] == len(result.scenarios)
        assert manifest["errors"] == []
        # the vectorized streams depend on numpy's version
        assert (manifest["workers"], manifest["processes"]) == (1, 1)
        assert (manifest["python"], manifest["numpy"]) == (
            platform.python_version(), np.__version__)
        assert manifest["scipy"] == __import__("scipy").__version__

    def test_summary_writer_formats_no_label(self, monkeypatch):
        # each row built its law's label text only to drop it: 160 exact_g
        # calls per main-grid write
        result = run_grid([*build_grid(1, 1, n_target=200),
                           *build_grid(1, 1, n_target=200, uniform_b=(3.0,))])
        calls = []
        real = harness.exact_g
        monkeypatch.setattr(harness, "exact_g", lambda x: calls.append(x) or real(x))
        harness._write_summary(result, io.StringIO(newline=""))
        assert calls == []

    def test_write_results_of_no_scenarios(self, tmp_path):
        assert write_results(run_grid([]), tmp_path, config_echo={}, seed=1,
                             wall_time=0.0)
        assert (tmp_path / "replications.csv").read_text() == (
            ",".join(harness.REPLICATION_COLUMNS) + "\n")
        assert (tmp_path / "summary.csv").read_text() == (
            ",".join(SUMMARY_COLUMNS) + "\n")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["scenarios"], manifest["errors"]) == (0, [])

    def test_cli_manifest_echoes_each_setting_once(self, tmp_path, capsys):
        # `replications: 7` and `--reps 3` ran 3 replications, but the echo
        # held "replications": 7 beside "reps": "3"
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("replications: 7\nn_target: 200\ngrid:\n  theta: [1.0]\n"
                       "  r: [1.0]\n  c: [0.0]\n")
        assert cli_main(["grid", "--config", str(cfg), "--reps", "3",
                         "--out-dir", str(out)]) == 0
        capsys.readouterr()
        echo = json.loads((out / "manifest.json").read_text())["config"]
        assert echo == {
            "command": "grid", "grid": {"theta": [1.0], "r": [1.0], "c": [0.0]},
            "seed": "12345", "replications": "3", "workers": "1", "n_target": "200",
            "out_dir": str(out)}
        with open(out / "summary.csv") as fh:
            assert {row["replications"] for row in csv.DictReader(fh)} == {"3"}

    @pytest.mark.parametrize("command", [*COMMAND_KEYS, "mdri"])
    def test_cli_flags_are_the_commands_settings(self, capsys, command):
        with pytest.raises(SystemExit):
            cli_main([command, "--help"])
        flags = set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M))
        settings = {key: flag for key, (flag, _, _) in SETTINGS.items() if flag}
        read = COMMAND_KEYS.get(command, set())
        assert flags & {*settings.values()} == {
            flag for key, flag in settings.items() if key in read}
        assert ({"--out-dir", "--config"} <= flags) == (command != "mdri")

    def test_cli_manifest_records_workers(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_target: 200\ngrid:\n  theta: [1.0]\n  r: [1.0]\n"
                       "  c: [0.0]\n")
        assert cli_main(["grid", "--config", str(cfg), "--reps", "1",
                         "--workers", "2", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        # two replications in all: too few to repay a pool
        assert (manifest["workers"], manifest["processes"]) == (2, 1)

    def test_cli_manifest_records_pool_processes(self, tmp_path, capsys,
                                                 monkeypatch):
        # `grid --workers 5000` on two cells asks for a pool of two
        started = []
        monkeypatch.setattr(harness, "_REPLICATIONS_PER_WORKER", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool(started))
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_target: 200\ngrid:\n  theta: [1.0]\n  r: [1.0]\n"
                       "  c: [0.0]\n")
        assert cli_main(["grid", "--config", str(cfg), "--reps", "1",
                         "--workers", "5000", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert started == [2]
        assert (manifest["workers"], manifest["processes"]) == (5000, 2)

    def test_error_rows_formatted_like_ok_rows(self, tmp_path):
        # r = 1.0, c = 0.0 and frr = 0.0 are floats that _fmt prints as 1 / 0
        scenario = Scenario(
            label="swp_theta1_r1_c0",
            assay=DEFAULT_ASSAY,
            process=TestingProcess(
                ExponentialInterTest(1.0), ObservationRule.STOP_WHEN_POSITIVE
            ),
            r=1.0,
            c=0.0,
            params=DEFAULT_PARAMS,
            n_target=200,
            replications=1,
            seed=3,
        )
        good = grid_cells(run_grid([scenario]))[0]
        bad = Cell(scenario, "attempt cap hit", None, np.empty(0))
        assert not write_results(grid_of([good, bad]), tmp_path, config_echo={},
                                 seed=3, wall_time=0.0)
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

    def test_report_bytes_unchanged(self, tmp_path, capsys):
        # sha256 of table1.csv, a CLI histogram and a uniform-law histogram,
        # as written before the inter-test law was read in one place, and of
        # `mdri` stdout, as printed before its quadrature check left the CLI
        assert cli_main(["table1", "--out-dir", str(tmp_path)]) == 0
        assert cli_main(["histogram", "--rule", "swp", "--theta", "1", "--c", "2",
                         "--seed", "3", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        write_histogram(emit_histogram(ObservationRule.REGULAR, UniformInterTest(0.0, 3.0),
                                       0.5), tmp_path / "uniform.csv")
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())
        } == {
            "histogram_swp_theta1_c2.csv":
                "dcdb00194f928a62c704bdb5f2340f0432cded27fa9cdb7bfacce6167eb8a3ea",
            "table1.csv":
                "fbd5e97e491008ed1009abbe49edb3ff6a5f9ecea80a47b296f28bd58893b6fe",
            "uniform.csv":
                "09c90855c109c0fca6b99ec869cc83d7b2fcf730828903c9534834d86ff4b453",
        }
        printed = {}
        for query in ("--rule swp --theta 1 --r 0.6 --c 0.25",
                      "--rule regular --theta 1e-300 --r 0 --c 0",
                      "--rule swp --theta 300 --c 1.9", "--assay long"):
            assert cli_main(["mdri", *query.split()]) == 0
            printed[query] = hashlib.sha256(
                capsys.readouterr().out.encode()).hexdigest()
        assert printed == {
            "--rule swp --theta 1 --r 0.6 --c 0.25":
                "31e23a895c95c66e219d7d4f29fccff85770fd42d0ae9f42d28d6773345b5114",
            "--rule regular --theta 1e-300 --r 0 --c 0":
                "0663931ce6c05969d17b56e11776f7b3c7527d197887c2c1949c83652ec1ce98",
            "--rule swp --theta 300 --c 1.9":
                "c4fd4fa72bf432eefd27269536fba6a97c838ae0b8c0576b13eae3438d98347c",
            "--assay long":
                "d54d76dde2e64f265662bd56527c2593dd6ad2bdf0eb78472c95d8f5a705537d",
        }

    def test_cli_histogram_names_each_theta_exactly(self, tmp_path, capsys):
        for theta in ("1", "1.0000001"):
            assert cli_main(["histogram", "--theta", theta, "--c", "2",
                             "--n-infected", "100", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "histogram_swp_theta1.0000001_c2.csv", "histogram_swp_theta1_c2.csv"]

    def test_cli_mdri(self, capsys):
        rc = cli_main(
            ["mdri", "--rule", "swp", "--theta", "1.0", "--r", "0.6", "--c",
             "0.25"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "effective mdri" in out
        # values below 1e6 keep their fixed-point formats
        assert "effective mdri  = 0.255606 years\n" in out
        assert "analytic bias   = -1.364 x 1e-3 per person-year\n" in out

    def test_cli_mdri_lines_stay_short(self, capsys):
        # effective MDRI 5.18e244 years: e notation, not 245 digits
        assert cli_main(["mdri", "--rule", "swp", "--theta", "300", "--c", "1.9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all(len(line) < 100 for line in lines), lines

    @pytest.mark.parametrize(
        "argv",
        [["table1", "--seed", "1"], ["table1", "--reps", "2"],
         ["table1", "--workers", "2"], ["histogram", "--reps", "2"],
         ["histogram", "--workers", "2"], ["mdri", "--check-numeric"]],
        ids=" ".join,
    )
    def test_cli_rejects_a_flag_the_command_ignores(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["grid", "table1"])
    @pytest.mark.parametrize(
        "body,message",
        [("seed: [1\n", "expected ',' or ']'"),
         (b"seed: \xff\n", "can't decode byte 0xff"),
         (None, "No such file or directory"),
         # past Python's 4,300-digit limit: a ValueError traceback from
         # inside yaml.safe_load
         (f"n_target: 1{'0' * 5000}\n", "Exceeds the limit (4300 digits)"),
         (f"seed: 1{'0' * 5000}\n", "Exceeds the limit (4300 digits)")],
        ids=["malformed", "not_utf8", "missing", "huge_n_target", "huge_seed"],
    )
    def test_cli_rejects_unreadable_config(self, tmp_path, capsys, command,
                                           body, message):
        cfg = tmp_path / "cfg.yaml"
        if body is not None:
            cfg.write_bytes(body if isinstance(body, bytes) else body.encode())
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(cfg),
                      "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot read config {cfg}" in err
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["grid", "table1"])
    @pytest.mark.parametrize("value,kind", [
        ("[]", "list"), ("[theta]", "list"), ("0", "int"), ("false", "bool"),
        ("''", "str"),
    ])
    @pytest.mark.parametrize("block", ["config", "the grid: block of"])
    def test_cli_rejects_config_that_is_not_a_mapping(self, tmp_path, capsys,
                                                      command, value, kind,
                                                      block):
        # a falsy value is no more a mapping than a truthy one
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(value + "\n" if block == "config" else f"grid: {value}\n")
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(cfg),
                      "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{block} {cfg} must be a mapping, got {kind}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body", ["", "# comment only\n", "grid:\n",
                                      "grid: null\n"])
    def test_cli_reads_empty_config_as_defaults(self, tmp_path, capsys, body):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(body)
        out = tmp_path / "out"
        assert cli_main(["grid", "--config", str(cfg), "--reps", "1",
                         "--out-dir", str(out)]) == 0
        assert "grid: 160 scenarios" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenarios"] == 160 and manifest["errors"] == []

    def test_cli_wall_time_ignores_a_wall_clock_step(self, tmp_path, capsys,
                                                     monkeypatch):
        # the wall clock steps back an hour at every reading
        steps = itertools.count(0.0, -3600.0)
        monkeypatch.setattr(time, "time", lambda: 2e9 + next(steps))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_target: 200\ngrid:\n  theta: [1.0]\n  r: [1.0]\n"
                       "  c: [0.0]\n")
        out = tmp_path / "out"
        assert cli_main(["grid", "--config", str(cfg), "--reps", "1",
                         "--out-dir", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["wall_time_s"] >= 0.0

    @pytest.mark.parametrize(
        "grid,message",
        [
            ("rules: [swpp]", "'swpp' is not a valid ObservationRule"),
            ("assay: defualt", "unknown assay 'defualt'"),
            ("theta: [0]", "theta must be positive, got 0"),
            ("c: [-1]", "c must be nonnegative, got -1"),
            ("r: [1.5]", "r must lie in [0, 1], got 1.5"),
            ("frr: [1.5]", "frr must lie in [0, 1), got 1.5"),
            ("uniform_b: [0]", "need 0 <= a < b, got a=0.0, b=0"),
            ("theta: [.inf]", "theta must be finite, got inf"),
            ("uniform_b: [.inf]", "b must be finite, got inf"),
            ("theta: [1, 1]", "two cells share the label 'regular_theta1_r0_c0'"),
            # YAML 1.1 reads on/off/yes/no/true/false as bools, 1e-9 as text
            ("r: [on]", "r values must be numbers, got True"),
            ("c: [false]", "c values must be numbers, got False"),
            ("frr: [no]", "frr values must be numbers, got False"),
            ("uniform_b: [yes]", "uniform_b values must be numbers, got True"),
            ("theta: [1e-9]", "theta values must be numbers, got '1e-9'"),
            ('c: ["1"]', "c values must be numbers, got '1'"),
            # a float is not iterable, a string was read one character at a
            # time and a list was unhashable: no error named its key
            ("theta: 1.0", "theta must be a list of values, got 1.0"),
            ("frr: 0.01", "frr must be a list of values, got 0.01"),
            ("rules: swp", "rules must be a list of values, got 'swp'"),
            ("r: '0.5'", "r must be a list of values, got '0.5'"),
            ("c: {a: 1}", "c must be a list of values, got {'a': 1}"),
            ("assay: [long]", "unknown assay ['long']; expected one of: default, long"),
        ],
    )
    def test_cli_rejects_bad_grid_value(self, tmp_path, capsys, grid, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"out_dir: {tmp_path / 'out'}\ngrid:\n  {grid}\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["grid", "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"bad value in the grid: block of {cfg}" in captured.err
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite", SUITES)
    def test_cli_sensitivity_is_grid_on_its_block(self, tmp_path, capsys, suite):
        # a suite is only data: its grid: block run by `grid`
        cfg = tmp_path / "cfg.yaml"
        block = {key: list(v) if isinstance(v, tuple) else v
                 for key, v in SUITES[suite].items()}
        cfg.write_text(yaml.safe_dump({"grid": block}))
        runs = {"grid": ["grid", "--config", str(cfg)],
                "sensitivity": ["sensitivity", suite]}
        for name, argv in runs.items():
            assert cli_main([*argv, "--reps", "3",
                             "--out-dir", str(tmp_path / name)]) == 0
        capsys.readouterr()
        for name in ("replications.csv", "summary.csv"):
            assert ((tmp_path / "grid" / name).read_bytes()
                    == (tmp_path / "sensitivity" / name).read_bytes())
        assert [json.loads((tmp_path / name / "manifest.json").read_text())
                ["config"]["command"] for name in runs] == ["grid",
                                                           f"sensitivity:{suite}"]

    def test_cli_reads_a_dotted_exponent(self, tmp_path, capsys):
        # 1.0e-9 is a YAML float, where 1e-9 is text
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        cfg.write_text(f"n_target: 200\nout_dir: {out}\ngrid:\n  theta: [1.0e-9]\n"
                       "  r: [0]\n  c: [1]\n")
        assert cli_main(["grid", "--config", str(cfg), "--reps", "2"]) == 0
        capsys.readouterr()
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["scenario"], r["theta"], r["status"]) for r in rows] == [
            ("regular_theta1e-09_r0_c1", "1e-09", "ok"),
            ("swp_theta1e-09_r0_c1", "1e-09", "ok")]

    def test_cli_rejects_theta_beside_uniform_b(self, tmp_path, capsys):
        # ran the 40 uniform cells and exited 0, theta dropped
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"out_dir: {tmp_path / 'out'}\ngrid:\n  theta: [1.0]\n"
                       "  uniform_b: [3.0]\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["grid", "--config", str(cfg), "--reps", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"bad value in the grid: block of {cfg}" in err
        assert "theta and uniform_b cannot both be set" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block", ["theta: [2.0]", "assay: long", "rules: []"])
    def test_cli_sensitivity_rejects_a_grid_block(self, tmp_path, capsys, block):
        # the frr suite ran theta 0.4 and 1.0 whatever the block set
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"out_dir: {tmp_path / 'out'}\ngrid:\n  {block}\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["sensitivity", "frr", "--config", str(cfg), "--reps", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"the grid: block of {cfg} does not apply to sensitivity" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block", ["", " null", " {}"], ids=["empty", "null", "{}"])
    def test_cli_sensitivity_accepts_an_empty_grid_block(self, tmp_path, capsys,
                                                         block):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"n_target: 200\nout_dir: {tmp_path / 'out'}\ngrid:{block}\n")
        assert cli_main(["sensitivity", "uniform_intertest", "--config", str(cfg),
                         "--reps", "1"]) == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("argv,body,key,kind", [
        (["table1"], "replications: 7\ngrid: {theta: [2.0]}\n", "replications", "key"),
        (["table1"], "grid:\n  theta: [2.0]\n", "grid", "block"),
        (["table1"], "seed: 3\n", "seed", "key"),
        (["table1"], "workers: 2\n", "workers", "key"),
        (["histogram", "--n-infected", "100"], "n_target: 200\n", "n_target", "key"),
        (["histogram", "--n-infected", "100"], "replications: 0\n", "replications",
         "key"),
        (["histogram", "--n-infected", "100"], "grid: {rules: [swp]}\n", "grid",
         "block"),
    ], ids=["table1-replications", "table1-grid", "table1-seed", "table1-workers",
            "histogram-n_target", "histogram-replications", "histogram-grid"])
    def test_cli_rejects_a_config_key_the_command_ignores(self, tmp_path, capsys,
                                                          monkeypatch, argv, body,
                                                          key, kind):
        # table1 wrote the fixed table and histogram the theta = 1 one, exit 0
        self.refuse_work(monkeypatch)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(body + f"out_dir: {tmp_path / 'out'}\n")
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"the {key}: {kind} of {cfg} does not apply to {argv[0]}" in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv,name", [
        (["table1"], "table1.csv"),
        (["histogram", "--n-infected", "100"], "histogram_swp_theta1_c1.csv"),
    ], ids=["table1", "histogram"])
    def test_cli_reads_a_null_or_empty_key_as_unset(self, tmp_path, capsys, argv,
                                                    name):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"out_dir: {tmp_path / 'out'}\nreplications: null\n"
                       "workers:\ngrid: {}\n")
        assert cli_main([*argv, "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert [p.name for p in (tmp_path / "out").iterdir()] == [name]

    @pytest.mark.parametrize(
        "block,key", [*((None, k) for k in sorted(CONFIG_KEYS)),
                      *(("grid", k) for k in GRID_KEYS)],
        ids=lambda v: v or "top")
    def test_cli_reads_a_null_value_as_unset(self, tmp_path, capsys, monkeypatch,
                                            block, key):
        # every top-level key but grid:, and five grid: keys, set to null were
        # usage errors; grid:, theta and uniform_b ran the defaults
        grid = {"rules": ["swp"], "theta": [1.0], "r": [0.6], "c": [1.0],
                "frr": [0.0], "assay": "default"}
        base = {"seed": 3, "replications": 2, "n_target": 200, "workers": 1}

        def outputs(name, null):
            cfg = {**base, "grid": dict(grid)}
            where = cfg if block is None else cfg["grid"]
            where.pop(key, None)
            if null:
                where[key] = None
            out = tmp_path / name
            monkeypatch.setenv("RECENCYSIM_OUT_DIR", str(out))
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            assert cli_main(["grid", "--config", str(path)]) == 0
            return [(out / f).read_bytes() for f in ("replications.csv", "summary.csv")]

        assert outputs("null", True) == outputs("unset", False)
        capsys.readouterr()

    @pytest.mark.parametrize("n_target,message", [
        (10**308, r"error: inclusion probability 0\.1\d+ too small: admitting "
                  r"1e\+308 needs more attendees"),
        (10**400, "error: n_target of 401 digits is past the largest float"),
    ], ids=["inf", "overflow"])
    def test_cli_table1_rejects_a_target_past_a_float(self, tmp_path, capsys,
                                                      n_target, message):
        # an InfeasibleScenarioError, and for 401 digits an OverflowError,
        # ended in a traceback and left an empty out_dir behind; then the
        # 401 digits were blamed on s = 1 and printed whole
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"n_target: {n_target}\nout_dir: {tmp_path / 'out'}\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["table1", "--config", str(cfg)])
        assert exc.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert re.search(message, error) and len(error) < 200
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["rules", "theta", "r", "c", "frr", "uniform_b"])
    def test_cli_rejects_empty_grid_list(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"out_dir: {tmp_path / 'out'}\ngrid:\n  {key}: []\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["grid", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"bad value in the grid: block of {cfg}" in err
        assert f"{key} must list at least one value, got []" in err
        assert not (tmp_path / "out").exists()

    # every command that writes, with the fewest flags that make it quick
    WRITING_COMMANDS = pytest.mark.parametrize(
        "argv",
        [["grid", "--reps", "1"], ["sensitivity", "frr", "--reps", "1"],
         ["histogram", "--n-infected", "100"], ["table1"]],
        ids=["grid", "sensitivity", "histogram", "table1"],
    )

    @staticmethod
    def refuse_work(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("run_grid", "emit_histogram", "emit_table1"):
            monkeypatch.setattr(f"recencysim.cli.{name}", refuse)

    @WRITING_COMMANDS
    def test_cli_resolves_only_the_commands_settings(self, tmp_path, monkeypatch,
                                                     argv):
        # table1 and histogram resolved (and checked) every setting
        resolved = []
        real = cli._resolved
        monkeypatch.setattr(cli, "_resolved",
                            lambda args, cfg: resolved.append(real(args, cfg))
                            or resolved[-1])
        self.refuse_work(monkeypatch)
        with pytest.raises(AssertionError, match="work started"):
            cli_main([*argv, "--out-dir", str(tmp_path / "out")])
        assert set(resolved[0]) == COMMAND_KEYS[argv[0]] - {"grid"}

    @WRITING_COMMANDS
    @pytest.mark.parametrize("where", ["flag", "under_file", "config", "env"])
    def test_cli_rejects_out_dir_that_is_a_file(self, tmp_path, capsys,
                                                monkeypatch, argv, where):
        self.refuse_work(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "sub" if where == "under_file" else taken
        if where in ("flag", "under_file"):
            argv = [*argv, "--out-dir", str(out)]
        elif where == "config":
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(f"out_dir: {out}\n")
            argv = [*argv, "--config", str(cfg)]
        else:
            monkeypatch.setenv("RECENCYSIM_OUT_DIR", str(out))
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"out_dir {out} cannot be a directory: {taken} is not one" in (
            captured.err)
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before
        assert taken.read_text() == "a file\n"

    @WRITING_COMMANDS
    @pytest.mark.parametrize(
        "where,value,shown",
        [("config", "5", "5"), ("config", "[a]", "['a']"), ("config", "yes", "True"),
         ("config", '""', "''"), ("flag", "", "''"), ("env", "", "''")],
        ids=["int", "list", "bool", "empty", "empty_flag", "empty_env"])
    def test_cli_rejects_out_dir_that_is_not_a_path(self, tmp_path, capsys,
                                                    monkeypatch, argv, where,
                                                    value, shown):
        # a config value that is not a string was a TypeError traceback; an
        # empty one, --out-dir "" or RECENCYSIM_OUT_DIR= wrote into the
        # working directory
        self.refuse_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        if where == "env":
            monkeypatch.setenv("RECENCYSIM_OUT_DIR", value)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"out_dir: {value}\n" if where == "config" else "")
        flag = ["--out-dir", value] if where == "flag" else []
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--config", str(cfg), *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"out_dir must be a path, got {shown}" in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    @WRITING_COMMANDS
    def test_cli_reads_a_null_out_dir_as_unset(self, tmp_path, capsys, monkeypatch,
                                               argv):
        # "out_dir must be a path, got None" before; unset, it is the default
        monkeypatch.setenv("RECENCYSIM_OUT_DIR", str(tmp_path / "out"))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("out_dir:\n")
        assert cli_main([*argv, "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert any((tmp_path / "out").iterdir())

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
            (["mdri", "--theta", "0"], "theta must be positive, got 0.0"),
            (["histogram", "--theta", "-1"], "theta must be positive, got -1.0"),
            (["mdri", "--theta", "inf"], "theta must be finite, got inf"),
            (["histogram", "--theta", "inf"], "theta must be finite, got inf"),
            # cells whose e^{theta*c} overflows: rejected before anything is drawn
            (["mdri", "--rule", "regular", "--theta", "1e308", "--c", "0.5"],
             "theta*c = 5e+307 is past the range of the scaled survey weight"),
            (["mdri", "--rule", "swp", "--theta", "400", "--c", "1.9"],
             "theta*c = 760 is past the range of the scaled survey weight"),
            (["histogram", "--rule", "swp", "--theta", "100", "--c", "10"],
             "theta*c = 1000 is past the range of the scaled survey weight"),
            (["histogram", "--c", "-0.5"], "c must be nonnegative, got -0.5"),
            (["histogram", "--c", "nan"], "c must be nonnegative, got nan"),
            (["mdri", "--c", "nan"], "c must be nonnegative, got nan"),
            (["histogram", "--n-infected", "0"],
             "--n-infected must be a positive integer, got 0"),
            (["histogram", "--n-infected", "-5"],
             "--n-infected must be a positive integer, got -5"),
            # multinomial's C long overflowed in a traceback, exit status 1
            (["histogram", "--n-infected", str(2**63)],
             f"n_infected must be at most {2**63 - 1}, got {2**63}"),
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
            theta=(2.0,), r=(0.0,), c=(20.0,),
        )
        res = grid_cells(run_grid([infeasible]))[0]
        assert res.error == self.ERROR
        assert res.counts is None and res.estimates.size == 0

    # c = inf read 1 - F(c) on F's last piece (1, 0, 0) as inf * 0 = nan
    PAST_EVERY_GAP = pytest.mark.parametrize("c", [20.0, math.inf], ids=["20", "inf"])

    @PAST_EVERY_GAP
    @pytest.mark.parametrize("rule", list(ObservationRule), ids=lambda r: r.value)
    def test_uniform_cell_admits_no_one(self, rule, c):
        # with gaps of at most 3 years no attendee passes c = 20: the admit
        # probability is exactly 0, rejected before any draw
        (infeasible,) = build_grid(
            5, 2, n_target=200, rules=(rule,),
            r=(0.0,), c=(c,), uniform_b=(3.0,),
        )
        res = grid_cells(run_grid([infeasible]))[0]
        assert res.error == (
            f"no attendee can pass the exclusion window c={c:g} "
            "(admit probability 0 per draw)"
        )
        assert res.counts is None and res.estimates.size == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_law_before_the_first_draw(self, tmp_path, monkeypatch, pool_forced,
                                             workers):
        # every law (the infeasible cell's error too) is computed in-process
        # before any draw, and a worker only draws; each call is logged to a
        # file, so a worker's draws are seen too
        log = tmp_path / "calls.log"

        def logged(event, fn):
            def call(*args):
                with open(log, "a") as fh:
                    fh.write(event + "\n")
                return fn(*args)
            return call

        monkeypatch.setattr(harness, "survey_law", logged("law", harness.survey_law))
        monkeypatch.setattr(harness.SurveyLaw, "draw",
                            logged("draw", harness.SurveyLaw.draw))
        swp = (ObservationRule.STOP_WHEN_POSITIVE,)
        feasible = build_grid(5, 2, n_target=200, r=(0.0, 0.6), c=(0.0, 1.0),
                              uniform_b=(3.0,))
        (infeasible,) = build_grid(5, 2, n_target=200, rules=swp, r=(0.0,),
                                   c=(20.0,), uniform_b=(3.0,))
        grid = [*feasible[:3], infeasible, *feasible[3:]]
        result = run_grid(grid, workers=workers)
        events = log.read_text().split()
        assert events == ["law"] * len(grid) + ["draw"] * (len(grid) - 1)
        assert pool_forced == ([2] if workers == 2 else [])
        assert result.errors[3] == (
            "no attendee can pass the exclusion window c=20 "
            "(admit probability 0 per draw)")
        files = {}
        for name, ran in (("with", result), ("without", run_grid(feasible))):
            write_results(ran, tmp_path / name, config_echo={}, seed=5,
                          wall_time=0.0)
            files[name] = [(tmp_path / name / f).read_text().splitlines()
                           for f in ("replications.csv", "summary.csv")]
        (reps, summary), (reps_without, summary_without) = files.values()
        assert reps == reps_without
        assert summary[4].startswith("swp_uni0-3_r0_c20,")
        assert summary[4].endswith(f",error:{result.errors[3]}")
        assert summary[:4] + summary[5:] == summary_without

    @pytest.mark.parametrize("workers", [1, 2])
    def test_capped_cell_is_never_drawn(self, tmp_path, monkeypatch, pool_forced,
                                        workers):
        # every cell's draw cap is tested in-process before the first
        # `run_scenario` call, and the capped cell is never drawn; each call
        # is logged to a file, so a worker's calls are seen too
        log = tmp_path / "calls.log"

        def logged(event, fn):
            def call(*args):
                with open(log, "a") as fh:
                    fh.write(event + "\n")
                return fn(*args)
            return call

        for name in ("check", "draw"):
            monkeypatch.setattr(harness.SurveyLaw, name,
                                logged(name, getattr(harness.SurveyLaw, name)))
        monkeypatch.setattr(harness, "run_scenario",
                            logged("scenario", harness.run_scenario))
        cells = build_grid(5, 2, n_target=200, rules=SWP_ONLY, theta=(2.0,),
                           r=(0.0,), c=(0.0, 1.0, 20.0, 2.0))
        result = run_grid(cells, workers=workers)
        assert pool_forced == ([2] if workers == 2 else [])
        assert result.errors == (None, None, self.ERROR, None)
        # `draw` tests the cap again, through `check`
        events = log.read_text().split()
        assert events == ["check"] * 4 + ["scenario", "draw", "check"] * 3

    @PAST_EVERY_GAP
    @pytest.mark.parametrize("rule", ["regular", "swp"])
    def test_cli_grid_writes_uniform_error_row(self, tmp_path, capsys, rule, c):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        window = ".inf" if c == math.inf else f"{c:g}"
        cfg.write_text(
            f"replications: 2\nn_target: 200\nout_dir: {out}\ngrid:\n"
            f"  rules: [{rule}]\n  uniform_b: [3]\n  r: [0]\n  c: [{window}]\n"
        )
        assert cli_main(["grid", "--config", str(cfg)]) == 1
        capsys.readouterr()
        with open(out / "summary.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["scenario"] == f"{rule}_uni0-3_r0_c{c:g}"
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


class TestKernelRange:
    """Cells at the edge of the exponential kernel, which scales the survey
    weight by e^{-theta*c}."""

    @pytest.mark.parametrize(
        "rule,theta,c", [("swp", 100, 10), ("regular", 710, 1), ("regular", 800, 1)],
    )
    def test_cli_grid_writes_error_row(self, tmp_path, capsys, rule, theta, c):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        cfg.write_text(
            f"replications: 2\nout_dir: {out}\ngrid:\n  rules: [{rule}]\n"
            f"  theta: [{theta}]\n  r: [1]\n  c: [{c}]\n"
        )
        assert cli_main(["grid", "--config", str(cfg)]) == 1
        capsys.readouterr()
        with open(out / "summary.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["status"] == (
            f"error:theta*c = {theta * c:g} is past the range of the scaled "
            "survey weight (e^(theta*c) overflows a float)"
        )
        assert (out / "replications.csv").read_text().count("\n") == 1

    def test_cli_histogram_regular_keeps_computing(self, tmp_path, capsys):
        # the Regular weight needs no e^{theta*c}: P(T > 1) = e^{-800}
        # underflows, so no one is included
        rc = cli_main(["histogram", "--rule", "regular", "--theta", "800", "--c",
                       "1", "--n-infected", "1000", "--out-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        with open(tmp_path / "histogram_regular_theta800_c1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["aware_excluded"]) + int(r["unaware_excluded"])
                   for r in rows) == 1000
        assert all(r["aware_included"] == r["unaware_included"] == "0" for r in rows)

    def test_cli_mdri_at_a_vanishing_testing_rate(self, capsys):
        # no one is ever tested, so the weight is 1 and R is the MDRI; the
        # by-parts form read 0 here, a difference that cancels divided by theta
        assert cli_main(["mdri", "--theta", "1e-300", "--r", "0", "--c", "0"]) == 0
        out = capsys.readouterr().out
        assert "effective mdri  = 0.266985 years\n" in out
        assert "analytic bias   = +0.000 x 1e-3 per person-year\n" in out
        numeric = effective_mdri_quad(DEFAULT_ASSAY, 1e-300, 0.0, 0.0,
                                      ObservationRule.STOP_WHEN_POSITIVE)
        assert f"{numeric:.6f}" == "0.266985"

    def test_cli_grid_at_a_vanishing_testing_rate(self, tmp_path, capsys):
        # the by-parts form gave p_r < 0 here, and the draw a numpy traceback
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        cfg.write_text(
            f"replications: 3\nn_target: 200\nout_dir: {out}\ngrid:\n"
            "  rules: [swp]\n  theta: [1.0e-15]\n  r: [0]\n  c: [1]\n"
        )
        assert cli_main(["grid", "--config", str(cfg)]) == 0
        capsys.readouterr()
        with open(out / "summary.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert (row["scenario"], row["status"]) == ("swp_theta1e-15_r0_c1", "ok")
        assert abs(float(row["analytic_bias"])) < 1e-12

    @pytest.mark.parametrize("c,r", [("1000", "1"), ("720", "0.5")],
                             ids=["scale_zero", "scale_subnormal"])
    def test_cli_mdri_numeric_past_the_scale(self, capsys, c, r):
        # e^{-theta*c} is 0 at c = 1000 (a ZeroDivisionError) and subnormal
        # at c = 720 (0.266943 read against 0.266985); the quadrature
        # oracle's integrand is divided by it before integrating
        assert cli_main(["mdri", "--theta", "1", "--c", c, "--r", r]) == 0
        out = capsys.readouterr().out
        eff = float(out.split("effective mdri  = ")[1].split()[0])
        c, r, swp = float(c), float(r), ObservationRule.STOP_WHEN_POSITIVE
        numeric = effective_mdri_quad(DEFAULT_ASSAY, 1.0, r, c, swp)
        assert float(f"{numeric:.6f}") == eff
        closed = effective_mdri_closed(DEFAULT_ASSAY, 1.0, r, c, swp)
        assert numeric == pytest.approx(closed, rel=0.0, abs=1e-9)

    def test_cli_mdri_swp_keeps_computing(self, capsys):
        # e^{570} is finite; the value is the parent's
        assert cli_main(["mdri", "--rule", "swp", "--theta", "300", "--c", "1.9"]) == 0
        out = capsys.readouterr().out
        eff = float(out.split("effective mdri  = ")[1].split()[0])
        assert eff == pytest.approx(5.182632637987685e244, rel=1e-12)


class TestAnalyticColumns:
    @pytest.mark.parametrize(
        "command", [["grid"], ["sensitivity", "frr"],
                    ["sensitivity", "uniform_intertest"],
                    ["sensitivity", "long_mdri"]],
        ids=lambda c: c[-1],
    )
    def test_every_ok_row_has_both_columns(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert cli_main([*command, "--reps", "2", "--seed", "1",
                         "--out-dir", str(out)]) == 0
        capsys.readouterr()
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["status"] == "ok" for r in rows)
        for r in rows:
            for key in ("analytic_bias", "analytic_variance"):
                assert math.isfinite(float(r[key])), (r["scenario"], key)

    def test_undefined_estimator_reads_nan(self, tmp_path, capsys):
        # MDRI <= frr*T*: every estimate is undefined, and so are the columns
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        cfg.write_text(
            f"replications: 2\nout_dir: {out}\ngrid:\n  rules: [swp]\n"
            "  theta: [1]\n  r: [0.6]\n  c: [0]\n  frr: [0.5]\n"
        )
        assert cli_main(["grid", "--config", str(cfg)]) == 0
        capsys.readouterr()
        with open(out / "summary.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["status"] == "ok" and row["n_undefined"] == "2"
        assert (row["median"], row["analytic_bias"], row["analytic_variance"]) == (
            "nan", "nan", "nan")

    def test_prevalence_rounding_to_one_reads_nan_variance(self, tmp_path, capsys):
        # p_star is 1.0 as a float: no surveyed negative, every estimate
        # undefined, and log_variance's domain left
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        cfg.write_text(
            f"replications: 3\nout_dir: {out}\ngrid:\n  rules: [swp]\n"
            "  theta: [100]\n  r: [1]\n  c: [1]\n"
        )
        assert cli_main(["grid", "--config", str(cfg)]) == 0
        capsys.readouterr()
        with open(out / "summary.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert (row["status"], row["n_undefined"]) == ("ok", "3")
        assert row["analytic_variance"] == "nan"
        assert row["analytic_bias"] == "nan"


def test_cli_import_leaves_scipy_integrate_and_stats_unloaded():
    # the package never imports scipy.integrate, only --config needs yaml
    # and only a pool needs multiprocessing; loading any of them (or
    # scipy.stats) at CLI import time would add to every command's start-up
    src = str(Path(recencysim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, recencysim.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.stats', 'yaml', "
        "'concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
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
        result = run_grid(small_grid(reps=1, n_target=200), workers=1)
        assert write_results(result, tmp_path, config_echo={}, seed=7,
                             wall_time=0.0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["manifest.json", "replications.csv", "summary.csv"]

        # the summary writer fails on its second row, after the whole
        # replications file and the summary pass
        reversed_grid = run_grid(small_grid(reps=1, n_target=200)[::-1], workers=1)
        calls = []
        real = harness._law_fields

        def fail_on_second_row(process):
            calls.append(process)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return real(process)

        monkeypatch.setattr(harness, "_law_fields", fail_on_second_row)
        with pytest.raises(RuntimeError, match="boom"):
            write_results(reversed_grid, tmp_path, config_echo={"run": 2},
                          seed=8, wall_time=0.0)
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_write_results_leaves_nothing_on_first_failure(self, tmp_path,
                                                           monkeypatch):
        result = run_grid(small_grid(reps=1, n_target=200), workers=1)

        def fail(result):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "summary_columns", fail)
        with pytest.raises(RuntimeError):
            write_results(result, tmp_path, config_echo={}, seed=7,
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
