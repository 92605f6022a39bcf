"""Scenario engine: replication grids, summaries, and diagnostic reports.

Each scenario is a full survey-simulation configuration; a grid runs every
scenario for a number of replications and writes one per-replication CSV,
one summary CSV, and a JSON run manifest.  A scenario's replications are
arrays: their counts come from two vectorized draws of its count law, on
two PCG64 generators keyed by (seed, scenario label, stream): each one's
seed words are the SHA-256 digest of that triple (`_seed_words`).
Replication i is therefore the same for any replication count, any worker
count and in whichever grid it appears.

`build_grid` builds a grid from its axes, named as the keys of a config's
`grid:` block (`GRID_KEYS`).  Each sensitivity suite is one such block
(`SUITES`), so `build_sensitivity` is `build_grid` on it.

`run_grid` computes every count law and every error first, in-process,
and cuts the drawable scenarios once into blocks of `_BLOCK_ROWS //
replications` (at least one: the whole grid at a few replications a cell).
A block maps `run_scenario`, which only draws, then scores its stacked
counts with one `kassanjee_estimate` call, and nothing changes a result
after that.  The grid's result is one `GridResult` of (drawn scenarios,
replications) columns, each block's rows copied in as it is scored;
`summary_columns` reduces its estimates row by row with numpy's own
functions.  Each summary row also carries the analytic bias and the
delta-method variance of the log estimate, from its count law.

The same blocks run in-process or on a pool of worker processes, which a
grid starts only when its drawable replications can repay the pool's
start-up and transfer: `worker_processes` caps `workers` by one worker per
`_REPLICATIONS_PER_WORKER`, the CPU count and the scenario count.

Every CSV file (the two grid CSVs, Table 1 and the histogram) is
hand-joined in one form, the bytes csv.writer writes, with one quoting rule
(`_quoted`) for every field, such as a label or an error row's message.
Each file is written through `_atomic_open`, which also makes its
directory.  The grid CSVs' numbers come from whole-column lists:
replications.csv takes one `.tolist()` per column of each chunk of
`_WRITE_ROWS // replications` scenarios and writes the chunk at once, and
summary.csv is one write of every scenario's line.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import math
import numbers
import operator
import os
import platform
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np
import scipy
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import __version__
from .estimator import (
    _check_weight_args, _weight, analytic_bias, kassanjee_estimate)
from .population import (
    DEFAULT_PARAMS,
    InfeasibleScenarioError,
    PopulationParams,
    SurveyCounts,
)
from .recency_model import ASSAYS, DEFAULT_ASSAY, RecencyAssay, mdri, phi
from .screening_analytics import SurveyLaw, forecast, survey_law
from .testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
)

THETA_GRID = (0.4, 1.0, 1.5, 2.0)
R_GRID = (0.0, 0.3, 0.6, 1.0)
C_GRID = (0.0, 0.25, 1.0, 1.5, 2.0)
FRR_GRID = (0.0, 0.005, 0.01, 0.02)

REPLICATION_COLUMNS = [
    "scenario",
    "replication",
    "n_total",
    "n_pos",
    "n_neg",
    "n_rec",
    "n_screened",
    "estimate",
    "status",
]

SUMMARY_COLUMNS = [
    "scenario",
    "rule",
    "law",
    "theta",
    "a",
    "b",
    "r",
    "c",
    "frr",
    "replications",
    "n_target",
    "median",
    "mean",
    "q025",
    "q975",
    "var_log",
    "n_negative",
    "n_undefined",
    "mean_screened",
    "analytic_bias",
    "analytic_variance",
    "status",
]


@dataclass(frozen=True)
class Scenario:
    label: str
    assay: RecencyAssay
    process: TestingProcess
    r: float  # attendance ratio of status-aware positives
    c: float  # exclusion window (years)
    params: PopulationParams
    n_target: int
    replications: int
    seed: int

    @functools.cached_property
    def count_law(self) -> SurveyLaw:
        """The survey's closed-form count law, computed once; a cell without
        one raises its InfeasibleScenarioError at every read."""
        return survey_law(self.assay, self.process, self.r, self.c, self.params)


@dataclass(frozen=True)
class GridResult:
    """A grid's replications as columns: `errors[k]` is scenario k's error,
    None where it was drawn, and row j of `estimates` and of each `counts`
    column is the j-th drawn scenario, entry i its replication i (estimates
    nan where undefined).  `processes` is the worker processes the run used
    (1 means in-process).  Finished with its blocks."""

    scenarios: tuple
    errors: tuple
    counts: SurveyCounts
    estimates: np.ndarray
    processes: int


#: `summary_columns` keys; the statistics columns of summary.csv
SUMMARY_STATS = tuple(SUMMARY_COLUMNS[
    SUMMARY_COLUMNS.index("median"):SUMMARY_COLUMNS.index("analytic_bias")])


def summary_columns(result: GridResult) -> dict:
    """The summary statistics of every drawn scenario of `result`, as
    columns of Python floats and ints (entry j for row j).

    Each value is np.median, np.percentile (2.5, 97.5), np.mean or
    np.var(np.log(positive), ddof=1) of the row's finite estimates, on the
    2-D estimates: median and percentiles of the rows sorted once (faster
    partitions), the sums in replication order.  A row with a nan, zero or
    negative estimate is compacted first, to a block of one row.
    """
    est = result.estimates
    size, n = est.shape
    cols = {key: np.full(size, math.nan) for key in SUMMARY_STATS}
    cols["n_negative"] = np.zeros(size, dtype=np.int64)
    cols["n_undefined"] = np.zeros(size, dtype=np.int64)
    if est.size:  # a sorted row's first entry needs one
        # an integer sum is exact in any order; Python's int / int rounds
        # the mean once
        totals = np.add.reduce(result.counts.n_screened, axis=1)
        cols["mean_screened"][:] = [total / n for total in totals.tolist()]
        ordered = np.sort(est, axis=1)  # nan sorts last
        regular = (ordered[:, 0] > 0) & (ordered[:, -1] < math.inf)
        rows = slice(None)
        if not regular.all():
            for i in np.flatnonzero(~regular).tolist():
                finite = est[i][np.isfinite(est[i])]
                cols["n_undefined"][i] = n - finite.size
                cols["n_negative"][i] = np.count_nonzero(finite < 0)
                if finite.size:
                    _block_stats(cols, [i], finite[None], finite[None],
                                 finite[finite > 0][None])
            rows = np.flatnonzero(regular)
            ordered, est = ordered[rows], est[rows]
        _block_stats(cols, rows, ordered, est, est)
    return {key: col.tolist() for key, col in cols.items()}


def _block_stats(cols, rows, ordered, finite, positive):
    """Fill `rows` of `cols` from a block of finite estimates: `finite` in
    replication order, `ordered` the same rows in any order and `positive`
    their positive values (var_log needs two)."""
    cols["median"][rows] = np.median(ordered, axis=1)
    cols["q025"][rows], cols["q975"][rows] = np.percentile(
        ordered, (2.5, 97.5), axis=1)
    cols["mean"][rows] = np.mean(finite, axis=1)
    if positive.shape[1] > 1:
        cols["var_log"][rows] = np.var(np.log(positive), axis=1, ddof=1)


def _law_fields(law):
    """An inter-test law's name and parameters in a cell label, and its
    summary fields (law, theta, a, b): the harness's one reader of the law's
    type.  Only a label formats the parameters (`_scenario_label`), so a
    summary row reads its fields as they are."""
    if isinstance(law, ExponentialInterTest):
        return "theta", (law.theta,), ("exponential", law.theta, "", "")
    return "uni", (law.a, law.b), ("uniform", "", law.a, law.b)


#: uint64 words PCG64 seeds from
_WORDS = 4
_UINT64 = np.dtype(np.uint64)


def _seed_words(cells) -> np.ndarray:
    """Block i holds the seed words of cell i = (seed, label), one row per
    stream k (0, 1): the SHA-256 digest of f"{seed:d}\\n{label}\\n{k}"
    (UTF-8), read as 4 little-endian uint64 words.  A seed must be an
    integer (`operator.index`, so a float is a TypeError) >= 0.

    Keying on the label (not the grid position) makes a scenario's streams
    independent of which grid it appears in, so e.g. an frr=0 sensitivity
    scenario reproduces its main-grid counterpart exactly."""
    sha256, digests = hashlib.sha256, []
    for seed, label in cells:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"expected a non-negative integer seed, got {seed}")
        key = f"{seed:d}\n{label}\n".encode()
        digests += (sha256(key + b"0").digest(), sha256(key + b"1").digest())
    words = np.frombuffer(b"".join(digests), dtype="<u8")
    return words.astype(_UINT64, copy=False).reshape(-1, 2, _WORDS)


class _SeedWords(ISeedSequence):
    """Precomputed PCG64 seed words, in place of a SeedSequence: 4 uint64
    words, held C-contiguous, as PCG64 seeds from their raw buffer."""

    def __init__(self, words: np.ndarray):
        if words.shape != (_WORDS,) or words.dtype != _UINT64:
            raise ValueError(f"expected {_WORDS} uint64 words, got {words!r}")
        self.words = np.ascontiguousarray(words)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _WORDS or np.dtype(dtype) != _UINT64:
            raise ValueError(f"holds {_WORDS} uint64 words only")
        return self.words


def _generator(words: np.ndarray) -> Generator:
    """The PCG64 generator of one stream's seed words (a row of `_seed_words`)."""
    return Generator(PCG64(_SeedWords(words)))


def run_scenario(scenario: Scenario, states: np.ndarray) -> tuple:
    """A drawable scenario's raw draws (`SurveyLaw.draw`) from its
    closed-form count law, on the generators of its seed words `states`
    (`_seed_words`): stream 0 draws the survey compositions and stream 1
    the screening counts."""
    return scenario.count_law.draw(
        scenario.n_target, scenario.replications, tuple(map(_generator, states)))


def _run_block(scenarios: Sequence[Scenario], states: np.ndarray):
    """(counts, estimates) of a block of drawable scenarios: `run_scenario`
    for each, then one `SurveyCounts` of their stacked draws, a row per
    cell, and one `kassanjee_estimate` call on each cell's MDRI, frr and T*
    as (cells, 1) columns, so each entry is its cell's scalar formula's,
    bit for bit."""
    rows, extra = zip(*(run_scenario(s, w) for s, w in zip(scenarios, states)))
    counts = SurveyLaw.counts(np.stack(rows), np.array(
        [s.n_target for s in scenarios], dtype=np.int64)[:, None], np.stack(extra))
    assay = np.array([(mdri(s.assay), s.assay.frr, s.assay.recency_cutoff)
                      for s in scenarios])
    return counts, kassanjee_estimate(counts, *assay.T[..., None])


def _join(parts, size: int, reps: int):
    """One (counts, estimates) of the consecutive parts of `size` scenarios
    of `reps` replications, each part's rows copied in as it comes:
    concatenating parts held together ran 160 x 1000 slower."""
    out = [np.empty((size, reps), dtype) for dtype in (np.int64,) * 4 + (float,)]
    stop = 0
    for counts, estimates in parts:
        start, stop = stop, stop + len(estimates)
        for column, part in zip(out, (*vars(counts).values(), estimates)):
            column[start:stop] = part
    return SurveyCounts(*out[:4]), out[4]


#: replications a block holds, one scenario of more being a block alone:
#: its arrays stay in cache (one block of 160 x 1000 scored slower than a
#: call per scenario, its megabyte arrays fresh memory on every call)
_BLOCK_ROWS = 4096

#: replications one worker must have before a pool repays its start-up and
#: transfer, measured on the 160-cell main grid (README, `--workers`)
_REPLICATIONS_PER_WORKER = 500_000


def worker_processes(scenarios: Sequence[Scenario], workers: int) -> int:
    """Worker processes `run_grid` draws its drawable `scenarios` on (1 means
    in-process): `workers`, capped by the CPU count, the scenario count and
    one worker per `_REPLICATIONS_PER_WORKER` replications."""
    share = sum(s.replications for s in scenarios) // _REPLICATIONS_PER_WORKER
    return max(1, min(workers, os.cpu_count() or 1, len(scenarios), share))


def _error(scenario: Scenario) -> Optional[str]:
    """The text of the error that stops `scenario` before its first draw,
    its count law's or its draw cap's (`SurveyLaw.check`); None if it can
    be drawn."""
    try:
        scenario.count_law.check(scenario.n_target)
    except InfeasibleScenarioError as exc:
        return str(exc)
    return None


def run_grid(scenarios: Sequence[Scenario], workers: int = 1) -> GridResult:
    """The `GridResult` of every scenario, in scenario order (a scenario run
    alone is a grid of one); two replication counts are a ValueError.

    Every scenario's count law and error (`_error`) are computed here,
    in-process, before the first draw.  The drawable scenarios are cut once
    into blocks of `_BLOCK_ROWS // replications` (at least one), and each
    block (`_run_block`) only draws and scores.  `workers` is an upper
    bound: the blocks run on `worker_processes(drawable, workers)`
    processes, in-process when that is 1, so a grid too small to repay a
    pool, or with nothing to draw, starts none.  A pool maps the same
    blocks, one task per block, so a worker holds one block's results at a
    time.  A block's rows are copied into the grid's columns here as it
    returns.
    """
    reps = sorted({s.replications for s in scenarios})
    if len(reps) > 1:  # before any law
        raise ValueError(f"a grid runs one replication count, got {reps}")
    reps = reps[0] if reps else 0
    errors = [_error(s) for s in scenarios]
    drawable = [s for s, error in zip(scenarios, errors) if error is None]
    states = _seed_words([(s.seed, s.label) for s in drawable])
    step = max(1, _BLOCK_ROWS // max(1, reps))
    starts = range(0, len(drawable), step)
    blocks = [drawable[i:i + step] for i in starts], [states[i:i + step] for i in starts]
    processes = worker_processes(drawable, workers)
    if processes == 1:
        counts, estimates = _join(map(_run_block, *blocks), len(drawable), reps)
    else:
        # here, not at module top: only a pool needs multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            counts, estimates = _join(pool.map(_run_block, *blocks), len(drawable), reps)
    return GridResult(tuple(scenarios), tuple(errors), counts, estimates, processes)


# ---------------------------------------------------------------------------
# grid construction


def exact_g(x) -> str:
    """`x` in `:g` format where that reads back as `x`, else its repr: short
    for the usual grid values, and never one text for two values."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _scenario_label(rule, law, r, c, frr, assay_name):
    name, values, _ = _law_fields(law)
    txt = (f"{rule.value}_{name}{'-'.join(map(exact_g, values))}"
           f"_r{exact_g(r)}_c{exact_g(c)}")
    if frr:
        txt += f"_frr{exact_g(frr)}"
    if assay_name != "default":
        txt += f"_{assay_name}"
    return txt


def _check_count(value, what: str, low: int = 1, error=ValueError):
    """`value` if it is an integer (not a bool) >= low; else `error` naming `what`."""
    if type(value) is bool or not isinstance(value, numbers.Integral) or value < low:
        kind = "positive" if low == 1 else "nonnegative"
        raise error(f"{what} must be a {kind} integer, got {value!r}")
    return value


def build_grid(
    seed: int,
    replications: int,
    n_target: int = 5000,
    rules: Sequence = (ObservationRule.REGULAR, ObservationRule.STOP_WHEN_POSITIVE),
    theta: Optional[Sequence[float]] = None,
    r: Sequence[float] = R_GRID,
    c: Sequence[float] = C_GRID,
    frr: Sequence[float] = (0.0,),
    uniform_b: Optional[Sequence[float]] = None,
    assay: str = "default",
) -> List[Scenario]:
    """Every (rule, law, frr, r, c) cell, in that nesting order.  The axes
    after `n_target` are the keys of a config's `grid:` block (`GRID_KEYS`).
    A rule is an `ObservationRule` or its value.  The laws are
    Exponential(theta) for each `theta` (`THETA_GRID` by default), or with
    `uniform_b` Uniform(0, b) for each b; setting both is a ValueError.
    Each axis must be a list (not a string, a mapping or a single value)
    that holds a value, every one a real number but for the rules (YAML's
    `on` is a bool, `1e-9` text), and `assay` the name of one of `ASSAYS`:
    another value is a ValueError naming its config key.  Each frr's assay
    is built once and each (r, c) gets the analytic layer's check once,
    before any cell is built.  A label keys its cell's random streams, so
    two cells with one label (a value listed twice) are a ValueError naming
    the label.  `seed` must be an integer >= 0, and `replications` and
    `n_target` >= 1, as in the CLI (`_check_count`), before any cell is
    built."""
    _check_count(seed, "seed", 0)
    _check_count(replications, "replications")
    _check_count(n_target, "n_target")
    if uniform_b is None:
        law_key, law_values = "theta", THETA_GRID if theta is None else theta
    elif theta is None:
        law_key, law_values = "uniform_b", uniform_b
    else:
        raise ValueError("theta and uniform_b cannot both be set: a grid's "
                         "laws are exponential or uniform")
    axes = {"rules": rules, law_key: law_values, "r": r, "c": c, "frr": frr}
    for key, values in axes.items():
        if isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable):
            raise ValueError(f"{key} must be a list of values, got {values!r}")
        axes[key] = values = list(values)
        if not values:
            raise ValueError(f"{key} must list at least one value, got []")
        for value in values if key != "rules" else ():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{key} values must be numbers, got {value!r}")
    if not isinstance(assay, str) or assay not in ASSAYS:
        raise ValueError(
            f"unknown assay {assay!r}; expected one of: {', '.join(ASSAYS)}"
        )
    rules = [ObservationRule(rule) for rule in axes["rules"]]
    if uniform_b is None:
        laws: List = [ExponentialInterTest(t) for t in axes[law_key]]
    else:
        laws = [UniformInterTest(0.0, b) for b in axes[law_key]]
    assays = [dataclasses.replace(ASSAYS[assay], frr=x) for x in axes["frr"]]
    pairs = list(itertools.product(axes["r"], axes["c"]))
    for pair in pairs:
        _check_weight_args(*pair)
    scenarios = [
        Scenario(
            label=_scenario_label(rule, law, ratio, window, cell_assay.frr, assay),
            assay=cell_assay,
            process=TestingProcess(law, rule),
            r=ratio,
            c=window,
            params=DEFAULT_PARAMS,
            n_target=n_target,
            replications=replications,
            seed=seed,
        )
        for rule, law, cell_assay, (ratio, window)
        in itertools.product(rules, laws, assays, pairs)
    ]
    seen = set()
    for s in scenarios:
        if s.label in seen:
            raise ValueError(f"two cells share the label {s.label!r}")
        seen.add(s.label)
    return scenarios


#: the keys of a config's `grid:` block: `build_grid`'s axes, by name
GRID_KEYS = tuple(inspect.signature(build_grid).parameters)[3:]

#: the sensitivity suites, each the `grid:` block `build_grid` runs for it
SUITES = {
    "frr": {"theta": (0.4, 1.0), "c": (0.0, 2.0), "frr": FRR_GRID},
    "uniform_intertest": {"uniform_b": (3.0, 4.0)},
    "long_mdri": {"assay": "long"},
}


def build_sensitivity(suite: str, seed: int, replications: int, n_target: int = 5000):
    """The grid of the sensitivity suite `suite` (`SUITES`); an unknown
    name is a ValueError listing the suites."""
    if suite not in SUITES:
        raise ValueError(f"unknown sensitivity suite: {suite}; "
                         f"expected one of: {', '.join(SUITES)}")
    return build_grid(seed, replications, n_target, **SUITES[suite])


# ---------------------------------------------------------------------------
# output writers


def _fmt(x) -> str:
    return f"{x:.10g}" if isinstance(x, float) else str(x)


_CSV_SPECIAL = frozenset(',"\r\n')


def _quoted(text: str) -> str:
    """`text` as one field of a CSV, as csv.writer writes it: as it is,
    or in double quotes with each quote doubled if it holds a comma, a
    quote or a line break."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


@contextmanager
def _atomic_open(path: Path, newline=None):
    """Open a sibling temporary file, making `path`'s directory first;
    os.replace it onto `path` on success.

    If the body raises, the temporary file is removed and `path` is left as
    it was, so no reader ever sees a half-written file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_report(path: Path, header, rows):
    """A report CSV, replaced atomically and in one write, as csv.writer
    would write it: the header, then each row's values through `_fmt`, each
    field through `_quoted`."""
    with _atomic_open(path, newline="") as fh:
        fh.write("".join([",".join([_quoted(_fmt(v)) for v in row]) + "\r\n"
                          for row in [header, *rows]]))


def write_results(
    result: GridResult, out_dir: Path, config_echo: dict, seed: int,
    wall_time: float, workers: int = 1,
) -> bool:
    """Write per-replication CSV, summary CSV, and the JSON manifest.

    Returns True when every scenario completed without error.  The three
    files are replaced together only after all of them are written.  The
    manifest records the requested `workers`, the worker processes the run
    used (`result.processes`, 1 meaning in-process), and the Python, numpy
    and scipy versions, since the vectorized random streams depend on
    numpy's.
    """
    out_dir = Path(out_dir)
    with _atomic_open(out_dir / "replications.csv", newline="") as rep_fh, \
            _atomic_open(out_dir / "summary.csv", newline="") as sum_fh, \
            _atomic_open(out_dir / "manifest.json") as man_fh:
        _write_replications(result, rep_fh)
        ok = _write_summary(result, sum_fh)
        manifest = {
            "config": config_echo,
            "seed": seed,
            "version": __version__,
            "scenarios": len(result.scenarios),
            "errors": [s.label for s, error in zip(result.scenarios, result.errors)
                       if error is not None],
            "wall_time_s": round(wall_time, 3),
            "workers": workers,
            "processes": result.processes,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        man_fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ok


#: lines a chunk of replications.csv holds, one scenario of more being a
#: chunk alone: at 160 x 1000, chunks of 4,096 lines raised the process's
#: peak RSS by 1.38 MB and these by 0.12 MB, at the same speed
_WRITE_ROWS = 1024


def _write_replications(result: GridResult, fh):
    """One line per replication, as csv.writer would write it.

    The drawn scenarios go in chunks of `_WRITE_ROWS // replications` (at
    least one): each column's rows of a chunk are one `.tolist()` and the
    chunk's lines one write, so memory stays a chunk's at any grid size.
    Each label goes through `_quoted` once, as in summary.csv.  The
    status is "undefined" for a nan estimate, "negative" below 0, else
    "ok".
    """
    fh.write(",".join(REPLICATION_COLUMNS) + "\r\n")
    labels = [_quoted(s.label) for s, error in zip(result.scenarios, result.errors)
              if error is None]
    c = result.counts
    # n_total added per line: `c.n_total` is an array of the whole grid
    columns = (c.n_pos, c.n_neg, c.n_rec, c.n_screened, result.estimates)
    reps = result.estimates.shape[1]
    step = max(1, _WRITE_ROWS // max(1, reps))
    for start in range(0, len(labels), step):
        chunk = slice(start, start + step)
        # flat lists: one per scenario and column left ~1000 containers to
        # the garbage collector, a collection in every main-grid write and
        # twice the generation-1 collections in a next grid's run phase
        rows = zip(*(column[chunk].ravel().tolist() for column in columns))
        fh.write("".join([
            f"{label},{i},{pos + neg},{pos},{neg},{rec},{screened},{x:.10g},"
            f"{'ok' if x >= 0 else 'negative' if x < 0 else 'undefined'}\r\n"
            for label in labels[chunk]
            for i, (pos, neg, rec, screened, x) in zip(range(reps), rows)
        ]))


def _write_summary(result: GridResult, fh) -> bool:
    """One line per scenario, as csv.writer would write it, in one write.

    Every drawn scenario's statistics come from one `summary_columns` pass,
    formatted a column at a time: the counts n_negative and n_undefined as
    integers, the other statistics with `.10g`.  Of the scenario's own
    fields, r, c, frr and the two analytic columns are written with `.10g`
    (`_fmt`), theta, a, b, replications and n_target with `str`.  The label
    and an error row's status, "error:" and the error's text, go through
    `_quoted`.  True when no scenario stopped on an error."""
    counted = ("n_negative", "n_undefined")
    stats = zip(*(
        list(map(str, column)) if key in counted else [f"{x:.10g}" for x in column]
        for key, column in summary_columns(result).items()
    ))
    lines = [",".join(SUMMARY_COLUMNS) + "\r\n"]
    for s, error in zip(result.scenarios, result.errors):
        law, theta, a, b = _law_fields(s.process.inter_test_law)[2]
        line = (f"{_quoted(s.label)},{s.process.observation_rule.value},{law},"
                f"{theta},{a},{b},{_fmt(s.r)},{_fmt(s.c)},{_fmt(s.assay.frr)},"
                f"{s.replications},{s.n_target},")
        if error is None:
            count_law = s.count_law
            line += (f"{','.join(next(stats))},{_fmt(count_law.analytic_bias)},"
                     f"{_fmt(count_law.analytic_variance(s.n_target))},ok\r\n")
        else:
            line += "," * 10 + _quoted(f"error:{error}") + "\r\n"  # 10 empty fields
        lines.append(line)
    fh.write("".join(lines))
    return all(error is None for error in result.errors)


# ---------------------------------------------------------------------------
# diagnostic histogram


def emit_histogram(
    rule: ObservationRule,
    law,
    c: float,
    n_infected: int = 50_000,
    bin_width: float = 0.25,
    seed: int = 0,
):
    """Composition of the infected population by duration bin.

    Returns a list of rows (bin_lo, bin_hi, aware_included, aware_excluded,
    unaware_included, unaware_excluded), where inclusion means the most
    recent test falls outside the exclusion window c, and awareness that it
    falls within the infection duration.  Attendance plays no role here
    (r = 1).

    Durations are Uniform(0, tau), so each cell's probability is an integral
    of the survey weight over its bin, divided by tau: with r = 1 the weight
    is P(T > c | u) (included), with r = 0 it is P(T > u, T > c | u)
    (unaware and included), and with r = 0 and c = 0 P(T > u | u)
    (unaware).  Each of the three weights is built once (`_weight`) and
    integrated up to every bin edge.  All the counts come from one
    multinomial draw, on the generator a grid cell labelled "histogram"
    would draw its compositions with (stream 0 of `_seed_words`).  Any
    window c >= 0 and n_infected up to int64's maximum; any other is a
    ValueError before the draw.
    """
    if n_infected > np.iinfo(np.int64).max:
        raise ValueError(
            f"n_infected must be at most {np.iinfo(np.int64).max}, got {n_infected}")
    _check_weight_args(1.0, c)
    process = TestingProcess(law, rule)
    tau = DEFAULT_PARAMS.horizon
    n_bins = math.ceil(tau / bin_width)
    edges = np.arange(0, n_bins + 1) * bin_width
    weights = [_weight(process, r, window, tau)
               for r, window in ((1.0, c), (0.0, 0.0), (0.0, c))]
    cumulative = []
    for x in np.minimum(edges, tau).tolist():
        included, unaware, unaware_included = (
            scale * integral(x) for scale, _, integral in weights)
        aware_included = included - unaware_included
        cumulative.append((aware_included, x - unaware - aware_included,
                           unaware_included, unaware - unaware_included))
    # differences of nearly equal masses can fall a few ulps below 0
    p = np.clip(np.diff(cumulative, axis=0) / tau, 0.0, None)
    rng = _generator(_seed_words([(seed, "histogram")])[0, 0])
    counts = rng.multinomial(n_infected, p.ravel()).reshape(p.shape)
    return [
        (lo, hi, *cells)
        for lo, hi, cells in zip(edges.tolist(), edges[1:].tolist(), counts.tolist())
    ]


def write_histogram(rows, out_path: Path):
    _write_report(out_path, ["bin_lo", "bin_hi", "aware_included", "aware_excluded",
                             "unaware_included", "unaware_excluded"], rows)


# ---------------------------------------------------------------------------
# analytic table report

TABLE1_C = ((0.0, "no exclusion"), (0.25, "3 months"), (2.0, "2 years"))
TABLE1_THETA = (1.0, 2.0)
TABLE1_R = (0.0, 0.6, 1.0)
TABLE_GRID_STEP = 0.001


def _table_grid(assay):
    """(u, phi(u), Omega) on the table's left-endpoint grid of 0.001 years
    over [0, T*); built once per table."""
    u = np.arange(0.0, assay.recency_cutoff, TABLE_GRID_STEP)
    p = phi(u, assay)
    return u, p, p.sum() * TABLE_GRID_STEP


def _table_grid_k(u, p, tstar, theta, c):
    """K(c) as a left-endpoint sum over the grid u, p (`_table_grid`), the
    reporting convention for the analytic table; analytic_bias gives the
    exact continuum value.  K(c) is 0 once c reaches the cutoff `tstar`.
    """
    if c >= tstar:
        return 0.0
    m = u >= c
    return (p[m] * (1.0 - np.exp(theta * (c - u[m])))).sum() * TABLE_GRID_STEP


def emit_table1(
    n_target: int = 5000,
    assay: RecencyAssay = DEFAULT_ASSAY,
):
    """Analytic bias and screening-burden report under Stop-When-Positive.

    One row per (exclusion period, testing frequency, attendance ratio).
    Bias is reported both at the table grid convention and in exact closed
    form; screening burden comes from the closed inclusion
    probability.
    """
    u, p, omega = _table_grid(assay)
    swp, params = ObservationRule.STOP_WHEN_POSITIVE, DEFAULT_PARAMS
    rows = []
    for c, clabel in TABLE1_C:
        for theta in TABLE1_THETA:
            k = _table_grid_k(u, p, assay.recency_cutoff, theta, c)
            for r in TABLE1_R:
                omega_eff = omega - (1.0 - r * math.exp(theta * c)) * k
                bias_grid = params.incidence * (omega_eff / omega - 1.0)
                bias_exact = analytic_bias(assay, theta, r, c, swp, params)
                fc = forecast(swp, params, theta, r, c, n_target)
                unbiased = c >= assay.recency_cutoff or (r == 1.0 and c == 0.0)
                rows.append(
                    {
                        "exclusion_period": clabel,
                        "c": c,
                        "theta": theta,
                        "r": r,
                        "bias_x1e3": bias_grid * 1e3,
                        "bias_exact_x1e3": bias_exact * 1e3,
                        "unbiased": unbiased,
                        "inclusion_probability": fc.inclusion_probability,
                        "required_screened": fc.required_screened,
                    }
                )
    return rows


def write_table1(rows, out_path: Path):
    cols = list(rows[0])
    _write_report(out_path, cols, ([row[c] for c in cols] for row in rows))


def default_out_dir() -> str:
    """`RECENCYSIM_OUT_DIR` as it is set, else "results"."""
    return os.environ.get("RECENCYSIM_OUT_DIR", "results")
