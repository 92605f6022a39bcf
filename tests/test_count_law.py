"""The count-level survey engine against the individual sampler.

For every test schedule `harness.run_scenario` draws its surveys' counts
from `screening_analytics.survey_law`: one multinomial draw for
(n_rec, n_pos - n_rec, n_neg) and one negative binomial draw for the
attendees screened beyond N, each vectorized over the replications
(`drawn_counts` reads them as `SurveyCounts`, as the harness does).  The
individual sampler (`reference_sampler.assemble_survey_rows`, built person
by person from the model's primitives) is the reference engine here.

The cross-engine test makes 27 two-sample KS comparisons (9 cells, 3
statistics each).  KS_ALPHA = 0.01 is their family-wise level: the
p-values are judged together by the Holm-Bonferroni step-down procedure,
so a correct engine fails any of the 27 with probability at most 0.01.
"""

import collections
import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence
from scipy import stats

from recencysim import estimator, harness
from recencysim.estimator import (
    analytic_bias,
    kassanjee_estimate,
    log_variance,
    survey_composition,
)
from recencysim.harness import build_grid, build_sensitivity, run_grid
from recencysim.population import (
    DEFAULT_PARAMS,
    InfeasibleScenarioError,
    PopulationParams,
    SurveyCounts,
)
from recencysim.recency_model import DEFAULT_ASSAY, mdri
from recencysim.screening_analytics import forecast, survey_law
from recencysim.testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
)
from reference_sampler import assemble_survey_rows

REGULAR = ObservationRule.REGULAR
SWP = ObservationRule.STOP_WHEN_POSITIVE

SEED = 515
REPS = 300
KS_ALPHA = 0.01  # family-wise over the 27 cross-engine comparisons


def _rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed + 1)


def _label_key(label: str) -> int:
    digest = hashlib.sha256(label.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _reference_replication(scenario, replication):
    """One survey from the individual sampler, on a stream of its own."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [SEED + 1, _label_key(scenario.label), replication]
    ))
    counts = assemble_survey_rows(
        scenario.params, scenario.process, scenario.r, scenario.c, scenario.assay,
        scenario.n_target, rng,
    ).counts()
    assay = scenario.assay
    estimate = kassanjee_estimate(counts, mdri(assay), assay.frr,
                                  assay.recency_cutoff)
    return counts, float(estimate)


def _cell(scenarios, label):
    (scenario,) = [s for s in scenarios if s.label == label]
    return scenario


MAIN = build_grid(SEED, REPS)
UNIFORM = build_sensitivity("uniform_intertest", SEED, REPS)
# a uniform law with a > 0, which puts a knee inside the residual CDF
SHIFTED = dataclasses.replace(
    _cell(UNIFORM, "swp_uni0-4_r0.3_c1"),
    label="swp_uni1-4_r0.3_c1",
    process=TestingProcess(UniformInterTest(1.0, 4.0), SWP),
)
CROSS_ENGINE_CELLS = [
    _cell(MAIN, "swp_theta1_r0.6_c2"),
    _cell(MAIN, "regular_theta1.5_r0.3_c1.5"),
    _cell(build_sensitivity("frr", SEED, REPS), "swp_theta0.4_r0.6_c2_frr0.02"),
    _cell(build_sensitivity("long_mdri", SEED, REPS), "swp_theta1_r0.3_c1_long"),
    _cell(UNIFORM, "swp_uni0-3_r0.6_c2"),
    _cell(UNIFORM, "swp_uni0-4_r0_c1"),
    _cell(UNIFORM, "regular_uni0-3_r0.3_c1.5"),
    _cell(UNIFORM, "regular_uni0-4_r0.6_c1"),
    SHIFTED,
]


def holm_rejected(pvalues, alpha):
    """Keys of the hypotheses the Holm-Bonferroni step-down procedure
    rejects at family-wise level alpha."""
    ranked = sorted(pvalues, key=pvalues.get)
    m = len(ranked)
    for i, key in enumerate(ranked):
        if pvalues[key] > alpha / (m - i):
            return set(ranked[:i])
    return set(ranked)


@pytest.fixture(scope="module")
def cross_engine_pvalues():
    """(cell label, statistic) -> two-sample KS p-value over REPS surveys
    per engine; fixed seeds."""
    pvalues = {}
    for scenario in CROSS_ENGINE_CELLS:
        result = grid_cells(run_grid([scenario]))[0]
        reference = [_reference_replication(scenario, rep) for rep in range(REPS)]
        for name, a, pick in (
            ("estimate", result.estimates, lambda row: row[1]),
            ("n_screened", result.counts.n_screened, lambda row: row[0].n_screened),
            ("n_pos", result.counts.n_pos, lambda row: row[0].n_pos),
        ):
            a = np.asarray(a, dtype=float)
            b = np.array([pick(row) for row in reference], dtype=float)
            assert a.size == REPS
            assert np.isfinite(a).all() and np.isfinite(b).all()
            pvalues[scenario.label, name] = stats.ks_2samp(a, b).pvalue
    return pvalues


def test_holm_bonferroni():
    p = {"a": 0.004, "b": 0.006, "c": 0.02, "d": 0.5}
    # 0.004 <= 0.01/4 fails, so nothing is rejected
    assert holm_rejected(p, 0.01) == set()
    # 0.004 <= 0.05/4, 0.006 <= 0.05/3, 0.02 <= 0.05/2, 0.5 > 0.05
    assert holm_rejected(p, 0.05) == {"a", "b", "c"}


@pytest.mark.parametrize("scenario", CROSS_ENGINE_CELLS, ids=lambda s: s.label)
def test_count_law_matches_individual_sampler(scenario, cross_engine_pvalues):
    assert len(cross_engine_pvalues) == 27
    rejected = holm_rejected(cross_engine_pvalues, KS_ALPHA)
    mine = {name: p for (label, name), p in cross_engine_pvalues.items()
            if label == scenario.label}
    assert len(mine) == 3
    failed = {name: p for name, p in mine.items() if (scenario.label, name) in rejected}
    assert not failed, f"KS p-values rejected by Holm-Bonferroni: {failed}"


class _Words(ISeedSequence):
    """Seed words handed to PCG64 as they are, in place of a SeedSequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def sha256_words(seed, label, stream):
    """A generator's seed words as the README documents them: the SHA-256
    digest of "seed\\nlabel\\nstream", as 4 little-endian uint64 words."""
    digest = hashlib.sha256(f"{int(seed)}\n{label}\n{stream}".encode()).digest()
    return np.frombuffer(digest, dtype="<u8").astype(np.uint64)


def drawn_counts(law, n_target, size, rngs):
    """`law.draw`'s surveys as `SurveyCounts`, read by `SurveyLaw.counts`
    as the harness reads a block's."""
    rows, extra = law.draw(n_target, size, rngs)
    return law.counts(rows, n_target, extra)


Cell = collections.namedtuple("Cell", "scenario error counts estimates")


def grid_cells(result):
    """A `run_grid` result cell by cell, in scenario order: a drawn cell's
    counts and estimates are its row of the result's columns; a cell with an
    error has no counts and an empty array of estimates."""
    rows, cells = iter(range(len(result.estimates))), []
    for scenario, error in zip(result.scenarios, result.errors, strict=True):
        if error is not None:
            cells.append(Cell(scenario, error, None, np.empty(0)))
            continue
        j = next(rows)
        counts = SurveyCounts(**{name: column[j]
                                 for name, column in vars(result.counts).items()})
        cells.append(Cell(scenario, None, counts, result.estimates[j]))
    assert next(rows, None) is None, "a row without a drawn cell"
    return cells


def sha256_streams(scenario):
    """The scenario's two generators, rebuilt with hashlib and numpy alone."""
    return tuple(np.random.Generator(np.random.PCG64(
        _Words(sha256_words(scenario.seed, scenario.label, k)))) for k in (0, 1))


def test_every_law_draws_from_the_count_law(monkeypatch):
    laws = []
    real = harness.survey_law

    def counting(assay, process, r, c, params):
        laws.append(process.inter_test_law)
        return real(assay, process, r, c, params)

    monkeypatch.setattr(harness, "survey_law", counting)
    for uniform_bs in (None, (3.0,)):
        (cell,) = build_grid(3, 1, n_target=200, thetas=(1.0,), rs=(0.6,),
                             cs=(1.0,), rules=(SWP,), uniform_bs=uniform_bs)
        counts = grid_cells(run_grid([cell]))[0].counts
        want = drawn_counts(cell.count_law, 200, 1, sha256_streams(cell))
        assert vars(counts).keys() == vars(want).keys()
        for name, column in vars(want).items():
            assert np.array_equal(getattr(counts, name), column), name
    assert laws == [ExponentialInterTest(1.0), UniformInterTest(0.0, 3.0)]


class TestSurveyLaw:
    @pytest.mark.parametrize("rule", list(ObservationRule), ids=lambda r: r.value)
    @pytest.mark.parametrize("r,c", [(1.0, 0.0), (0.3, 0.25), (0.0, 2.0), (0.6, 6.0)])
    def test_built_on_composition_and_inclusion(self, rule, r, c):
        process = TestingProcess(ExponentialInterTest(1.5), rule)
        law = survey_law(DEFAULT_ASSAY, process, r, c, DEFAULT_PARAMS)
        p_star, p_r = survey_composition(DEFAULT_ASSAY, process, r, c, DEFAULT_PARAMS)
        assert (law.p_star, law.p_r) == (p_star, p_r)
        assert law.composition == (p_star * p_r, p_star * (1.0 - p_r), 1.0 - p_star)
        s = forecast(rule, DEFAULT_PARAMS, 1.5, r, c, 5000).inclusion_probability
        assert law.inclusion == s
        # admit = P(attend) * s, P(attend) = (1 - p) * (1 + lam * W_0)
        tau = DEFAULT_PARAMS.horizon
        w_0 = estimator._weight(process, r, 0.0, tau)[2](tau)
        attending = (1.0 - DEFAULT_PARAMS.prevalence) * (
            1.0 + DEFAULT_PARAMS.incidence * w_0
        )
        assert law.admit == pytest.approx(attending * s, rel=1e-12)

    def test_uniform_suite_laws_unchanged(self):
        # sha256 of the 80 uniform cells' law values, recorded while the
        # uniform residual CDF pieces were still numpy arrays
        h = hashlib.sha256()
        for s in build_sensitivity("uniform_intertest", 1, 1):
            law = s.count_law
            h.update(repr((s.label, law.composition, law.inclusion,
                           law.admit)).encode())
        assert h.hexdigest() == (
            "a321f375b74d93da5f377595eb8151a682e6869e0861783025e90b87bb64c8b5")

    def test_window_past_the_horizon(self):
        # no c <= horizon guard: every positive then has u < c, so with r = 1
        # everyone's weight is P(T > c) and s = e^{-theta*c}
        process = TestingProcess(ExponentialInterTest(0.4), REGULAR)
        c = DEFAULT_PARAMS.horizon + 1.0
        law = survey_law(DEFAULT_ASSAY, process, 1.0, c, DEFAULT_PARAMS)
        assert law.inclusion == pytest.approx(math.exp(-0.4 * c), rel=1e-12)
        counts = drawn_counts(law, 500, 4, _rngs(1))
        assert (counts.n_total == 500).all() and (counts.n_screened >= 500).all()

    def test_draw_counts_add_up(self):
        process = TestingProcess(ExponentialInterTest(1.0), SWP)
        law = survey_law(DEFAULT_ASSAY, process, 0.6, 1.0, DEFAULT_PARAMS)
        counts = drawn_counts(law, 5000, 20, _rngs(2))
        assert (counts.n_pos + counts.n_neg == 5000).all()
        assert ((0 <= counts.n_rec) & (counts.n_rec <= counts.n_pos)).all()
        for v in vars(counts).values():
            assert v.shape == (20,) and np.issubdtype(v.dtype, np.integer)

    @pytest.mark.parametrize("a,b", [(0.0, 3.0), (1.0, 4.0)])
    def test_uniform_schedule_without_selection(self, a, b):
        # r = 1 and c = 0 give every positive weight 1: the survey keeps the
        # population prevalence and everyone who attends is admitted
        process = TestingProcess(UniformInterTest(a, b), SWP)
        law = survey_law(DEFAULT_ASSAY, process, 1.0, 0.0, DEFAULT_PARAMS)
        p_star = sum(law.composition[:2])
        assert p_star == pytest.approx(DEFAULT_PARAMS.prevalence, rel=1e-12)
        assert law.inclusion == pytest.approx(1.0, rel=1e-12)
        assert law.admit == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("rule", list(ObservationRule), ids=lambda r: r.value)
    def test_rejects_a_window_no_one_passes(self, rule):
        # gaps of at most 3 years and c = 20 past the horizon: admit is 0;
        # the count law and the composition raise one error, one message
        process = TestingProcess(UniformInterTest(0.0, 3.0), rule)
        calls = (
            lambda: survey_law(DEFAULT_ASSAY, process, 0.6, 20.0, DEFAULT_PARAMS),
            lambda: survey_composition(DEFAULT_ASSAY, process, 0.6, 20.0,
                                       DEFAULT_PARAMS),
        )
        messages = []
        for call in calls:
            with pytest.raises(InfeasibleScenarioError,
                               match="admit probability 0") as exc:
                call()
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == (
            "no attendee can pass the exclusion window c=20 "
            "(admit probability 0 per draw)")

    def test_rejects_bad_target(self):
        process = TestingProcess(ExponentialInterTest(1.0), SWP)
        law = survey_law(DEFAULT_ASSAY, process, 1.0, 0.0, DEFAULT_PARAMS)
        with pytest.raises(ValueError, match="n_target must be positive"):
            drawn_counts(law, 0, 1, _rngs(1))

    @pytest.mark.parametrize("n_target, error, message", [
        (0, ValueError, "n_target must be positive"),
        (-3, ValueError, "n_target must be positive"),
        (4, InfeasibleScenarioError, "expected draws to fill 4 places exceed "
         "100000000 (admit probability 4.25e-18 per draw)"),
    ])
    def test_check_raises_the_errors_of_draw(self, n_target, error, message):
        # SWP, theta = 2, r = 0, c = 20: admitted with probability e^-40
        process = TestingProcess(ExponentialInterTest(2.0), SWP)
        law = survey_law(DEFAULT_ASSAY, process, 0.0, 20.0, DEFAULT_PARAMS)
        raised = []
        for call in (lambda: law.check(n_target),
                     lambda: law.draw(n_target, 2, _rngs(1))):
            with pytest.raises(error) as exc:
                call()
            raised.append((type(exc.value), str(exc.value)))
        assert raised == [(error, message)] * 2
        drawable = survey_law(DEFAULT_ASSAY, process, 0.0, 0.0, DEFAULT_PARAMS)
        assert drawable.check(5000) is None


# A duration support shorter than the recency cutoff: tau = 0.996 < T* = 2
SHORT = PopulationParams(incidence=0.3, prevalence=0.23)


@pytest.mark.parametrize(
    "rule,r,c", [(SWP, 0.6, 0.25), (REGULAR, 1.0, 0.0)], ids=["swp", "regular"]
)
def test_short_horizon_composition_matches_sampler(rule, r, c):
    # integrating the curve to T* instead of tau put p_r 0.03 too high here
    process = TestingProcess(ExponentialInterTest(1.0), rule)
    p_star, p_r = survey_composition(DEFAULT_ASSAY, process, r, c, SHORT)
    n = 400_000
    counts = assemble_survey_rows(
        SHORT, process, r, c, DEFAULT_ASSAY, n, np.random.default_rng(31)
    ).counts()
    se_star = math.sqrt(p_star * (1.0 - p_star) / n)
    se_r = math.sqrt(p_r * (1.0 - p_r) / counts.n_pos)
    assert abs(counts.n_pos / n - p_star) < 4.0 * se_star
    assert abs(counts.n_rec / counts.n_pos - p_r) < 4.0 * se_r


# ---------------------------------------------------------------------------
# the count law's analytic columns

FRR = build_sensitivity("frr", SEED, 1)


@pytest.mark.parametrize("cells", [MAIN, build_sensitivity("long_mdri", SEED, 1)],
                         ids=["main", "long_mdri"])
def test_bias_and_variance_equal_the_exponential_formulas(cells):
    # frr = 0 on an exponential law: incidence * (R / MDRI - 1) and
    # (1/N) * (1/(p_r*p_star) + 1/(1 - p_star)), the same floats
    for s in cells:
        law = s.count_law
        want = analytic_bias(
            s.assay, s.process.inter_test_law.theta, s.r, s.c,
            s.process.observation_rule, s.params,
        )
        assert law.analytic_bias == want, s.label
        assert law.analytic_variance(s.n_target) == log_variance(
            s.n_target, law.p_star, law.p_r), s.label


MEAN_CELLS = [
    _cell(FRR, "swp_theta1_r0.6_c0_frr0.02"),
    _cell(FRR, "regular_theta0.4_r0.3_c2_frr0.01"),
    _cell(UNIFORM, "swp_uni0-3_r0.6_c1"),
    _cell(UNIFORM, "regular_uni0-4_r0.3_c1.5"),
]


@pytest.mark.parametrize("scenario", MEAN_CELLS, ids=lambda s: s.label)
def test_count_engine_mean_matches_the_limit(scenario):
    # the estimator's finite-N bias is O(1/N), far below the standard error
    reps = 2000
    result = grid_cells(
        run_grid([dataclasses.replace(scenario, replications=reps)]))[0]
    est = result.estimates
    assert np.isfinite(est).all()
    se = est.std(ddof=1) / math.sqrt(reps)
    want = scenario.params.incidence + scenario.count_law.analytic_bias
    assert abs(est.mean() - want) < 3.0 * se


def delta_method_log_variance(law, n_total, mdri_value, cutoff):
    """Var(log estimate) by the delta method, written out: the multinomial
    covariance of the count shares times a central-difference gradient of
    the log estimate."""
    frr = law.frr
    p = np.array(law.composition)

    def log_estimate(shares):
        rec, other, neg = shares
        denom = neg * (mdri_value - frr * cutoff)
        return math.log((rec - (rec + other) * frr) / denom)

    grad = np.empty(3)
    for i in range(3):
        h = 1e-5 * p[i]
        up, down = p.copy(), p.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (log_estimate(up) - log_estimate(down)) / (2.0 * h)
    cov = (np.diag(p) - np.outer(p, p)) / n_total
    return float(grad @ cov @ grad)


@pytest.mark.parametrize(
    "scenario",
    [*MEAN_CELLS, _cell(MAIN, "swp_theta1_r1_c2"),
     _cell(FRR, "swp_theta0.4_r0_c2_frr0.005"), _cell(UNIFORM, "regular_uni0-3_r1_c0")],
    ids=lambda s: s.label,
)
def test_variance_is_the_delta_method(scenario):
    law, assay = scenario.count_law, scenario.assay
    want = delta_method_log_variance(law, scenario.n_target, mdri(assay),
                                     assay.recency_cutoff)
    assert law.analytic_variance(scenario.n_target) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize(
    "label,calls,lists",
    [("swp_theta1_r0.6_c1", 3, 0), ("regular_theta0.4_r0.3_c0_frr0.01", 3, 0),
     ("swp_uni0-3_r0.6_c1", 3, 2), ("swp_theta1_r0.6_c0_frr0.02", 3, 0),
     ("swp_theta1_r0.6_c2_frr0.02", 4, 0), ("swp_uni0-3_r0.6_c0", 2, 1)],
)
def test_a_cell_evaluates_each_kernel_term_once(monkeypatch, label, calls, lists):
    # W_c, W_0 and R, and W_x when frr > 0, with W_0 read from W_c at c = 0,
    # each one closed-form expression (exponential) or one walk (uniform);
    # a uniform cell builds one piece list for W_c, R and W_x, and one for
    # W_0 at c > 0, an exponential cell none: building the law and writing
    # the summary row evaluate nothing twice
    scenario = _cell(MAIN + FRR + UNIFORM, label)
    scenario = dataclasses.replace(scenario, replications=3)
    counted = []
    for name in ("_exponential_integral", "_integrate", "_uniform_pieces"):
        real = getattr(estimator, name)
        monkeypatch.setattr(estimator, name, lambda *args, name=name, real=real: (
            counted.append(name) or real(*args)))
    result = run_grid([scenario])
    harness._write_summary(result, io.StringIO())
    terms = counted.count("_exponential_integral") + counted.count("_integrate")
    assert terms == calls, counted
    assert counted.count("_uniform_pieces") == lists, counted
