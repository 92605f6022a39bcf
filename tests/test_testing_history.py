import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from scipy import stats

from recencysim.population import DEFAULT_PARAMS, InfeasibleScenarioError
from recencysim.recency_model import ASSAYS
from recencysim.screening_analytics import survey_law
from recencysim.testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
)
from reference_sampler import (
    _residual_from_uniform01,
    observe_most_recent_many,
    residual_cdf,
    sample_residual,
)

EXP1 = TestingProcess(ExponentialInterTest(1.0), ObservationRule.REGULAR)
SWP1 = TestingProcess(ExponentialInterTest(1.0), ObservationRule.STOP_WHEN_POSITIVE)


def swp_conditional_survival(c: float, u: float, theta: float) -> float:
    """P(T > c | U = u) under Stop-When-Positive with exponential gaps."""
    if c <= 0:
        return 1.0
    if u <= c:
        return math.exp(-theta * c)
    return 1.0 - math.exp(-theta * (u - c)) + math.exp(-theta * u)


def gap_loop_reference(residual_id, u, infected, process, rng):
    """The gap-by-gap Stop-When-Positive walk, for either inter-test law.

    This is the sampler's original route for every law: starting from the
    Regular-rule residual, draw gaps in rounds over the individuals whose
    walk has not yet passed u.
    """
    law = process.inter_test_law
    t = np.array(residual_id, dtype=float, copy=True)
    active = np.flatnonzero(infected & (t < np.where(infected, u, -np.inf)))
    while active.size:
        if isinstance(law, ExponentialInterTest):
            gaps = rng.exponential(1.0 / law.theta, size=active.size)
        else:
            gaps = rng.uniform(law.a, law.b, size=active.size)
        done = t[active] + gaps > u[active]
        keep = ~done
        t[active[keep]] += gaps[keep]
        active = active[keep]
    return t


class TestResidualSampler:
    def test_exponential_mean(self):
        rng = np.random.default_rng(101)
        draws = sample_residual(EXP1, rng, size=1_000_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_uniform_inverse_cdf_at_one(self):
        law = UniformInterTest(0.0, 3.0)
        assert _residual_from_uniform01(1.0, law) == pytest.approx(3.0)

    def test_uniform_empirical_cdf(self):
        # stationary residual CDF of Uniform[0,4] at x=2 is 0.75
        law = UniformInterTest(0.0, 4.0)
        rng = np.random.default_rng(202)
        proc = TestingProcess(law, ObservationRule.REGULAR)
        draws = sample_residual(proc, rng, size=1_000_000)
        assert np.mean(draws <= 2.0) == pytest.approx(0.75, abs=0.003)

    @pytest.mark.parametrize(
        "law",
        [
            ExponentialInterTest(0.4),
            ExponentialInterTest(2.0),
            UniformInterTest(0.0, 3.0),
            UniformInterTest(0.5, 2.5),
        ],
    )
    def test_ks_against_analytic_cdf(self, law):
        rng = np.random.default_rng(303)
        proc = TestingProcess(law, ObservationRule.REGULAR)
        draws = sample_residual(proc, rng, size=100_000)
        res = stats.kstest(draws, np.vectorize(lambda x: residual_cdf(x, law)))
        assert res.pvalue > 0.01


def observe_one(residual, u, process, seed):
    """observe_most_recent_many for one individual; u=None is uninfected."""
    infected = u is not None
    t = observe_most_recent_many(
        np.array([residual]), np.array([u if infected else np.nan]),
        np.array([infected]), process, np.random.default_rng(seed),
    )
    return float(t[0])


class TestObserveMostRecent:
    def test_infection_after_last_test(self):
        assert observe_one(1.5, 0.5, SWP1, 1) == 1.5

    def test_last_test_at_infection(self):
        # residual == u: the last test is not before infection, so unchanged
        assert observe_one(0.5, 0.5, SWP1, 9) == 0.5

    def test_regular_rule_never_modifies(self):
        assert observe_one(0.2, 3.0, EXP1, 2) == 0.2

    def test_negative_individual_never_modified(self):
        assert observe_one(0.2, None, SWP1, 3) == 0.2

    def test_negatives_unchanged_within_batch(self):
        rng = np.random.default_rng(10)
        n = 10_000
        tid = sample_residual(SWP1, rng, size=n)
        infected = rng.random(n) < 0.5
        u = np.where(infected, rng.uniform(0, 5, n), np.nan)
        t = observe_most_recent_many(tid, u, infected, SWP1, rng)
        assert np.array_equal(t[~infected], tid[~infected])
        assert (t[infected] != tid[infected]).any()

    def test_zero_duration_reduces_to_regular(self):
        assert observe_one(0.7, 0.0, SWP1, 4) == 0.7

    @pytest.mark.parametrize("theta", [1.0, 0.4, 2.0, 50.0])
    def test_monotone_relation_per_draw(self, theta):
        # R <= T <= u on every row that stopped, T = R on every other row
        proc = TestingProcess(
            ExponentialInterTest(theta), ObservationRule.STOP_WHEN_POSITIVE
        )
        rng = np.random.default_rng(5)
        n = 20_000
        u = rng.uniform(0, 5, n)
        tid = sample_residual(proc, rng, size=n)
        t = observe_most_recent_many(tid, u, np.ones(n, dtype=bool), proc, rng)
        stopped = tid < u
        assert np.all(t[stopped] >= tid[stopped])
        assert np.all(t[stopped] <= u[stopped])
        assert np.all(t[~stopped] == tid[~stopped])

    def test_swp_density_chi_square(self):
        # sampled SWP times vs the piecewise conditional density at u=2
        theta, u = 1.0, 2.0
        rng = np.random.default_rng(6)
        n = 1_000_000
        tid = sample_residual(SWP1, rng, size=n)
        t = observe_most_recent_many(
            tid, np.full(n, u), np.ones(n, dtype=bool), SWP1, rng
        )
        edges = np.concatenate([np.linspace(0, 6, 61), [np.inf]])
        observed, _ = np.histogram(t, bins=edges)

        def mass(lo, hi):
            lo_b, hi_b = min(lo, u), min(hi, u)
            below = math.exp(-theta * (u - hi_b)) - math.exp(-theta * (u - lo_b))
            lo_a, hi_a = max(lo, u), max(hi, u)
            above = math.exp(-theta * lo_a) - (
                math.exp(-theta * hi_a) if np.isfinite(hi_a) else 0.0
            )
            return below + above

        expected = n * np.array(
            [mass(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
        )
        res = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert res.pvalue > 0.01

    def test_regular_t_independent_of_u(self):
        rng = np.random.default_rng(7)
        n = 1_000_000
        u = rng.uniform(0, 12.0, n)
        t = sample_residual(EXP1, rng, size=n)
        corr = np.corrcoef(u, t)[0, 1]
        assert abs(corr) < 0.005

    def test_uniform_law_walk_respects_bounds(self):
        proc = TestingProcess(
            UniformInterTest(0.0, 3.0), ObservationRule.STOP_WHEN_POSITIVE
        )
        rng = np.random.default_rng(8)
        n = 50_000
        u = rng.uniform(0, 8, n)
        tid = sample_residual(proc, rng, size=n)
        t = observe_most_recent_many(tid, u, np.ones(n, dtype=bool), proc, rng)
        stopped = tid < u
        assert np.all(t[stopped] >= tid[stopped])
        assert np.all(t[stopped] <= u[stopped])


def swp_draws(theta, u, n, seed, observe=observe_most_recent_many):
    """Regular-rule residuals and SWP times for n infected with duration u."""
    proc = TestingProcess(
        ExponentialInterTest(theta), ObservationRule.STOP_WHEN_POSITIVE
    )
    rng = np.random.default_rng(seed)
    tid = sample_residual(proc, rng, size=n)
    t = observe(tid, np.full(n, u), np.ones(n, dtype=bool), proc, rng)
    return tid, t


SWP_CASES = [(0.4, 0.5), (0.4, 3.0), (2.0, 0.5), (2.0, 3.0)]


class TestOneDrawExponentialSwp:
    """The exact one-draw route for exponential gaps against the gap walk.

    Fixed seeds; KS p-values must exceed 0.01 and frequencies must lie
    within 5 binomial standard errors of their exact values.
    """

    N = 200_000

    @pytest.mark.parametrize("theta,u", SWP_CASES)
    def test_ks_against_gap_loop(self, theta, u):
        _, fast = swp_draws(theta, u, self.N, seed=11)
        _, slow = swp_draws(theta, u, self.N, seed=12, observe=gap_loop_reference)
        assert stats.ks_2samp(fast, slow).pvalue > 0.01

    @pytest.mark.parametrize("theta,u", SWP_CASES)
    def test_atom_at_residual(self, theta, u):
        # P(T = R | R < u) = E[exp(-theta (u - R)) | R < u] with R ~ Exp(theta)
        tid, t = swp_draws(theta, u, self.N, seed=13)
        stopped = tid < u
        n = int(stopped.sum())
        freq = np.mean(t[stopped] == tid[stopped])
        exact = theta * u * math.exp(-theta * u) / (1.0 - math.exp(-theta * u))
        assert abs(freq - exact) < 5 * math.sqrt(exact * (1 - exact) / n)

    @pytest.mark.parametrize("theta,u", SWP_CASES)
    @pytest.mark.parametrize("c", [0.25, 1.0, 2.0])
    def test_survival_matches_closed_form(self, theta, u, c):
        _, t = swp_draws(theta, u, self.N, seed=14)
        exact = swp_conditional_survival(c, u, theta)
        freq = np.mean(t > c)
        assert abs(freq - exact) < 5 * math.sqrt(exact * (1 - exact) / self.N)

    def test_one_draw_per_active_individual(self):
        proc = TestingProcess(
            ExponentialInterTest(2.0), ObservationRule.STOP_WHEN_POSITIVE
        )
        tid = np.array([0.1, 5.0, 0.2, 0.3])
        u = np.array([3.0, 1.0, np.nan, 3.0])
        infected = np.array([True, True, False, True])
        rng = np.random.default_rng(16)
        observe_most_recent_many(tid, u, infected, proc, rng)
        twin = np.random.default_rng(16)
        twin.exponential(0.5, 2)
        assert rng.random() == twin.random()


class TestUniformSwpUnchanged:
    """The uniform route keeps the gap walk and its random stream."""

    def batch(self, observe):
        proc = TestingProcess(
            UniformInterTest(0.5, 2.5), ObservationRule.STOP_WHEN_POSITIVE
        )
        rng = np.random.default_rng(2024)
        n = 8192
        infected = rng.random(n) < 0.5
        u = np.where(infected, rng.uniform(0, 12.8, n), np.nan)
        tid = sample_residual(proc, rng, size=n)
        return observe(tid, u, infected, proc, rng), rng.random()

    def test_matches_gap_loop_reference(self):
        t, after = self.batch(observe_most_recent_many)
        t_ref, after_ref = self.batch(gap_loop_reference)
        assert np.array_equal(t, t_ref)
        assert after == after_ref

    def test_pinned_output(self):
        # digest and next draw recorded with the gap walk used for every law
        t, after = self.batch(observe_most_recent_many)
        assert hashlib.sha256(t.tobytes()).hexdigest() == (
            "987db01b3f485ae1bcbf072ead39173ed6151f0af894b0624f0e9a482185e427"
        )
        assert after == 0.7019081205537804


class TestUniformResidualCdfEndpoints:
    @pytest.mark.parametrize("a,b", [(0.0, 3.0), (0.0, 4.0), (1.0, 4.0), (0.5, 0.75)])
    def test_endpoints_are_exact(self, a, b):
        # F(c) = 1 exactly for c >= b: a window past the longest gap
        # leaves no attendee, and the survey weight sees exactly 0
        law = UniformInterTest(a, b)
        assert residual_cdf(-1.0, law) == 0.0 and residual_cdf(0, law) == 0.0
        assert residual_cdf(b, law) == 1.0 and residual_cdf(b + 5.0, law) == 1.0


class TestLawValidation:
    def test_bad_laws(self):
        with pytest.raises(ValueError):
            ExponentialInterTest(0.0)
        with pytest.raises(ValueError):
            UniformInterTest(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformInterTest(-1.0, 1.0)

    # the smallest b at a = 0 whose 1/(b^2 - a^2) is a finite float
    SMALLEST_B = 7.458340731200208e-155

    @pytest.mark.parametrize("b", [7.458340731200207e-155, 1e-160, 1e-300, 5e-324])
    def test_rejects_a_law_past_the_float_range(self, b):
        # b = 1e-160 made a count law's inclusion nan, and 1e-300 divided
        # by zero in residual_cdf_pieces
        with pytest.raises(ValueError, match=re.escape(
                f"1/(b^2 - a^2) is not finite at a=0.0, b={b!r}")):
            UniformInterTest(0.0, b)

    @pytest.mark.parametrize("b", [SMALLEST_B, 7.5e-155, 1e-120])
    def test_accepts_a_law_down_to_the_float_range(self, b):
        law = UniformInterTest(0.0, b)
        assert all(math.isfinite(k) for piece in law.residual_cdf_pieces for k in piece)
        for rule, r, c, assay in itertools.product(
                ObservationRule, (0.0, 0.5, 1.0), (0.0, 1e-156, 1e-154, 0.1, 1.0),
                ASSAYS.values()):
            try:
                got = survey_law(assay, TestingProcess(law, rule), r, c, DEFAULT_PARAMS)
            except InfeasibleScenarioError:  # no attendee passes c
                continue
            assert all(map(math.isfinite, (got.p_star, got.p_r, got.inclusion,
                                           got.admit)))
            # the bias is undefined only where no survey holds a negative
            assert math.isfinite(got.analytic_bias) == (got.p_star < 1.0)
