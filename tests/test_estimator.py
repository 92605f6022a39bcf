import math

import numpy as np
import pytest

from recencysim.estimator import (
    analytic_bias,
    effective_mdri_closed,
    effective_mdri_numeric,
    kassanjee_estimate,
    log_variance,
    survey_composition,
)
from recencysim.population import DEFAULT_PARAMS, InfeasibleScenarioError, SurveyCounts
from recencysim.recency_model import DEFAULT_ASSAY, mdri
from recencysim.screening_analytics import survey_law
from recencysim.testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
)

OMEGA = mdri(DEFAULT_ASSAY)


def make_counts(n_pos, n_neg, n_rec):
    n_pos, n_neg, n_rec = (np.asarray(v) for v in (n_pos, n_neg, n_rec))
    return SurveyCounts(n_pos=n_pos, n_neg=n_neg, n_rec=n_rec,
                        n_screened=n_pos + n_neg)


def estimate(n_pos, n_neg, n_rec, mdri_hat=OMEGA, frr_hat=0.0):
    return kassanjee_estimate(make_counts(n_pos, n_neg, n_rec), mdri_hat, frr_hat, 2.0)


def scalar_formula(n_pos, n_neg, n_rec, mdri_hat, frr_hat, cutoff):
    """The estimator on one survey's Python ints; None where undefined."""
    denom = n_neg * (mdri_hat - frr_hat * cutoff)
    if denom <= 0:
        return None
    return (n_rec - n_pos * frr_hat) / denom


class TestKassanjeeEstimate:
    def test_hand_computed_value(self):
        assert estimate(1450, 3550, 44, mdri_hat=0.268) == pytest.approx(
            44.0 / (3550 * 0.268))

    def test_matches_formula_with_frr(self):
        want = (44 - 1450 * 0.01) / (3550 * (0.268 - 0.01 * 2.0))
        got = estimate(1450, 3550, 44, mdri_hat=0.268, frr_hat=0.01)
        assert got == pytest.approx(want)

    def test_negative_estimate_passed_through(self):
        assert estimate(1450, 3550, 5, mdri_hat=0.268, frr_hat=0.01) < 0

    def test_undefined_when_mdri_too_small(self):
        got = estimate([10, 20], [10, 30], [1, 2], mdri_hat=0.01, frr_hat=0.01)
        assert np.isnan(got).all()

    def test_undefined_when_no_negatives(self):
        got = estimate([10, 7], [0, 3], [1, 1])
        assert np.isnan(got[0]) and got[1] == 1 / (3 * OMEGA)

    @pytest.mark.parametrize("mdri_hat,frr_hat", [
        (OMEGA, 0.0), (OMEGA, 0.02), (0.268, 0.01), (0.03, 0.015), (0.02, 0.01),
    ])
    def test_bit_identical_to_scalar_formula(self, mdri_hat, frr_hat):
        # frr > 0 gives negative estimates where n_rec < n_pos * frr; a
        # survey without negatives, or mdri_hat <= frr_hat * T*, gives nan
        rng = np.random.default_rng(11)
        n_total = 5000
        n_pos = rng.integers(0, n_total + 1, 400)
        n_pos[:3] = n_total
        n_rec = rng.binomial(n_pos, 0.02)
        n_rec[3:6] = 0
        counts = make_counts(n_pos, n_total - n_pos, n_rec)
        got = kassanjee_estimate(counts, mdri_hat, frr_hat, 2.0).tolist()
        want = [scalar_formula(p, n, r, mdri_hat, frr_hat, 2.0) for p, n, r in zip(
            counts.n_pos.tolist(), counts.n_neg.tolist(), counts.n_rec.tolist())]
        for g, w in zip(got, want, strict=True):
            assert (math.isnan(g) and w is None) or g == w
        if mdri_hat <= frr_hat * 2.0:
            assert all(w is None for w in want)
        else:
            assert want[0] is None and want[-1] is not None
            assert any(w < 0 for w in want if w is not None) == (frr_hat > 0)


class TestLogVariance:
    def test_hand_value(self):
        # (1/1000) * (1/(0.5*0.5) + 1/(1-0.5)) = 0.006
        assert log_variance(1000, 0.5, 0.5) == pytest.approx(0.006)

    def test_scales_as_one_over_n(self):
        v1 = log_variance(1000, 0.29, 0.02)
        v2 = log_variance(4000, 0.29, 0.02)
        assert v1 == pytest.approx(4 * v2)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_variance(1000, 0.0, 0.5)
        with pytest.raises(ValueError):
            log_variance(1000, 0.5, 0.0)
        with pytest.raises(ValueError):
            log_variance(0, 0.5, 0.5)


class TestEffectiveMdriClosed:
    @pytest.mark.parametrize("rule", list(ObservationRule))
    def test_reduces_to_mdri_without_selection(self, rule):
        # r=1, c=0: nobody is excluded or deterred
        assert effective_mdri_closed(DEFAULT_ASSAY, 1.0, 1.0, 0.0, rule) == (
            pytest.approx(OMEGA, abs=1e-12)
        )

    @pytest.mark.parametrize("rule", list(ObservationRule))
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.6, 1.0])
    def test_window_at_cutoff_removes_bias(self, rule, r):
        val = effective_mdri_closed(DEFAULT_ASSAY, 1.0, r, 2.0, rule)
        assert val == pytest.approx(OMEGA, abs=1e-12)
        bias = analytic_bias(DEFAULT_ASSAY, 1.0, r, 2.0, rule, DEFAULT_PARAMS)
        assert bias == pytest.approx(0.0, abs=1e-12)

    def test_regular_monotone_in_r(self):
        vals = [
            effective_mdri_closed(
                DEFAULT_ASSAY, 1.0, r, 0.5, ObservationRule.REGULAR
            )
            for r in (0.0, 0.3, 0.6, 1.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v <= OMEGA + 1e-12 for v in vals)

    def test_swp_dominates_regular(self):
        # SWP concentrates exclusions on recent infections, so for c > 0
        # the same r inflates the effective MDRI relative to the regular rule
        for r in (0.3, 0.6, 1.0):
            swp = effective_mdri_closed(
                DEFAULT_ASSAY, 1.0, r, 1.0, ObservationRule.STOP_WHEN_POSITIVE
            )
            reg = effective_mdri_closed(
                DEFAULT_ASSAY, 1.0, r, 1.0, ObservationRule.REGULAR
            )
            assert swp > reg

    def test_regular_bias_nonpositive(self):
        for theta in (0.4, 1.0, 2.0):
            for r in (0.0, 0.3, 0.6):
                for c in (0.0, 0.25, 1.0):
                    b = analytic_bias(
                        DEFAULT_ASSAY, theta, r, c, ObservationRule.REGULAR,
                        DEFAULT_PARAMS,
                    )
                    assert b <= 1e-12

    def test_rejects_nonzero_frr(self):
        from recencysim.recency_model import RecencyAssay

        assay = RecencyAssay(0.352, 1.273, 2.0, frr=0.01)
        with pytest.raises(ValueError):
            effective_mdri_closed(assay, 1.0, 1.0, 0.0, ObservationRule.REGULAR)


class TestEffectiveMdriNumeric:
    @pytest.mark.parametrize("rule", list(ObservationRule))
    @pytest.mark.parametrize("theta", [0.4, 1.0, 2.0])
    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("c", [0.0, 0.25, 1.0, 2.0])
    def test_matches_closed_form(self, rule, theta, r, c):
        num = effective_mdri_numeric(DEFAULT_ASSAY, theta, r, c, rule)
        closed = effective_mdri_closed(DEFAULT_ASSAY, theta, r, c, rule)
        assert num == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize("rule", list(ObservationRule), ids=lambda r: r.value)
    @pytest.mark.parametrize("theta,r,c", [(1.0, 1.0, 1000.0), (1.0, 0.5, 720.0),
                                           (300.0, 1.0, 1.9), (300.0, 0.6, 1.0)])
    def test_matches_where_the_scale_underflows(self, rule, theta, r, c):
        # e^{-theta*c} is 0 or subnormal: each conditional is divided by it
        # before integrating, so nothing divides by the scale afterwards
        num = effective_mdri_numeric(DEFAULT_ASSAY, theta, r, c, rule)
        closed = effective_mdri_closed(DEFAULT_ASSAY, theta, r, c, rule)
        assert num == pytest.approx(closed, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_rejects_what_the_closed_form_rejects(self, r):
        # Stop-When-Positive below T* needs e^{theta*c} = e^{760}
        swp = ObservationRule.STOP_WHEN_POSITIVE
        with pytest.raises(InfeasibleScenarioError) as closed:
            effective_mdri_closed(DEFAULT_ASSAY, 400.0, r, 1.9, swp)
        with pytest.raises(InfeasibleScenarioError) as num:
            effective_mdri_numeric(DEFAULT_ASSAY, 400.0, r, 1.9, swp)
        assert str(num.value) == str(closed.value)


class TestEffectiveMdriArgs:
    """The closed form and the numeric oracle share one input check."""

    @pytest.mark.parametrize("fn", [effective_mdri_closed, effective_mdri_numeric])
    @pytest.mark.parametrize(
        "theta,r,c,message",
        [
            (1.0, 1.5, 0.0, "r must lie in [0, 1], got 1.5"),
            (1.0, -0.1, 0.0, "r must lie in [0, 1], got -0.1"),
            (1.0, 0.6, -1.0, "c must be nonnegative, got -1.0"),
            (1.0, 0.6, math.nan, "c must be nonnegative, got nan"),
            (0.0, 0.6, 0.25, "theta must be positive, got 0.0"),
            (-1.0, 0.6, 0.25, "theta must be positive, got -1.0"),
        ],
    )
    def test_rejects_out_of_range(self, fn, theta, r, c, message):
        with pytest.raises(ValueError) as exc:
            fn(DEFAULT_ASSAY, theta, r, c, ObservationRule.STOP_WHEN_POSITIVE)
        assert str(exc.value) == message

    def test_numeric_rejects_nonzero_frr(self):
        from recencysim.recency_model import RecencyAssay

        assay = RecencyAssay(0.352, 1.273, 2.0, frr=0.01)
        with pytest.raises(ValueError, match="zero-FRR"):
            effective_mdri_numeric(assay, 1.0, 1.0, 0.0, ObservationRule.REGULAR)

    @pytest.mark.parametrize("fn", [effective_mdri_closed, effective_mdri_numeric])
    def test_accepts_range_ends(self, fn):
        for r in (0.0, 1.0):
            assert fn(DEFAULT_ASSAY, 1.0, r, 0.0, ObservationRule.REGULAR) > 0.0


class TestEitherLawArgs:
    """The entry points that read either inter-test law check (r, c): a
    negative window would read scale e for Exponential(1) and
    P(T > c) = 1.667 for Uniform(0, 3)."""

    @pytest.mark.parametrize("entry", [survey_composition, survey_law])
    @pytest.mark.parametrize("rule", list(ObservationRule), ids=lambda r: r.value)
    @pytest.mark.parametrize(
        "law", [ExponentialInterTest(1.0), UniformInterTest(0.0, 3.0)],
        ids=["exponential", "uniform"])
    def test_rejects_a_negative_window(self, entry, rule, law):
        with pytest.raises(ValueError) as exc:
            entry(DEFAULT_ASSAY, TestingProcess(law, rule), 0.5, -1.0, DEFAULT_PARAMS)
        assert str(exc.value) == "c must be nonnegative, got -1.0"


class TestSurveyComposition:
    def test_no_selection_baseline(self):
        # r=1, c=0: survey prevalence is the population prevalence and the
        # recent fraction among positives is MDRI / tau
        process = TestingProcess(ExponentialInterTest(1.0), ObservationRule.REGULAR)
        p_star, p_r = survey_composition(
            DEFAULT_ASSAY, process, 1.0, 0.0, DEFAULT_PARAMS
        )
        assert p_star == pytest.approx(0.29, abs=1e-9)
        assert p_r == pytest.approx(OMEGA / DEFAULT_PARAMS.horizon, rel=1e-8)

    def test_exclusion_raises_prevalence_and_starves_recents(self):
        process = TestingProcess(
            ExponentialInterTest(1.0), ObservationRule.STOP_WHEN_POSITIVE
        )
        p0, pr0 = survey_composition(DEFAULT_ASSAY, process, 1.0, 0.0, DEFAULT_PARAMS)
        p2, pr2 = survey_composition(DEFAULT_ASSAY, process, 1.0, 2.0, DEFAULT_PARAMS)
        assert p2 > p0
        assert pr2 < pr0

    def test_log_variance_from_composition(self):
        # the two composition channels both inflate the c=2 variance
        process = TestingProcess(
            ExponentialInterTest(1.0), ObservationRule.STOP_WHEN_POSITIVE
        )
        p0, pr0 = survey_composition(DEFAULT_ASSAY, process, 1.0, 0.0, DEFAULT_PARAMS)
        p2, pr2 = survey_composition(DEFAULT_ASSAY, process, 1.0, 2.0, DEFAULT_PARAMS)
        v0 = log_variance(5000, p0, pr0)
        v2 = log_variance(5000, p2, pr2)
        assert v2 > v0

    @pytest.mark.parametrize("rule", list(ObservationRule), ids=lambda r: r.value)
    def test_uniform_schedule_without_selection(self, rule):
        # r = 1, c = 0: every positive has weight 1 under any inter-test
        # law, so the survey keeps the population's prevalence and p_r is
        # the MDRI over the duration support
        process = TestingProcess(UniformInterTest(0.0, 2.0), rule)
        p_star, p_r = survey_composition(
            DEFAULT_ASSAY, process, 1.0, 0.0, DEFAULT_PARAMS
        )
        assert p_star == pytest.approx(DEFAULT_PARAMS.prevalence, rel=1e-12)
        assert p_r == pytest.approx(OMEGA / DEFAULT_PARAMS.horizon, rel=1e-12)
