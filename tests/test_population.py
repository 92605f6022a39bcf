import numpy as np
import pytest

from recencysim.population import DEFAULT_PARAMS, PopulationParams, SurveyCounts
from recencysim.recency_model import DEFAULT_ASSAY, RecencyAssay
from recencysim.screening_analytics import forecast
from recencysim.testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
)
from reference_sampler import _sample_batch, assemble_survey_rows

REGULAR1 = TestingProcess(ExponentialInterTest(1.0), ObservationRule.REGULAR)
SWP1 = TestingProcess(ExponentialInterTest(1.0), ObservationRule.STOP_WHEN_POSITIVE)


class TestPopulationParams:
    def test_duration_support(self):
        # tau = p / (lambda * (1 - p)) with the default parameters
        assert DEFAULT_PARAMS.horizon == pytest.approx(12.764084507, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationParams(incidence=0.0, prevalence=0.29)
        with pytest.raises(ValueError):
            PopulationParams(incidence=0.032, prevalence=1.0)


class TestSampleBatch:
    def test_prevalence_and_durations(self):
        rng = np.random.default_rng(11)
        n = 200_000
        d, u, t, aware, attended, eligible = _sample_batch(
            DEFAULT_PARAMS, REGULAR1, 1.0, 0.0, rng, n
        )
        assert d.sum() / n == pytest.approx(0.29, abs=0.005)
        us = u[d]
        assert us.min() >= 0.0
        assert us.max() <= DEFAULT_PARAMS.horizon
        # Uniform(0, tau) mean
        assert us.mean() == pytest.approx(DEFAULT_PARAMS.horizon / 2, rel=0.02)
        assert np.all(np.isnan(u[~d]))
        assert not aware[~d].any()

    def test_awareness_definition(self):
        rng = np.random.default_rng(12)
        d, u, t, aware, attended, eligible = _sample_batch(
            DEFAULT_PARAMS, SWP1, 1.0, 0.0, rng, 2000
        )
        assert np.array_equal(aware[d], u[d] >= t[d])
        assert not aware[~d].any()
        assert aware.any() and (d & ~aware).any()


class TestScreening:
    def test_eligibility_is_strict_window(self):
        r, c = 1.0, 1.0
        d, u, t, aware, attended, eligible = _sample_batch(
            DEFAULT_PARAMS, REGULAR1, r, c, np.random.default_rng(13), 2000
        )
        assert np.array_equal(eligible, t > 1.0)
        assert eligible.any() and not eligible.all()
        # a window equal to a drawn test time excludes that individual: the
        # draws do not depend on the window, so the same stream repeats them
        again = _sample_batch(
            DEFAULT_PARAMS, REGULAR1, 1.0, float(t[0]), np.random.default_rng(13), 2000
        )
        assert np.array_equal(again[2], t)
        assert not again[5][0]

    def test_aware_attendance_uses_r(self):
        r, c = 0.0, 0.0
        d, u, t, aware, attended, eligible = _sample_batch(
            DEFAULT_PARAMS, SWP1, r, c, np.random.default_rng(14), 2000
        )
        assert aware.any() and (~aware).any()
        assert not attended[aware].any()
        assert attended[~aware].all()

    def test_surveyed_requires_both(self):
        # r = 0 bars aware attendees and the window bars recent testers;
        # only individuals passing both are admitted
        r, c = 0.0, 1.0
        rows = assemble_survey_rows(
            DEFAULT_PARAMS, SWP1, r, c, DEFAULT_ASSAY, 5000,
            np.random.default_rng(19),
        )
        assert not rows.aware.any()
        assert np.all(rows.t_since_test > 1.0)


class TestRecencyTesting:
    def test_only_positives_tested(self):
        # with a nonzero FRR a tested negative could read recent
        assay = RecencyAssay(0.352, 1.273, 2.0, frr=0.5)
        rows = assemble_survey_rows(
            DEFAULT_PARAMS, REGULAR1, 1.0, 0.0, assay, 5000,
            np.random.default_rng(15),
        )
        assert (~rows.d).any()
        assert not rows.recent[~rows.d].any()
        assert rows.recent[rows.d].any()

    def test_only_surveyed_tested(self):
        # recency results exist only for admitted rows, one per admission:
        # none belongs to a non-attendee (aware, r = 0) or an excluded one
        r, c = 0.0, 1.0
        rows = assemble_survey_rows(
            DEFAULT_PARAMS, SWP1, r, c, DEFAULT_ASSAY, 3000,
            np.random.default_rng(16),
        )
        assert rows.recent.shape == rows.d.shape == (3000,)
        assert not rows.aware.any()
        assert np.all(rows.t_since_test > 1.0)

    def test_old_infection_frr(self):
        # zero FRR: durations beyond the cutoff can never test recent
        rows = assemble_survey_rows(
            DEFAULT_PARAMS, REGULAR1, 1.0, 0.0, DEFAULT_ASSAY, 5000,
            np.random.default_rng(17),
        )
        old = rows.d & (rows.u > DEFAULT_ASSAY.recency_cutoff)
        assert old.sum() >= 200
        assert not rows.recent[old].any()

    def test_frr_rate_empirical(self):
        assay = RecencyAssay(0.352, 1.273, 2.0, frr=0.01)
        rows = assemble_survey_rows(
            DEFAULT_PARAMS, REGULAR1, 1.0, 0.0, assay, 420_000,
            np.random.default_rng(18),
        )
        old = rows.d & (rows.u > assay.recency_cutoff)
        assert old.sum() >= 100_000
        assert rows.recent[old].mean() == pytest.approx(0.01, abs=0.002)


class TestSurveyCounts:
    def test_invariants(self):
        # n_total is n_pos + n_neg by construction
        assert SurveyCounts(n_pos=4, n_neg=6, n_rec=0, n_screened=10).n_total == 10
        with pytest.raises(ValueError):
            SurveyCounts(n_pos=4, n_neg=6, n_rec=5, n_screened=10)
        with pytest.raises(ValueError):
            SurveyCounts(n_pos=np.array([4, 4]), n_neg=np.array([6, 6]),
                         n_rec=np.array([0, 5]), n_screened=np.array([10, 10]))


class TestAssembleSurvey:
    def test_no_exclusions_everyone_admitted(self):
        rng = np.random.default_rng(21)
        counts = assemble_survey_rows(
            DEFAULT_PARAMS, REGULAR1, 1.0, 0.0, DEFAULT_ASSAY, 5000, rng
        ).counts()
        assert counts.n_total == 5000
        assert counts.n_screened == 5000
        assert counts.n_pos + counts.n_neg == 5000

    def test_screening_effort_matches_closed_form(self):
        # SWP, theta=1, r=0.6, c=2: expected ~3.75 attendees per admission
        r, c = 0.6, 2.0
        s = forecast(
            ObservationRule.STOP_WHEN_POSITIVE, DEFAULT_PARAMS, 1.0, 0.6, 2.0, 5000
        ).inclusion_probability
        rng = np.random.default_rng(22)
        counts = assemble_survey_rows(
            DEFAULT_PARAMS, SWP1, r, c, DEFAULT_ASSAY, 20_000, rng
        ).counts()
        assert counts.n_total == 20_000
        assert counts.n_screened / 20_000 == pytest.approx(1.0 / s, rel=0.02)

    def test_prevalence_within_sampling_error(self):
        rng = np.random.default_rng(23)
        n = 50_000
        counts = assemble_survey_rows(
            DEFAULT_PARAMS, REGULAR1, 1.0, 0.0, DEFAULT_ASSAY, n, rng
        ).counts()
        se = np.sqrt(0.29 * 0.71 / n)
        assert abs(counts.n_pos / n - 0.29) < 3 * se

    def test_admitted_positive_durations_uniform_under_no_selection(self):
        # regular rule with r=1 keeps the duration law flat below the window
        rng = np.random.default_rng(24)
        r, c = 1.0, 0.0
        rows = assemble_survey_rows(
            DEFAULT_PARAMS, REGULAR1, r, c, DEFAULT_ASSAY, 50_000, rng
        )
        us = rows.u[rows.d]
        hist, _ = np.histogram(us, bins=20, range=(0, DEFAULT_PARAMS.horizon))
        expected = np.full(20, us.size / 20)
        chi2 = np.sum((hist - expected) ** 2 / expected)
        # chi-square(19) 0.999 quantile ~ 43.8
        assert chi2 < 43.8

    def test_exclusion_shifts_positives_old(self):
        # SWP + exclusion removes recently tested (hence recently infected)
        rng = np.random.default_rng(25)
        r, c = 1.0, 2.0
        rows = assemble_survey_rows(
            DEFAULT_PARAMS, SWP1, r, c, DEFAULT_ASSAY, 20_000, rng
        )
        assert np.all(rows.t_since_test > 2.0)
        frac_recent_duration = np.mean(rows.u[rows.d] < 2.0)
        assert frac_recent_duration < 2.0 / DEFAULT_PARAMS.horizon

    def test_deterministic_given_seed(self):
        r, c = 0.3, 1.0
        a = assemble_survey_rows(
            DEFAULT_PARAMS, SWP1, r, c, DEFAULT_ASSAY, 3000,
            np.random.default_rng(99),
        ).counts()
        b = assemble_survey_rows(
            DEFAULT_PARAMS, SWP1, r, c, DEFAULT_ASSAY, 3000,
            np.random.default_rng(99),
        ).counts()
        assert a == b

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            assemble_survey_rows(
                DEFAULT_PARAMS, REGULAR1, 1.0, 0.0, DEFAULT_ASSAY, 0,
                np.random.default_rng(1),
            )
