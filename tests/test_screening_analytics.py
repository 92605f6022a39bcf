import math

import pytest

from recencysim.estimator import (
    analytic_bias,
    effective_mdri_closed,
    survey_composition,
)
from recencysim.harness import build_grid, emit_histogram
from recencysim.population import DEFAULT_PARAMS, InfeasibleScenarioError
from recencysim.recency_model import DEFAULT_ASSAY
from recencysim.screening_analytics import (
    forecast,
    required_screening,
    survey_law,
)
from recencysim.testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
)
from reference_sampler import inclusion_probability_mc

def s_closed(rule, theta, r, c):
    return forecast(rule, DEFAULT_PARAMS, theta, r, c, 5000).inclusion_probability


class TestInclusionProbability:
    @pytest.mark.parametrize("rule", list(ObservationRule))
    def test_one_without_exclusion_full_attendance(self, rule):
        assert s_closed(rule, 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rule", list(ObservationRule))
    def test_one_without_exclusion_any_r(self, rule):
        # c=0 admits everyone who attends, whatever the attendance pattern
        for r in (0.0, 0.3, 0.6):
            assert s_closed(rule, 1.0, r, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_rules_agree_at_zero_window(self):
        for theta in (0.4, 1.0, 2.0):
            a = s_closed(ObservationRule.REGULAR, theta, 0.6, 0.0)
            b = s_closed(ObservationRule.STOP_WHEN_POSITIVE, theta, 0.6, 0.0)
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("rule", list(ObservationRule))
    def test_monotone_nonincreasing_in_window(self, rule):
        for theta in (0.4, 1.0, 2.0):
            for r in (0.0, 0.6, 1.0):
                vals = [s_closed(rule, theta, r, c) for c in (0.0, 0.25, 1.0, 2.0)]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "rule, theta, r, c",
        [
            (ObservationRule.REGULAR, 1.0, 0.0, 1.0),
            (ObservationRule.REGULAR, 2.0, 0.6, 0.25),
            (ObservationRule.STOP_WHEN_POSITIVE, 1.0, 0.6, 2.0),
            (ObservationRule.STOP_WHEN_POSITIVE, 0.4, 0.3, 1.5),
        ],
    )
    def test_matches_monte_carlo(self, rule, theta, r, c):
        process = TestingProcess(ExponentialInterTest(theta), rule)
        mc = inclusion_probability_mc(
            process, DEFAULT_PARAMS, r, c, n_attendees=400_000, seed=5
        )
        assert mc == pytest.approx(s_closed(rule, theta, r, c), rel=0.02)

    def test_invalid_combination_raises(self):
        # c = 60 is past the horizon (12.76): a valid window, where the
        # forecast reads the count law's inclusion probability, bit for bit
        process = TestingProcess(ExponentialInterTest(1.0), ObservationRule.REGULAR)
        law = survey_law(DEFAULT_ASSAY, process, 0.0, 60.0, DEFAULT_PARAMS)
        assert s_closed(ObservationRule.REGULAR, 1.0, 0.0, 60.0) == law.inclusion
        assert 0.0 < law.inclusion < 1e-25


class TestRequiredScreening:
    def test_ceiling(self):
        assert required_screening(5000, 1.0) == 5000
        assert required_screening(5000, 0.6) == 8334

    def test_known_heavy_exclusion_cell(self):
        # SWP, theta=1, r=0, c=2 needs roughly 7x oversampling
        s = s_closed(ObservationRule.STOP_WHEN_POSITIVE, 1.0, 0.0, 2.0)
        assert required_screening(5000, s) == pytest.approx(34_800, abs=100)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_screening(0, 0.5)
        with pytest.raises(ValueError):
            required_screening(100, 0.0)

    def test_subnormal_probability_is_an_inclusion_error(self):
        # 5000 / 5e-324 overflows; a tiny s whose quotient is finite still counts
        with pytest.raises(InfeasibleScenarioError, match="too small"):
            required_screening(5000, 5e-324)
        assert required_screening(1, 2.0**-1000) == 2**1000

    def test_huge_target_over_s_is_an_inclusion_error(self):
        # 10**308 is a float, and 10**308 / 0.5 is inf
        with pytest.raises(InfeasibleScenarioError) as exc:
            required_screening(10**308, 0.5)
        assert str(exc.value) == (
            "inclusion probability 0.5 too small: admitting 1e+308 needs more "
            "attendees than a float can count")

    @pytest.mark.parametrize("n_target,digits", [
        (2**1024, 309), (10**309 - 1, 309), (10**309, 310), (10**400, 401),
        (10**5000, 5001)], ids=["2^1024", "10^309-1", "10^309", "10^400", "10^5000"])
    def test_target_past_a_float_is_named(self, n_target, digits):
        # blamed s = 1 and printed all 401 digits; past 4,300 digits the
        # message's own formatting raised a plain ValueError
        with pytest.raises(InfeasibleScenarioError) as exc:
            required_screening(n_target, 1.0)
        assert str(exc.value) == (
            f"n_target of {digits} digits is past the largest float")
        assert len(str(exc.value)) < 200


class TestForecast:
    def test_bundles_both_numbers(self):
        fc = forecast(
            ObservationRule.REGULAR, DEFAULT_PARAMS, 1.0, 0.6, 0.25, 5000
        )
        s = s_closed(ObservationRule.REGULAR, 1.0, 0.6, 0.25)
        assert fc.inclusion_probability == pytest.approx(s)
        assert fc.required_screened == required_screening(5000, s)

    @pytest.mark.parametrize("theta", [710.0, 800.0])
    def test_regular_cell_past_the_float_range_raises(self, theta):
        # at theta = 710 the inclusion probability is subnormal (about
        # 4e-309) and 5000 / s overflows; at 800 it is 0
        with pytest.raises(InfeasibleScenarioError):
            forecast(ObservationRule.REGULAR, DEFAULT_PARAMS, theta, 1.0, 1.0, 5000)

    @pytest.mark.parametrize(
        "r,c,message",
        [
            (1.5, 0.25, "r must lie in [0, 1], got 1.5"),
            (-0.2, 0.25, "r must lie in [0, 1], got -0.2"),
            (0.6, -1.0, "c must be nonnegative, got -1.0"),
            (0.6, math.nan, "c must be nonnegative, got nan"),
        ],
    )
    @pytest.mark.parametrize("rule", list(ObservationRule), ids=lambda r: r.value)
    def test_rejects_what_every_entry_point_rejects(self, rule, r, c, message):
        # the survey weight's one (r, c) check, with its messages; the
        # histogram takes no r, so it meets only the c rows
        process = TestingProcess(ExponentialInterTest(1.0), rule)
        calls = [
            lambda: forecast(rule, DEFAULT_PARAMS, 1.0, r, c, 5000),
            lambda: effective_mdri_closed(DEFAULT_ASSAY, 1.0, r, c, rule),
            lambda: analytic_bias(DEFAULT_ASSAY, 1.0, r, c, rule, DEFAULT_PARAMS),
            lambda: survey_composition(DEFAULT_ASSAY, process, r, c, DEFAULT_PARAMS),
            lambda: survey_law(DEFAULT_ASSAY, process, r, c, DEFAULT_PARAMS),
            lambda: build_grid(1, 1, rules=(rule,), theta=(1.0,), r=(r,), c=(c,)),
        ]
        if 0.0 <= r <= 1.0:
            calls.append(lambda: emit_histogram(
                rule, ExponentialInterTest(1.0), c, n_infected=10))
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_equals_the_count_law_on_the_main_grid(self):
        cells = build_grid(seed=1, replications=1)
        assert len(cells) == 160
        for cell in cells:
            process = cell.process
            fc = forecast(
                process.observation_rule, cell.params,
                process.inter_test_law.theta, cell.r, cell.c, cell.n_target,
            )
            assert fc.inclusion_probability == cell.count_law.inclusion, cell.label


class TestUniformScheduleMc:
    def test_zero_window_is_one(self):
        process = TestingProcess(
            UniformInterTest(0.0, 2.0), ObservationRule.STOP_WHEN_POSITIVE
        )
        mc = inclusion_probability_mc(
            process, DEFAULT_PARAMS, 1.0, 0.0, n_attendees=100_000, seed=3
        )
        assert mc == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "rule, a, b, r, c",
        [
            (ObservationRule.REGULAR, 0.0, 3.0, 0.0, 1.0),
            (ObservationRule.REGULAR, 1.0, 4.0, 0.6, 2.0),
            (ObservationRule.STOP_WHEN_POSITIVE, 0.0, 4.0, 0.6, 2.0),
            (ObservationRule.STOP_WHEN_POSITIVE, 0.5, 2.5, 0.3, 1.5),
        ],
    )
    def test_closed_form_matches_monte_carlo(self, rule, a, b, r, c):
        process = TestingProcess(UniformInterTest(a, b), rule)
        law = survey_law(DEFAULT_ASSAY, process, r, c, DEFAULT_PARAMS)
        mc = inclusion_probability_mc(
            process, DEFAULT_PARAMS, r, c, n_attendees=400_000, seed=5
        )
        assert mc == pytest.approx(law.inclusion, rel=0.02)
