"""Closed-form survey inclusion probabilities, screening-effort forecasts,
and the count-level law of a survey.

The probability s that an attendee passes the testing-based criterion has a
closed form under both observation rules and for either inter-test law; the
required number of attendees to fill a survey of size N is then N / s.
Admitted attendees are iid, so a whole survey's counts follow one
multinomial and one negative binomial law (`survey_law`).  The law also
carries the cell's analytic bias and the delta-method variance of the log
estimate, from the same kernel terms: W_c, W_0, R and, with a false-recent
rate, W_x, each evaluated once per cell from `estimator._weight`: an
exponential cell's as one closed-form expression each, with no piece list,
and a uniform cell's by walking two piece lists, R and W_x on W_c's own
pieces.  The inclusion rule, admission over attendance, is written once
(`_inclusion`) for the count law and the forecast.  Every window c >= 0 is
valid, also past the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import population
from .estimator import (_check_weight_args, _composition, _exponential_integral,
                        _weight, log_variance)
from .population import InfeasibleScenarioError, PopulationParams, SurveyCounts
from .recency_model import RecencyAssay
from .testing_history import ObservationRule, TestingProcess, _check_theta


@dataclass(frozen=True)
class ScreeningForecast:
    inclusion_probability: float
    required_screened: int


def _inclusion(params, weight, w0):
    """(s, admit): the inclusion probability s = P(admitted | attends) and
    the probability that one draw from the population is admitted.

    Per draw, over 1 - p, admitted = P(T > c) + incidence * W_c and
    attending = 1 + incidence * W_0, with `weight` = (scale, negatives, W_c)
    of the survey weight at window c over the horizon and W_0 = `w0` the
    same at c = 0; s = admitted / attending, at most 1.  At c == 0 the
    callers pass W_c itself: the same arguments, so the same float,
    evaluated once.  Valid for every c >= 0.
    """
    lam = params.incidence
    scale, negatives, total = weight
    admitted = scale * (negatives + lam * total)
    return min(admitted / (1.0 + lam * w0), 1.0), (1.0 - params.prevalence) * admitted


@dataclass(frozen=True)
class SurveyLaw:
    """Count-level law of one survey.

    `p_star` is the survey prevalence and `p_r` the probability that a
    surveyed positive tests recent (`survey_composition`).  `inclusion` is
    s = P(admitted | attends) and `admit` the probability that one draw
    from the population is admitted.  `frr` is the false-recent rate the
    estimate subtracts, and `analytic_bias` the estimate's limit at the
    law's expected counts less the incidence; nan where the estimator is
    undefined (no surveyed negative, p_star rounding to 1 included, or
    MDRI <= frr*T*).
    """

    p_star: float
    p_r: float
    inclusion: float
    admit: float
    frr: float
    analytic_bias: float

    def analytic_variance(self, n_total: int) -> float:
        """Delta-method variance of the log estimate over surveys of
        n_total (`log_variance`); nan where the estimator is undefined, its
        limit is not positive, or p_star (e.g. rounded to 1) or p_r leaves
        `log_variance`'s domain."""
        if math.isnan(self.analytic_bias) or not (
                0.0 < self.p_star < 1.0 and 0.0 < self.p_r <= 1.0):
            return math.nan
        return log_variance(n_total, self.p_star, self.p_r, self.frr)

    @property
    def composition(self) -> Tuple[float, float, float]:
        """Law of one admitted attendee: (recent positive, other positive,
        negative)."""
        p_star, p_r = self.p_star, self.p_r
        return p_star * p_r, p_star * (1.0 - p_r), 1.0 - p_star

    def check(self, n_target: int) -> None:
        """A ValueError for n_target <= 0, and InfeasibleScenarioError when
        the expected population draws to admit n_target, n_target / admit,
        exceed population.ATTEMPT_CAP; else None: the survey can be drawn."""
        if n_target <= 0:
            raise ValueError("n_target must be positive")
        if n_target > self.admit * population.ATTEMPT_CAP:
            raise InfeasibleScenarioError(
                f"expected draws to fill {n_target} places exceed "
                f"{population.ATTEMPT_CAP} (admit probability {self.admit:.3g} "
                "per draw)"
            )

    def draw(
        self,
        n_target: int,
        size: int,
        rngs: Tuple[np.random.Generator, np.random.Generator],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw draws of `size` surveys of n_target admitted attendees each:
        rows (size, 3), row i survey i's (n_rec, n_pos - n_rec, n_neg) from
        rngs[0]'s i-th multinomial draw, and the attendees each screened
        beyond n_target, rngs[1]'s negative binomial draws; so the first k
        surveys are the same for every size >= k.  Raises `check`'s errors
        first, for a survey that cannot be drawn.
        """
        self.check(n_target)
        return (rngs[0].multinomial(n_target, self.composition, size=size),
                rngs[1].negative_binomial(n_target, self.inclusion, size=size))

    @staticmethod
    def counts(rows: np.ndarray, n_target, extra: np.ndarray) -> SurveyCounts:
        """The `SurveyCounts` of `draw`'s raw draws, one cell's or a block's
        stacked (cells, size, 3) rows: n_pos = n_rec + the other positives,
        and n_screened = n_target (an int, or a (cells, 1) column) + extra."""
        n_rec, n_other, n_neg = np.moveaxis(rows, -1, 0)
        return SurveyCounts(n_rec + n_other, n_neg, n_rec, n_target + extra)


def survey_law(
    assay: RecencyAssay,
    process: TestingProcess,
    r: float,
    c: float,
    params: PopulationParams,
) -> SurveyLaw:
    """The closed-form count law of a survey.

    Either inter-test law, every rule, attendance ratio r in [0, 1], window
    c >= 0 (also past the horizon) and false-recent rate; the arguments of
    `survey_composition`, with its (r, c) check.  Evaluates the kernel once
    per term: W_c, R, W_x when frr > 0, and W_0 at c > 0 (at c = 0, W_0 is
    W_c), each from `_weight`.  An exponential cell's terms are one
    expression each; a uniform cell walks two piece lists, W_c's, up to
    min(T*, horizon) for R and W_x, and at c > 0 W_0's.  The kernel and
    `_composition` raise InfeasibleScenarioError, unconverted, when the
    exponential kernel cannot represent the cell (theta*c too large) or
    when no draw can be admitted.
    """
    _check_weight_args(r, c)
    tau = params.horizon
    weight, p_star, p_r, bias = _composition(assay, process, r, c, params)
    w0 = weight[2] if c == 0.0 else _weight(process, r, 0.0, tau)[2](tau)
    inclusion, admit = _inclusion(params, weight, w0)
    return SurveyLaw(
        p_star=p_star,
        p_r=p_r,
        inclusion=inclusion,
        admit=admit,
        frr=assay.frr,
        analytic_bias=bias,
    )


def required_screening(n_target: int, s: float) -> int:
    """Attendees needed (ceiling of n_target / s) to admit n_target.

    A subnormal `s` can put n_target / s past the largest float; such a
    cell admits too few to count, an InfeasibleScenarioError as for s = 0.
    """
    if n_target <= 0:
        raise ValueError("n_target must be positive")
    if not 0.0 < s <= 1.0:
        raise ValueError("inclusion probability must lie in (0, 1]")
    needed = n_target / s
    if needed == math.inf:
        raise InfeasibleScenarioError(
            f"inclusion probability {s} too small: admitting {n_target} needs "
            "more attendees than a float can count"
        )
    return math.ceil(needed)


def forecast(
    rule: ObservationRule,
    params: PopulationParams,
    theta: float,
    r: float,
    c: float,
    n_target: int,
) -> ScreeningForecast:
    """The inclusion probability s = P(admitted | attends) of exponential
    (Poisson) schedules, by the count law's rule (`_inclusion`) from W_c
    and W_0 in closed form (`_exponential_integral`), and the
    attendees needed to admit n_target (`required_screening`).  theta and
    (r, c) get the checks of every entry point.  Raises
    InfeasibleScenarioError where s is 0 or n_target / s overflows.
    """
    _check_theta(theta)
    _check_weight_args(r, c)
    tau = params.horizon
    total = _exponential_integral(rule, theta, r, c, tau)
    w0 = total if c == 0.0 else _exponential_integral(rule, theta, r, 0.0, tau)
    s = _inclusion(params, (math.exp(-theta * c), 1.0, total), w0)[0]
    if not s > 0.0:
        raise InfeasibleScenarioError(
            f"inclusion probability {s} outside (0, 1]; check parameters"
        )
    return ScreeningForecast(
        inclusion_probability=s, required_screened=required_screening(n_target, s)
    )


__all__ = [
    "ScreeningForecast",
    "SurveyLaw",
    "survey_law",
    "required_screening",
    "forecast",
]
