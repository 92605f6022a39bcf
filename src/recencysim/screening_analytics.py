"""Closed-form survey inclusion probabilities and screening-effort forecasts.

For exponential test schedules the probability that an attendee passes the
testing-based criterion has a closed form under both observation rules; the
required number of attendees to fill a survey of size N is then N / s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import survey_weight_integral
from .population import PopulationParams, ScreeningPolicy, _sample_batch
from .testing_history import ObservationRule, TestingProcess


class InclusionProbabilityError(ValueError):
    """The closed form left (0, 1]; signals an invalid parameter combination."""


@dataclass(frozen=True)
class ScreeningForecast:
    inclusion_probability: float
    required_screened: int


def inclusion_probability(
    rule: ObservationRule,
    params: PopulationParams,
    theta: float,
    r: float,
    c: float,
) -> float:
    """P(pass the exclusion criterion | attends screening), closed form.

    Exponential inter-test times only.  Per surveyed-eligible negative
    (weight e^{-theta*c}) the positives contribute incidence * W_c, so

        s = e^{-theta*c} * (1 + incidence * W_c) / (1 + incidence * W_0)

    with W_c = survey_weight_integral(..., c, horizon); the denominator is
    the attendance probability normalized by q0*(1-p).  The window must not
    exceed the horizon.
    """
    if c > params.horizon:
        raise InclusionProbabilityError(
            f"exclusion window {c} exceeds the horizon {params.horizon}"
        )
    lam, horizon = params.incidence, params.horizon
    included = 1.0 + lam * survey_weight_integral(rule, theta, r, c, horizon)
    attending = 1.0 + lam * survey_weight_integral(rule, theta, r, 0.0, horizon)
    s = math.exp(-theta * c) * included / attending
    if not 0.0 < s <= 1.0 + 1e-12:
        raise InclusionProbabilityError(
            f"inclusion probability {s} outside (0, 1]; check parameters"
        )
    return min(s, 1.0)


def required_screening(n_target: int, s: float) -> int:
    """Attendees needed (ceiling of n_target / s) to admit n_target."""
    if n_target <= 0:
        raise ValueError("n_target must be positive")
    if not 0.0 < s <= 1.0:
        raise ValueError("inclusion probability must lie in (0, 1]")
    return math.ceil(n_target / s)


def forecast(
    rule: ObservationRule,
    params: PopulationParams,
    theta: float,
    r: float,
    c: float,
    n_target: int,
) -> ScreeningForecast:
    s = inclusion_probability(rule, params, theta, r, c)
    return ScreeningForecast(
        inclusion_probability=s, required_screened=required_screening(n_target, s)
    )


def inclusion_probability_mc(
    process: TestingProcess,
    params: PopulationParams,
    policy: ScreeningPolicy,
    n_attendees: int = 1_000_000,
    seed: int = 7,
) -> float:
    """Monte Carlo inclusion probability; the only route for uniform schedules.

    Stochastic: standard error is about sqrt(s*(1-s)/n_attendees).
    """
    rng = np.random.default_rng(seed)
    attended_total = 0
    included = 0
    batch = 65536
    while attended_total < n_attendees:
        d, u, t, aware, attended, eligible = _sample_batch(
            params, process, policy, rng, batch
        )
        attended_total += int(attended.sum())
        included += int((attended & eligible).sum())
    return included / attended_total


__all__ = [
    "ScreeningForecast",
    "InclusionProbabilityError",
    "inclusion_probability",
    "inclusion_probability_mc",
    "required_screening",
    "forecast",
]
