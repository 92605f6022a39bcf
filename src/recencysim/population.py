"""The population and a survey's counts.

Under constant incidence and prevalence the infection-duration density among
positives is flat at lambda*(1-p)/p, so durations are Uniform(0, tau) with
tau = p / (lambda*(1-p)).  Status-aware positives attend screening at r times
the rate of everyone else, and the testing-based criterion excludes anyone
whose most recent test falls within the last c years; a cell's policy is
those two numbers, (r, c).  A survey is drawn at the level of its counts
(`screening_analytics.survey_law`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: Population draws a survey may need on average before it is infeasible.
ATTEMPT_CAP = 100_000_000


class InfeasibleScenarioError(ValueError):
    """The one error of every entry point for a cell it cannot compute: no
    draw can be admitted, the expected number of population draws exceeds
    ATTEMPT_CAP, or e^{theta*c} or n_target / s overflows a float."""


@dataclass(frozen=True)
class PopulationParams:
    incidence: float
    prevalence: float

    def __post_init__(self):
        if self.incidence <= 0:
            raise ValueError("incidence must be positive")
        if not 0.0 < self.prevalence < 1.0:
            raise ValueError("prevalence must lie in (0, 1)")

    @functools.cached_property
    def horizon(self) -> float:
        """Support bound tau of the infection duration among positives, the
        horizon of every survey weight; computed once per parameter set."""
        return self.prevalence / (self.incidence * (1.0 - self.prevalence))


DEFAULT_PARAMS = PopulationParams(incidence=0.032, prevalence=0.29)


@dataclass(frozen=True)
class SurveyCounts:
    """Counts of surveys: integer arrays with one entry per survey (or
    plain ints for a single survey)."""

    n_pos: np.ndarray
    n_neg: np.ndarray
    n_rec: np.ndarray
    n_screened: np.ndarray

    def __post_init__(self):
        if np.greater(self.n_rec, self.n_pos).any():
            raise ValueError("n_rec cannot exceed n_pos")

    @property
    def n_total(self):
        """Survey size: every admitted attendee is positive or negative."""
        return self.n_pos + self.n_neg
