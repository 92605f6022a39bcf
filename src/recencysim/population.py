"""The population, the screening policy, and a survey's counts.

Under constant incidence and prevalence the infection-duration density among
positives is flat at lambda*(1-p)/p, so durations are Uniform(0, tau) with
tau = p / (lambda*(1-p)).  Screening attendance depends on status awareness
(probabilities q0/q1) and the testing-based criterion excludes anyone whose
most recent test falls within the last c years.  A survey is drawn at the
level of its counts (`screening_analytics.survey_law`).
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
    def max_duration(self) -> float:
        """Support bound tau of the infection duration among positives,
        computed once per parameter set."""
        return self.prevalence / (self.incidence * (1.0 - self.prevalence))

    @functools.cached_property
    def horizon(self) -> float:
        """Equivalence horizon t*; set to the full duration support."""
        return self.max_duration


DEFAULT_PARAMS = PopulationParams(incidence=0.032, prevalence=0.29)


@dataclass(frozen=True)
class ScreeningPolicy:
    """Attendance probabilities by awareness plus the exclusion window c."""

    q0: float = 1.0
    q1: float = 1.0
    exclusion_window: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.q0 <= 1.0:
            raise ValueError("q0 must lie in (0, 1]")
        if not 0.0 <= self.q1 <= self.q0:
            raise ValueError(f"need 0 <= q1 <= q0, got q1={self.q1!r}, q0={self.q0!r}")
        if not self.exclusion_window >= 0:
            raise ValueError(
                f"exclusion window must be nonnegative, got {self.exclusion_window!r}"
            )

    @property
    def attendance_ratio(self) -> float:
        return self.q1 / self.q0


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
