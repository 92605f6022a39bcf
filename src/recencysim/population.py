"""General-population sampling, selective attendance, and survey assembly.

Under constant incidence and prevalence the infection-duration density among
positives is flat at lambda*(1-p)/p, so durations are Uniform(0, tau) with
tau = p / (lambda*(1-p)).  Screening attendance depends on status awareness
(probabilities q0/q1) and the testing-based criterion excludes anyone whose
most recent test falls within the last c years.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .recency_model import RecencyAssay, phi
from .testing_history import (
    ObservationRule,
    TestingProcess,
    observe_most_recent_many,
    sample_residual,
)

ATTEMPT_CAP = 100_000_000
_BATCH = 8192


class InfeasibleScenarioError(RuntimeError):
    """Survey assembly hit the attempt cap without filling the target size."""


@dataclass(frozen=True)
class PopulationParams:
    incidence: float
    prevalence: float

    def __post_init__(self):
        if self.incidence <= 0:
            raise ValueError("incidence must be positive")
        if not 0.0 < self.prevalence < 1.0:
            raise ValueError("prevalence must lie in (0, 1)")

    @property
    def max_duration(self) -> float:
        """Support bound tau of the infection duration among positives."""
        return self.prevalence / (self.incidence * (1.0 - self.prevalence))

    @property
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
    n_total: int
    n_pos: int
    n_neg: int
    n_rec: int
    n_screened: int

    def __post_init__(self):
        if self.n_pos + self.n_neg != self.n_total:
            raise ValueError("n_pos + n_neg must equal n_total")
        if self.n_rec > self.n_pos:
            raise ValueError("n_rec cannot exceed n_pos")


@dataclass
class SurveyRows:
    """Per-individual arrays for the admitted survey members (in order)."""

    d: np.ndarray
    u: np.ndarray  # nan for negatives
    t_since_test: np.ndarray
    aware: np.ndarray
    recent: np.ndarray  # False for negatives
    n_screened: int

    def counts(self) -> SurveyCounts:
        n_total = int(self.d.size)
        n_pos = int(self.d.sum())
        return SurveyCounts(
            n_total=n_total,
            n_pos=n_pos,
            n_neg=n_total - n_pos,
            n_rec=int(self.recent.sum()),
            n_screened=self.n_screened,
        )


def _sample_batch(params, process, policy, rng, size):
    d = rng.random(size) < params.prevalence
    u = rng.uniform(0.0, params.max_duration, size=size)
    u = np.where(d, u, np.nan)
    residual = sample_residual(process, rng, size=size)
    t = observe_most_recent_many(residual, u, d, process, rng)
    aware = d & (u >= t)
    q = np.where(aware, policy.q1, policy.q0)
    attended = rng.random(size) < q
    eligible = t > policy.exclusion_window
    return d, u, t, aware, attended, eligible


def assemble_survey_rows(
    params: PopulationParams,
    process: TestingProcess,
    policy: ScreeningPolicy,
    assay: RecencyAssay,
    n_target: int,
    rng: np.random.Generator,
) -> SurveyRows:
    """Sample the population until n_target eligible attendees are admitted.

    Individuals are processed in draw order; n_screened counts attendees
    (attended=1) evaluated against the criterion up to and including the one
    completing the survey.  Recency tests run on every admitted positive.
    Batched sampling with a fixed batch size keeps the draw sequence, and
    hence the result, deterministic for a given generator.  Raises
    InfeasibleScenarioError once ATTEMPT_CAP individuals have been drawn
    without filling the survey.
    """
    if n_target <= 0:
        raise ValueError("n_target must be positive")
    parts = []
    admitted_so_far = 0
    n_screened = 0
    sampled = 0
    while admitted_so_far < n_target:
        if sampled >= ATTEMPT_CAP:
            raise InfeasibleScenarioError(
                f"sampled {sampled} individuals without filling the survey"
            )
        d, u, t, aware, attended, eligible = _sample_batch(
            params, process, policy, rng, _BATCH
        )
        sampled += _BATCH
        admitted = attended & eligible
        cum = np.cumsum(admitted)
        need = n_target - admitted_so_far
        if cum[-1] >= need:
            stop = int(np.searchsorted(cum, need))  # index of the completing draw
            sel = slice(0, stop + 1)
        else:
            sel = slice(None)
        keep = admitted[sel]
        n_screened += int(attended[sel].sum())
        admitted_so_far += int(keep.sum())
        parts.append((d[sel][keep], u[sel][keep], t[sel][keep], aware[sel][keep]))

    d = np.concatenate([p[0] for p in parts])
    u = np.concatenate([p[1] for p in parts])
    t = np.concatenate([p[2] for p in parts])
    aware = np.concatenate([p[3] for p in parts])
    recent = np.zeros(d.size, dtype=bool)
    pos = np.flatnonzero(d)
    if pos.size:
        recent[pos] = rng.random(pos.size) < phi(u[pos], assay)
    return SurveyRows(
        d=d, u=u, t_since_test=t, aware=aware, recent=recent, n_screened=n_screened
    )

