"""The person-level sampler: the reference engine for the closed forms.

The package draws a survey's counts from its closed-form law
(`screening_analytics.survey_law`) and the histogram's cells from the
survey-weight kernel (`harness.emit_histogram`).  This module builds
people one by one instead, from the model's primitives: prevalence, a
Uniform(0, tau) infection duration, the time since the most recent test
under the stationary residual-life law (`sample_residual`, whose CDF is
`residual_cdf`), the Stop-When-Positive correction of that time
(`observe_most_recent_many`), awareness-dependent attendance and the
exclusion window.  The tests compare
the two engines; nothing in the package imports this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from recencysim import population
from recencysim.population import (
    InfeasibleScenarioError,
    PopulationParams,
    SurveyCounts,
)
from recencysim.recency_model import RecencyAssay, phi
from recencysim.testing_history import (
    ExponentialInterTest,
    InterTestLaw,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
)

_BATCH = 8192


def residual_cdf(x: float, law: InterTestLaw) -> float:
    """CDF of the stationary residual life: (1/mu) * int_0^x (1-F(y)) dy."""
    x = max(x, 0.0)
    if isinstance(law, ExponentialInterTest):
        return 1.0 - math.exp(-law.theta * x)
    piece = 2 if x >= law.b else 1 if x >= law.a else 0
    k0, k1, k2 = law.residual_cdf_pieces[piece]
    return k0 + x * (k1 + x * k2)


def _residual_from_uniform01(e, law: UniformInterTest):
    """Inverse-transform the residual-life CDF of a Uniform[a, b] renewal law."""
    a, b = law.a, law.b
    e = np.asarray(e, dtype=float)
    knee = 2.0 * a / (a + b)
    low = 0.5 * (a + b) * e
    high = b - np.sqrt(np.clip((b * b - a * a) * (1.0 - e), 0.0, None))
    return np.where(e < knee, low, high)


def sample_residual(
    process: TestingProcess, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw `size` times since the most recent test from the stationary law.

    The observation rule is irrelevant here: this is the Regular-rule time,
    which is also the starting point of the Stop-When-Positive correction.
    """
    law = process.inter_test_law
    if isinstance(law, ExponentialInterTest):
        return rng.exponential(1.0 / law.theta, size=size)
    return _residual_from_uniform01(rng.uniform(size=size), law)


def observe_most_recent_many(
    residual_id: np.ndarray,
    u: np.ndarray,
    infected: np.ndarray,
    process: TestingProcess,
    rng: np.random.Generator,
) -> np.ndarray:
    """Time since the most recent *observed* test, over a batch.

    residual_id is the Regular-rule time since last test and u the infection
    duration, only read where `infected` is True.  Under the Regular rule,
    for uninfected individuals, or whenever the last scheduled test predates
    infection (residual_id >= u), the value is returned unchanged.  Under
    Stop-When-Positive with residual_id < u, the schedule is extended
    backwards in survey time and the last test time T not exceeding u is
    returned: that test is the first one after infection in calendar order,
    so testing stopped there, and residual_id <= T <= u.

    Exponential gaps take one exact draw per active individual: the times
    since the earlier tests form a Poisson(theta) process beyond
    residual_id, so T = max(residual_id, u - E) with E ~ Exp(theta).  This
    includes the atom T = residual_id, of probability
    exp(-theta * (u - residual_id)).  Uniform gaps are walked gap by gap, in
    rounds over the still-active individuals.  Both routes are deterministic
    for a given generator state.
    """
    t = np.array(residual_id, dtype=float, copy=True)
    if process.observation_rule is ObservationRule.REGULAR:
        return t
    active = np.flatnonzero(infected & (t < np.where(infected, u, -np.inf)))
    law = process.inter_test_law
    if isinstance(law, ExponentialInterTest):
        back = rng.exponential(1.0 / law.theta, active.size)
        t[active] = np.maximum(t[active], u[active] - back)
        return t
    while active.size:
        gaps = rng.uniform(law.a, law.b, active.size)
        done = t[active] + gaps > u[active]
        keep = ~done
        t[active[keep]] += gaps[keep]
        active = active[keep]
    return t


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
            n_pos=n_pos,
            n_neg=n_total - n_pos,
            n_rec=int(self.recent.sum()),
            n_screened=self.n_screened,
        )


def _sample_batch(params, process, r, c, rng, size):
    """One batch of the population: status-aware positives attend with
    probability r, everyone else always; eligible means the most recent test
    lies more than c years back."""
    d = rng.random(size) < params.prevalence
    u = rng.uniform(0.0, params.horizon, size=size)
    u = np.where(d, u, np.nan)
    residual = sample_residual(process, rng, size=size)
    t = observe_most_recent_many(residual, u, d, process, rng)
    aware = d & (u >= t)
    q = np.where(aware, r, 1.0)
    attended = rng.random(size) < q
    eligible = t > c
    return d, u, t, aware, attended, eligible


def assemble_survey_rows(
    params: PopulationParams,
    process: TestingProcess,
    r: float,
    c: float,
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
    InfeasibleScenarioError once population.ATTEMPT_CAP individuals have
    been drawn without filling the survey.
    """
    if n_target <= 0:
        raise ValueError("n_target must be positive")
    parts = []
    admitted_so_far = 0
    n_screened = 0
    sampled = 0
    while admitted_so_far < n_target:
        if sampled >= population.ATTEMPT_CAP:
            raise InfeasibleScenarioError(
                f"sampled {sampled} individuals without filling the survey"
            )
        d, u, t, aware, attended, eligible = _sample_batch(
            params, process, r, c, rng, _BATCH
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


def inclusion_probability_mc(
    process: TestingProcess,
    params: PopulationParams,
    r: float,
    c: float,
    n_attendees: int = 1_000_000,
    seed: int = 7,
) -> float:
    """Monte Carlo inclusion probability: the fraction of attendees admitted.

    Stochastic: standard error is about sqrt(s*(1-s)/n_attendees).
    """
    rng = np.random.default_rng(seed)
    attended_total = 0
    included = 0
    batch = 65536
    while attended_total < n_attendees:
        d, u, t, aware, attended, eligible = _sample_batch(
            params, process, r, c, rng, batch
        )
        attended_total += int(attended.sum())
        included += int((attended & eligible).sum())
    return included / attended_total
