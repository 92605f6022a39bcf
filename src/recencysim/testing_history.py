"""Sampling of the time since the most recent HIV test.

The test schedule is a stationary renewal process; the time since the last
test at the survey instant is drawn from the limiting residual-life law.
Two observation rules are supported: Regular (all tests observed) and
Stop-When-Positive (testing stops at the first post-infection test).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np


class ObservationRule(enum.Enum):
    REGULAR = "regular"
    STOP_WHEN_POSITIVE = "swp"


@dataclass(frozen=True)
class ExponentialInterTest:
    """Exponential inter-test times with rate theta (tests/year)."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta!r}")


@dataclass(frozen=True)
class UniformInterTest:
    """Uniform[a, b] inter-test times (years)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0 or self.b <= self.a:
            raise ValueError(f"need 0 <= a < b, got a={self.a!r}, b={self.b!r}")


InterTestLaw = Union[ExponentialInterTest, UniformInterTest]


@dataclass(frozen=True)
class TestingProcess:
    inter_test_law: InterTestLaw
    observation_rule: ObservationRule = ObservationRule.REGULAR


def uniform_cdf_pieces(law: UniformInterTest):
    """Knees and quadratic pieces of the stationary residual CDF of a
    Uniform[a, b] law.

    Returns (knees, coefs) with knees = (0, a, b): from knees[i] up to the
    next knee, F(x) = k0 + k1*x + k2*x^2 with (k0, k1, k2) = coefs[i].
    That is x/mu below a, 1 - (b - x)^2 / (b^2 - a^2) up to b, and 1 beyond.
    """
    a, b = law.a, law.b
    m = b * b - a * a
    knees = (0.0, a, b)
    coefs = ((0.0, 2.0 / (a + b), 0.0), (-a * a / m, 2.0 * b / m, -1.0 / m),
             (1.0, 0.0, 0.0))
    return knees, coefs


def uniform_cdf_piece(x: float, law: UniformInterTest):
    """Coefficients (k0, k1, k2) of the piece of F that holds x >= 0."""
    _, coefs = uniform_cdf_pieces(law)
    return coefs[2 if x >= law.b else 1 if x >= law.a else 0]


def residual_cdf(x, law: InterTestLaw):
    """CDF of the stationary residual life: (1/mu) * int_0^x (1-F(y)) dy.

    A float x under a uniform law stays in Python floats (the analytic
    layer's path); arrays, and exponential laws, go through numpy.
    """
    if isinstance(law, UniformInterTest) and isinstance(x, (int, float)):
        x = max(x, 0.0)
        k0, k1, k2 = uniform_cdf_piece(x, law)
        return k0 + x * (k1 + x * k2)
    x_arr = np.asarray(x, dtype=float)
    if isinstance(law, ExponentialInterTest):
        out = 1.0 - np.exp(-law.theta * np.clip(x_arr, 0.0, None))
    else:
        xc = np.clip(x_arr, 0.0, None)
        knees, coefs = uniform_cdf_pieces(law)
        k = np.array(coefs)[np.searchsorted(knees, xc, side="right") - 1]
        out = k[..., 0] + xc * (k[..., 1] + xc * k[..., 2])
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


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

