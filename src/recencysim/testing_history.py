"""The HIV test schedule: inter-test laws and observation rules.

The test schedule is a stationary renewal process; the time since the last
test at the survey instant follows its limiting residual-life law, whose
CDF a uniform law builds in pieces once
(`UniformInterTest.residual_cdf_pieces`).  Two observation rules are
supported: Regular (all tests observed) and Stop-When-Positive (testing
stops at the first post-infection test).  The analytic layer integrates
these laws in closed form; the person-level sampler that draws them, and
the residual CDF it is checked against, live with the tests, as the
reference engine (tests/reference_sampler.py).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Union


class ObservationRule(enum.Enum):
    REGULAR = "regular"
    STOP_WHEN_POSITIVE = "swp"


def _check_theta(theta: float):
    """The theta check of the exponential law and of every entry point that
    takes theta as a number."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")


@dataclass(frozen=True)
class ExponentialInterTest:
    """Exponential inter-test times with rate theta (tests/year)."""

    theta: float

    def __post_init__(self):
        _check_theta(self.theta)


@dataclass(frozen=True)
class UniformInterTest:
    """Uniform[a, b] inter-test times (years)."""

    a: float
    b: float

    def __post_init__(self):
        if not 0 <= self.a < self.b:
            raise ValueError(f"need 0 <= a < b, got a={self.a!r}, b={self.b!r}")
        if not math.isfinite(self.b):
            raise ValueError(f"b must be finite, got {self.b!r}")
        m = self.b * self.b - self.a * self.a
        if not (m > 0 and math.isfinite(1.0 / m)):  # the CDF's coefficients
            raise ValueError(f"1/(b^2 - a^2) is not finite at a={self.a!r}, b={self.b!r}")

    @functools.cached_property
    def residual_cdf_pieces(self):
        """The quadratic pieces of the stationary residual CDF, built once
        per law: from the i-th knee of (0, a, b) up to the next, F(x) = k0 +
        k1*x + k2*x^2 with (k0, k1, k2) the i-th piece.  That is x/mu below
        a, 1 - (b - x)^2 / (b^2 - a^2) up to b, and 1 beyond.
        """
        a, b = self.a, self.b
        m = b * b - a * a
        return ((0.0, 2.0 / (a + b), 0.0), (-a * a / m, 2.0 * b / m, -1.0 / m),
                (1.0, 0.0, 0.0))


InterTestLaw = Union[ExponentialInterTest, UniformInterTest]


@dataclass(frozen=True)
class TestingProcess:
    inter_test_law: InterTestLaw
    observation_rule: ObservationRule = ObservationRule.REGULAR
