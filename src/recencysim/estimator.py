"""Cross-sectional incidence estimator, its log-variance, and effective MDRI.

The effective MDRI re-weights the test-recent curve by the probability that
an infected individual of a given duration survives both selective
attendance and the testing-based exclusion; its ratio to the plain MDRI
gives the asymptotic multiplicative bias of the incidence estimator.

For exponential (Poisson) test schedules every analytic quantity is an
integral of one survey weight

    w(u) = r * P(T <= u, T > c | U = u) + P(T > u, T > c | U = u),

integrated in closed form against 1 (`survey_weight_integral`) and against
the test-recent curve (`effective_mdri_closed`).  Numerical quadrature
(`effective_mdri_numeric`) is kept only as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .population import PopulationParams, SurveyCounts
from .recency_model import (
    RecencyAssay,
    curve_integral,
    discounted_curve_integral,
    mdri,
    phi,
)
from .testing_history import ExponentialInterTest, ObservationRule, TestingProcess


class UndefinedEstimateError(ValueError):
    """The estimator denominator is zero or negative."""


@dataclass(frozen=True)
class EstimatorInputs:
    counts: SurveyCounts
    mdri_hat: float
    frr_hat: float
    recency_cutoff: float

    def __post_init__(self):
        if self.mdri_hat <= self.frr_hat * self.recency_cutoff:
            raise UndefinedEstimateError(
                "mdri_hat must exceed frr_hat * recency_cutoff"
            )


def kassanjee_estimate(inp: EstimatorInputs) -> float:
    """Incidence estimate from survey counts and external assay estimates.

    (n_rec - n_pos*frr_hat) / (n_neg * (mdri_hat - frr_hat*T*)).  Negative
    values (possible when frr_hat > 0) are returned as-is.
    """
    c = inp.counts
    denom = c.n_neg * (inp.mdri_hat - inp.frr_hat * inp.recency_cutoff)
    if denom <= 0:
        raise UndefinedEstimateError("estimator denominator is not positive")
    return (c.n_rec - c.n_pos * inp.frr_hat) / denom


def log_variance(n_total: int, p_star: float, p_r: float) -> float:
    """Asymptotic variance of the log incidence estimate.

    p_star is the survey prevalence and p_r the probability a surveyed
    positive is classified recent.
    """
    if not 0.0 < p_star < 1.0:
        raise ValueError("p_star must lie strictly in (0, 1)")
    if not 0.0 < p_r <= 1.0:
        raise ValueError("p_r must lie in (0, 1]")
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    return (1.0 / n_total) * (1.0 / (p_r * p_star) + 1.0 / (1.0 - p_star))


def _check_effective_mdri_args(assay: RecencyAssay, theta: float, r: float, c: float):
    """Input checks shared by the closed form and the numeric oracle."""
    if assay.frr != 0.0:
        raise ValueError("effective MDRI is defined for zero-FRR assays only")
    _check_weight_args(theta, r, c)


def _check_weight_args(theta: float, r: float, c: float):
    """Checks on the arguments of the survey weight."""
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r!r}")
    if not c >= 0.0:
        raise ValueError(f"c must be nonnegative, got {c!r}")


def _exp_conditionals(rule: ObservationRule, theta: float, u: float, c: float):
    """(P(T<=u, T>c | U=u), P(T>u, T>c | U=u)) for exponential schedules."""
    if rule is ObservationRule.REGULAR:
        # T independent of U, T ~ Exponential(theta)
        below = max(0.0, math.exp(-theta * c) - math.exp(-theta * u)) if u > c else 0.0
        above = math.exp(-theta * max(u, c))
    else:
        # piecewise density: theta*e^{-theta(u-t)} on t<=u, theta*e^{-theta t} beyond
        below = 1.0 - math.exp(-theta * (u - c)) if u > c else 0.0
        above = math.exp(-theta * max(u, c))
    return below, above


def effective_mdri_numeric(
    assay: RecencyAssay,
    theta: float,
    r: float,
    c: float,
    rule: ObservationRule,
) -> float:
    """Effective MDRI by `scipy.integrate.quad` of its defining integral.

    The independent check on `effective_mdri_closed`, with the same
    arguments: exponential (Poisson) schedules, with the piecewise
    conditional laws of the most recent test time written out directly
    rather than through the closed-form kernel.
    """
    # imported here: scipy.integrate adds a quarter second to the CLI import
    from scipy import integrate

    _check_effective_mdri_args(assay, theta, r, c)
    tstar = assay.recency_cutoff

    def integrand(u):
        below, above = _exp_conditionals(rule, theta, u, c)
        return phi(u, assay) * (r * below + above)

    # split at the kink u = c
    total, _ = integrate.quad(
        integrand, 0.0, tstar, epsabs=1e-9, epsrel=1e-9, limit=200,
        points=[c] if 0.0 < c < tstar else None,
    )
    return total / math.exp(-theta * c)


def _weight_integral(rule, theta, r, c, x, integral, discounted):
    """int_0^x f(u) * w(u) du / e^{-theta*c} for a curve f, in closed form.

    `integral(y)` is int_0^y f and `discounted(y)` is
    int_c^y f(u) * e^{-theta*(u-c)} du.  Divided by e^{-theta*c}, the weight
    is 1 on u <= c and a + (1 - a) * e^{-theta*(u-c)} beyond, with a = r
    under the Regular rule and a = r*e^{theta*c} under Stop-When-Positive.
    """
    if c >= x:
        return integral(x)
    a = r if rule is ObservationRule.REGULAR else r * math.exp(theta * c)
    head = integral(c)
    return head + a * (integral(x) - head) + (1.0 - a) * discounted(x)


def survey_weight_integral(
    rule: ObservationRule, theta: float, r: float, c: float, horizon: float
) -> float:
    """W = int_0^horizon w(u) du / e^{-theta*c}: survey positives per surveyed
    negative, per unit incidence, over durations up to the horizon."""
    return _weight_integral(
        rule, theta, r, c, horizon,
        lambda y: y, lambda y: -math.expm1(-theta * (y - c)) / theta,
    )


def effective_mdri_closed(
    assay: RecencyAssay,
    theta: float,
    r: float,
    c: float,
    rule: ObservationRule,
) -> float:
    """Closed-form effective MDRI for exponential (Poisson) test schedules.

    R = int_0^{T*} phi(u) * w(u) du / e^{-theta*c}.  Equivalently,
    Regular rule:       MDRI - (1 - r) * K(c)
    Stop-When-Positive: MDRI - (1 - r*e^{theta*c}) * K(c)
    with K(c) = int_c^{T*} phi(u) * (1 - e^{theta*(c-u)}) du.  Exactly
    mdri(assay) when c >= T* or when r = 1 and c = 0.
    """
    _check_effective_mdri_args(assay, theta, r, c)
    return _recent_weight_integral(assay, theta, r, c, rule, assay.recency_cutoff)


def _recent_weight_integral(assay, theta, r, c, rule, x):
    """int_0^x Q(s, b*u) * w(u) du / e^{-theta*c}: the curve below the cutoff
    (x <= T*) weighted by the survey weight."""
    return _weight_integral(
        rule, theta, r, c, x,
        lambda y: curve_integral(assay, y),
        lambda y: discounted_curve_integral(assay, theta, y, start=c),
    )


def analytic_bias(
    assay: RecencyAssay,
    theta: float,
    r: float,
    c: float,
    rule: ObservationRule,
    params: PopulationParams,
) -> float:
    """Asymptotic bias of the incidence estimate when the plain MDRI is used.

    Equals incidence * (effective MDRI / MDRI - 1); exactly zero once the
    exclusion window reaches the recency cutoff, and with neither exclusion
    nor selective attendance (r = 1, c = 0).
    """
    omega = mdri(assay)
    omega_eff = effective_mdri_closed(assay, theta, r, c, rule)
    return params.incidence * (omega_eff / omega - 1.0)


def survey_composition(
    assay: RecencyAssay,
    process: TestingProcess,
    r: float,
    c: float,
    params: PopulationParams,
) -> Tuple[float, float]:
    """Analytic (p_star, p_r) of the assembled survey population.

    p_star is the survey prevalence and p_r the probability that a surveyed
    positive tests recent: the curve integrated up to min(T*, horizon), plus
    the false-recent rate over the durations from T* to the horizon,

        p_r = (R + frr * (W(horizon) - W(T*))) / W(horizon).

    Exponential schedules only; the attendance ratio r applies to aware
    positives.
    """
    law = process.inter_test_law
    if not isinstance(law, ExponentialInterTest):
        raise ValueError("closed survey composition requires exponential schedules")
    _check_weight_args(law.theta, r, c)
    rule, theta, horizon = process.observation_rule, law.theta, params.horizon
    cutoff = min(assay.recency_cutoff, horizon)
    weight = survey_weight_integral(rule, theta, r, c, horizon)
    recent = _recent_weight_integral(assay, theta, r, c, rule, cutoff)
    if assay.frr:
        recent += assay.frr * (
            weight - survey_weight_integral(rule, theta, r, c, cutoff)
        )
    pos_per_neg = params.incidence * weight
    return pos_per_neg / (pos_per_neg + 1.0), recent / weight
