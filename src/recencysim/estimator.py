"""Cross-sectional incidence estimator, its log-variance, and effective MDRI.

The effective MDRI re-weights the test-recent curve by the probability that
an infected individual of a given duration survives both selective
attendance and the testing-based exclusion; its ratio to the plain MDRI
gives the asymptotic multiplicative bias of the incidence estimator.

Every analytic quantity is an integral of one survey weight

    w(u) = r * P(T <= u, T > c | U = u) + P(T > u, T > c | U = u),

integrated in closed form against 1 and against the test-recent curve.
With F the stationary residual CDF of the test schedule, P(c < T <= u | u)
is F(u) - F(c) under the Regular rule and F(u - c) under
Stop-When-Positive, and P(T > u, T > c | u) = 1 - F(max(u, c)).  For
exponential (Poisson) schedules w / e^{-theta*c} is 1 up to c and
a + (1 - a)*e^{-theta*(u-c)} beyond, so each integral is one two-piece
expression (`_exponential_integral`), evaluating each edge's incomplete
gammas once; every exponential entry point calls it.  For uniform ones w
is a quadratic in u between knees (`_uniform_pieces`), and one integrator
(`_integrate`) walks those pieces against either curve, up to any point.
`_weight` is the one reader of the inter-test law: it returns a cell's
scale, its negatives' weight and its integral from 0 to any x.  The package
integrates nothing numerically: quadrature of the defining integrals is the
tests' independent oracle.

A cell's terms are W_c (the weight over the duration support, with the
scale and the negatives' weight P(T > c)), R (the curve up to
min(T*, support) against the weight) and, with a false-recent rate, W_x
(the weight up to the same point).  From them come the survey composition
(p_star, p_r) and the estimator's limit, so its bias, written once
(`_limit_bias`); `_composition` is the one place that evaluates them, all
three from one `_weight`: a uniform cell's on one piece list.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import pairwise
from typing import Tuple

import numpy as np

from .population import InfeasibleScenarioError, PopulationParams, SurveyCounts
from .recency_model import RecencyAssay, _upper_gamma, curve_moment, mdri
from .testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
    _check_theta,
)


def kassanjee_estimate(
    counts: SurveyCounts,
    mdri_hat: float | np.ndarray,
    frr_hat: float | np.ndarray,
    recency_cutoff: float | np.ndarray,
) -> np.ndarray:
    """Incidence estimates from survey counts and external assay estimates.

    The assay values are floats, or arrays that broadcast against the
    counts (as the harness passes them: (cells, 1) columns against a
    block's (cells, surveys) counts).  Elementwise, (n_rec - n_pos*frr_hat)
    / (n_neg * (mdri_hat - frr_hat*T*)), in that order of operations, so
    each entry is the scalar formula's value bit for bit.  Negative values
    (possible when frr_hat > 0) are returned as-is.  Where the denominator
    is not positive (no surveyed negative, or mdri_hat <= frr_hat*T*) the
    estimate is undefined and reads nan.
    """
    denom = np.multiply(counts.n_neg, mdri_hat - frr_hat * recency_cutoff)
    # x / nan is nan, without a division-by-zero warning
    return (counts.n_rec - np.multiply(counts.n_pos, frr_hat)) / np.where(
        denom > 0, denom, np.nan
    )


def log_variance(n_total: int, p_star: float, p_r: float, frr: float = 0.0) -> float:
    """Asymptotic variance of the log incidence estimate.

    p_star is the survey prevalence, p_r the probability a surveyed positive
    is classified recent and frr the false-recent rate the estimate
    subtracts.  With (p1, p2, p3) = (p_star*p_r, p_star*(1 - p_r),
    1 - p_star) the law of one surveyed person, the delta method under the
    multinomial gives

        (1/N) * (((1 - frr)^2 * p1 + frr^2 * p2) / g^2 + 1/p3),
        g = (1 - frr) * p1 - frr * p2,

    which is (1/N) * (1/(p_r*p_star) + 1/(1 - p_star)) at frr = 0, the
    same float.  nan where g <= 0: the estimate's limit is not positive,
    so its log has no variance.
    """
    if not 0.0 < p_star < 1.0:
        raise ValueError("p_star must lie strictly in (0, 1)")
    if not 0.0 < p_r <= 1.0:
        raise ValueError("p_r must lie in (0, 1]")
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    recent, other = p_star * p_r, p_star * (1.0 - p_r)
    g = (1.0 - frr) * recent - frr * other
    if not g > 0.0:
        return math.nan
    # x / g / g, not x / g**2: at frr = 0 x is g, and (g / g) / g is 1 / g
    spread = ((1.0 - frr) ** 2 * recent + frr * frr * other) / g / g
    return (1.0 / n_total) * (spread + 1.0 / (1.0 - p_star))


def _check_effective_mdri_args(assay: RecencyAssay, theta: float, r: float, c: float):
    """The input checks of `effective_mdri_closed` and `analytic_bias`."""
    if assay.frr != 0.0:
        raise ValueError("effective MDRI is defined for zero-FRR assays only")
    _check_theta(theta)
    _check_weight_args(r, c)


def _check_weight_args(r: float, c: float):
    """The (r, c) check of every public analytic entry point."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r!r}")
    if not c >= 0.0:
        raise ValueError(f"c must be nonnegative, got {c!r}")


def _growth(theta: float, c: float) -> float:
    """e^{theta*c}; inf where it overflows, which `_exponential_integral`
    then rejects."""
    try:
        return math.exp(theta * c)
    except OverflowError:
        return math.inf


def _past_range(theta, c):
    """The error of a cell whose scaled weight needs e^{theta*c} = inf."""
    return InfeasibleScenarioError(
        f"theta*c = {theta * c:g} is past the range of the scaled survey "
        "weight (e^(theta*c) overflows a float)"
    )


def _uniform_pieces(law: UniformInterTest, rule, r, c, x):
    """(scale, negatives, pieces) of the weight up to x for a uniform
    inter-test law: scale 1 and negatives P(T > c) = 1 - F(c).

    Between consecutive knees of F(u), of F(u - c) and the window c, F is one
    quadratic piece (the one whose knees bracket the midpoint), so w is a
    quadratic in u there: a piece is (lo, hi, (k0, k1, k2)), w = k0 + k1*u +
    k2*u^2.  F's pieces, F(c)'s too, are read from the law, which builds
    them once (`UniformInterTest.residual_cdf_pieces`); the knees are cut at
    x only when one lies past it.
    """
    a, b = law.a, law.b
    cdf = law.residual_cdf_pieces  # its knees are 0, a and b
    k0, k1, k2 = cdf[2 if c >= b else 1 if c >= a else 0]
    # F's last piece is 1: c = inf would read inf * 0 there
    survive_c = 0.0 if c >= b else 1.0 - (k0 + c * (k1 + c * k2))
    swp = rule is ObservationRule.STOP_WHEN_POSITIVE
    edges = sorted({0.0, x, c, a, b, c + a, c + b} if swp else {0.0, x, c, a, b})
    edges = edges if edges[-1] <= x else [e for e in edges if e <= x]
    pieces = []
    aware, factor = r * survive_c, r - 1.0  # the same floats on every piece
    for lo, hi in pairwise(edges):
        mid = 0.5 * (lo + hi)
        if mid <= c:  # 1 - F(c)
            coefs = (survive_c, 0.0, 0.0)
        else:  # F(u) = k0 + k1*u + k2*u^2
            k0, k1, k2 = cdf[2 if mid >= b else 1 if mid >= a else 0]
            if not swp:  # (1 - r)*(1 - F(u)) + r*(1 - F(c))
                coefs = ((1.0 - r) * (1.0 - k0) + aware, factor * k1, factor * k2)
            else:  # r*F(u - c) + 1 - F(u)
                v = mid - c
                g0, g1, g2 = cdf[2 if v >= b else 1 if v >= a else 0]
                coefs = (r * (g0 - c * (g1 - c * g2)) + 1.0 - k0,
                         r * (g1 - 2.0 * c * g2) - k1, r * g2 - k2)
        pieces.append((lo, hi, coefs))
    return 1.0, survive_c, pieces


# every moment is 0 at u = 0, and Q(s, 0) = 1: edge 0 needs no evaluation
_EDGE_ZERO = ((0.0, 0.0, 0.0), 1.0)


def _curve_terms(assay, y, n):
    """(moments, Q(s, b*y)) of the test-recent curve at an edge y: the
    moments are int_0^y u^k * Q(s, b*u) du for k < n (1 or 3).  At the
    cutoff G(T*) and Q(s, b*T*) are the assay's `cutoff_terms`.
    """
    if y == 0.0:
        return _EDGE_ZERO
    if y == assay.recency_cutoff:
        g, q = assay.cutoff_terms
    else:
        q = _upper_gamma(assay.gamma_shape, assay.gamma_rate * y)
        g = curve_moment(assay, y, 0, q)
    if n == 1:
        return (g,), q
    return (g, curve_moment(assay, y, 1, q), curve_moment(assay, y, 2, q)), q


#: theta*(x - c) up to which `_exponential_integral` takes a series; its
#: first omitted term is below (theta*(x - c))^3 / 6 of the integral
_SERIES_SPAN = 1e-3


def _series(lo, lo_m, hi_m, theta):
    """int_lo^hi Q(s, b*u) * e^{-theta*(u-lo)} du to second order in theta,
    J0 - theta*J1 + theta^2*J2/2 with J_k = int_lo^hi (u - lo)^k * Q du from
    the curve's moments at the edges, lo_m and hi_m (`_curve_terms`): the
    exponential term of `_exponential_integral` where its by-parts form
    cancels."""
    m0, m1, m2 = (h - l for h, l in zip(hi_m, lo_m))
    j1, j2 = m1 - lo * m0, m2 - lo * (2.0 * m1 - lo * m0)
    return m0 - theta * (j1 - theta * j2 / 2.0)


def _exponential_integral(rule, theta, r, c, x, assay=None):
    """int_0^x f(u) * w(u) du / e^{-theta*c} for an exponential (Poisson)
    schedule, in closed form: f = 1, or Q(s, b*u), the test-recent curve
    below its cutoff, given an assay (x <= T*).

    Divided by e^{-theta*c}, the weight is 1 on u <= c and
    a + (1 - a) * e^{-theta*(u-c)} beyond, a = r (Regular) or r*e^{theta*c}
    (Stop-When-Positive).  With G(y) = int_0^y f (y, or the curve's `G`),
    that is G(x) where c >= x, else G(c) + a*(G(x) - G(c)) + (1 - a)*D,
    each sum started from 0.0, D = int_c^x f(u) * e^{-theta*(u-c)} du:
    -expm1(-theta*(x - c)) / theta for f = 1, and against the curve, by
    parts (DLMF 8.2), a difference of incomplete gammas over theta that
    cancels as theta*(x - c) -> 0, so `_series` up to `_SERIES_SPAN`, on
    the edges' three moments.
    Discounting from c keeps full precision where e^{theta*c} is large.
    Raises InfeasibleScenarioError where the total is not a finite float:
    it needed e^{theta*c}, which overflows once theta*c exceeds about 709.78.
    """
    if c >= x:  # the weight is 1 up to x
        total = 0.0 + (x if assay is None else _curve_terms(assay, x, 1)[0][0])
    else:
        a = r if rule is ObservationRule.REGULAR else r * _growth(theta, c)
        span = theta * (x - c)
        if assay is None:
            lo_g, hi_g = c, x
            discounted = -math.expm1(-span) / theta
        else:
            series = span <= _SERIES_SPAN
            lo_m, lo_q = _curve_terms(assay, c, 3 if series else 1)
            hi_m, hi_q = _curve_terms(assay, x, 3 if series else 1)
            lo_g, hi_g = lo_m[0], hi_m[0]
            if series:
                discounted = _series(c, lo_m, hi_m, theta)
            else:  # Q(s, (b+theta)*y) at the edges: 1 at y = 0
                s, b = assay.gamma_shape, assay.gamma_rate
                lo_qt = _upper_gamma(s, (b + theta) * c) if c != 0.0 else 1.0
                hi_qt = _upper_gamma(s, (b + theta) * x)
                discounted = (
                    lo_q - math.exp(-span) * hi_q
                    - (b / (b + theta)) ** s * (_growth(theta, c) * (lo_qt - hi_qt))
                ) / theta
        total = (0.0 + lo_g) + a * (hi_g - lo_g) + (0.0 + (1.0 - a) * discounted)
    if math.isfinite(total):
        return total
    raise _past_range(theta, c)


def _integrate(pieces, x, assay=None):
    """int_0^x f(u) * w(u) du over a uniform law's pieces (`_uniform_pieces`)
    that reach x, in closed form: f = 1, or Q(s, b*u), the test-recent curve
    below its cutoff, given an assay.

    On a piece (lo, hi, (a0, a1, a2)) the weight is a0 + a1*u + a2*u^2,
    integrated from the moments int_0^y u^k * f(u) du at its edges (the
    curve's from `_curve_terms`).  The pieces start at u = 0 and each
    begins where the last ended, so every edge's moments are evaluated
    once.  The walk stops on the piece that holds x, ended at x: every knee
    below x is an edge either way, so these are the weight's own pieces up
    to x.
    """
    total = 0.0
    lo_m = _EDGE_ZERO[0]
    for _, hi, (a0, a1, a2) in pieces:
        last = hi >= x  # the piece that holds x, ended at x
        if last:
            hi = x
        if assay is not None:
            hi_m = _curve_terms(assay, hi, 3)[0]
        else:  # the moments int_0^hi u^k du, k < 3
            hi_m = (hi, hi ** 2 / 2, hi ** 3 / 3)
        total += (a0 * (hi_m[0] - lo_m[0]) + a1 * (hi_m[1] - lo_m[1])
                  + a2 * (hi_m[2] - lo_m[2]))
        if last:
            break
        lo_m = hi_m
    return total


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
    return _exponential_integral(rule, theta, r, c, assay.recency_cutoff, assay)


def analytic_bias(
    assay: RecencyAssay,
    theta: float,
    r: float,
    c: float,
    rule: ObservationRule,
    params: PopulationParams,
) -> float:
    """Asymptotic bias of the incidence estimate when the plain MDRI is used.

    The estimate tends to incidence * R / MDRI, with R the test-recent curve
    integrated up to min(T*, horizon) against the survey weight
    (`_limit_bias` at frr = 0, where the exponential kernel's negatives
    weigh 1).  With the horizon past T*, R is the effective MDRI and the
    bias is exactly zero once the exclusion window reaches the recency
    cutoff, and with neither exclusion nor selective attendance (r = 1,
    c = 0).  This is the limit alone: it does not compute the survey
    prevalence p_star, so unlike `SurveyLaw.analytic_bias` it stays finite
    where p_star rounds to 1 and no survey can hold a negative.
    """
    _check_effective_mdri_args(assay, theta, r, c)
    x = min(assay.recency_cutoff, params.horizon)
    recent = _exponential_integral(rule, theta, r, c, x, assay)
    return _limit_bias(assay, params.incidence, recent, 1.0)


def _limit_bias(assay, incidence, recent, negatives, below=0.0):
    """The estimate's limit at the survey law's expected counts, less the
    incidence: incidence * ((R - frr*W_x) / negatives / (MDRI - frr*T*) - 1).

    `recent` is R, `below` is W_x (read only when frr > 0) and `negatives`
    the weight of the surveyed negatives, all in the kernel's scale.  At
    frr = 0 this is incidence * (R / negatives / MDRI - 1), and exactly 0
    where R = MDRI and negatives = 1.  nan where the estimator is undefined:
    no surveyed negative, or MDRI <= frr*T*.
    """
    frr = assay.frr
    denom = mdri(assay) - frr * assay.recency_cutoff
    if not (negatives > 0.0 and denom > 0.0):
        return math.nan
    return incidence * ((recent - frr * below) / negatives / denom - 1.0)


def _weight(process: TestingProcess, r, c, tau):
    """(scale, negatives, integral) of the survey weight at (r, c), for
    either inter-test law: the one reader of the law's type.

    integral(x, assay=None) is int_0^x w(u) du, or int_0^x Q(s, b*u) * w(u)
    du (x <= T*) when an assay is given, for any x <= tau, and negatives is
    P(T > c), both divided by `scale`.  Exponential schedules use scale =
    e^{-theta*c}, so negatives = 1, and integrate in closed form
    (`_exponential_integral`); uniform ones use scale = 1, so a window past
    the longest gap (P(T > c) = 0) divides by nothing, and walk pieces
    built once up to tau (`_integrate`).  (r, c) is the caller's to check.
    """
    law, rule = process.inter_test_law, process.observation_rule
    if isinstance(law, ExponentialInterTest):
        theta = law.theta
        return math.exp(-theta * c), 1.0, partial(_exponential_integral, rule, theta, r, c)
    scale, negatives, pieces = _uniform_pieces(law, rule, r, c, tau)
    return scale, negatives, partial(_integrate, pieces)


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

    Either inter-test law; the attendance ratio r applies to aware
    positives.  Raises InfeasibleScenarioError (`_composition`) when no
    attendee passes the window.
    """
    _check_weight_args(r, c)
    return _composition(assay, process, r, c, params)[1:3]


def _composition(assay, process, r, c, params):
    """(weight, p_star, p_r, bias) of a cell, with weight = (scale,
    negatives, W_c) of `_weight`.

    Evaluates W_c (the weight up to the horizon), R and, when frr > 0, W_x
    (the curve and the weight up to x = min(T*, horizon)), all three on one
    `_weight`.  `survey_composition` and `screening_analytics.survey_law`
    share it.  The bias is `_limit_bias`, and nan where p_star is not below
    1 (the negatives' share rounds to 0, so no survey holds a negative and
    every estimate is undefined).  Raises InfeasibleScenarioError where
    W_c = 0: no one passes the window.  An admit probability that only
    underflows is left to the kernel's range check and to the attempt cap
    in `SurveyLaw.draw`.
    """
    tau = params.horizon
    x, frr = min(assay.recency_cutoff, tau), assay.frr
    scale, negatives, integral = _weight(process, r, c, tau)
    total = integral(tau)
    if not total > 0.0:
        raise InfeasibleScenarioError(
            f"no attendee can pass the exclusion window c={c:g} "
            "(admit probability 0 per draw)"
        )
    recent = integral(x, assay)
    below = integral(x) if frr else 0.0
    tested_recent = recent + frr * (total - below) if frr else recent
    positives = params.incidence * total
    p_star = positives / (positives + negatives)
    if p_star < 1.0:
        bias = _limit_bias(assay, params.incidence, recent, negatives, below)
    else:
        bias = math.nan
    return (scale, negatives, total), p_star, tested_recent / total, bias
