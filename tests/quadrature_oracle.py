"""The quadrature oracle: the analytic layer's defining integrals by
`scipy.integrate.quad`, written from the model, independently of the package.

With T the time since the most recent observed test and U the infection
duration, the survey weight of an exponential (Poisson) schedule is

    w(u) = r * P(T <= u, T > c | U = u) + P(T > u, T > c | U = u),

and the effective MDRI is int_0^{T*} Q(s, b*u) * w(u) du / e^{-theta*c}
(`effective_mdri_quad`), the value of `estimator.effective_mdri_closed`.
The package computes every such integral in closed form; the tests compare
the two routes, and nothing in the package imports this module.
"""

import math

from scipy import integrate
from scipy.special import gammaincc

from recencysim.testing_history import ObservationRule


def quad(f, a, b, kink=None):
    """int_a^b f, split at `kink` (a number or a tuple of them)."""
    kinks = kink if isinstance(kink, tuple) else (kink,)
    points = sorted({k for k in kinks if k is not None and a < k < b}) or None
    value, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500,
                              points=points)
    return value


def curve(assay):
    """The test-recent curve below its cutoff, from scipy: the oracles'."""
    return lambda u: gammaincc(assay.gamma_shape, assay.gamma_rate * u)


def growth(theta, c):
    """e^{theta*c}, inf where it overflows a float."""
    try:
        return math.exp(theta * c)
    except OverflowError:
        return math.inf


def weight(rule, theta, r, c, u):
    """w(u) / e^{-theta*c} for an exponential schedule of rate theta.

    Each conditional is divided by e^{-theta*c} before they are combined,
    so that no term underflows where e^{-theta*c} does.  Not finite where
    Stop-When-Positive needs e^{theta*c} past a float, beyond c.
    """
    if u <= c:  # no test in (c, u]: P(T > c | u) / e^{-theta*c}
        return 1.0
    above = math.exp(-theta * (u - c))  # P(T > u | u) = e^{-theta*u}
    # Regular: T ~ Exp(theta), independent of U, so P(c < T <= u | u) is
    # e^{-theta*c} - e^{-theta*u}; Stop-When-Positive: u - T ~ Exp(theta) for
    # the first post-infection test, so it is 1 - e^{-theta*(u-c)}
    below = -math.expm1(-theta * (u - c))
    if rule is ObservationRule.STOP_WHEN_POSITIVE:
        below *= growth(theta, c)
    return r * below + above


def effective_mdri_quad(assay, theta, r, c, rule):
    """int_0^{T*} Q(s, b*u) * w(u) du / e^{-theta*c}, split at the kink
    u = c: the effective MDRI, with `effective_mdri_closed`'s arguments."""
    f = curve(assay)
    return quad(lambda u: f(u) * weight(rule, theta, r, c, u), 0.0,
                assay.recency_cutoff, kink=c)
