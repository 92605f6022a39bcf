"""Recency assay model: test-recent probability curve and its mean window period.

An assay is described by a gamma-survival test-recent curve on [0, T*] plus a
constant false-recent rate beyond the cutoff.  Durations are in years
throughout; day-denominated values use 365.25 days per year.

Below the cutoff the curve is Q(s, b*u), the regularized upper incomplete
gamma function, so its integrals against powers of u (1 included) and
e^{-theta*u} have closed forms in regularized incomplete gammas (DLMF 8.2):
`curve_moment` here, and the integral against e^{-theta*u} once, in the
exponential survey weight's closed form (`estimator._exponential_integral`).
The scalar gammas are scipy's `cython_special` entry points: the same
values as the ufuncs, without a ufunc call's overhead.

Every Q the package evaluates is `_upper_gamma`'s, and `phi` treats its
array of P alike, so none takes the series scipy sums for x <= 1.1 (4-6 us
a call, against 0.1-0.5 us on its other branches).

The terms that depend on the assay alone are computed once per assay
object, as `functools.cached_property`s of the frozen `RecencyAssay`:
G(T*) (the MDRI) and Q(s, b*T*) in `cutoff_terms`, and the moment factors
s*(s+1)*...*(s+k) / b^(k+1) with their gamma shapes in `moment_terms`.
They live in the instance's `__dict__`, outside the dataclass fields, so an
assay's equality, hash and repr are its parameters'.  Nothing that depends
on the testing rate, the attendance ratio or the window is cached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.special.cython_special import gammainc, gammaincc

DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class RecencyAssay:
    """Parameters of a recency test.

    gamma_shape / gamma_rate parametrize the gamma law inside the
    test-recent curve (rate convention: mean = shape / rate, in years).
    recency_cutoff is the recent/non-recent boundary in years and frr the
    constant false-recent rate applied beyond the cutoff.
    """

    gamma_shape: float
    gamma_rate: float
    recency_cutoff: float
    frr: float = 0.0

    def __post_init__(self):
        if self.gamma_shape <= 0 or self.gamma_rate <= 0:
            raise ValueError("gamma_shape and gamma_rate must be positive")
        if self.recency_cutoff <= 0:
            raise ValueError("recency_cutoff must be positive")
        if not 0.0 <= self.frr < 1.0:
            raise ValueError(f"frr must lie in [0, 1), got {self.frr!r}")

    @functools.cached_property
    def moment_terms(self) -> tuple[tuple[float, float], ...]:
        """(s*(s+1)*...*(s+k) / b^(k+1), s + k + 1) for k = 0, 1, 2: the
        factor and the gamma shape of `curve_moment`'s k-th moment, up to
        the survey weight's quadratic pieces."""
        s, b = self.gamma_shape, self.gamma_rate
        rising = (s, s * (s + 1), s * (s + 1) * (s + 2))
        return tuple((rising[k] / b ** (k + 1), s + k + 1.0) for k in range(3))

    @functools.cached_property
    def cutoff_terms(self) -> tuple[float, float]:
        """(G(T*), Q(s, b*T*)): the curve's integral up to the cutoff and its
        value there."""
        tstar = self.recency_cutoff
        q = _upper_gamma(self.gamma_shape, self.gamma_rate * tstar)
        return curve_moment(self, tstar, 0, q), q


#: Short-window assay used as the default throughout (MDRI about 98 days).
DEFAULT_ASSAY = RecencyAssay(gamma_shape=0.352, gamma_rate=1.273, recency_cutoff=2.0)

#: Longer-window assay for the sensitivity runs (MDRI about 224 days).
LONG_ASSAY = RecencyAssay(gamma_shape=0.681, gamma_rate=1.003, recency_cutoff=2.0)

#: The assays by the names the CLI and YAML configs use.
ASSAYS = {"default": DEFAULT_ASSAY, "long": LONG_ASSAY}


def phi(u, assay: RecencyAssay):
    """Test-recent probability at infection duration u (years).

    Equals the gamma survival function below the cutoff and the constant
    false-recent rate above it.  Accepts scalars or arrays.
    """
    u_arr = np.asarray(u, dtype=float)
    if (u_arr < 0).any():
        raise ValueError("infection duration must be nonnegative")
    s, x = assay.gamma_shape, assay.gamma_rate * u_arr
    below = u_arr <= assay.recency_cutoff
    # where scipy's P(s, x) takes its series (1 < x <= 1.1, s <= x), the
    # curve is 1 - P(s+1, x) - x^s*e^{-x}/Gamma(s+1), as in `_upper_gamma`
    band = below & (x > 1.0) & (x <= 1.1) & (s <= x)
    out = np.where(below, 1.0 - special.gammainc(s + band, x), assay.frr)
    if band.any():
        xb = x[band]
        out[band] -= np.exp(s * np.log(xb) - xb - math.lgamma(s + 1.0))
    if u_arr.ndim == 0:
        return float(out)
    return out


def _upper_gamma(s: float, x: float) -> float:
    """Q(s, x), the regularized upper incomplete gamma, off scipy's series.

    For x <= 1.1 scipy's `gammaincc` mostly sums a series that recomputes
    log Gamma(1 + s) on every call.  There this is 1 - P(s, x), P summed by
    scipy's fast series: the float `gammaincc` returns where it takes no
    series, and within 5e-14 relative of it elsewhere for s >= 0.2.  On
    (1, 1.1] P(s, x) takes the slow series too once s <= x, and this is
    1 - P(s+1, x) - x^s*e^{-x}/Gamma(s+1) (DLMF 8.8.5).  Past x = 1.1 it is
    `gammaincc`, and so for s <= 0.1: Q is small there, so 1 - P would lose
    up to 3e-13 relative, and P(s+1, x) takes the series for x >= 1 + s.
    """
    if x > 1.1 or s <= 0.1:
        return gammaincc(s, x)
    if x <= 1.0 or s > x:
        return 1.0 - gammainc(s, x)
    term = math.exp(s * math.log(x) - x - math.lgamma(s + 1.0))
    return 1.0 - gammainc(s + 1.0, x) - term


def curve_moment(assay: RecencyAssay, x: float, k: int, q: float) -> float:
    """int_0^x u^k * Q(s, b*u) du for k <= 2, by parts (DLMF 8.2), given
    q = Q(s, b*x):

        [x^{k+1} * q + s*(s+1)*...*(s+k) / b^{k+1} * P(s+k+1, b*x)] / (k+1),

    the factor and the shape s+k+1 read from `RecencyAssay.moment_terms`.
    k = 0 is G(x), the integral of the curve itself.  Every k shares q.
    """
    factor, shape = assay.moment_terms[k]
    return (
        x ** (k + 1) * q + factor * gammainc(shape, assay.gamma_rate * x)
    ) / (k + 1)


def mdri(assay: RecencyAssay) -> float:
    """Mean duration of recent infection: integral of phi over [0, T*].

    The false-recent rate does not enter; only the curve below the cutoff
    is integrated.  Closed form G(T*), from `RecencyAssay.cutoff_terms`.
    """
    return assay.cutoff_terms[0]
