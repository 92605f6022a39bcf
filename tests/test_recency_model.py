import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from recencysim.recency_model import (
    DAYS_PER_YEAR,
    DEFAULT_ASSAY,
    LONG_ASSAY,
    RecencyAssay,
    _upper_gamma,
    mdri,
    phi,
)


def gamma_cdf_oracle(u: float, shape: float, rate: float, n: int = 1_000_000) -> float:
    """Lower gamma CDF by trapezoid integration of the density.

    Integrates in the transformed variable w = x^shape, which removes the
    x^(shape-1) singularity of the density at 0:
        F(u) = rate^shape/Gamma(shape) * (1/shape) * int_0^{u^shape}
               exp(-rate * w^(1/shape)) dw
    Independent of the scipy special functions used by the implementation.
    """
    if u == 0:
        return 0.0
    w = np.linspace(0.0, u**shape, n)
    integrand = np.exp(-rate * w ** (1.0 / shape))
    coeff = rate**shape / math.gamma(shape) / shape
    return float(coeff * np.trapezoid(integrand, w))


class TestPhi:
    def test_at_zero(self):
        assert phi(0.0, DEFAULT_ASSAY) == 1.0

    def test_at_cutoff(self):
        # test-recent probability is about 1.4% at the cutoff
        assert phi(2.0, DEFAULT_ASSAY) == pytest.approx(0.014, abs=0.001)

    def test_beyond_cutoff_uses_frr(self):
        assay = RecencyAssay(0.352, 1.273, 2.0, frr=0.02)
        assert phi(3.0, assay) == 0.02
        assert phi(3.0, DEFAULT_ASSAY) == 0.0

    def test_matches_independent_gamma_oracle(self):
        # oracle trapezoid integration of the gamma density at u = 1
        expected = 1.0 - gamma_cdf_oracle(1.0, 0.352, 1.273, n=10_000_000)
        assert phi(1.0, DEFAULT_ASSAY) == pytest.approx(expected, abs=1e-9)

    def test_oracle_agreement_on_grid(self):
        us = np.linspace(0.01, 4.0, 100)
        for u in us:
            got = phi(float(u), DEFAULT_ASSAY)
            if u <= 2.0:
                want = 1.0 - gamma_cdf_oracle(float(u), 0.352, 1.273, n=200_000)
                assert got == pytest.approx(want, abs=1e-7)
            else:
                assert got == 0.0

    def test_vectorized(self):
        us = np.array([0.0, 1.0, 2.0, 3.0])
        vals = phi(us, DEFAULT_ASSAY)
        assert vals.shape == (4,)
        assert vals[0] == 1.0 and vals[3] == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            phi(-0.1, DEFAULT_ASSAY)


# Q(s, x) off scipy's series (`_upper_gamma`, and phi's array P), against
# scipy on (0, 12] in steps of 1e-4, shape by shape with its relative limit;
# at shapes s <= 0.1 Q is small enough on (0, 1.1] that 1 - P loses more
X_DENSE = np.linspace(0.0, 12.0, 120_001)[1:]
SHAPES = pytest.mark.parametrize(
    "s,limit",
    [(s, 5e-14) for s in (0.2, 0.352, 0.681, 1.0, 1.5, 3.0, 8.0)]
    + [(0.02, 2e-13), (0.05, 2e-13)],
)


def scipy_takes_its_series(s, x):
    """Where scipy's Q(s, x) sums its own series rather than 1 - P(s, x)."""
    with np.errstate(divide="ignore"):
        small = -0.4 / np.log(x) >= s
    return (x <= 1.1) & np.where(x <= 0.5, small, 1.1 * x >= s)


@SHAPES
def test_upper_gamma_agrees_with_scipy(s, limit):
    got = np.array([_upper_gamma(s, x) for x in X_DENSE.tolist()])
    want = special.gammaincc(s, X_DENSE)
    assert np.all(np.abs(got - want) <= limit * want)
    # scipy's own float wherever scipy does not take its series, past 1.1
    # and at small shapes
    same = ~scipy_takes_its_series(s, X_DENSE) | (X_DENSE > 1.1) | (s <= 0.1)
    np.testing.assert_array_equal(got[same], want[same])


@SHAPES
def test_phi_agrees_with_scipy(s, limit):
    assay = RecencyAssay(s, 1.0, 12.0)  # rate 1: the curve is Q(s, u)
    got = phi(X_DENSE, assay)
    want = 1.0 - special.gammainc(s, X_DENSE)
    assert np.all(np.abs(got - want) <= limit * want)
    # only where scipy's P takes its series, 1 < x <= 1.1 and s <= x, moves
    moved = (X_DENSE > 1.0) & (X_DENSE <= 1.1) & (X_DENSE >= s)
    np.testing.assert_array_equal(got[~moved], want[~moved])
    # a 0-d array and a float read the array's value
    for i in range(0, X_DENSE.size, 2_501):
        assert phi(X_DENSE[i], assay) == phi(np.asarray(X_DENSE[i]), assay) == got[i]
        assert type(phi(np.asarray(X_DENSE[i]), assay)) is float


def test_phi_reads_the_frr_past_a_cutoff_inside_the_band():
    assay = RecencyAssay(0.352, 1.0, 1.05, frr=0.02)
    u = np.linspace(1.0, 1.1, 101)
    got = phi(u, assay)
    np.testing.assert_array_equal(got[u > 1.05], 0.02)
    below = u <= 1.05
    np.testing.assert_allclose(got[below], special.gammaincc(0.352, u[below]),
                               rtol=5e-14, atol=0.0)


class TestMdri:
    def test_default_assay_98_days(self):
        days = mdri(DEFAULT_ASSAY) * DAYS_PER_YEAR
        assert 97.0 <= days <= 99.0

    def test_long_assay_224_days(self):
        days = mdri(LONG_ASSAY) * DAYS_PER_YEAR
        assert 220.0 <= days <= 228.0

    def test_constant_curve_integrates_to_cutoff(self):
        # rate ~ 0 makes the curve indistinguishable from 1 on [0, T*]
        flat = RecencyAssay(gamma_shape=1.0, gamma_rate=1e-12, recency_cutoff=2.0)
        assert mdri(flat) == pytest.approx(2.0, abs=1e-9)

    def test_frr_does_not_enter(self):
        with_frr = RecencyAssay(0.352, 1.273, 2.0, frr=0.02)
        assert mdri(with_frr) == pytest.approx(mdri(DEFAULT_ASSAY), abs=1e-10)

    @given(
        shape=st.floats(0.2, 5.0),
        rate=st.floats(0.2, 5.0),
        cutoff=st.floats(0.5, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_cutoff(self, shape, rate, cutoff):
        assay = RecencyAssay(shape, rate, cutoff)
        val = mdri(assay)
        assert 0.0 < val <= cutoff + 1e-12


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            RecencyAssay(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            RecencyAssay(1.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            RecencyAssay(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            RecencyAssay(1.0, 1.0, 2.0, frr=1.0)
