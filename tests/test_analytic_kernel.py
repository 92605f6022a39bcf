"""Closed-form analytic layer against the quadrature oracle of its defining
integrals (`quadrature_oracle`).

The oracle writes the survey weight from the model, independently of the
package: with T the time since the most recent observed test and U the
infection duration,

    w(u) = r * P(T <= u, T > c | U = u) + P(T > u, T > c | U = u),

and the package's W (`estimator._weight`) and R (`effective_mdri_closed`) are
int_0^horizon w and int_0^{T*} phi * w, both divided by e^{-theta*c}.
For uniform inter-test laws the conditionals are written from the
stationary residual CDF F (`residual_cdf_from_definition`): P(c < T <= u | u)
is F(u) - F(c) under the Regular rule and F(u - c) under Stop-When-Positive,
and P(T > u, T > c | u) = 1 - F(max(u, c)).
"""

import ast
import hashlib
import importlib
import math
import pickle
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.special import cython_special

import recencysim
from recencysim import (
    estimator, harness, recency_model, screening_analytics, testing_history)
from recencysim.estimator import (
    analytic_bias,
    effective_mdri_closed,
    survey_composition,
)
from recencysim.harness import (
    FRR_GRID,
    R_GRID,
    THETA_GRID,
    build_grid,
    build_sensitivity,
    emit_table1,
)
from recencysim.population import (
    DEFAULT_PARAMS,
    InfeasibleScenarioError,
    PopulationParams,
)
from recencysim.recency_model import (
    DEFAULT_ASSAY,
    LONG_ASSAY,
    RecencyAssay,
    curve_moment,
    mdri,
)
from recencysim.screening_analytics import forecast, survey_law
from recencysim.testing_history import (
    ExponentialInterTest,
    ObservationRule,
    TestingProcess,
    UniformInterTest,
)
from quadrature_oracle import curve, effective_mdri_quad, growth, quad, weight
from reference_sampler import residual_cdf

RTOL = 1e-10
HORIZON = DEFAULT_PARAMS.horizon
T_STAR = DEFAULT_ASSAY.recency_cutoff
ASSAYS = pytest.mark.parametrize("assay", [DEFAULT_ASSAY, LONG_ASSAY], ids=["default", "long"])
RULES = pytest.mark.parametrize("rule", list(ObservationRule), ids=lambda r: r.value)
THETAS = pytest.mark.parametrize("theta", [0.3, 1.0, 3.3])
RS = pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
CS = pytest.mark.parametrize("c", [0.0, 0.25, 1.99, T_STAR, 2.5, HORIZON + 2.0])
XS = pytest.mark.parametrize("x", [0.0, 0.25, 1.0, 1.99, T_STAR])


def package_q(assay, x):
    """Q(s, x) as the package evaluates it (`recency_model._upper_gamma`)."""
    return recency_model._upper_gamma(assay.gamma_shape, x)


def close(got, want):
    return got == pytest.approx(want, rel=RTOL, abs=0.0)


def curve_integral(assay, x):
    """G(x) = int_0^x Q(s, b*u) du, the package's closed form."""
    return curve_moment(assay, x, 0, package_q(assay, assay.gamma_rate * x))


@ASSAYS
@XS
def test_curve_integral(assay, x):
    assert close(curve_integral(assay, x), quad(curve(assay), 0.0, x))


def discounted_curve_integral(assay, theta, x, start=0.0):
    """H(x) = int_start^x Q(s, b*u) * e^{-theta*(u-start)} du, by parts.

    With start = 0 this is [1 - e^{-theta*x}*Q(s, b*x) - k*P(s, (b+theta)*x)]
    / theta, k = (b/(b+theta))^s.  The kernel's exponential term on [c, x]
    is this integral with start = c, written once in
    `estimator._exponential_integral`.  Q is read as the package reads it,
    so the composition below repeats the kernel's floats.
    """
    s, b = assay.gamma_shape, assay.gamma_rate
    k = (b / (b + theta)) ** s
    head = package_q(assay, b * start)
    tail = math.exp(-theta * (x - start)) * package_q(assay, b * x)
    # P(s, (b+theta)*x) - P(s, (b+theta)*start), as a difference of upper tails
    mixed = growth(theta, start) * (
        package_q(assay, (b + theta) * start) - package_q(assay, (b + theta) * x)
    )
    return (head - tail - k * mixed) / theta


@ASSAYS
@THETAS
@pytest.mark.parametrize(
    "start, x",
    [(0.0, x) for x in (0.0, 0.25, 1.0, 1.99, T_STAR)]
    + [(0.25, 0.25), (0.25, T_STAR), (1.99, T_STAR), (T_STAR, T_STAR)],
)
def test_discounted_curve_integral(assay, theta, start, x):
    f = curve(assay)
    want = quad(lambda u: f(u) * math.exp(-theta * (u - start)), start, x)
    got = discounted_curve_integral(assay, theta, x, start=start)
    assert got == pytest.approx(want, rel=RTOL, abs=1e-300)


@RULES
@THETAS
@RS
@CS
def test_survey_weight_integral(rule, theta, r, c):
    want = quad(lambda u: weight(rule, theta, r, c, u), 0.0, HORIZON, kink=c)
    process = TestingProcess(ExponentialInterTest(theta), rule)
    assert close(estimator._weight(process, r, c, HORIZON)[2](HORIZON), want)


@ASSAYS
@RULES
@THETAS
@RS
@CS
def test_recent_weight_integral(assay, rule, theta, r, c):
    want = effective_mdri_quad(assay, theta, r, c, rule)
    assert close(effective_mdri_closed(assay, theta, r, c, rule), want)


@RULES
@pytest.mark.parametrize(
    "theta", [1e-300, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.4, 3.0])
@pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("c", [0.0, 0.25, 1.0, 1.9999, 2.5])
def test_effective_mdri_at_any_testing_rate(rule, theta, r, c):
    # theta*(hi - lo) -> 0 on the exponential piece, where the by-parts
    # difference of incomplete gammas cancels; c = 1.9999 makes a short piece
    # at every theta
    want = effective_mdri_quad(DEFAULT_ASSAY, theta, r, c, rule)
    got = effective_mdri_closed(DEFAULT_ASSAY, theta, r, c, rule)
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


def series_curve_integral(assay, theta, x, start):
    """H(x) to second order in theta, J0 - theta*(J1 - theta*J2/2) with
    J_k = int_start^x (u - start)^k * Q(s, b*u) du from the curve's moments:
    the kernel's H where theta*(x - start) <= 1e-3, since the by-parts form
    cancels there."""
    b = assay.gamma_rate
    m0, m1, m2 = (curve_moment(assay, x, k, package_q(assay, b * x))
                  - curve_moment(assay, start, k, package_q(assay, b * start))
                  for k in range(3))
    j1, j2 = m1 - start * m0, m2 - start * (2.0 * m1 - start * m0)
    return m0 - theta * (j1 - theta * j2 / 2.0)


def share_above_c(theta, r, c, rule):
    """a: divided by e^{-theta*c} the weight is 1 on u <= c and
    a + (1 - a) * e^{-theta*(u-c)} beyond, a = r (Regular) or r*e^{theta*c}
    (Stop-When-Positive)."""
    return r if rule is ObservationRule.REGULAR else r * growth(theta, c)


def composed_recent_weight_integral(assay, theta, r, c, rule, x):
    """The exponential kernel against the curve as the composition of G and
    H it writes out, G(c) + a*(G(x) - G(c)) + (1 - a)*H(x) from start c,
    each sum started from 0.0 as the kernel's are; G(x) where c >= x.  Not
    finite where it needed e^{theta*c} past a float."""
    if c >= x:
        return 0.0 + curve_integral(assay, x)
    a = share_above_c(theta, r, c, rule)
    head = curve_integral(assay, c)
    if theta * (x - c) <= 1e-3:
        discounted = series_curve_integral(assay, theta, x, c)
    else:
        discounted = discounted_curve_integral(assay, theta, x, start=c)
    return ((0.0 + head) + a * (curve_integral(assay, x) - head)
            + (0.0 + (1.0 - a) * discounted))


def composed_weight_integral(theta, r, c, rule, x):
    """The f = 1 twin: c + a*(x - c) + (1 - a)*(1 - e^{-theta*(x-c)})/theta,
    or x where c >= x."""
    if c >= x:
        return 0.0 + x
    a = share_above_c(theta, r, c, rule)
    discounted = -math.expm1(-theta * (x - c)) / theta
    return (0.0 + c) + a * (x - c) + (0.0 + (1.0 - a) * discounted)


@ASSAYS
@RULES
@pytest.mark.parametrize("theta", [0.4, 1.0, 3.0])
@pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("c", [0.0, 0.25, 1.5, T_STAR, 2.5])
@pytest.mark.parametrize("x", [T_STAR, 1.645], ids=["cutoff", "short_horizon"])
def test_recent_kernel_equals_composition(assay, rule, theta, r, c, x):
    # the closed form evaluates the same terms in the same order of
    # operations as the composition, so the floats are equal
    got = estimator._exponential_integral(rule, theta, r, c, x, assay)
    assert got == composed_recent_weight_integral(assay, theta, r, c, rule, x)


@RULES
@pytest.mark.parametrize(
    "theta", [1e-300, 1e-12, 1e-6, 1e-4, 1e-3, 0.4, 1.0, 3.0, 100.0, 400.0])
@pytest.mark.parametrize("x", [T_STAR, 1.645, HORIZON, -0.0],
                         ids=["cutoff", "short_horizon", "horizon", "minus_zero"])
def test_exponential_integral_bit_for_bit(rule, theta, x):
    # W and R (R up to x <= T*) equal their compositions as floats, the sign
    # of zero included; where a composition needed e^{theta*c} past a float
    # (theta*c > 709.78) the kernel raises, with the kernel's message
    curves = (None,) if x > T_STAR else (None, DEFAULT_ASSAY, LONG_ASSAY)
    past_range = 0
    for r in (0.0, -0.0, 0.6, 1.0):
        for c in (0.0, -0.0, 1e-9, 0.25, 1.9999, T_STAR, x + 1.0):
            for assay in curves:
                if assay is None:
                    want = composed_weight_integral(theta, r, c, rule, x)
                else:
                    want = composed_recent_weight_integral(assay, theta, r, c, rule, x)
                if not math.isfinite(want):
                    past_range += 1
                    with pytest.raises(InfeasibleScenarioError) as exc:
                        estimator._exponential_integral(rule, theta, r, c, x, assay)
                    assert str(exc.value) == (
                        f"theta*c = {theta * c:g} is past the range of the scaled "
                        "survey weight (e^(theta*c) overflows a float)")
                    continue
                got = estimator._exponential_integral(rule, theta, r, c, x, assay)
                assert got == want, (r, c, assay)
                assert math.copysign(1.0, got) == math.copysign(1.0, want), (r, c, assay)
    # theta = 400 reaches past e^{709.78} at c = 1.9999 < T*, under either
    # rule against the curve
    if theta == 400.0 and x == T_STAR:
        assert past_range > 0
    elif theta < 100.0:
        assert past_range == 0


def count_incomplete_gammas(monkeypatch, evaluate):
    """The incomplete gamma calls of a second `evaluate()`, after a first
    has filled the per-assay cache: scipy's primitives, which the package
    reaches only through `recency_model`.  Each Q (`_upper_gamma`) makes
    exactly one of them, so a Q counts once."""
    evaluate()
    calls = []
    for name in ("gammainc", "gammaincc"):
        def counted(*a, fn=getattr(recency_model, name)):
            calls.append(a)
            return fn(*a)
        monkeypatch.setattr(recency_model, name, counted)
    evaluate()
    return calls


def test_kernel_evaluates_each_incomplete_gamma_once(monkeypatch):
    # Q(s, b*c), P(s+1, b*c) and Q(s, (b+theta)*y) at y = c, T*; edge 0
    # needs none, and the terms at T* come from the per-assay cache
    args = (DEFAULT_ASSAY, 1.0, 0.6, 0.25, ObservationRule.STOP_WHEN_POSITIVE)
    calls = count_incomplete_gammas(
        monkeypatch, lambda: effective_mdri_closed(*args))
    assert 0 < len(calls) <= 4


@pytest.mark.parametrize("c,most", [(0.25, 6), (0.0, 2)])
def test_series_reads_the_edge_moments(monkeypatch, c, most):
    # theta*(T* - c) within _SERIES_SPAN: Q(s, b*c) and P(s+k+1, b*c),
    # k <= 2, at c and P(s+2, b*T*), P(s+3, b*T*) at T*, each once for both
    # the kernel and its series; edge 0 needs none, and G(T*) and
    # Q(s, b*T*) come from the per-assay cache
    args = (DEFAULT_ASSAY, 1e-6, 0.6, c, ObservationRule.STOP_WHEN_POSITIVE)
    calls = count_incomplete_gammas(
        monkeypatch, lambda: effective_mdri_closed(*args))
    assert 0 < len(calls) <= most


def law_type_tests(tree):
    """The function around each `isinstance` test of an inter-test law."""
    laws = [name for name in vars(testing_history) if name.endswith("InterTest")]
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance"
                    and any(law in ast.unparse(child.args[1]) for law in laws)):
                found.append(where)
            visit(child, where)

    visit(tree, None)
    return found


def test_one_reader_of_the_inter_test_law():
    # the analytic modules test a law's type in `estimator._weight` alone,
    # and the harness in `_law_fields` alone (labels and summary fields), so
    # a new law plugs in there
    found = [
        (module.__name__, where)
        for module in (estimator, screening_analytics, harness)
        for where in law_type_tests(ast.parse(Path(module.__file__).read_text()))
    ]
    assert found == [("recencysim.estimator", "_weight"),
                     ("recencysim.harness", "_law_fields")]


@RULES
@pytest.mark.parametrize("c", [0.25, 1.0])
def test_uniform_kernel_evaluates_each_incomplete_gamma_once(monkeypatch, rule, c):
    # edges 0, c and T*: Q(s, b*c) and P(s+k+1, b*c), k <= 2, at c, and
    # P(s+2, b*T*), P(s+3, b*T*) at T*.  Edge 0 needs none, and G(T*) and
    # Q(s, b*T*) come from the per-assay cache
    process = TestingProcess(UniformInterTest(0.0, 3.0), rule)
    calls = count_incomplete_gammas(
        monkeypatch,
        lambda: estimator._weight(process, 0.6, c, T_STAR)[2](T_STAR, DEFAULT_ASSAY))
    assert 0 < len(calls) <= 6


@ASSAYS
@RULES
@THETAS
@RS
@pytest.mark.parametrize("c", [T_STAR, 2.5, HORIZON + 2.0])
def test_bias_exactly_zero_past_cutoff(assay, rule, theta, r, c):
    assert effective_mdri_closed(assay, theta, r, c, rule) == mdri(assay)
    assert analytic_bias(assay, theta, r, c, rule, DEFAULT_PARAMS) == 0.0


@ASSAYS
@RULES
@THETAS
def test_bias_exactly_zero_without_selection(assay, rule, theta):
    assert analytic_bias(assay, theta, 1.0, 0.0, rule, DEFAULT_PARAMS) == 0.0


@RULES
@THETAS
@RS
@pytest.mark.parametrize("c", [0.0, 0.25, 1.5, 2.5])
@pytest.mark.parametrize("frr", [0.0, 0.02])
@pytest.mark.parametrize(
    "params",
    [DEFAULT_PARAMS, PopulationParams(0.032, 0.05), PopulationParams(0.3, 0.23)],
    ids=["tau12.76", "tau1.64", "tau1.00"],
)
def test_survey_composition(rule, theta, r, c, frr, params):
    # p_r = int_0^tau phi * w / int_0^tau w, with phi = frr past T*; the
    # curve part stops at the horizon when tau < T*
    assay = RecencyAssay(
        DEFAULT_ASSAY.gamma_shape, DEFAULT_ASSAY.gamma_rate, T_STAR, frr
    )
    tau, f = params.horizon, curve(assay)

    def w(u):
        return weight(rule, theta, r, c, u)

    cut = min(T_STAR, tau)
    total = quad(w, 0.0, tau, kink=c)
    recent = quad(lambda u: f(u) * w(u), 0.0, cut, kink=c)
    if tau > T_STAR:
        recent += frr * quad(w, T_STAR, tau, kink=c)
    lam = params.incidence
    process = TestingProcess(ExponentialInterTest(theta), rule)
    p_star, p_r = survey_composition(assay, process, r, c, params)
    assert close(p_star, lam * total / (lam * total + 1.0))
    assert close(p_r, recent / total)


@RULES
@THETAS
@RS
@pytest.mark.parametrize("c", [0.0, 0.25, 1.99, T_STAR, 2.5, 6.0, HORIZON])
def test_inclusion_probability(rule, theta, r, c):
    # admitted / attending, per surveyed-eligible negative: e^{-theta*c} * (1 + lam*W_c)
    # over 1 + lam*W_0 (W in units of e^{-theta*c}, as weight() returns)
    lam = DEFAULT_PARAMS.incidence
    w_c = quad(lambda u: weight(rule, theta, r, c, u), 0.0, HORIZON, kink=c)
    w_0 = quad(lambda u: weight(rule, theta, r, 0.0, u), 0.0, HORIZON)
    want = math.exp(-theta * c) * (1.0 + lam * w_c) / (1.0 + lam * w_0)
    got = forecast(rule, DEFAULT_PARAMS, theta, r, c, 5000).inclusion_probability
    assert close(got, min(want, 1.0))


def inclusion_probability_hand(rule, incidence, prevalence, theta, r, c, t_star):
    """The closed form as first derived by hand, for c <= t_star.

    It cancels catastrophically as c approaches t_star at high theta (the
    kernel form does not; test_inclusion_probability covers that end).
    """
    lam, p = incidence, prevalence
    pr = p / (1.0 - p)
    ec = math.exp(-theta * c)
    et = math.exp(-theta * t_star)
    denom = lam * (r - 1.0) * (et - 1.0) / theta + 1.0 + r * pr
    if rule is ObservationRule.REGULAR:
        num = lam * (r - 1.0) * (et / theta - ec / theta - c * ec) + ec * (r * pr + 1.0)
    else:
        num = (
            lam
            * (
                r * (math.exp(theta * c - theta * t_star) / theta - c - 1.0 / theta)
                + (c * ec - et / theta + ec / theta)
            )
            + ec
            + r * pr
        )
    return num / denom


@RULES
@THETAS
@RS
@pytest.mark.parametrize("c", [0.0, 0.25, 1.99, T_STAR, 2.5, 6.0])
def test_inclusion_probability_matches_hand_algebra(rule, theta, r, c):
    p = DEFAULT_PARAMS
    want = inclusion_probability_hand(
        rule, p.incidence, p.prevalence, theta, r, c, p.horizon
    )
    got = forecast(rule, p, theta, r, c, 5000).inclusion_probability
    assert got == pytest.approx(min(want, 1.0), rel=1e-12, abs=0.0)


@ASSAYS
@RULES
@THETAS
@RS
@pytest.mark.parametrize("c", [0.0, 0.25, 1.5, T_STAR, 2.5])
@pytest.mark.parametrize(
    "params",
    [DEFAULT_PARAMS, PopulationParams(0.032, 0.05), PopulationParams(0.3, 0.23)],
    ids=["tau12.76", "tau1.64", "tau1.00"],
)
def test_analytic_bias(assay, rule, theta, r, c, params):
    # the estimate's limit is incidence * R / MDRI, with the curve weighted
    # up to min(T*, tau); as a ratio 1 + bias / incidence = R / MDRI
    f, tstar = curve(assay), assay.recency_cutoff
    recent = quad(lambda u: f(u) * weight(rule, theta, r, c, u), 0.0,
                  min(tstar, params.horizon), kink=c)
    got = analytic_bias(assay, theta, r, c, rule, params)
    assert close(1.0 + got / params.incidence, recent / quad(f, 0.0, tstar))


def test_analytic_bias_at_a_short_horizon():
    # tau = 1.645 < T*: without selection the bias is
    # incidence * (G(tau) / G(T*) - 1), not 0
    params = PopulationParams(0.032, 0.05)
    bias = analytic_bias(DEFAULT_ASSAY, 1.0, 1.0, 0.0,
                         ObservationRule.STOP_WHEN_POSITIVE, params)
    want = 0.032 * (curve_integral(DEFAULT_ASSAY, params.horizon)
                    / mdri(DEFAULT_ASSAY) - 1.0)
    assert close(bias, want)
    assert bias == pytest.approx(-0.000799, abs=5e-7)


# ---------------------------------------------------------------------------
# uniform inter-test laws

UNIFORM_LAWS = [UniformInterTest(0.0, 3.0), UniformInterTest(0.0, 4.0),
                UniformInterTest(0.5, 2.5), UniformInterTest(1.0, 4.0)]
UNIFORM_CELLS = pytest.mark.parametrize(
    "law, c",
    [
        (law, c)
        for law in UNIFORM_LAWS
        for c in sorted({0.0, 0.25, law.a, 1.99, law.b, law.b + 1.0, HORIZON + 2.0})
    ],
    ids=lambda v: f"uni{v.a:g}-{v.b:g}" if isinstance(v, UniformInterTest) else f"c{v:g}",
)
TAUS = pytest.mark.parametrize(
    "params", [DEFAULT_PARAMS, PopulationParams(0.032, 0.05)],
    ids=["tau12.76", "tau1.64"],
)


def residual_cdf_from_definition(x, law):
    """F(x) = (1/mu) * int_0^x P(gap > y) dy for Uniform[a, b] gaps."""
    a, b = law.a, law.b
    if x >= b:
        return 1.0
    x = max(x, 0.0)
    y = min(max(x, a), b)  # P(gap > y) = (b - y) / (b - a) on [a, b]
    within = ((b - a) ** 2 - (b - y) ** 2) / (2.0 * (b - a))
    return (min(x, a) + within) / (0.5 * (a + b))


def uniform_weight(rule, law, r, c, u):
    def F(x):
        return residual_cdf_from_definition(x, law)

    if u <= c:
        below = 0.0
    elif rule is ObservationRule.REGULAR:
        below = F(u) - F(c)
    else:
        below = F(u - c)
    return r * below + 1.0 - F(max(u, c))


def uniform_oracle(rule, law, r, c, x, f=None):
    """int_0^x f(u) * w(u) du by quad, split at every knee of w."""
    kinks = (c, law.a, law.b, c + law.a, c + law.b)
    if f is None:
        return quad(lambda u: uniform_weight(rule, law, r, c, u), 0.0, x, kinks)
    return quad(lambda u: f(u) * uniform_weight(rule, law, r, c, u), 0.0, x, kinks)


@UNIFORM_CELLS
@RULES
@RS
@TAUS
def test_uniform_weight_integrals(law, c, rule, r, params):
    process = TestingProcess(law, rule)
    tau, x = params.horizon, min(T_STAR, params.horizon)
    scale, negatives, integral = estimator._weight(process, r, c, tau)
    total = integral(tau)
    assert scale == 1.0
    assert close(negatives, 1.0 - residual_cdf_from_definition(c, law))
    assert close(total, uniform_oracle(rule, law, r, c, tau))
    recent = integral(x, DEFAULT_ASSAY)
    assert close(recent, uniform_oracle(rule, law, r, c, x, curve(DEFAULT_ASSAY)))


@UNIFORM_CELLS
@RULES
@RS
@TAUS
def test_uniform_composition_and_inclusion(law, c, rule, r, params):
    # per 1 - p: admitted negatives 1 - F(c), admitted positives
    # incidence * W_c; attendees 1 + incidence * W_0
    lam, tau = params.incidence, params.horizon
    process = TestingProcess(law, rule)
    negatives = 1.0 - residual_cdf_from_definition(c, law)
    w_c = uniform_oracle(rule, law, r, c, tau)
    if negatives + lam * w_c == 0.0:  # no attendee passes the window
        with pytest.raises(InfeasibleScenarioError, match="admit probability 0"):
            survey_law(DEFAULT_ASSAY, process, r, c, params)
        return
    recent = uniform_oracle(rule, law, r, c, min(T_STAR, tau), curve(DEFAULT_ASSAY))
    w_0 = uniform_oracle(rule, law, r, 0.0, tau)
    p_star, p_r = survey_composition(DEFAULT_ASSAY, process, r, c, params)
    assert close(p_star, lam * w_c / (lam * w_c + negatives))
    assert close(p_r, recent / w_c)
    s = survey_law(DEFAULT_ASSAY, process, r, c, params).inclusion
    assert close(s, min((negatives + lam * w_c) / (1.0 + lam * w_0), 1.0))


# ---------------------------------------------------------------------------
# the estimator's limit, for every law and false-recent rate

TAUS3 = pytest.mark.parametrize(
    "params",
    [DEFAULT_PARAMS, PopulationParams(0.032, 0.05), PopulationParams(0.3, 0.23)],
    ids=["tau12.76", "tau1.64", "tau1.00"],
)
LIMIT_LAWS = pytest.mark.parametrize(
    "law",
    [ExponentialInterTest(0.4), ExponentialInterTest(3.3), UniformInterTest(0.0, 3.0),
     UniformInterTest(1.0, 4.0)],
    ids=["exp0.4", "exp3.3", "uni0-3", "uni1-4"],
)


def assay_with_frr(frr):
    return RecencyAssay(DEFAULT_ASSAY.gamma_shape, DEFAULT_ASSAY.gamma_rate,
                        T_STAR, frr)


@LIMIT_LAWS
@RULES
@RS
@pytest.mark.parametrize("c", [0.0, 0.25, 1.5, 2.5])
@pytest.mark.parametrize("frr", [0.0, 0.02])
@TAUS3
def test_limit_bias(law, rule, r, c, frr, params):
    # at the law's expected counts the estimate is
    # incidence * (R - frr*W_x) / negatives / (MDRI - frr*T*), with R and
    # W_x the curve and the weight up to x = min(T*, tau); as a ratio
    # 1 + bias / incidence, written from the model by quad
    assay, x, lam = assay_with_frr(frr), min(T_STAR, params.horizon), params.incidence
    f = curve(assay)
    if isinstance(law, ExponentialInterTest):
        def w(u):
            return weight(rule, law.theta, r, c, u)

        recent = quad(lambda u: f(u) * w(u), 0.0, x, kink=c)
        below = quad(w, 0.0, x, kink=c)
        negatives = 1.0  # weight() is in units of e^{-theta*c} = P(T > c)
    else:
        recent = uniform_oracle(rule, law, r, c, x, f)
        below = uniform_oracle(rule, law, r, c, x)
        negatives = 1.0 - residual_cdf_from_definition(c, law)
    want = (recent - frr * below) / negatives / (quad(f, 0.0, T_STAR) - frr * T_STAR)
    law_ = survey_law(assay, TestingProcess(law, rule), r, c, params)
    assert close(1.0 + law_.analytic_bias / lam, want)


@ASSAYS
@RULES
@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("frr", FRR_GRID)
@pytest.mark.parametrize(
    "r,c",
    [(r, c) for r in R_GRID for c in (T_STAR, 2.5, HORIZON + 2.0)] + [(1.0, 0.0)],
)
def test_limit_bias_exactly_zero(assay, rule, theta, frr, r, c):
    # R = MDRI and W_x = T* past the cutoff and without selection, so the
    # limit is (MDRI - frr*T*) / 1 / (MDRI - frr*T*) = 1 exactly
    assay = RecencyAssay(assay.gamma_shape, assay.gamma_rate, assay.recency_cutoff, frr)
    process = TestingProcess(ExponentialInterTest(theta), rule)
    assert survey_law(assay, process, r, c, DEFAULT_PARAMS).analytic_bias == 0.0


def test_limit_bias_undefined_estimator():
    # MDRI <= frr*T*: the estimate's denominator is never positive
    assay = assay_with_frr(0.5)
    process = TestingProcess(ExponentialInterTest(1.0), ObservationRule.REGULAR)
    law = survey_law(assay, process, 0.6, 0.0, DEFAULT_PARAMS)
    assert math.isnan(law.analytic_bias)
    assert math.isnan(law.analytic_variance(5000))


def composed_from_walks(assay, process, r, c, params):
    """(p_star, p_r, inclusion, admit, bias) of a cell from one
    `estimator._weight` walk per term, each on its own piece list; None where
    no attendee passes the window."""
    lam, tau = params.incidence, params.horizon
    x = min(assay.recency_cutoff, tau)
    scale, negatives, integral = estimator._weight(process, r, c, tau)
    total = integral(tau)
    if not total > 0.0:
        return None
    recent = estimator._weight(process, r, c, x)[2](x, assay)
    below = estimator._weight(process, r, c, x)[2](x) if assay.frr else 0.0
    tested_recent = recent + assay.frr * (total - below) if assay.frr else recent
    w0 = estimator._weight(process, r, 0.0, tau)[2](tau)
    positives = lam * total
    p_star = positives / (positives + negatives)
    admitted = scale * (negatives + lam * total)
    bias = (estimator._limit_bias(assay, lam, recent, negatives, below)
            if p_star < 1.0 else math.nan)
    return (p_star, tested_recent / total, min(admitted / (1.0 + lam * w0), 1.0),
            (1.0 - params.prevalence) * admitted, bias)


@pytest.mark.parametrize(
    "law,params,c",
    [(law, params, c)
     for law in [ExponentialInterTest(1.0), UniformInterTest(0.0, 3.0),
                 UniformInterTest(1.0, 4.0)]
     for params in [DEFAULT_PARAMS, PopulationParams(0.032, 0.05)]
     for c in sorted({0.0, 0.25, getattr(law, "a", 0.0), 1.99, T_STAR,
                      getattr(law, "b", 3.0), params.horizon + 2.0})],
    ids=lambda v: (f"tau{v.horizon:.3g}" if isinstance(v, PopulationParams)
                   else f"c{v:g}" if isinstance(v, float)
                   else f"uni{v.a:g}-{v.b:g}" if isinstance(v, UniformInterTest)
                   else f"exp{v.theta:g}"),
)
@RULES
@RS
@pytest.mark.parametrize("frr", [0.0, 0.02])
def test_shared_pieces_move_no_float(law, params, c, rule, r, frr):
    # R and W_x walk W_c's pieces cut at x = min(T*, tau); at tau = 1.64 the
    # cut is the horizon itself.  Every field is bit for bit the one composed
    # from separate walks of the weight's own piece lists.
    assay, process = assay_with_frr(frr), TestingProcess(law, rule)
    want = composed_from_walks(assay, process, r, c, params)
    if want is None:
        with pytest.raises(InfeasibleScenarioError, match="no attendee can pass"):
            survey_law(assay, process, r, c, params)
        with pytest.raises(InfeasibleScenarioError, match="no attendee can pass"):
            survey_composition(assay, process, r, c, params)
        return
    got = survey_law(assay, process, r, c, params)
    fields = (got.p_star, got.p_r, got.inclusion, got.admit, got.analytic_bias)
    assert [repr(v) for v in fields] == [repr(v) for v in want]
    assert survey_composition(assay, process, r, c, params) == want[:2]


def uniform_pieces_by_filter(law, rule, r, c, x):
    """A uniform weight's pieces as the kernel first built them: every knee
    filtered to [0, x] and sorted, F(c) from `reference_sampler.residual_cdf`."""
    a, b = law.a, law.b
    cdf = law.residual_cdf_pieces
    swp = rule is ObservationRule.STOP_WHEN_POSITIVE
    breaks = {0.0, x, c, a, b, c + a, c + b} if swp else {0.0, x, c, a, b}
    edges = sorted([e for e in breaks if 0.0 <= e <= x])
    survive_c = 1.0 - residual_cdf(c, law)
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        if mid <= c:
            coefs = (survive_c, 0.0, 0.0)
        else:
            k0, k1, k2 = cdf[2 if mid >= b else 1 if mid >= a else 0]
            if not swp:
                coefs = ((1.0 - r) * (1.0 - k0) + r * survive_c, (r - 1.0) * k1,
                         (r - 1.0) * k2)
            else:
                v = mid - c
                g0, g1, g2 = cdf[2 if v >= b else 1 if v >= a else 0]
                coefs = (r * (g0 - c * (g1 - c * g2)) + 1.0 - k0,
                         r * (g1 - 2.0 * c * g2) - k1, r * g2 - k2)
        pieces.append((lo, hi, coefs))
    return 1.0, survive_c, pieces


@pytest.mark.parametrize(
    "law", [UniformInterTest(0.0, 3.0), UniformInterTest(1.0, 4.0),
            UniformInterTest(0.5, 1.0)], ids=lambda v: f"uni{v.a:g}-{v.b:g}")
@RULES
def test_uniform_pieces_equal_the_filtered_knees(law, rule):
    # read F(c) from the law's pieces, cut the knees at x only when one lies
    # past it: the same edges and the same floats
    a, b, short = law.a, law.b, PopulationParams(0.032, 0.05).horizon
    for r in (0.0, 0.6, 1.0):
        for c in sorted({0.0, 0.25, a, 1.99, T_STAR, b, a + b, HORIZON + 2.0}):
            for x in sorted({0.0, 0.25, c, a, b, c + a, T_STAR, short, HORIZON}):
                got = estimator._uniform_pieces(law, rule, r, c, x)
                assert got == uniform_pieces_by_filter(law, rule, r, c, x)


# ---------------------------------------------------------------------------
# the exponential kernel's range: it scales the weight by e^{-theta*c}

SWP = ObservationRule.STOP_WHEN_POSITIVE
REGULAR = ObservationRule.REGULAR


@pytest.mark.parametrize(
    "call",
    [
        lambda: estimator._weight(TestingProcess(ExponentialInterTest(100.0), SWP),
                                  1.0, 10.0, HORIZON)[2](HORIZON),
        lambda: estimator._weight(TestingProcess(ExponentialInterTest(100.0), SWP),
                                  0.0, 7.1, HORIZON)[2](HORIZON),
        lambda: effective_mdri_closed(DEFAULT_ASSAY, 1e308, 1.0, 0.5, REGULAR),
        lambda: effective_mdri_closed(DEFAULT_ASSAY, 710.0, 0.6, 1.0, REGULAR),
        lambda: analytic_bias(DEFAULT_ASSAY, 400.0, 1.0, 1.9, SWP, DEFAULT_PARAMS),
    ],
    ids=["swp_weight", "swp_weight_r0", "regular_curve_inf", "regular_curve",
         "swp_bias"],
)
def test_kernel_rejects_cells_past_its_range(call):
    with pytest.raises(InfeasibleScenarioError,
                       match=r"theta\*c = .* is past the range"):
        call()


@RULES
def test_survey_law_rejects_cells_past_the_kernel_range(rule):
    # SWP overflows in W_c, Regular in R (e^{-710} is still a subnormal)
    theta, c = (100.0, 10.0) if rule is SWP else (710.0, 1.0)
    process = TestingProcess(ExponentialInterTest(theta), rule)
    with pytest.raises(InfeasibleScenarioError, match=rf"theta\*c = {theta * c:g} "):
        survey_law(DEFAULT_ASSAY, process, 1.0, c, DEFAULT_PARAMS)


def test_kernel_keeps_cells_within_its_range():
    # e^{570} is finite: the weight grows past MDRI without bound, as the
    # Stop-When-Positive weight of tests long past does (value at the parent)
    eff = effective_mdri_closed(DEFAULT_ASSAY, 300.0, 1.0, 1.9, SWP)
    assert eff == 5.182632637987685e244
    # the Regular weight needs no e^{theta*c}; the scale underflows to 0
    scale, negatives, integral = estimator._weight(
        TestingProcess(ExponentialInterTest(800.0), REGULAR), 1.0, 1.0, HORIZON
    )
    total = integral(HORIZON)
    assert (scale, negatives) == (0.0, 1.0) and math.isfinite(total)
    # a window past the curve's range needs no e^{theta*c} either
    eff = effective_mdri_closed(DEFAULT_ASSAY, 100.0, 1.0, 10.0, SWP)
    assert eff == mdri(DEFAULT_ASSAY)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: ExponentialInterTest(math.inf), "theta must be finite, got inf"),
        (lambda: ExponentialInterTest(math.nan), "theta must be positive, got nan"),
        (lambda: UniformInterTest(0.0, math.inf), "b must be finite, got inf"),
        (lambda: effective_mdri_closed(DEFAULT_ASSAY, math.inf, 1.0, 0.0, SWP),
         "theta must be finite, got inf"),
    ],
)
def test_rejects_infinite_rates(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# ---------------------------------------------------------------------------
# the exponential analytic layer, pinned bit for bit

PIN_THETAS = (0.4, 1.0, 3.0)
PIN_RS = (0.0, 0.6, 1.0)
# c = 0, inside T*, at and past T* and past the horizon; (b + theta)*c lies
# in (0.5, 1.1], where Q is computed by a series, at (0.4, 0.5) and (1.0, 0.25)
PIN_CS = (0.0, 0.25, 0.5, 1.5, T_STAR, 2.5, HORIZON + 1.0)
PIN_ASSAYS = (DEFAULT_ASSAY, LONG_ASSAY, assay_with_frr(0.015))


def exponential_layer_values():
    """Full-precision reprs of every exponential entry point over a nominal
    (assay, rule, theta, r, c) surface; an error reads as its repr."""
    def value(call):
        try:
            return repr(call())
        except ValueError as exc:
            return repr(exc)

    for assay in PIN_ASSAYS:
        for rule in ObservationRule:
            for theta in PIN_THETAS:
                process = TestingProcess(ExponentialInterTest(theta), rule)
                for r in PIN_RS:
                    for c in PIN_CS:
                        args = (assay, theta, r, c, rule)
                        yield from (
                            value(lambda: effective_mdri_closed(*args)),
                            value(lambda: analytic_bias(*args, DEFAULT_PARAMS)),
                            value(lambda: survey_composition(
                                assay, process, r, c, DEFAULT_PARAMS)),
                            value(lambda: forecast(rule, DEFAULT_PARAMS, theta,
                                                   r, c, 5000)),
                            value(lambda: survey_law(assay, process, r, c,
                                                     DEFAULT_PARAMS)),
                        )


def test_exponential_layer_unchanged():
    # sha256 of the values above, re-recorded when every Q left scipy's
    # series (`recency_model._upper_gamma`): 185 of the 1,890 values moved,
    # each by less than 1e-13 relative, to within 5e-15 of quad
    h = hashlib.sha256()
    for v in exponential_layer_values():
        h.update(v.encode() + b"\n")
    assert h.hexdigest() == (
        "a4b5d11cacc9b3a846142df6dd0b785191b821359bf14b2c4abd24b77fa9f7af")


# ---------------------------------------------------------------------------
# no incomplete gamma on scipy's series: Q(s, x) at x <= 1.1 and P(a, x) at
# 1 < x <= 1.1, a <= x are summed by a series that costs 4-6 us a call


def test_only_recency_model_holds_scipy_gammas():
    scipy_gammas = (special, special.gammainc, special.gammaincc,
                    cython_special.gammainc, cython_special.gammaincc)
    for info in pkgutil.iter_modules(recencysim.__path__):
        module = importlib.import_module(f"recencysim.{info.name}")
        if module is not recency_model:
            held = [name for name, v in vars(module).items()
                    if any(v is g for g in scipy_gammas)]
            assert not held, (info.name, held)


def record_scipy_gammas(monkeypatch):
    """(name, a, x) of every scipy incomplete gamma the package evaluates:
    the scalar entry points and the array P of `phi`, all in
    `recency_model`.  The per-assay cutoff terms are computed afresh."""
    calls = []
    for name in ("gammainc", "gammaincc"):
        def recorded(a, x, fn=getattr(recency_model, name), name=name):
            calls.append((name, a, x))
            return fn(a, x)
        monkeypatch.setattr(recency_model, name, recorded)

    def recorded_array(a, x):
        calls.extend(("gammainc", float(ai), float(xi)) for ai, xi in np.broadcast(a, x))
        return special.gammainc(a, x)

    monkeypatch.setattr(recency_model, "special",
                        types.SimpleNamespace(gammainc=recorded_array))
    for assay in PIN_ASSAYS:
        monkeypatch.delitem(assay.__dict__, "cutoff_terms", raising=False)
    return calls


def test_no_incomplete_gamma_takes_scipy_series(monkeypatch):
    calls = record_scipy_gammas(monkeypatch)
    made = []
    for scenario in build_grid(7, 1):  # the main grid's law pass
        try:
            scenario.count_law
        except InfeasibleScenarioError:
            pass
    made.append(len(calls))
    emit_table1()
    made.append(len(calls))
    assert len(list(exponential_layer_values())) == 1890  # both assays, and frr
    made.append(len(calls))
    assert 0 < made[0] < made[1] < made[2]
    series = [(name, a, x) for name, a, x in calls
              if x <= 1.1 and (name == "gammaincc" or (x > 1.0 and a <= x))]
    assert not series


# ---------------------------------------------------------------------------
# per-object constants: cached on the frozen assay, parameters and law


@pytest.mark.parametrize(
    "make,constants",
    [
        (lambda: RecencyAssay(0.352, 1.273, 2.0), ("cutoff_terms", "moment_terms")),
        (lambda: PopulationParams(0.032, 0.29), ("horizon",)),
        (lambda: UniformInterTest(0.0, 3.0), ("residual_cdf_pieces",)),
    ],
    ids=["assay", "params", "uniform"],
)
def test_constants_leave_equality_and_hash(make, constants):
    # two objects built apart, one with its constants filled: still equal,
    # hashed alike and printed alike, as dict keys too
    filled, fresh = make(), make()
    for name in constants:
        getattr(filled, name)
    assert filled == fresh and fresh == filled
    assert hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
    assert {fresh: "found"}[filled] == "found"


@pytest.mark.parametrize(
    "scenario",
    [build_grid(5, 2)[37], build_sensitivity("uniform_intertest", 5, 2)[61],
     build_sensitivity("frr", 5, 2)[23]],
    ids=lambda s: s.label,
)
def test_filled_scenario_pickles_to_an_equal_count_law(scenario):
    # the pool's path: a scenario whose law and constants are filled
    law = scenario.count_law
    copy = pickle.loads(pickle.dumps(scenario))
    assert copy == scenario and copy.count_law == law
    assert copy.assay.cutoff_terms == scenario.assay.cutoff_terms


@pytest.mark.parametrize(
    "entry,law",
    [("effective_mdri_closed", ExponentialInterTest(1.0)),
     ("survey_law", ExponentialInterTest(1.0)),
     ("survey_law", UniformInterTest(0.0, 3.0))],
    ids=["effective_mdri", "law_exponential", "law_uniform"],
)
def test_repeated_calls_evaluate_alike(monkeypatch, entry, law):
    # nothing keyed by theta, r or c is cached: a repeated call makes the
    # kernel's incomplete gamma calls again, as many as the first call did;
    # each Q of the kernel is one call of scipy's primitives
    counted = []
    real = estimator._upper_gamma
    monkeypatch.setattr(estimator, "_upper_gamma",
                        lambda *a: counted.append(a) or real(*a))
    assay = RecencyAssay(0.352, 1.273, 2.0)  # its constants not yet filled
    process = TestingProcess(law, ObservationRule.STOP_WHEN_POSITIVE)
    if entry == "survey_law":
        call = lambda: survey_law(assay, process, 0.6, 0.25, DEFAULT_PARAMS)  # noqa: E731
    else:
        call = lambda: effective_mdri_closed(assay, 1.0, 0.6, 0.25, SWP)  # noqa: E731
    first = call()
    calls = len(counted)
    assert calls > 0 and call() == first
    assert len(counted) == 2 * calls
