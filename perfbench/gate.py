"""Correctness gate, run untimed after the measured units.

Grid workloads: every cell is `ok` with n_total = N, and workers = 1 and
workers = 2 write byte-identical replications.csv and summary.csv for one
seed.  Analytic surface: the bias is exactly zero where c >= T* and at
(r = 1, c = 0), and on a fixed, seed-independent subset of nominal surface
points the closed forms match an independent `scipy.integrate.quad` oracle
of the defining integrals.

Each check returns a list of problems (check_surface also the worst oracle
error); an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import N_TARGET, evaluate_point, surface_points

# Closed forms (MDRI, effective MDRI, bias, inclusion probability) against
# the oracle.  survey_composition is itself an adaptive quadrature at
# absolute tolerance 1e-9 over masses down to ~1e-4 (c past T*, theta ~ 3),
# so its relative error reaches ~1e-6 by design.
CLOSED_FORM_RTOL = 1e-8
COMPOSITION_RTOL = 1e-5
ORACLE_STRIDE = 5  # 39 nominal points; coprime with the 4 r and 6 c levels


def check_grid(out_dir: Path, cells: int, reps: int):
    problems = []
    with open(out_dir / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    if len(summary) != cells:
        problems.append(f"summary.csv has {len(summary)} cells, expected {cells}")
    problems += [f"cell {row['scenario']}: status {row['status']}"
                 for row in summary if row["status"] != "ok"]
    with open(out_dir / "replications.csv", newline="") as fh:
        reps_rows = list(csv.DictReader(fh))
    if len(reps_rows) != cells * reps:
        problems.append(f"replications.csv has {len(reps_rows)} rows, "
                        f"expected {cells * reps}")
    problems += [
        f"{row['scenario']} rep {row['replication']}: n_total {row['n_total']}, "
        f"status {row['status']}"
        for row in reps_rows
        if int(row["n_total"]) != N_TARGET or row["status"] != "ok"
    ]
    return problems[:20]


def check_identical(dir_a: Path, dir_b: Path, what: str):
    return [f"{name} differs between {what}"
            for name in ("replications.csv", "summary.csv")
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]


# ---------------------------------------------------------------------------
# analytic oracle, written from the model rather than from the package


def _survey_weight(rule, theta, r, c, u):
    """r * P(T <= u, T > c | U = u) + P(T > u, T > c | U = u)."""
    above = math.exp(-theta * max(u, c))
    if u <= c:
        below = 0.0
    elif rule.value == "regular":  # T ~ Exp(theta), independent of U
        below = math.exp(-theta * c) - math.exp(-theta * u)
    else:  # Stop-When-Positive: first post-infection test, u - T ~ Exp(theta)
        below = 1.0 - math.exp(-theta * (u - c))
    return r * below + above


def _quad(f, a, b, kink):
    from scipy import integrate

    points = [kink] if a < kink < b else None
    value, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500,
                              points=points)
    return value


def oracle(point, assay, params):
    """(mdri, effective mdri, p_star, p_r, inclusion probability)."""
    from scipy.special import gammaincc

    rule, theta, r, c = point
    tstar, tau, lam = assay.recency_cutoff, params.horizon, params.incidence

    def phi(u):
        return gammaincc(assay.gamma_shape, assay.gamma_rate * u)

    def w(u, cc=c):
        return _survey_weight(rule, theta, r, cc, u)

    omega = _quad(phi, 0.0, tstar, -1.0)
    recent = _quad(lambda u: phi(u) * w(u), 0.0, tstar, c)
    eff = recent / math.exp(-theta * c)
    w_total = _quad(w, 0.0, tau, c)
    w_total0 = _quad(lambda u: w(u, 0.0), 0.0, tau, -1.0)
    p_star = lam * w_total / (lam * w_total + math.exp(-theta * c))
    p_r = recent / w_total
    s = (math.exp(-theta * c) + lam * w_total) / (1.0 + lam * w_total0)
    return omega, eff, p_star, p_r, s


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_surface(points, values):
    """Gate problems, and the worst effective-MDRI error over `points`.

    The worst error is reported, not gated: at rare jittered points the
    quadrature inside effective_mdri_closed misses 1e-8 (see README).
    """
    import recencysim as rs

    assay, params = rs.DEFAULT_ASSAY, rs.DEFAULT_PARAMS
    lam = params.incidence
    problems = []
    for point, v in zip(points, values):
        if v is None:
            continue
        rule, theta, r, c = point
        if (c >= assay.recency_cutoff or (r == 1.0 and c == 0.0)) and v[1] != 0.0:
            problems.append(f"{point}: bias {v[1]!r} is not exactly 0")
    for point in surface_points(0, jitter=False)[::ORACLE_STRIDE]:
        eff, bias, p_star, p_r, _, s, _ = evaluate_point(point)
        o_omega, o_eff, o_pstar, o_pr, o_s = oracle(point, assay, params)
        errors = {
            "mdri": (_rel(rs.mdri(assay), o_omega), CLOSED_FORM_RTOL),
            "effective_mdri": (_rel(eff, o_eff), CLOSED_FORM_RTOL),
            "bias ratio": (_rel(1.0 + bias / lam, o_eff / o_omega), CLOSED_FORM_RTOL),
            "inclusion_probability": (_rel(s, o_s), CLOSED_FORM_RTOL),
            "p_star": (_rel(p_star, o_pstar), COMPOSITION_RTOL),
            "p_r": (_rel(p_r, o_pr), COMPOSITION_RTOL),
        }
        problems += [f"{point}: {name} off by {err:.2e} relative (limit {tol:g})"
                     for name, (err, tol) in errors.items() if not err <= tol]
    worst = max((_rel(v[0], oracle(p, assay, params)[1])
                 for p, v in zip(points, values) if v is not None), default=0.0)
    return problems[:20], worst
