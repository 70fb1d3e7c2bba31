"""Canned certification experiments behind ``repro`` and the acceptance suite.

Each experiment returns an ExperimentResult whose ``files`` map file names
to fully rendered text; given the same package build they re-render
byte-identically, which is what the reproducibility gate checks.  All
randomness is seeded and all iteration is order-fixed.

The solver experiments run each method once per instance at its default
config and fit its rate against the run's own limit: the final iterate,
Newton-polished and certified a strict local minimum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, optimality, problem as prob_mod, prox, solvers
from .errors import ValidationError

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]

# Shared instance family for the solver experiments.
INSTANCE_SEEDS = tuple(range(1, 21))
INSTANCE_PARAMS = dict(m=20, n=50, s=5, noise=0.0, lam=0.1, p=0.5)

TAU_SCHEDULE = (0.1, 0.5)   # value-type inexactness c * rho^k
T_SCHEDULE = (0.3, 0.7)     # distance-type inexactness c * rho^k


@dataclass
class ExperimentResult:
    experiment: str
    ok: bool
    summary: dict
    failures: list[str] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict, repr=False)  # not serialized


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# prox-pin: scalar prox vs brute-force oracle, plus the magnitude law.
# ---------------------------------------------------------------------------

ARGMIN_TOL = 1e-7
VALUE_TOL = 1e-10
HALF_TOL = 1e-10
MAGNITUDE_SLACK = 1e-12


def sample_prox_queries(n_queries: int = 10_000, seed: int = 2024):
    """Random prox queries: z in [-20,20], v in [0.01,5], lam in [0.01,10],
    p drawn half from {0.2, 0.5, 0.8} and half uniform on [0.3, 0.7]."""
    rng = np.random.default_rng(seed)
    queries = []
    for i in range(n_queries):
        z = rng.uniform(-20.0, 20.0)
        v = rng.uniform(0.01, 5.0)
        lam = rng.uniform(0.01, 10.0)
        if i % 2 == 0:
            p = float(rng.choice([0.2, 0.5, 0.8]))
        else:
            p = rng.uniform(0.3, 0.7)
        queries.append(prox.ProxQuery(z=float(z), v=float(v), lam=float(lam), p=p))
    return queries


def _oracle_compare(q: prox.ProxQuery):
    fast = prox.prox_scalar(q)
    oracle = prox.prox_oracle(q)
    argmin_err = abs(fast.selection - min(oracle.minimizers, key=lambda m: abs(m - fast.selection)))
    value_err = abs(fast.value - oracle.value) / (1.0 + abs(oracle.value))
    y = fast.selection
    bound = prox.lower_bound(q.v, q.lam, q.p)
    law_ok = (y == 0.0) or (abs(y) >= bound - MAGNITUDE_SLACK)
    half_err = 0.0
    if q.p == 0.5:
        half = prox.prox_scalar_half(q.z, q.v, q.lam)
        half_err = max(
            abs(half.selection - fast.selection),
            abs(half.value - fast.value) / (1.0 + abs(fast.value)),
        )
    return argmin_err, value_err, law_ok, half_err


def exp_prox_pin() -> ExperimentResult:
    results = [_oracle_compare(q) for q in sample_prox_queries()]
    worst_argmin = max(r[0] for r in results)
    worst_value = max(r[1] for r in results)
    law_violations = sum(0 if r[2] else 1 for r in results)
    worst_half = max(r[3] for r in results)
    failures = []
    if worst_argmin > ARGMIN_TOL:
        failures.append(f"argmin disagreement {worst_argmin:.3e} > {ARGMIN_TOL}")
    if worst_value > VALUE_TOL:
        failures.append(f"value disagreement {worst_value:.3e} > {VALUE_TOL}")
    if worst_half > HALF_TOL:
        failures.append(f"half-thresholding disagreement {worst_half:.3e} > {HALF_TOL}")
    if law_violations:
        failures.append(f"{law_violations} magnitude lower-bound violations")
    summary = {
        "n_queries": len(results),
        "worst_argmin_err": worst_argmin,
        "worst_value_err": worst_value,
        "worst_half_err": worst_half,
        "magnitude_law_violations": law_violations,
    }
    return ExperimentResult(
        "prox-pin", not failures, summary, failures,
        files={"prox-pin-report.json": _json_text(
            {"ok": not failures, **summary, "failures": failures})},
    )


# ---------------------------------------------------------------------------
# Solver experiments on the shared 20-instance family.
# ---------------------------------------------------------------------------


def make_instances():
    return [
        prob_mod.generate_instance(seed=s, **INSTANCE_PARAMS)[0]
        for s in INSTANCE_SEEDS
    ]


def _solve(prob, algo: str, inexact: solvers.Schedule):
    """``algo``'s default config and run, and the run's certified limit.

    The limit (x*, F*) comes from the same algorithm and schedule as the
    trace being fitted: the inexact runs occasionally settle in a different
    (sometimes better) basin than exact PGA, and a rate fit against a
    foreign limit is meaningless.
    """
    cfg = solvers.SolverConfig(v=solvers.default_stepsize(prob), inexact=inexact)
    trace = solvers.runner(algo)(prob, cfg)
    x_star = optimality.polish_local_minimum(prob, trace.final_iterate)
    return cfg, trace, x_star, prob_mod.objective(prob, x_star)


def reference_solution(prob, algo: str = "pga",
                       inexact: solvers.Schedule | None = None):
    """x* and F* for rate fits: the certified limit of ``algo``'s default run."""
    return _solve(prob, algo, inexact or solvers.Schedule.zero())[2:]


def _solve_family(algo: str, inexact: solvers.Schedule):
    """One default run of ``algo`` per instance: the artifacts (problems,
    configs, traces) and each trace's F*."""
    artifacts = {"problems": [], "configs": [], "traces": []}
    f_stars = []
    for prob in make_instances():
        cfg, trace, _, f_star = _solve(prob, algo, inexact)
        artifacts["problems"].append(prob)
        artifacts["configs"].append(cfg)
        artifacts["traces"].append(trace)
        f_stars.append(f_star)
    return artifacts, f_stars


def fit_tail_rate(trace, f_star, n_hat):
    """Geometric fit over the certified tail of a trace.

    The linear-rate guarantees are asymptotic: they hold once the iterate
    support has settled, so the window starts at the later of the midpoint
    and the support-identification index (plus a small buffer).  Runs that
    reach the floating-point floor of F before that index (the inexact
    variants can flicker near-zero coordinates long after F has converged)
    clamp the window back so it still covers the geometric descent.
    """
    series = [max(f - f_star, 0.0) for f in trace.f_values]
    floor = 100.0 * np.finfo(float).eps * max(series)
    k_floor = max(k for k, s in enumerate(series) if s > floor)
    start = len(series) // 2
    if n_hat is not None:
        start = max(start, n_hat + 10)
    start = min(start, max(0, k_floor - 30))
    # cut before the floating-point floor: past k_floor the gap measures
    # rounding of F, not convergence
    return analysis.fit_series(series[start:k_floor + 1], tail_frac=1.0,
                               quantity="objective-gap")


def exp_pga_linear() -> ExperimentResult:
    rows = []
    failures = []
    artifacts, f_stars = _solve_family("pga", solvers.Schedule.zero())
    for seed, trace, f_star in zip(INSTANCE_SEEDS, artifacts["traces"], f_stars):
        n_hat = analysis.detect_support_identification(trace)
        fit = fit_tail_rate(trace, f_star, n_hat)
        resid = trace.residuals[-1]
        f = trace.f_values
        checks = {
            "converged": bool(trace.converged),
            "monotone": not solvers._violations(f[1:], f[:-1],
                                                1e-12 * (1.0 + f[0]))[0],
            "support_identified": n_hat is not None,
            "residual_ok": resid <= 1e-7,
            "eta_in_range": 0.0 < fit.eta_hat < 1.0,
            "fit_ok": fit.r2 >= 0.98,
        }
        for name, ok in checks.items():
            if not ok:
                failures.append(f"seed {seed}: {name} failed")
        rows.append((seed, len(trace), float(fit.eta_hat), float(fit.r2),
                     -1 if n_hat is None else n_hat, float(resid),
                     float(trace.f_values[-1])))
    summary = {
        "instances": len(rows),
        "eta_max": max(r[2] for r in rows),
        "r2_min": min(r[3] for r in rows),
    }
    files = {
        "pga-linear-rows.csv": _csv_text(
            ("seed", "iters", "eta_hat", "r2", "n_hat", "final_residual", "f_final"),
            rows,
        ),
        "pga-linear-report.json": _json_text(
            {"ok": not failures, **summary, "failures": failures}),
    }
    return ExperimentResult("pga-linear", not failures, summary, failures,
                            files, artifacts)


def _exp_ipga(algo: str) -> ExperimentResult:
    c, rho = TAU_SCHEDULE if algo == "ipga1p" else T_SCHEDULE
    rows = []
    failures = []
    matches = 0
    artifacts, f_stars = _solve_family(algo, solvers.Schedule.geometric(c, rho))
    for seed, prob, cfg, trace, f_star in zip(
            INSTANCE_SEEDS, artifacts["problems"], artifacts["configs"],
            artifacts["traces"], f_stars):
        exact = solvers.run_pga(prob, solvers.SolverConfig(v=cfg.v))
        n_hat = analysis.detect_support_identification(trace)
        fit = fit_tail_rate(trace, f_star, n_hat)
        certs = not solvers._control_violations(trace, cfg.inexact, trace.eps_kind)
        dist = float(np.linalg.norm(trace.final_iterate - exact.final_iterate))
        same_basin = dist <= 1e-5
        matches += int(same_basin)
        checks = {
            "converged": bool(trace.converged),
            "certificates": certs,
            "eta_in_range": 0.0 < fit.eta_hat < 1.0,
            "fit_ok": fit.r2 >= 0.95,
        }
        for name, ok in checks.items():
            if not ok:
                failures.append(f"seed {seed}: {name} failed")
        rows.append((seed, len(trace), float(fit.eta_hat), float(fit.r2),
                     int(certs), dist, int(same_basin)))
    if matches < 18:
        failures.append(f"only {matches}/20 runs reached the exact-PGA limit")
    summary = {
        "instances": len(rows),
        "schedule": {"c": c, "rho": rho},
        "limit_matches": matches,
        "eta_max": max(r[2] for r in rows),
        "r2_min": min(r[3] for r in rows),
    }
    name = "ipga1-linear" if algo == "ipga1p" else "ipga2-linear"
    files = {
        f"{name}-rows.csv": _csv_text(
            ("seed", "iters", "eta_hat", "r2", "certs_ok", "dist_to_exact",
             "same_basin"),
            rows,
        ),
        f"{name}-report.json": _json_text(
            {"ok": not failures, **summary, "failures": failures}),
    }
    return ExperimentResult(name, not failures, summary, failures, files,
                            artifacts)


def exp_ipga1_linear() -> ExperimentResult:
    return _exp_ipga("ipga1p")


def exp_ipga2_linear() -> ExperimentResult:
    return _exp_ipga("ipga2p")


# ---------------------------------------------------------------------------
# equivalence: optimality conditions vs dense grids on tiny instances.
# ---------------------------------------------------------------------------


def fixed_1d_instance() -> prob_mod.Problem:
    return prob_mod.Problem(A=[[1.0]], b=[2.0], lam=1.0, p=0.5)


def harness_instances(seed: int = 7):
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(10):
        A = rng.standard_normal((2, 1))
        b = rng.standard_normal(2) * 2.0
        lam = rng.uniform(0.5, 1.5)
        instances.append(prob_mod.Problem(A=A, b=b, lam=lam, p=0.5))
    for _ in range(5):
        A = rng.standard_normal((3, 2)) / math.sqrt(3.0)
        b = rng.standard_normal(3) * 2.0
        lam = rng.uniform(0.8, 1.5)
        instances.append(prob_mod.Problem(A=A, b=b, lam=lam, p=0.5))
    return instances


def exp_equivalence() -> ExperimentResult:
    failures = []
    rows = []

    fixed = fixed_1d_instance()
    enum = optimality.enumerate_local_minima(fixed, probe_samples=4000)
    # F(t) = (t - 2)^2 + |t|^(1/2) is stationary where t + t^(-1/2) / 4 = 2,
    # the prox equation of z = 2 at v = 1/2, whose root the prox selects here
    t_star = prox.prox_scalar(prox.ProxQuery(z=2.0, v=0.5, lam=1.0, p=0.5)).selection
    points = sorted(float(x[0]) for x in enum.points)
    if len(points) != 2 or abs(points[0]) > 1e-12 or abs(points[1] - t_star) > 1e-8:
        failures.append(
            f"fixed 1-D instance local minima {points}, expected [0, {t_star:.8f}]"
        )
    report = optimality.equivalence_harness(fixed, seed=11)
    if not report.ok:
        failures.extend(f"fixed 1-D: {c.detail}" for c in report.failures)
    rows.append(("fixed-1d", len(report.grid_minima), len(report.enumerated),
                 int(report.ok)))

    for i, prob in enumerate(harness_instances()):
        report = optimality.equivalence_harness(prob, seed=100 + i)
        if not report.ok:
            failures.extend(
                f"instance {i}: {c.kind} at {np.array2string(c.point, precision=6)}"
                f" ({c.detail})"
                for c in report.failures
            )
        rows.append((f"random-{i}", len(report.grid_minima),
                     len(report.enumerated), int(report.ok)))
    summary = {"instances": len(rows), "t_star": t_star}
    files = {
        "equivalence-rows.csv": _csv_text(
            ("instance", "grid_minima", "enumerated", "ok"), rows),
        "equivalence-report.json": _json_text(
            {"ok": not failures, **summary, "failures": failures}),
    }
    return ExperimentResult("equivalence", not failures, summary, failures, files)


EXPERIMENTS = {
    "prox-pin": exp_prox_pin,
    "pga-linear": exp_pga_linear,
    "ipga1-linear": exp_ipga1_linear,
    "ipga2-linear": exp_ipga2_linear,
    "equivalence": exp_equivalence,
}


def run_experiment(name: str) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name]()
