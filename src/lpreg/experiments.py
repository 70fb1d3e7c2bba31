"""Canned certification experiments behind ``repro`` and the acceptance suite.

Each experiment returns an ExperimentResult whose ``files`` map file names
to fully rendered text; given the same package build they re-render
byte-identically, which is what the reproducibility gate checks.  All
randomness is seeded and all iteration is order-fixed.

There are three: ``prox-pin`` (the scalar prox against its oracle),
``linear`` (the three solvers' rates) and ``equivalence`` (the optimality
conditions against dense grids).  ``linear`` runs each method once per
instance at its default config and fits its rate against the run's own
limit: the final iterate, Newton-polished and certified a strict local
minimum.  The inexact runs are compared with the same pass's exact runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, optimality, problem as prob_mod, prox, solvers
from .errors import ValidationError

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]

# The instance family of the ``linear`` experiment.
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
# linear: the three solvers on the 20-instance family.
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


# (algo, file prefix, schedule) of the methods in the rate pass; exact PGA
# runs first, since each inexact run is judged against its limit
METHODS = (
    ("pga", "pga-linear", None),
    ("ipga1p", "ipga1-linear", TAU_SCHEDULE),
    ("ipga2p", "ipga2-linear", T_SCHEDULE),
)


def exp_linear() -> ExperimentResult:
    """Exact PGA and both inexact PGAs, each once per instance of the family.

    Each method writes its own rows CSV and report JSON.  An inexact run's
    ``dist_to_exact`` is its final iterate's distance to that of the same
    instance's exact run; at least 18 of the 20 must lie within 1e-5.
    ``summary`` and ``artifacts`` (the problems, and each method's configs
    and traces) are keyed by algo.
    """
    rows = {algo: [] for algo, _, _ in METHODS}
    failures = {algo: [] for algo, _, _ in METHODS}
    artifacts = {algo: {"configs": [], "traces": []} for algo, _, _ in METHODS}
    artifacts["problems"] = make_instances()
    for seed, prob in zip(INSTANCE_SEEDS, artifacts["problems"]):
        for algo, _, schedule in METHODS:
            inexact = (solvers.Schedule.geometric(*schedule) if schedule
                       else solvers.Schedule.zero())
            cfg, trace, _, f_star = _solve(prob, algo, inexact)
            artifacts[algo]["configs"].append(cfg)
            artifacts[algo]["traces"].append(trace)
            n_hat = analysis.detect_support_identification(trace)
            fit = fit_tail_rate(trace, f_star, n_hat)
            if algo == "pga":
                exact = trace
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
                tail = (-1 if n_hat is None else n_hat, float(resid), float(f[-1]))
            else:
                certs = not solvers._control_violations(trace, inexact, trace.eps_kind)
                dist = float(np.linalg.norm(trace.final_iterate - exact.final_iterate))
                checks = {
                    "converged": bool(trace.converged),
                    "certificates": certs,
                    "eta_in_range": 0.0 < fit.eta_hat < 1.0,
                    "fit_ok": fit.r2 >= 0.95,
                }
                tail = (int(certs), dist, int(dist <= 1e-5))
            failures[algo].extend(f"seed {seed}: {name} failed"
                                  for name, ok in checks.items() if not ok)
            rows[algo].append((seed, len(trace), float(fit.eta_hat),
                               float(fit.r2)) + tail)

    summary, files = {}, {}
    for algo, name, schedule in METHODS:
        algo_rows = rows[algo]
        summary[algo] = {
            "instances": len(algo_rows),
            "eta_max": max(r[2] for r in algo_rows),
            "r2_min": min(r[3] for r in algo_rows),
        }
        header = ("n_hat", "final_residual", "f_final")
        if schedule:
            matches = sum(r[6] for r in algo_rows)
            if matches < 18:
                failures[algo].append(f"only {matches}/20 runs reached the exact-PGA limit")
            c, rho = schedule
            summary[algo].update(schedule={"c": c, "rho": rho}, limit_matches=matches)
            header = ("certs_ok", "dist_to_exact", "same_basin")
        files[f"{name}-rows.csv"] = _csv_text(
            ("seed", "iters", "eta_hat", "r2") + header, algo_rows)
        files[f"{name}-report.json"] = _json_text(
            {"ok": not failures[algo], **summary[algo], "failures": failures[algo]})
    all_failures = [f"{name}: {failure}" for algo, name, _ in METHODS
                    for failure in failures[algo]]
    return ExperimentResult("linear", not all_failures, summary, all_failures,
                            files, artifacts)


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

    report = optimality.equivalence_harness(fixed_1d_instance(), seed=11)
    # F(t) = (t - 2)^2 + |t|^(1/2) is stationary where t + t^(-1/2) / 4 = 2,
    # the prox equation of z = 2 at v = 1/2, whose root the prox selects here
    t_star = prox.prox_scalar(prox.ProxQuery(z=2.0, v=0.5, lam=1.0, p=0.5)).selection
    points = sorted(float(x[0]) for x in report.enumerated)
    if len(points) != 2 or abs(points[0]) > 1e-12 or abs(points[1] - t_star) > 1e-8:
        failures.append(
            f"fixed 1-D instance local minima {points}, expected [0, {t_star:.8f}]"
        )
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
    "linear": exp_linear,
    "equivalence": exp_equivalence,
}


def run_experiment(name: str) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name]()
