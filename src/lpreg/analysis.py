"""Trace certification, geometric-recursion bounds and rate estimation.

The certified descent conditions, with constants alpha, beta > 0 and a
nonnegative inexactness sequence eps_k, are

    sufficient decrease:  F(x^{k+1}) - F(x^k) <= -alpha ||x^{k+1}-x^k||^2
                                                 + eps_k^2,
    relative error:       ||w^{k+1}|| <= beta ||x^{k+1}-x^k|| + eps_k,

with w^{k+1} the minimal-norm subgradient at x^{k+1}.  Square summability
of eps_k and a tail ratio below 1 can only be decided symbolically for the
closed-form geometric schedules; for raw sequences the reports carry
tail-sum diagnostics instead of a verdict.

All checks allow a small absolute slack (default 1e-9) covering IEEE
rounding of the objective differences and the scalar prox root tolerance.
They fail closed: a step whose comparison involves a NaN or an infinity is
a violation, reported with an infinite excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .problem import Problem, SPECTRAL_TOL, spectral_norm_sq
from .prox import lower_bound
from .solvers import IterationTrace, Schedule

__all__ = [
    "ConditionReport",
    "RecursionCertificate",
    "RateEstimate",
    "certify_h1",
    "certify_h2",
    "estimate_beta",
    "check_geometric_recursion",
    "fit_rate",
    "fit_series",
    "detect_support_identification",
]

DEFAULT_SLACK = 1e-9


@dataclass
class ConditionReport:
    """Per-step outcome of one certified descent condition."""

    condition: str
    ok: bool
    violations: list[int]
    worst_violation: float
    worst_index: int | None
    constant: float
    eps_sum_sq: float
    eps_tail_fraction: float
    symbolic_summable: bool | None = None

    def as_dict(self):
        return {
            "condition": self.condition,
            "ok": self.ok,
            "violations": self.violations,
            "worst_violation": self.worst_violation,
            "worst_index": self.worst_index,
            "constant": self.constant,
            "eps_sum_sq": self.eps_sum_sq,
            "eps_tail_fraction": self.eps_tail_fraction,
            "symbolic_summable": self.symbolic_summable,
        }


def _eps_diagnostics(eps_sq):
    total = math.fsum(eps_sq)
    if total <= 0.0:
        return total, 0.0
    tail = math.fsum(eps_sq[len(eps_sq) // 2:])
    return total, tail / total


def _excess(lhs: float, rhs: float) -> float:
    """lhs - rhs, or inf when either side is not finite (fails closed)."""
    if math.isfinite(lhs) and math.isfinite(rhs):
        return lhs - rhs
    return math.inf


def certify_h1(
    trace: IterationTrace,
    alpha: float,
    eps_sq=None,
    slack: float = DEFAULT_SLACK,
    schedule: Schedule | None = None,
) -> ConditionReport:
    """Check the sufficient-decrease condition along a trace.

    ``eps_sq`` is the sequence of eps_k^2 terms; by default the trace's own
    certified value gaps are used (zero for exact runs).  The eps tail-sum
    diagnostic and, when a geometric ``schedule`` is supplied, the symbolic
    square-summability verdict ride along in the report.
    """
    n_steps = len(trace.step_norms)
    if eps_sq is None:
        eps_sq = trace.eps_values if trace.eps_kind == "value" else [0.0] * n_steps
    eps_sq = list(eps_sq)
    if len(eps_sq) < n_steps:
        raise ValidationError(
            f"eps sequence has {len(eps_sq)} entries, trace has {n_steps} steps"
        )
    violations = []
    worst = -math.inf
    worst_idx = None
    for k in range(n_steps):
        lhs = trace.f_values[k + 1] - trace.f_values[k]
        rhs = -alpha * trace.step_norms[k] ** 2 + eps_sq[k]
        excess = _excess(lhs, rhs)
        if excess > worst:
            worst, worst_idx = excess, k
        if excess > slack:
            violations.append(k)
    total, tail_frac = _eps_diagnostics(eps_sq[:n_steps])
    symbolic = None
    if schedule is not None and schedule.is_geometric:
        symbolic = schedule.rho < 1.0  # then sum eps_k^2 < inf and ratio < 1
    return ConditionReport(
        condition="sufficient-decrease",
        ok=not violations,
        violations=violations,
        worst_violation=worst if worst_idx is not None else 0.0,
        worst_index=worst_idx,
        constant=alpha,
        eps_sum_sq=total,
        eps_tail_fraction=tail_frac,
        symbolic_summable=symbolic,
    )


def estimate_beta(prob: Problem, trace: IterationTrace, v_lo: float) -> float:
    """Relative-error constant estimated from the trace tail.

    beta = 1/v_lo + 2 ||A||^2 + max_i lambda_i p (1-p) |x_i|^{p-2}, with the
    last factor taken over the support coordinates of the tail iterates.
    Without stored iterates the scalar-prox magnitude floor bounds
    |x_i|^{p-2} from above, which keeps the estimate conservative.
    """
    a_sq = spectral_norm_sq(prob) + SPECTRAL_TOL
    p = prob.p
    if trace.iterates is not None and len(trace.iterates) > 1:
        tail = trace.iterates[len(trace.iterates) // 2:]
        min_mag = math.inf
        for x in tail:
            nz = np.abs(x[x != 0.0])
            if nz.size:
                min_mag = min(min_mag, float(nz.min()))
        if math.isinf(min_mag):
            min_mag = lower_bound(v_lo, prob.lambda_lower, p)
    else:
        min_mag = lower_bound(v_lo, prob.lambda_lower, p)
    lam_max = float(prob.lambda_vec.max())
    l_phi = lam_max * p * (1.0 - p) * min_mag ** (p - 2.0)
    return 1.0 / v_lo + 2.0 * a_sq + l_phi


def certify_h2(
    prob: Problem,
    trace: IterationTrace,
    beta: float | str = "auto",
    eps_seq=None,
    slack: float = DEFAULT_SLACK,
    v_lo: float | None = None,
) -> ConditionReport:
    """Check the relative-error condition along a trace.

    The minimal-norm subgradient norms are the trace's stored residuals
    (recomputed from iterates by the solvers); step k pairs the residual at
    x^{k+1} with ||x^{k+1} - x^k||.
    """
    n_steps = len(trace.step_norms)
    if len(trace.residuals) < n_steps + 1:
        raise ValidationError("trace does not store per-iterate residuals")
    if beta == "auto":
        if v_lo is None:
            if not trace.stepsizes:
                raise ValidationError("auto beta needs v_lo or trace stepsizes")
            v_lo = min(trace.stepsizes)
        beta = estimate_beta(prob, trace, v_lo)
    beta = float(beta)
    if eps_seq is None:
        if trace.eps_kind == "dist":
            eps_seq = trace.eps_values
        else:
            eps_seq = [0.0] * n_steps
    eps_seq = list(eps_seq)
    if len(eps_seq) < n_steps:
        raise ValidationError(
            f"eps sequence has {len(eps_seq)} entries, trace has {n_steps} steps"
        )
    violations = []
    worst = -math.inf
    worst_idx = None
    for k in range(n_steps):
        lhs = trace.residuals[k + 1]
        rhs = beta * trace.step_norms[k] + eps_seq[k]
        excess = _excess(lhs, rhs)
        if excess > worst:
            worst, worst_idx = excess, k
        if excess > slack:
            violations.append(k)
    total, tail_frac = _eps_diagnostics([e * e for e in eps_seq[:n_steps]])
    return ConditionReport(
        condition="relative-error",
        ok=not violations,
        violations=violations,
        worst_violation=worst if worst_idx is not None else 0.0,
        worst_index=worst_idx,
        constant=beta,
        eps_sum_sq=total,
        eps_tail_fraction=tail_frac,
    )


# ---------------------------------------------------------------------------
# Executable geometric-recursion bound.
# ---------------------------------------------------------------------------


@dataclass
class RecursionCertificate:
    """Constructed (K, theta) dominating a recursively bounded sequence."""

    hypothesis_ok: bool
    fail_index: int | None
    K: float
    theta: float
    tau: float
    tail_start: int
    dominated: bool
    dominance_fail_index: int | None

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and self.dominated


def check_geometric_recursion(a_seq, delta_seq, eta: float) -> RecursionCertificate:
    """Verify a_{k+1} <= eta a_k + delta_k and build a dominating K theta^k.

    The hypotheses are that both sequences are nonnegative, eta lies in
    (0,1), and the delta tail ratio stays below 1 on the given data.  The
    construction picks tau with delta_{k+1} <= tau^2 delta_k on the tail,
    converts delta into c_k tau^k with summable c, and returns

        theta = max(eta, tau),
        K = max(1, a_0, a_1 / (c_0 + theta)) * exp(sum(c) / theta),

    then asserts a_k <= K theta^k at every provided index.
    """
    a = [float(v) for v in a_seq]
    d = [float(v) for v in delta_seq]
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0, 1), got {eta}")
    if any(v < 0 for v in a) or any(v < 0 for v in d):
        raise ValidationError("sequences must be nonnegative")
    if len(d) < len(a) - 1:
        raise ValidationError("delta sequence too short for the recursion check")

    fail_index = None
    for k in range(len(a) - 1):
        rhs = eta * a[k] + d[k]
        if a[k + 1] > rhs * (1.0 + 4e-16) + 5e-324:
            fail_index = k
            break

    # tail ratio of delta: find the first index after which ratios stay < 1
    ratios = []
    for k in range(len(d) - 1):
        if d[k] == 0.0:
            ratios.append(0.0 if d[k + 1] == 0.0 else math.inf)
        else:
            ratios.append(d[k + 1] / d[k])
    tail_start = 0
    for k, r in enumerate(ratios):
        if r >= 1.0:
            tail_start = k + 1
    tail_ratios = ratios[tail_start:]
    tail_ok = bool(tail_ratios) or len(d) <= 1
    rho_tail = max(tail_ratios, default=0.0)
    # a tail whose ratios are still strictly climbing toward 1 (for example
    # delta_k = 1/k) cannot witness a limsup below 1 on finite data
    if len(tail_ratios) >= 10 and tail_ratios[-1] >= 0.9:
        last10 = tail_ratios[-10:]
        if all(b > a * (1.0 + 1e-9) for a, b in zip(last10, last10[1:])):
            tail_ok = False
    if rho_tail >= 1.0 or not tail_ok:
        return RecursionCertificate(
            hypothesis_ok=False,
            fail_index=fail_index if fail_index is not None else tail_start,
            K=math.nan, theta=math.nan, tau=math.nan,
            tail_start=tail_start, dominated=False, dominance_fail_index=None,
        )
    if fail_index is not None:
        return RecursionCertificate(
            hypothesis_ok=False, fail_index=fail_index,
            K=math.nan, theta=math.nan, tau=math.nan,
            tail_start=tail_start, dominated=False, dominance_fail_index=None,
        )

    if all(v == 0.0 for v in d):
        tau = 0.0
        c = [0.0] * len(d)
        tail_start = 0
    else:
        tau = math.sqrt(rho_tail) if rho_tail > 0.0 else 0.5
        tau = max(tau, 1e-6)  # keeps early c_k = delta_k / tau^k representable
        N = tail_start
        c = []
        for i in range(len(d)):
            if i < N:
                c.append(d[i] / tau**i)
            else:
                c.append(tau ** (i - 2 * N) * d[N])
    theta = max(eta, tau)
    csum = math.fsum(c)
    base = max(1.0, a[0] if a else 1.0)
    if len(a) > 1 and (c[0] + theta) > 0:
        base = max(base, a[1] / (c[0] + theta))
    K = base * math.exp(csum / theta)

    dom_fail = None
    bound = K
    for k in range(len(a)):
        if a[k] > bound * (1.0 + 1e-12):
            dom_fail = k
            break
        bound *= theta
    return RecursionCertificate(
        hypothesis_ok=True, fail_index=None,
        K=K, theta=theta, tau=tau, tail_start=tail_start,
        dominated=dom_fail is None, dominance_fail_index=dom_fail,
    )


# ---------------------------------------------------------------------------
# Linear-rate fitting and support identification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateEstimate:
    """Fitted geometric decay series_k ~ C * eta^k over a trace tail."""

    eta_hat: float
    c_hat: float
    tail_start: int
    r2: float
    quantity: str
    n_points: int

    @property
    def linear_convergence_detected(self) -> bool:
        return self.eta_hat < 1.0


def fit_series(series, tail_frac: float = 0.5, quantity: str = "series") -> RateEstimate:
    """Least-squares line through (k, log series_k) on the tail.

    Entries at or below 100 * machine epsilon * max(series) are dropped
    (they carry only rounding noise).  Requires at least 5 usable points.
    """
    s = np.asarray([float(v) for v in series])
    if not (0.0 < tail_frac <= 1.0):
        raise ValidationError(f"tail_frac must lie in (0, 1], got {tail_frac}")
    tail_start = int(math.floor(len(s) * (1.0 - tail_frac)))
    floor = 100.0 * np.finfo(float).eps * float(s.max(initial=0.0))
    ks, logs = [], []
    for k in range(tail_start, len(s)):
        if s[k] > floor:
            ks.append(float(k))
            logs.append(math.log(s[k]))
    if len(ks) < 5:
        raise ValidationError(
            f"only {len(ks)} usable tail points (need at least 5)"
        )
    ks = np.array(ks)
    logs = np.array(logs)
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateEstimate(
        eta_hat=float(np.exp(slope)),
        c_hat=float(np.exp(intercept)),
        tail_start=tail_start,
        r2=r2,
        quantity=quantity,
        n_points=len(ks),
    )


def fit_rate(
    trace: IterationTrace,
    quantity: str = "objective-gap",
    f_star: float | None = None,
    x_star=None,
    tail_frac: float = 0.5,
) -> RateEstimate:
    """Fit the geometric rate of F(x^k) - F* or ||x^k - x*|| along a trace.

    The reference (F* or x*) should come from a tighter re-solve; the final
    iterate of a run continued to stop_tol = 1e-13 is the intended proxy.
    """
    if quantity == "objective-gap":
        if f_star is None:
            raise ValidationError("objective-gap fitting needs f_star")
        series = [f - f_star for f in trace.f_values]
    elif quantity == "iterate-distance":
        if x_star is None:
            raise ValidationError("iterate-distance fitting needs x_star")
        if trace.iterates is None:
            raise ValidationError("trace does not store iterates")
        x_star = np.asarray(x_star, dtype=np.float64)
        series = [float(np.linalg.norm(x - x_star)) for x in trace.iterates]
    else:
        raise ValidationError(f"unknown quantity {quantity!r}")
    series = [max(v, 0.0) for v in series]
    return fit_series(series, tail_frac=tail_frac, quantity=quantity)


def detect_support_identification(trace: IterationTrace) -> int | None:
    """Smallest N with supp(x^k) constant for k >= N; None when unsettled.

    Unsettled means the support still changed within the last 10 recorded
    iterates.
    """
    supports = trace.supports
    if supports is None:
        raise ValidationError("trace does not store supports")
    if not supports:
        return None
    last = supports[-1]
    n_hat = 0
    for k in range(len(supports) - 1, -1, -1):
        if supports[k] != last:
            n_hat = k + 1
            break
    if n_hat > len(supports) - 10 and n_hat != 0:
        return None
    return n_hat
