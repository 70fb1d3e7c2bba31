"""Trace certification, geometric-recursion bounds and rate estimation.

The certified descent conditions, with constants alpha, beta > 0 and a
nonnegative inexactness sequence eps_k, are

    sufficient decrease:  F(x^{k+1}) - F(x^k) <= -alpha ||x^{k+1}-x^k||^2
                                                 + eps_k^2,
    relative error:       ||w^{k+1}|| <= beta ||x^{k+1}-x^k|| + eps_k,

with w^{k+1} the minimal-norm subgradient at x^{k+1}.  A trace's eps_k
come from its own certificates: value gaps enter H1 as eps_k^2, distance
norms enter H2 as eps_k, and exact runs have none.  Every geometric
``Schedule`` has ratio below 1, so its eps_k are square summable; the
reports carry the tail-sum diagnostics of the sequence they check.

Every per-step inequality here, and the solvers' inexactness controls,
goes through one pass rule, ``solvers._violations``: step k passes iff
both sides are finite and lhs <= rhs + slack.  The checks therefore fail
closed: a NaN or an infinity is a violation, reported with an infinite
excess, and sides that do not pair up step for step raise
ValidationError.  H1 and H2 use the absolute slack DESCENT_SLACK = 1e-9,
which covers IEEE rounding of the objective differences and the scalar
prox root tolerance; the controls use CONTROL_SLACK * (1 + |rhs|) with
CONTROL_SLACK = 1e-12.  The geometric-recursion check states its rounding
margins in the compared sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .problem import Problem, spectral_upper_bound
from .prox import lower_bound
from .solvers import DESCENT_SLACK, IterationTrace, _violations

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


def _report(condition: str, lhs, rhs, constant: float, eps_sq) -> ConditionReport:
    """Step k of ``condition`` compares lhs[k] with rhs[k] at DESCENT_SLACK;
    ``eps_sq`` gives the eps tail-sum diagnostics."""
    violations, worst, worst_idx = _violations(lhs, rhs, DESCENT_SLACK)
    total = math.fsum(eps_sq)
    tail_frac = math.fsum(eps_sq[len(eps_sq) // 2:]) / total if total > 0.0 else 0.0
    return ConditionReport(condition, not violations, violations, worst,
                           worst_idx, constant, total, tail_frac)


def certify_h1(trace: IterationTrace, alpha: float) -> ConditionReport:
    """Check the sufficient-decrease condition along a trace.

    eps_k^2 is the trace's certified value gap for run_ipga_1p traces and 0
    otherwise.  The eps tail-sum diagnostic rides along in the report.
    """
    eps_sq = (trace.eps_values if trace.eps_kind == "value"
              else [0.0] * len(trace.step_norms))
    f = trace.f_values
    return _report(
        "sufficient-decrease",
        [b - a for a, b in zip(f, f[1:])],
        [-alpha * s ** 2 + e for s, e in zip(trace.step_norms, eps_sq)],
        alpha, eps_sq)


def estimate_beta(prob: Problem, trace: IterationTrace, v_lo: float) -> float:
    """Relative-error constant estimated from the trace tail.

    beta = 1/v_lo + 2 ||A||^2 + max_i lambda_i p (1-p) |x_i|^{p-2}, with the
    last factor taken over the support values of the tail iterates (the
    later half of ``trace.values``).  Without stored iterates the
    scalar-prox magnitude floor bounds |x_i|^{p-2} from above, which keeps
    the estimate conservative.
    """
    a_sq = spectral_upper_bound(prob)
    p = prob.p
    min_mag = math.inf
    values = trace.values
    if values is not None and len(values) > 1:
        tail = np.abs(np.concatenate(values[len(values) // 2:]))
        min_mag = float(tail.min(initial=math.inf, where=tail != 0.0))
    if math.isinf(min_mag):
        min_mag = lower_bound(v_lo, prob.lambda_lower, p)
    lam_max = float(prob.lambda_vec.max())
    try:
        l_phi = lam_max * p * (1.0 - p) * min_mag ** (p - 2.0)
    except OverflowError:
        raise ValidationError(
            f"tail iterate magnitude {min_mag!r} overflows |x_i|^(p-2) "
            f"in the relative-error constant"
        ) from None
    return 1.0 / v_lo + 2.0 * a_sq + l_phi


def certify_h2(
    prob: Problem,
    trace: IterationTrace,
    beta: float | str = "auto",
    v_lo: float | None = None,
) -> ConditionReport:
    """Check the relative-error condition along a trace.

    The minimal-norm subgradient norms are the trace's stored residuals
    (recomputed from iterates by the solvers); step k pairs the residual at
    x^{k+1} with ||x^{k+1} - x^k||.  eps_k is the trace's distance
    certificate for run_ipga_2p traces and 0 otherwise.  Auto beta on a
    trace of no steps, with no v_lo, has nothing to compare: the report
    passes with constant 0.
    """
    if beta == "auto":
        if v_lo is None and trace.stepsizes:
            v_lo = min(trace.stepsizes)
        if v_lo is not None:
            beta = estimate_beta(prob, trace, v_lo)
        elif trace.step_norms:
            raise ValidationError("auto beta needs v_lo or trace stepsizes")
        else:
            beta = 0.0
    beta = float(beta)
    eps = (trace.eps_values if trace.eps_kind == "dist"
           else [0.0] * len(trace.step_norms))
    return _report(
        "relative-error",
        trace.residuals[1:],
        [beta * s + e for s, e in zip(trace.step_norms, eps)],
        beta, [e * e for e in eps])


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

    The hypotheses are: both sequences finite and nonnegative, eta in (0,1),
    and the delta tail ratio below 1 on the given data.  The construction
    picks tau with delta_{k+1} <= tau^2 delta_k on the tail, converts delta
    into c_k tau^k with summable c, and returns

        theta = max(eta, tau),
        K = max(1, a_0, a_1 / (c_0 + theta)) * exp(sum(c) / theta),

    then asserts a_k <= K theta^k at every provided index.
    """
    a = [float(v) for v in a_seq]
    d = [float(v) for v in delta_seq]
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0, 1), got {eta}")
    if not all(0.0 <= v < math.inf for v in a + d):  # NaN fails too
        raise ValidationError("sequences must be finite and nonnegative")
    if len(d) < len(a) - 1:
        raise ValidationError("delta sequence too short for the recursion check")

    a_arr, prev = np.array(a), np.array(a[:-1])
    recursion = (eta * prev + np.array(d[:len(prev)])) * (1.0 + 4e-16)
    fails = _violations(a_arr[1:], recursion, 5e-324)[0]
    fail_index = fails[0] if fails else None

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
    if rho_tail >= 1.0 or not tail_ok or fail_index is not None:
        return RecursionCertificate(
            hypothesis_ok=False,
            fail_index=fail_index if fail_index is not None else tail_start,
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
            try:
                c.append(d[i] / tau**i if i < N else tau ** (i - 2 * N) * d[N])
            except (OverflowError, ZeroDivisionError):  # tau^k out of range
                c.append(math.inf)
            if c[-1] == math.inf:
                raise ValidationError(
                    f"c_{i} = delta_k / tau^k overflows (tau = {tau!r}, "
                    f"tail start {N})")
    theta = max(eta, tau)
    base = max(1.0, a[0] if a else 1.0)
    if len(a) > 1 and (c[0] + theta) > 0:
        base = max(base, a[1] / (c[0] + theta))
    try:
        K = base * math.exp(math.fsum(c) / theta)
    except OverflowError:
        K = math.inf
    if K == math.inf:
        raise ValidationError(
            f"K = {base!r} * exp(sum(c) / theta) overflows (theta = {theta!r})")

    # K theta^k by repeated multiplication, K, K theta, (K theta) theta, ...
    bound = np.cumprod([K] + [theta] * len(a))[:len(a)]
    fails = _violations(a_arr, bound * (1.0 + 1e-12), 0.0)[0]
    dom_fail = fails[0] if fails else None
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

    The reference (F* or x*) is the run's limit, such as the Newton-polished
    final iterate that ``experiments.reference_solution`` returns.
    """
    if quantity == "objective-gap":
        if f_star is None:
            raise ValidationError("objective-gap fitting needs f_star")
        series = [f - f_star for f in trace.f_values]
    elif quantity == "iterate-distance":
        if x_star is None:
            raise ValidationError("iterate-distance fitting needs x_star")
        x_star = np.asarray(x_star, dtype=np.float64)
        series = [float(np.linalg.norm(trace.iterate(k) - x_star))
                  for k in range(len(trace))]
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
