"""Iterative solvers: exact proximal gradient and two inexact variants.

All solvers iterate

    z^k = x^k - 2 v_k A^T (A x^k - b),
    x^{k+1} = prox of z^k coordinate-wise,

stopping when ||x^{k+1} - x^k|| <= stop_tol or at max_iters.  Stepsizes must
satisfy 0 < v_lo <= v_k <= v_hi < 1/(2 ||A||^2); ||A||^2 comes from one
eigensolve, and the check adds the margin of ``spectral_upper_bound`` so
that rounding cannot let a stepsize at the bound through.

The inexact variants perturb the exact coordinate-wise prox and certify the
perturbation per coordinate at every iteration:

* ``run_ipga_1p`` (value-type): coordinate i may return any point whose
  scalar prox objective lies within tau_k * (x_i^{k+1} - x_i^k)^2 of the
  minimum; the shift s = min(sqrt(2 v BUDGET_SHARE tau_k) |y* - x_i|,
  |y*| / 2), applied away from x_i, has a worst-case gap of BUDGET_SHARE
  (``prox``) times that budget, and the achieved gap is recomputed against
  the certified minimum.
  Coordinates whose exact selection is 0 are left unperturbed.
* ``run_ipga_2p`` (distance-type): coordinate i may return any point within
  t_k * |x_i^{k+1} - x_i^k| of the exact minimizer (t_k < 1); the
  perturbation s = BUDGET_SHARE * t_k * |y* - x_i| / (1 - t_k), applied
  away from x_i, stays within the bound, which a share of 1 would meet
  with equality.  Coordinates whose exact selection is 0 are left
  unperturbed.

All three share one loop: the exact prox is computed once per iteration,
as ``prox_vector`` computes it, and the inexact variants perturb it on the
coordinates that move.  The loop prepares the prox kernel's constants once
per stepsize, so a constant-stepsize run prepares them once.

Each iterate runs on a working set J of columns that contains supp(x).  A
nonzero prox output needs a candidate, a coordinate with |z_j| >= cut_j
(``prox._Prepared``), and off the support z_j = -v g_j.  At a full product
g = 2 A^T r_ref the loop keeps r_ref, and column j gets the radius

    s_j = (cut_j / v - |g_j|) / (2 ||a_j||),

less a rounding margin: since |g_j(r) - g_j(r_ref)| <= 2 ||a_j|| ||r -
r_ref||, column j cannot become a candidate while the residual stays
within s_j of r_ref.  J is supp(x) and the current candidates, doubled
with the columns of smallest radius, and rho is the smallest radius left
out.  Doubling keeps the iterate's work within twice what the support
needs and leaves a drift budget for the columns next in line.  While
||r - r_ref|| <= rho, every column outside J has prox output exactly 0, so
the forward product, the gradient, the kernel, the perturbations and F
run on the m x |J| columns; when the drift passes rho or the stepsize
changes, one full product A^T r starts a new reference.  J may be every
column, and then rho is infinite: no drift can add a column, and the loop
starts a new reference instead once the support and the last prox's
candidates, counted together, fall below half of J.  A J of every column
is used as it is, with no copy of the columns or the kernel's constants.

The margin covers rounding.  A dot product of m terms is exact up to
gamma_m ||a_j|| ||r|| with gamma_m = m u / (1 - m u), u = eps / 2, so a
computed g_j(r) stays below |g_j(r_ref)| + 2 ||a_j|| ((1 + gamma_m) d + 2
gamma_m ||r_ref||) at drift d.  The radius subtracts 2 gamma ||r_ref||,
divides by 1 + gamma and scales cut_j / v by 1 - 4 eps, with gamma = (m +
4) eps, a little over twice gamma_m: the surplus covers the rounding of
the radius, of ||a_j||, of the drift and of z_j = -v g_j themselves.

Every product is ``np.vecdot`` over contiguous rows (``problem._residual``
and ``problem._gradient_at``), one dot product per entry, so an entry does
not depend on which other columns take part: iterates, F, residuals and
certificates equal those of the same loop run on all n columns, bit for
bit, and ``objective`` and ``residual_on_support`` reproduce the trace.

With a zero inexactness schedule both variants reproduce ``run_pga``
bit-for-bit.  Traces are bit-reproducible: the solver loop is single
threaded, each coordinate's prox is elementwise and independent of the
others, and sums run in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepsizeError, ValidationError
from .problem import (
    Problem,
    _check_x,
    _columns,
    _gradient_at,
    _objective_at,
    _residual,
    spectral_upper_bound,
)
from .prox import BUDGET_SHARE, _Prepared, _prox_select, prox_inexact_value

__all__ = [
    "Schedule",
    "SolverConfig",
    "IterationTrace",
    "default_stepsize",
    "run_pga",
    "run_ipga_1p",
    "run_ipga_2p",
    "runner",
    "residual_on_support",
    "certify_value_control",
    "certify_dist_control",
]

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Schedule:
    """Inexactness schedule: the geometric family c * rho^k.

    c is finite and nonnegative and rho lies in [0, 1), so every schedule
    is square summable with a tail ratio below 1.
    """

    c: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.c < math.inf):  # NaN fails too
            raise ValidationError(
                f"schedule constant must be finite and >= 0, got {self.c}")
        if not (0.0 <= self.rho < 1.0):
            raise ValidationError(f"schedule ratio must lie in [0, 1), got {self.rho}")

    @classmethod
    def geometric(cls, c: float, rho: float) -> "Schedule":
        return cls(c=c, rho=rho)

    @classmethod
    def zero(cls) -> "Schedule":
        return cls(c=0.0, rho=0.0)

    def value(self, k: int) -> float:
        return self.c * self.rho**k


def default_stepsize(prob: Problem) -> float:
    """Constant stepsize 0.495 / ||A||^2, safely inside the admissible interval."""
    return 0.495 / spectral_upper_bound(prob)


@dataclass(frozen=True)
class SolverConfig:
    """Stepsize schedule, stopping rule and inexactness schedule.

    ``v`` is a constant stepsize or a per-iteration sequence (continued with
    its last entry).  ``inexact`` is interpreted as the tau_k schedule by
    run_ipga_1p and as the t_k schedule by run_ipga_2p.
    """

    v: float | tuple[float, ...]
    max_iters: int = 100_000
    stop_tol: float = 1e-10
    inexact: Schedule = field(default_factory=Schedule.zero)

    def __post_init__(self):
        if isinstance(self.v, (int, float)):
            object.__setattr__(self, "v", (float(self.v),))
        else:
            object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        if len(self.v) == 0 or any(not (x > 0) for x in self.v):
            raise StepsizeError("stepsizes must be positive")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not (self.stop_tol >= 0):
            raise ValidationError("stop_tol must be nonnegative")

    @property
    def v_lo(self) -> float:
        return min(self.v)

    @property
    def v_hi(self) -> float:
        return max(self.v)

    def stepsize(self, k: int) -> float:
        return self.v[k] if k < len(self.v) else self.v[-1]

    def validate(self, prob: Problem) -> None:
        """Check v_hi < 1/(2 spectral_upper_bound(prob)); raise StepsizeError."""
        a_sq = spectral_upper_bound(prob)
        bound = 0.5 / a_sq
        if not (self.v_hi < bound):
            raise StepsizeError(
                f"stepsize {self.v_hi} violates the bound (1/2) * ||A||^-2 "
                f"= {bound} (||A||^2 ~ {a_sq})"
            )


@dataclass
class IterationTrace:
    """Per-iteration record of a solver run.

    ``f_values``, ``support_sizes`` and ``residuals`` have one entry per
    iterate; ``step_norms`` and ``eps_values`` have one entry per step (one
    fewer).  ``eps_values[k]`` is the certified scalar inexactness consumed
    by step k: the summed value gaps for run_ipga_1p, the Euclidean norm of
    the per-coordinate distances for run_ipga_2p, 0 for run_pga.
    Iterate k is its support ``supports[k]`` (sorted) with ``values[k]``
    there, and ``iterate(k)`` builds it dense.  Step k's per-coordinate
    certificates and bounds (inexact variants) are rows on that step's
    working set ``coord_sets[k]``, one array shared until the next
    refresh; they are 0 on every other column.  ``working_set_sizes`` has
    |J| per iterate and ``refreshes`` the iterates that made a full
    product A^T r; ``full_products`` and ``mean_working_set`` sum them up.
    """

    algo: str
    f_values: list[float]
    step_norms: list[float]
    eps_values: list[float]
    support_sizes: list[int]
    residuals: list[float]
    n: int | None = None
    supports: list[tuple[int, ...]] | None = None
    values: list[np.ndarray] | None = None
    converged: bool | None = None
    stepsizes: list[float] | None = None
    eps_kind: str = "none"
    coord_sets: list[np.ndarray] | None = None
    coord_certified: list[np.ndarray] | None = None
    coord_bounds: list[np.ndarray] | None = None
    working_set_sizes: list[int] | None = None
    refreshes: list[int] | None = None

    def __len__(self) -> int:
        return len(self.f_values)

    @property
    def full_products(self) -> int | None:
        return None if self.refreshes is None else len(self.refreshes)

    @property
    def mean_working_set(self) -> float | None:
        sizes = self.working_set_sizes
        return None if not sizes else sum(sizes) / len(sizes)

    def iterate(self, k: int) -> np.ndarray:
        """Iterate k as a new dense n-vector."""
        if self.values is None:
            raise ValidationError("trace does not store iterates")
        x = np.zeros(self.n)
        x[list(self.supports[k])] = self.values[k]
        return x

    @property
    def final_iterate(self) -> np.ndarray:
        return self.iterate(-1)


# The slacks of the pass rule.  H1 and H2 compare differences of F and
# prox roots, whose rounding is absolute; the inexactness controls compare
# gaps and distances with their bounds, at CONTROL_SLACK * (1 + |rhs|).
DESCENT_SLACK = 1e-9
CONTROL_SLACK = 1e-12


def _violations(lhs, rhs, slack: float, relative: bool = False):
    """The one pass rule: the failing steps, the worst excess and its step.

    Step k compares ``lhs[k]`` with ``rhs[k]``, two numbers or two rows of
    numbers.  A comparison passes iff both sides are finite and lhs <= rhs
    + slack, the slack being ``slack``, or slack * (1 + |rhs|) when
    ``relative``; a step passes iff all its comparisons do.  The excess is
    lhs - rhs, inf where a side is not finite; the worst is the largest, at
    its first step, or 0.0 at step None when there are no steps.  Sides of
    different shapes raise ValidationError, so that no step goes unchecked.
    H1 and H2 pass DESCENT_SLACK; the controls pass CONTROL_SLACK, relative.
    """
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if lhs.shape != rhs.shape:
        raise ValidationError(
            f"compared sides have shapes {lhs.shape} and {rhs.shape}")
    if len(lhs) == 0:
        return [], 0.0, None
    rows = tuple(range(1, lhs.ndim))  # the comparisons of one step
    with np.errstate(all="ignore"):
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        ok = finite & (lhs <= rhs + (slack * (1.0 + np.abs(rhs)) if relative else slack))
        excess = np.where(finite, lhs - rhs, math.inf).max(axis=rows)
    k = int(np.argmax(excess))
    return np.flatnonzero(~ok.all(axis=rows)).tolist(), float(excess[k]), k


def _evaluate(prob: Problem, r, grad, xs, lam):
    """F(x) and the residual on supp(x), from r = A x - b, the smooth
    gradient ``grad``, x and the weights ``lam`` on the support."""
    ax = np.abs(xs)
    # copysign(t, x) is t * sign(x) exactly for t >= 0, in one call
    w = grad + np.copysign(lam * prob.p * ax ** (prob.p - 1.0), xs)
    return _objective_at(prob, r, lam, ax), _norm(w)


def _norm(w: np.ndarray) -> float:
    """||w||: math.sqrt(w.dot(w)) is numpy's own norm of a real 1-D w."""
    return math.sqrt(w.dot(w))


def residual_on_support(prob: Problem, x) -> tuple[float, tuple[int, ...]]:
    """Minimal-norm subgradient norm over supp(x), and the sorted support.

    Off-support coordinates contribute nothing: the limiting subdifferential
    of |.|^p at 0 is the whole real line, so those components of a
    subgradient can always be chosen 0.  On the support the subgradient is
    unique: (2 A^T (A x - b))_i + lambda_i p |x_i|^{p-1} sign(x_i).
    """
    x = _check_x(prob, x)
    idx, r = _residual(prob, x)
    grad = _gradient_at(_columns(prob.A, idx), r)
    _, resid = _evaluate(prob, r, grad, x[idx], prob.lambda_vec[idx])
    return resid, tuple(idx.tolist())


def _radii(kernel, g, col_norm, r_norm, gamma):
    """Each column's drift radius s_j at the full gradient g = 2 A^T r_ref,
    rounding margin included (module docstring); ``r_norm`` is ||r_ref||.

    s_j <= 0 marks a column that is a candidate now; a zero column never
    moves, and its radius is infinite.
    """
    with np.errstate(divide="ignore"):
        s = ((kernel.cut / kernel.v) * (1.0 - 4.0 * EPS) - np.abs(g)) / (2.0 * col_norm)
    return (s - 2.0 * gamma * r_norm) / (1.0 + gamma)


def _working_set(s, support):
    """The working set J for the radii s, and rho.

    J holds ``support`` and the columns with s_j <= 0, which must be
    computed now, and as many again of the smallest s_j; rho is the
    smallest s_j left out (infinite when J is every column).
    """
    s[support] = -np.inf
    size = min(s.size, 2 * np.count_nonzero(s <= 0.0))
    if size == s.size:
        return np.arange(s.size), math.inf
    part = np.argpartition(s, size)
    return np.sort(part[:size]), float(s[part[size]])


def _iterate(prob, config, x0, algo, eps_kind, perturb=None):
    """The solver loop shared by all three methods.

    Each iterate holds x, the gradient and the prox on the working set J
    only (module docstring); a full product A^T r refreshes J when the
    residual drifts past rho from the reference, when J is every column
    but over twice what the support and the candidates need, or when the
    stepsize changes, and the kernel constants are prepared once per
    stepsize.
    ``perturb(k, x, z, kernel, y_star, value)`` gets the vectors on J and
    the kernel restricted to J (``kernel.cols``, with the weights
    ``kernel.lam``), and returns the next iterate, the step's eps and the
    per-coordinate certificates and bounds on J.  Without ``perturb`` the
    exact prox is the next iterate.  The trace holds F, the support and the
    residual from one evaluation per iterate, each iterate as its support
    values, and certificates on J.
    """
    config.validate(prob)
    n = prob.n
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.array(x0, dtype=np.float64, copy=True)
        if x.shape != (n,):
            raise ValidationError(f"x0 has shape {x.shape}, expected ({n},)")
        if not np.isfinite(x).all():
            raise ValidationError("x0 must be finite")
    keep_coords = perturb is not None
    trace = IterationTrace(
        algo=algo, f_values=[], step_norms=[], eps_values=[],
        support_sizes=[], residuals=[], n=n, supports=[], values=[],
        stepsizes=[], eps_kind=eps_kind,
        coord_sets=[] if keep_coords else None,
        coord_certified=[] if keep_coords else None,
        coord_bounds=[] if keep_coords else None,
        working_set_sizes=[], refreshes=[])

    cols = _columns(prob.A)  # row j is column j of A (a view), for every product
    col_norm = np.sqrt(np.vecdot(cols, cols))
    gamma = (prob.m + 4) * EPS
    J = x.nonzero()[0]  # until the first full product
    x_j, cols_j = x[J], cols[J]
    prepared = kernel = r_ref = pos_key = A_s = supp = None
    rho, n_cand = math.inf, n  # n_cand: candidates of the last prox
    converged = False
    for k in range(config.max_iters + 1):
        pos = x_j.nonzero()[0]  # supp(x) as positions in J
        if pos.tobytes() != pos_key:  # supp: one tuple per support change
            pos_key, A_s = pos.tobytes(), np.ascontiguousarray(cols_j[pos].T)
            supp = tuple(J[pos].tolist())
        xs = x_j[pos]
        r = np.vecdot(A_s, xs) - prob.b
        v = config.stepsize(k)
        new_v = prepared is None or prepared.v != v
        if rho < math.inf:
            stale = _norm(r - r_ref) > rho
        else:  # no drift can add a column; J may have become too wide
            stale = 2 * (len(pos) + n_cand) < len(J)
        if new_v or stale:
            if new_v:
                prepared = _Prepared(v, prob.lambda_vec, prob.p)
            grad = _gradient_at(cols, r)
            support = J[pos]
            J, rho = _working_set(
                _radii(prepared, grad, col_norm, _norm(r), gamma), support)
            pos = np.searchsorted(J, support)  # J holds the support
            x_j = np.zeros(len(J))
            x_j[pos] = xs
            if len(J) == n:  # nothing to copy
                cols_j = cols
            else:
                cols_j, grad = cols[J], grad[J]
            kernel, r_ref = prepared.restrict(J), r
            pos_key = pos.tobytes()  # A_s and supp hold the same columns
            trace.refreshes.append(k)
        else:
            grad = _gradient_at(cols_j, r)
        f, resid = _evaluate(prob, r, grad[pos], xs, kernel.lam[pos])
        trace.f_values.append(f)
        trace.support_sizes.append(len(pos))
        trace.supports.append(supp)
        trace.residuals.append(resid)
        trace.values.append(xs)
        trace.working_set_sizes.append(len(J))
        if converged or k == config.max_iters:
            break
        z = x_j - v * grad
        y_star, value, cand = _prox_select(z, kernel)
        n_cand = len(cand)
        if perturb is None:
            x_new, eps, certified, bounds = y_star, 0.0, None, None
        else:
            x_new, eps, certified, bounds = perturb(k, x_j, z, kernel, y_star, value)
        step_norm = _norm(x_new - x_j)
        if step_norm == 0.0:
            # exact fixed point: recording the duplicate iterate adds nothing
            converged = True
            break
        trace.step_norms.append(step_norm)
        trace.eps_values.append(eps)
        trace.stepsizes.append(v)
        if keep_coords:
            trace.coord_sets.append(J)
            trace.coord_certified.append(certified)
            trace.coord_bounds.append(bounds)
        x_j = x_new
        converged = step_norm <= config.stop_tol
    trace.converged = converged
    return trace


def run_pga(prob: Problem, config: SolverConfig, x0=None) -> IterationTrace:
    """Exact proximal gradient iteration."""
    return _iterate(prob, config, x0, "pga", "none")


def run_ipga_1p(prob: Problem, config: SolverConfig, x0=None) -> IterationTrace:
    """Parallel value-type inexact variant.

    Each step perturbs the exact prox once, through ``prox_inexact_value``:
    a moving coordinate shifts away from x_i by a closed-form amount whose
    worst-case gap is the share ``BUDGET_SHARE`` of its budget.
    eps_values collects the summed certified gaps, which bound the value
    inexactness of the whole step.
    """
    tau_sched = config.inexact

    def perturb(k, x, z, kernel, y_star, value):
        x_new, gaps, bounds = prox_inexact_value(
            z, kernel.v, prob, y_star, value, x, tau_sched.value(k), lam=kernel.lam)
        return x_new, math.fsum(gaps.tolist()), gaps, bounds

    return _iterate(prob, config, x0, "ipga1p", "value", perturb)


def run_ipga_2p(prob: Problem, config: SolverConfig, x0=None) -> IterationTrace:
    """Parallel distance-type inexact variant (t_k < 1 required).

    A coordinate whose exact selection is 0 stays 0: that is a minimizer at
    distance 0, and perturbing it would only walk it through subnormal
    magnitudes.
    """
    t_sched = config.inexact
    if t_sched.c >= 1.0:
        raise ValidationError("distance schedule requires t_k < 1 for every k")

    def perturb(k, x, z, kernel, y_star, value):
        t_k = t_sched.value(k)
        delta = y_star - x
        i = ((delta != 0.0) & (y_star != 0.0)).nonzero()[0]  # moving
        d, ys = delta[i], y_star[i]
        s = BUDGET_SHARE * t_k * np.abs(d) / (1.0 - t_k)
        y = ys + np.copysign(s, d)
        x_new = y_star.copy()
        x_new[i] = y
        dist = np.abs(y - ys)
        dists, bounds = np.zeros_like(x), np.zeros_like(x)
        dists[i] = dist
        bounds[i] = t_k * np.abs(y - x[i])
        return x_new, math.sqrt(math.fsum((dist * dist).tolist())), dists, bounds

    return _iterate(prob, config, x0, "ipga2p", "dist", perturb)


def runner(algo: str):
    """The solver for ``algo``: "pga", "ipga1p" or "ipga2p".

    The names are looked up at call time, so code that rebinds this
    module's run_* functions (instrumentation, for one) sees every call.
    """
    return {"pga": run_pga, "ipga1p": run_ipga_1p, "ipga2p": run_ipga_2p}[algo]


def _control_violations(trace: IterationTrace, schedule: Schedule,
                        kind: str) -> list[int]:
    """Steps whose inexactness certificates fail ``_violations``' rule at
    the relative CONTROL_SLACK.

    Step k fails when a coordinate's certified gap or distance
    ``coord_certified[k]`` exceeds its bound ``coord_bounds[k]``, or when
    the step's aggregate eps_k exceeds tau_k ||step_k||^2 (``kind``
    "value") or t_k ||step_k|| (``kind`` "dist").  The coordinates outside
    step k's ``coord_sets[k]`` have certificate and bound 0, which pass.
    """
    if trace.coord_certified is None or trace.eps_kind != kind:
        raise ValidationError(f"trace carries no {kind} certificates")
    sizes = [len(cols) for cols in trace.coord_sets]
    if not ([len(c) for c in trace.coord_certified] == sizes
            == [len(b) for b in trace.coord_bounds]):
        raise ValidationError("certificate rows do not match their columns")
    steps = np.array(trace.step_norms)
    limit = np.array([schedule.value(k) for k in range(len(steps))])
    aggregate = limit * (steps ** 2 if kind == "value" else steps)
    # every step's rows in one check; entry i belongs to the step whose
    # rows end first after it
    failing = _violations(np.concatenate([np.zeros(0), *trace.coord_certified]),
                          np.concatenate([np.zeros(0), *trace.coord_bounds]),
                          CONTROL_SLACK, relative=True)[0]
    coords = np.searchsorted(np.cumsum(sizes), failing, side="right").tolist()
    total = _violations(trace.eps_values, aggregate, CONTROL_SLACK,
                        relative=True)[0]
    return sorted(set(coords).union(total))


def certify_value_control(trace: IterationTrace, tau: Schedule):
    """Check the value certificates of a run_ipga_1p trace.

    Every coordinate's gap must fit its own budget tau_k (x_i^{k+1} -
    x_i^k)^2 and the summed gaps tau_k ||step_k||^2.  Returns (all_ok,
    list of violating k).
    """
    bad = _control_violations(trace, tau, "value")
    return not bad, bad


def certify_dist_control(trace: IterationTrace, t: Schedule):
    """Check the distance certificates of a run_ipga_2p trace.

    Every coordinate's distance must fit t_k |x_i^{k+1} - x_i^k| and the
    aggregate ||d^k|| must fit t_k ||step_k||.  Returns (all_ok, list of
    violating k).
    """
    bad = _control_violations(trace, t, "dist")
    return not bad, bad
