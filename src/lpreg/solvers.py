"""Iterative solvers: exact proximal gradient and two inexact variants.

All solvers iterate

    z^k = x^k - 2 v_k A^T (A x^k - b),
    x^{k+1} = prox of z^k coordinate-wise,

stopping when ||x^{k+1} - x^k|| <= stop_tol or at max_iters.  Stepsizes must
satisfy 0 < v_lo <= v_k <= v_hi < 1/(2 ||A||^2); the spectral norm estimate
is inflated by its own tolerance before the check so the strict inequality
is enforced conservatively.

The inexact variants perturb the exact coordinate-wise prox and certify the
perturbation per coordinate at every iteration:

* ``run_ipga_1p`` (value-type): coordinate i may return any point whose
  scalar prox objective lies within tau_k * (x_i^{k+1} - x_i^k)^2 of the
  minimum; the achieved gap is recomputed against the certified minimum.
* ``run_ipga_2p`` (distance-type): coordinate i may return any point within
  t_k * |x_i^{k+1} - x_i^k| of the exact minimizer (t_k < 1); the
  perturbation s = knob * t_k * |y* - x_i| / (1 - t_k), applied away from
  x_i, meets the bound with equality at knob = 1.  Coordinates whose exact
  selection is 0 are left unperturbed.

All three share one loop: the exact prox of the whole vector is computed
once per iteration by ``prox_vector``, and the inexact variants perturb it.

With a zero inexactness schedule both variants reproduce ``run_pga``
bit-for-bit.  Traces are bit-reproducible: the solver loop is single
threaded and coordinate results are reduced in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepsizeError, ValidationError
from .problem import (
    Problem,
    SupportSet,
    SPECTRAL_TOL,
    gradient_smooth,
    objective,
    spectral_norm_sq,
)
from .prox import ProxQuery, prox_inexact_value, prox_vector

__all__ = [
    "Schedule",
    "SolverConfig",
    "IterationTrace",
    "default_stepsize",
    "run_pga",
    "run_ipga_1p",
    "run_ipga_2p",
    "residual_on_support",
    "certify_value_control",
    "certify_dist_control",
]

STORE_ITERATES_MAX_N = 10**4


@dataclass(frozen=True)
class Schedule:
    """Inexactness schedule: geometric family c * rho^k or an explicit list.

    Explicit lists continue with 0 past their end.  The geometric form is
    what the rate certifications can reason about symbolically (square
    summability and a tail ratio below 1 hold exactly when rho < 1).
    """

    c: float = 0.0
    rho: float = 0.0
    values: tuple[float, ...] | None = None

    @classmethod
    def geometric(cls, c: float, rho: float) -> "Schedule":
        if c < 0:
            raise ValidationError(f"schedule constant must be >= 0, got {c}")
        if not (0.0 <= rho < 1.0):
            raise ValidationError(f"schedule ratio must lie in [0, 1), got {rho}")
        return cls(c=c, rho=rho)

    @classmethod
    def explicit(cls, seq) -> "Schedule":
        vals = tuple(float(v) for v in seq)
        if any(v < 0 for v in vals):
            raise ValidationError("schedule values must be nonnegative")
        return cls(values=vals)

    @classmethod
    def zero(cls) -> "Schedule":
        return cls(c=0.0, rho=0.0)

    @property
    def is_geometric(self) -> bool:
        return self.values is None

    def value(self, k: int) -> float:
        if self.values is not None:
            return self.values[k] if k < len(self.values) else 0.0
        return self.c * self.rho**k

    def max_value(self) -> float:
        if self.values is not None:
            return max(self.values, default=0.0)
        return self.c


def default_stepsize(prob: Problem) -> float:
    """Constant stepsize 0.495 / ||A||^2, safely inside the admissible interval."""
    return 0.495 / max(spectral_norm_sq(prob) + SPECTRAL_TOL, 1e-300)


@dataclass(frozen=True)
class SolverConfig:
    """Stepsize schedule, stopping rule and inexactness controls.

    ``v`` is a constant stepsize or a per-iteration sequence (continued with
    its last entry).  ``inexact`` is interpreted as the tau_k schedule by
    run_ipga_1p and as the t_k schedule by run_ipga_2p.
    """

    v: float | tuple[float, ...]
    max_iters: int = 100_000
    stop_tol: float = 1e-10
    inexact: Schedule = field(default_factory=Schedule.zero)
    knob: float = 0.9
    store_iterates: bool | None = None

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
        if not (0.0 <= self.knob <= 1.0):
            raise ValidationError(f"knob must lie in [0, 1], got {self.knob}")

    @property
    def v_lo(self) -> float:
        return min(self.v)

    @property
    def v_hi(self) -> float:
        return max(self.v)

    def stepsize(self, k: int) -> float:
        return self.v[k] if k < len(self.v) else self.v[-1]

    def validate(self, prob: Problem) -> float:
        """Check v_hi < 1/(2 ||A||^2); returns the safe spectral estimate."""
        a_sq = spectral_norm_sq(prob) + SPECTRAL_TOL
        bound = 0.5 / a_sq
        if not (self.v_hi < bound):
            raise StepsizeError(
                f"stepsize {self.v_hi} violates the bound (1/2) * ||A||^-2 "
                f"= {bound} (||A||^2 ~ {a_sq})"
            )
        return a_sq

    @staticmethod
    def for_problem(prob: Problem, **kwargs) -> "SolverConfig":
        """Config with the default stepsize, validated for ``prob``."""
        cfg = SolverConfig(v=default_stepsize(prob), **kwargs)
        cfg.validate(prob)
        return cfg


@dataclass
class IterationTrace:
    """Per-iteration record of a solver run.

    ``f_values``, ``support_sizes`` and ``residuals`` have one entry per
    iterate; ``step_norms`` and ``eps_values`` have one entry per step (one
    fewer).  ``eps_values[k]`` is the certified scalar inexactness consumed
    by step k: the summed value gaps for run_ipga_1p, the Euclidean norm of
    the per-coordinate distances for run_ipga_2p, 0 for run_pga.
    """

    algo: str
    f_values: list[float]
    step_norms: list[float]
    eps_values: list[float]
    support_sizes: list[int]
    residuals: list[float]
    iterates: list[np.ndarray] | None = None
    supports: list[tuple[int, ...]] | None = None
    converged: bool | None = None
    stepsizes: list[float] | None = None
    eps_kind: str = "none"
    coord_certified: list[np.ndarray] | None = None
    coord_bounds: list[np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.f_values)

    @property
    def final_iterate(self) -> np.ndarray:
        if self.iterates is None:
            raise ValidationError("trace does not store iterates")
        return self.iterates[-1]

    def csv_rows(self):
        rows = []
        for k in range(len(self.f_values)):
            step = self.step_norms[k] if k < len(self.step_norms) else 0.0
            eps = self.eps_values[k] if k < len(self.eps_values) else 0.0
            rows.append(
                (k, self.f_values[k], step, self.residuals[k],
                 self.support_sizes[k], eps)
            )
        return rows


def residual_on_support(prob: Problem, x) -> tuple[float, SupportSet]:
    """Minimal-norm subgradient norm over supp(x), and the support.

    Off-support coordinates contribute nothing: the limiting subdifferential
    of |.|^p at 0 is the whole real line, so those components of a
    subgradient can always be chosen 0.  On the support the subgradient is
    unique: (2 A^T (A x - b))_i + lambda_i p |x_i|^{p-1} sign(x_i).
    """
    x = np.asarray(x, dtype=np.float64)
    support = SupportSet.of(x)
    if support.size == 0:
        return 0.0, support
    idx = np.array(support.indices)
    grad = gradient_smooth(prob, x)[idx]
    xi = x[idx]
    lam = prob.lambda_vec[idx]
    w = grad + lam * prob.p * np.abs(xi) ** (prob.p - 1.0) * np.sign(xi)
    return float(np.linalg.norm(w)), support


class _Recorder:
    def __init__(self, prob, config, algo, eps_kind, keep_coords):
        self.prob = prob
        self.algo = algo
        self.eps_kind = eps_kind
        store = config.store_iterates
        if store is None:
            store = prob.n <= STORE_ITERATES_MAX_N
        self.store = store
        self.f_values = []
        self.step_norms = []
        self.eps_values = []
        self.support_sizes = []
        self.residuals = []
        self.iterates = [] if store else None
        self.supports = []
        self.stepsizes = []
        self.coord_certified = [] if keep_coords else None
        self.coord_bounds = [] if keep_coords else None

    def snapshot(self, x):
        resid, support = residual_on_support(self.prob, x)
        self.f_values.append(objective(self.prob, x))
        self.support_sizes.append(support.size)
        self.supports.append(support.indices)
        self.residuals.append(resid)
        if self.store:
            self.iterates.append(x.copy())

    def step(self, step_norm, eps, v, certified=None, bounds=None):
        self.step_norms.append(step_norm)
        self.eps_values.append(eps)
        self.stepsizes.append(v)
        if self.coord_certified is not None:
            self.coord_certified.append(certified)
            self.coord_bounds.append(bounds)

    def finish(self, converged):
        return IterationTrace(
            algo=self.algo,
            f_values=self.f_values,
            step_norms=self.step_norms,
            eps_values=self.eps_values,
            support_sizes=self.support_sizes,
            residuals=self.residuals,
            iterates=self.iterates,
            supports=self.supports,
            converged=converged,
            stepsizes=self.stepsizes,
            eps_kind=self.eps_kind,
            coord_certified=self.coord_certified,
            coord_bounds=self.coord_bounds,
        )


def _iterate(prob, config, x0, algo, eps_kind, perturb=None):
    """The solver loop shared by all three methods.

    Each iteration takes the gradient step z, computes the exact prox of z
    with ``prox_vector`` and passes it to ``perturb(k, x, z, v, y_star,
    value)``, which returns the next iterate, the step's eps and the
    per-coordinate certificates and bounds.  Without ``perturb`` the exact
    prox is the next iterate.
    """
    config.validate(prob)
    if x0 is None:
        x = np.zeros(prob.n)
    else:
        x = np.array(x0, dtype=np.float64, copy=True)
        if x.shape != (prob.n,):
            raise ValidationError(f"x0 has shape {x.shape}, expected ({prob.n},)")
    rec = _Recorder(prob, config, algo, eps_kind, perturb is not None)
    rec.snapshot(x)
    converged = False
    for k in range(config.max_iters):
        v = config.stepsize(k)
        z = x - v * gradient_smooth(prob, x)
        y_star, value = prox_vector(z, v, prob)
        if perturb is None:
            x_new, eps, certified, bounds = y_star, 0.0, None, None
        else:
            x_new, eps, certified, bounds = perturb(k, x, z, v, y_star, value)
        step_norm = float(np.linalg.norm(x_new - x))
        if step_norm == 0.0:
            # exact fixed point: recording the duplicate iterate adds nothing
            converged = True
            break
        rec.step(step_norm, eps, v, certified, bounds)
        rec.snapshot(x_new)
        x = x_new
        if step_norm <= config.stop_tol:
            converged = True
            break
    return rec.finish(converged)


def run_pga(prob: Problem, config: SolverConfig, x0=None) -> IterationTrace:
    """Exact proximal gradient iteration."""
    return _iterate(prob, config, x0, "pga", "none")


def run_ipga_1p(prob: Problem, config: SolverConfig, x0=None) -> IterationTrace:
    """Parallel value-type inexact variant.

    Each moving coordinate proposes a perturbed point whose budget is
    implied by its own displacement, then shrinks the perturbation
    geometrically until the certified gap fits the implied budget (the
    exact minimizer, with gap 0, is the 200-shrink fallback).  eps_values
    collects the summed certified gaps, which bound the value inexactness
    of the whole step.
    """
    lam = prob.lambda_vec.tolist()
    tau_sched = config.inexact

    def perturb(k, x, z, v, y_star, value):
        tau = tau_sched.value(k)
        x_new = y_star.copy()
        gaps = np.zeros(prob.n)
        budgets = tau * (y_star - x) ** 2
        if tau == 0.0:
            return x_new, 0.0, gaps, budgets
        for i in np.flatnonzero(y_star != x).tolist():
            q = ProxQuery(z=float(z[i]), v=v, lam=lam[i], p=prob.p)
            ys, xi, g_min = float(y_star[i]), float(x[i]), float(value[i])
            y, gap = prox_inexact_value(q, tau * (ys - xi) ** 2, config.knob)
            for _ in range(200):
                if gap <= tau * (y - xi) ** 2:
                    break
                y = ys + 0.5 * (y - ys)
                gap = q.lam * abs(y) ** q.p + (y - q.z) ** 2 / (2.0 * q.v) - g_min
            else:
                y, gap = ys, 0.0
            x_new[i] = y
            gaps[i] = max(gap, 0.0)
            budgets[i] = tau * (y - xi) ** 2
        return x_new, math.fsum(gaps.tolist()), gaps, budgets

    return _iterate(prob, config, x0, "ipga1p", "value", perturb)


def run_ipga_2p(prob: Problem, config: SolverConfig, x0=None) -> IterationTrace:
    """Parallel distance-type inexact variant (t_k < 1 required).

    A coordinate whose exact selection is 0 stays 0: that is a minimizer at
    distance 0, and perturbing it would only walk it through subnormal
    magnitudes.
    """
    t_sched = config.inexact
    if t_sched.max_value() >= 1.0:
        raise ValidationError("distance schedule requires t_k < 1 for every k")

    def perturb(k, x, z, v, y_star, value):
        t_k = t_sched.value(k)
        delta = y_star - x
        move = (delta != 0.0) & (y_star != 0.0)
        s = config.knob * t_k * np.abs(delta) / (1.0 - t_k)
        x_new = np.where(move, y_star + np.copysign(s, delta), y_star)
        dists = np.where(move, np.abs(x_new - y_star), 0.0)
        bounds = np.where(move, t_k * np.abs(x_new - x), 0.0)
        return x_new, math.sqrt(math.fsum((dists * dists).tolist())), dists, bounds

    return _iterate(prob, config, x0, "ipga2p", "dist", perturb)


def _control_violations(trace: IterationTrace, schedule: Schedule, kind: str,
                        rel_slack: float = 1e-12) -> list[int]:
    """Steps whose inexactness certificates fail; non-finite values fail.

    Step k fails when a coordinate's certified gap or distance
    ``coord_certified[k]`` exceeds its bound ``coord_bounds[k]``, or when
    the step's aggregate eps_k exceeds tau_k ||step_k||^2 (``kind``
    "value") or t_k ||step_k|| (``kind`` "dist").
    """
    if trace.coord_certified is None or trace.eps_kind != kind:
        raise ValidationError(f"trace carries no {kind} certificates")
    if not trace.step_norms:
        return []
    steps = np.array(trace.step_norms)
    limit = np.array([schedule.value(k) for k in range(len(steps))])
    aggregate = limit * (steps ** 2 if kind == "value" else steps)
    # one row per step: the coordinates' certificates, then the aggregate
    lhs = np.column_stack([np.array(trace.coord_certified), trace.eps_values])
    rhs = np.column_stack([np.array(trace.coord_bounds), aggregate])
    ok = (np.isfinite(lhs) & np.isfinite(rhs)
          & (lhs <= rhs + rel_slack * (1.0 + np.abs(rhs))))
    return np.flatnonzero(~ok.all(axis=1)).tolist()


def certify_value_control(trace: IterationTrace, tau: Schedule,
                          rel_slack: float = 1e-12):
    """Check the value certificates of a run_ipga_1p trace.

    Every coordinate's gap must fit its own budget tau_k (x_i^{k+1} -
    x_i^k)^2 and the summed gaps tau_k ||step_k||^2.  Returns (all_ok,
    list of violating k).
    """
    bad = _control_violations(trace, tau, "value", rel_slack)
    return not bad, bad


def certify_dist_control(trace: IterationTrace, t: Schedule,
                         rel_slack: float = 1e-12):
    """Check the distance certificates of a run_ipga_2p trace.

    Every coordinate's distance must fit t_k |x_i^{k+1} - x_i^k| and the
    aggregate ||d^k|| must fit t_k ||step_k||.  Returns (all_ok, list of
    violating k).
    """
    bad = _control_violations(trace, t, "dist", rel_slack)
    return not bad, bad
