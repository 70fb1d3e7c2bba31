"""Local-minimum tests: first/second-order conditions and growth probes.

For x with support I = supp(x), the tested conditions are

* first order:  (2 A^T (A x - b))_I + lambda_I p |x_I|^{p-1} sign(x_I) = 0,
* second order: M(x) = 2 A_I^T A_I + lambda_I p (p-1) diag(|x_I|^{p-2}) > 0
  (positive definite),
* quadratic growth: F(u) >= F(x) + eps ||u - x||^2 near x.

For nonzero x the three are equivalent; the zero vector is always a local
minimum (the penalty grows like ||x||^p, beating any smooth slope near 0),
but the matrix condition is vacuous there, so reports classify it as
``zero-point`` and the growth probe is the check that applies.

``enumerate_local_minima`` walks every support and sign pattern (n <= 12),
finds critical points of the orthant-restricted smooth objective by damped
Newton from a small deterministic start set, and keeps the points that pass
the second-order test.  Orthants whose Newton budget ran out are reported
as warnings, never dropped silently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PolishError, ValidationError
from .problem import (Problem, _objective_at, _residual, _rows, gradient_smooth,
                      objective)
from .solvers import residual_on_support

__all__ = [
    "OptimalityReport",
    "GrowthProbeResult",
    "EnumerationResult",
    "classify_point",
    "polish_local_minimum",
    "growth_probe",
    "default_probe_delta",
    "enumerate_local_minima",
    "equivalence_harness",
]

CLASS_ZERO = "zero-point"
CLASS_NOT_CRITICAL = "not-critical"
CLASS_INDEFINITE = "critical-indefinite"
CLASS_LOCAL_MIN = "critical-second-order"


@dataclass(frozen=True)
class GrowthProbeResult:
    """Empirical quadratic-growth estimate on a ball around a point."""

    eps_hat: float
    delta: float
    n_samples: int
    violations: int


@dataclass(frozen=True)
class OptimalityReport:
    support: tuple[int, ...]
    first_order_residual: float
    second_order_min_eig: float | None  # None iff support is empty
    classification: str
    growth: GrowthProbeResult | None = None


def _reduced_hessian(AtA2, lam, p, y) -> np.ndarray:
    """2 A_I^T A_I + lambda_I p (p-1) diag(|y|^{p-2}), given AtA2 = 2 A_I^T A_I."""
    return AtA2 + np.diag(lam * p * (p - 1.0) * np.abs(y) ** (p - 2.0))


def second_order_matrix(prob: Problem, x) -> np.ndarray:
    """M(x) = 2 A_I^T A_I + lambda_I p (p-1) diag(|x_I|^{p-2}) on supp(x)."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.flatnonzero(x)
    A_I = prob.A[:, idx]  # a column-major copy, whatever A's own layout
    return _reduced_hessian(2.0 * A_I.T @ A_I, prob.lambda_vec[idx], prob.p, x[idx])


def classify_point(
    prob: Problem, x, fo_tol: float = 1e-8, so_tol: float = 1e-10
) -> OptimalityReport:
    """Classify x as zero-point / not-critical / indefinite / local min.

    The second-order matrix is symmetric; its smallest eigenvalue comes from
    a tridiagonalization-based symmetric eigensolver.
    """
    x = np.asarray(x, dtype=np.float64)
    residual, support = residual_on_support(prob, x)
    if not support:
        return OptimalityReport(support, 0.0, None, CLASS_ZERO)
    min_eig = float(np.linalg.eigvalsh(second_order_matrix(prob, x))[0])
    if not residual <= fo_tol:  # a NaN residual or fo_tol fails closed
        cls = CLASS_NOT_CRITICAL
    elif min_eig > so_tol:
        cls = CLASS_LOCAL_MIN
    else:
        cls = CLASS_INDEFINITE
    return OptimalityReport(support, residual, min_eig, cls)


def default_probe_delta(prob: Problem, x) -> float:
    """Probe radius keeping the ball inside the point's growth region.

    Along the support the ball must stay inside the orthant where the
    reduced objective is smooth: half the smallest nonzero magnitude.  Off
    the support the penalty's kink growth lambda |u_j|^p must dominate the
    smooth slope there, which holds up to roughly
    (lambda_min / (slope + curvature))^(1/(1-p)); for x = 0 that is the
    only constraint.
    """
    x = np.asarray(x, dtype=np.float64)
    nz = np.abs(x[x != 0.0])
    off = x == 0.0
    delta = math.inf if nz.size == 0 else 0.5 * float(nz.min())
    if off.any():
        grad_off = gradient_smooth(prob, x)[off]
        slope = float(np.linalg.norm(grad_off))
        # one row-major array, the square itself: np.sum reduces in memory order
        curvature = 2.0 * float(np.sum(np.square(prob.A, order="C")))
        lam_off = float(prob.lambda_vec[off].min())
        denom = slope + (0.0 if nz.size == 0 else curvature + 1.0)
        if denom > 0.0:
            r = (lam_off / denom) ** (1.0 / (1.0 - prob.p))
            delta = min(delta, 0.5 * min(r, 2.0))
    if not math.isfinite(delta):
        delta = 1.0
    return delta


def growth_probe(
    prob: Problem,
    x,
    delta: float | None = None,
    n_samples: int = 10_000,
    seed: int = 0,
) -> GrowthProbeResult:
    """Sample the ball B(x, delta) for quadratic growth of F around x.

    Returns the smallest sampled quotient (F(u) - F(x)) / ||u - x||^2 and
    the number of samples with F(u) < F(x).  A true local minimum with a
    small enough delta yields zero violations and a positive estimate;
    points that are not local minima show violations.
    """
    x = np.asarray(x, dtype=np.float64)
    if delta is None:
        delta = default_probe_delta(prob, x)
    if not (delta > 0):
        raise ValidationError(f"delta must be positive, got {delta}")
    rng = np.random.default_rng(seed)
    fx = objective(prob, x)
    A = _rows(prob.A)  # one row-major copy for every sample's residual
    eps_hat = math.inf
    violations = 0
    for _ in range(n_samples):
        d = rng.standard_normal(prob.n)
        norm = np.linalg.norm(d)
        if norm == 0.0:
            continue
        r = delta * rng.uniform() ** (1.0 / prob.n)
        u = x + (r / norm) * d
        fu = _objective_at(prob, _residual(prob, u, A)[1], prob.lambda_vec, np.abs(u))
        if fu < fx:
            violations += 1
        dsq = float(np.sum((u - x) ** 2))
        if dsq > 0.0:
            eps_hat = min(eps_hat, (fu - fx) / dsq)
    return GrowthProbeResult(eps_hat, delta, n_samples, violations)


# ---------------------------------------------------------------------------
# Exhaustive enumeration over supports and sign patterns (small n).
# ---------------------------------------------------------------------------

ENUMERATE_MAX_N = 12
_GRAD_TOL = 1e-11


@dataclass
class EnumerationResult:
    """Local minima found, plus orthants whose search was inconclusive.

    ``minima`` is sorted by objective value.  F is coercive, so its global
    minimum is one of the finitely many local minima: ``minima[0]`` when
    no orthant is incomplete.
    """

    minima: list[tuple[np.ndarray, OptimalityReport]]
    incomplete: list[tuple[tuple[int, ...], tuple[int, ...]]]


def _newton_in_orthant(prob, idx, signs, y0, max_iters=200):
    """Damped Newton for the orthant-restricted stationarity equations.

    Returns (root, status) with status in {"converged", "stalled",
    "exhausted"}; "stalled" means the iteration was pushed against the
    orthant boundary or could not make progress (no root reachable from this
    start), "exhausted" means the budget ran out while still progressing.
    """
    A_I = prob.A[:, idx]
    lam = prob.lambda_vec[idx]
    p = prob.p
    AtA2 = 2.0 * A_I.T @ A_I
    Atb2 = 2.0 * A_I.T @ prob.b
    s = np.asarray(signs, dtype=np.float64)

    def grad(y):
        return AtA2 @ y - Atb2 + lam * p * np.abs(y) ** (p - 1.0) * s

    y = y0.copy()
    g = grad(y)
    ng = float(np.linalg.norm(g))
    scale = 1.0 + float(np.linalg.norm(Atb2))
    for _ in range(max_iters):
        if ng <= _GRAD_TOL * scale:
            return y, "converged"
        H = _reduced_hessian(AtA2, lam, p, y)
        d = None
        mu = 0.0
        for _ in range(40):
            try:
                d = np.linalg.solve(H + mu * np.eye(len(y)), -g)
            except np.linalg.LinAlgError:
                d = None
            if d is not None and float(d @ g) < 0.0:
                break
            mu = max(2.0 * mu, 1e-8 * (1.0 + float(np.abs(H).max())))
        else:
            return None, "stalled"
        # largest step keeping every coordinate strictly inside the orthant
        cap = 1.0
        for i in range(len(y)):
            if y[i] * s[i] + d[i] * s[i] <= 0.0:
                cap = min(cap, 0.9 * abs(y[i]) / abs(d[i]))
        alpha = cap
        improved = False
        for _ in range(60):
            y_try = y + alpha * d
            g_try = grad(y_try)
            ng_try = float(np.linalg.norm(g_try))
            if ng_try < ng * (1.0 - 1e-4 * alpha):
                y, g, ng = y_try, g_try, ng_try
                improved = True
                break
            alpha *= 0.5
        if not improved:
            return None, "stalled"
    return None, "exhausted"


def polish_local_minimum(prob: Problem, x) -> np.ndarray:
    """Newton on supp(x) and sign(x) from x: the strict local minimum there.

    With supp(x) and its signs fixed F is smooth; Newton keeps each step
    inside the orthant, so its root keeps them.  Raises PolishError unless
    that root is critical-second-order.  x = 0 returns 0.
    """
    x = np.asarray(x, dtype=np.float64)
    idx = np.flatnonzero(x)
    out = np.zeros(prob.n)
    if idx.size:
        y, status = _newton_in_orthant(prob, idx, np.sign(x[idx]), x[idx])
        out[idx] = x[idx] if y is None else y
        report = classify_point(prob, out)
        if status != "converged" or report.classification != CLASS_LOCAL_MIN:
            raise PolishError(
                f"Newton polish on support {report.support}: status {status}, "
                f"{report.classification} at the {'start' if y is None else 'root'},"
                f" lambda_min(M) = {report.second_order_min_eig:.6g}")
    return out


def _coordinate_floor(prob: Problem, A: np.ndarray, i: int) -> float:
    """Smallest magnitude coordinate i can have at a second-order point,
    given ``A = _rows(prob.A)``.

    The 1x1 principal minor of M(x) must be nonnegative, which gives
    |x_i| >= (lambda_i p (1-p) / (2 ||A_i||^2))^(1/(2-p)).
    """
    col_sq = float(A[:, i] @ A[:, i])
    if col_sq == 0.0:
        return 1.0
    lam = float(prob.lambda_vec[i])
    return (lam * prob.p * (1.0 - prob.p) / (2.0 * col_sq)) ** (1.0 / (2.0 - prob.p))


def _dedupe(points, tol=1e-8):
    kept = []
    for x in points:
        if all(np.linalg.norm(x - y) > tol for y in kept):
            kept.append(x)
    return kept


def enumerate_local_minima(
    prob: Problem,
    probe_samples: int = 2000,
    seed: int = 0,
) -> EnumerationResult:
    """All local minima of F for n <= 12, by support/sign enumeration.

    Every support and sign pattern gets a damped-Newton search from four
    deterministic magnitude levels (the per-coordinate second-order floor,
    twice it, the least-squares scale |A_i^T b| / ||A_i||^2 and ten times
    that).  Roots are deduplicated, classified, and kept when they pass the
    second-order test.  The zero vector is checked by the growth probe.
    """
    if prob.n > ENUMERATE_MAX_N:
        raise ValidationError(
            f"enumeration is limited to n <= {ENUMERATE_MAX_N}, got n = {prob.n}"
        )
    A = _rows(prob.A)
    floors = np.array([_coordinate_floor(prob, A, i) for i in range(prob.n)])
    col_sq = np.einsum("ij,ij->j", A, A)
    with np.errstate(divide="ignore", invalid="ignore"):
        ls_scale = np.where(
            col_sq > 0.0, np.abs(A.T @ prob.b) / np.where(col_sq > 0, col_sq, 1.0), 1.0
        )
    ls_scale = np.maximum(ls_scale, 2.0 * floors)

    roots = []
    incomplete = []
    indices = list(range(prob.n))
    for r in range(1, prob.n + 1):
        for support in itertools.combinations(indices, r):
            idx = np.array(support)
            levels = (floors[idx], 2.0 * floors[idx], ls_scale[idx], 10.0 * ls_scale[idx])
            for signs in itertools.product((-1.0, 1.0), repeat=r):
                s = np.array(signs)
                exhausted = False
                for mags in levels:
                    y, status = _newton_in_orthant(prob, idx, s, s * mags)
                    if status == "converged":
                        x = np.zeros(prob.n)
                        x[idx] = y
                        roots.append(x)
                    elif status == "exhausted":
                        exhausted = True
                if exhausted:
                    incomplete.append((support, tuple(int(v) for v in signs)))

    minima = []
    for x in _dedupe(roots):
        report = classify_point(prob, x)
        if report.classification == CLASS_LOCAL_MIN:
            probe = growth_probe(prob, x, n_samples=probe_samples, seed=seed)
            minima.append((x, replace(report, growth=probe)))

    zero = np.zeros(prob.n)
    zero_probe = growth_probe(prob, zero, n_samples=probe_samples, seed=seed)
    if zero_probe.violations == 0:
        minima.append((zero, replace(classify_point(prob, zero), growth=zero_probe)))
    minima.sort(key=lambda item: objective(prob, item[0]))
    return EnumerationResult(minima=minima, incomplete=incomplete)


# ---------------------------------------------------------------------------
# Grid-vs-conditions equivalence harness (n <= 3).
# ---------------------------------------------------------------------------

_GRID_POINTS = {1: 1_000_001, 2: 2001, 3: 201}


@dataclass
class HarnessCheck:
    kind: str
    point: np.ndarray
    ok: bool
    detail: str


@dataclass
class HarnessReport:
    checks: list[HarnessCheck]
    grid_minima: list[np.ndarray]
    enumerated: list[np.ndarray]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[HarnessCheck]:
        return [c for c in self.checks if not c.ok]


def _grid_radius(prob: Problem) -> float:
    A = _rows(prob.A)
    col_sq = np.einsum("ij,ij->j", A, A)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(col_sq > 0, np.abs(A.T @ prob.b) / np.where(col_sq > 0, col_sq, 1.0), 0.0)
    return 1.0 + 2.0 * float(scale.max(initial=0.0))


def _grid_local_minima(prob: Problem, radius: float):
    """Strict local minima of F on a uniform grid over [-radius, radius]^n."""
    n = prob.n
    n_pts = _GRID_POINTS[n]
    axis = np.linspace(-radius, radius, n_pts)  # odd count: includes 0.0
    h = axis[1] - axis[0]
    shape = [n_pts] * n
    G = np.zeros(shape)
    coords = []
    for i in range(n):
        view = [1] * n
        view[i] = n_pts
        coords.append(axis.reshape(view))
    for j in range(prob.m):
        r = -prob.b[j]
        for i in range(n):
            r = r + prob.A[j, i] * coords[i]
        G += r * r
    lam = prob.lambda_vec
    for i in range(n):
        G += lam[i] * np.abs(coords[i]) ** prob.p

    center = G[tuple(slice(1, -1) for _ in range(n))]
    mask = np.ones(center.shape, dtype=bool)
    for offset in itertools.product((-1, 0, 1), repeat=n):
        if all(o == 0 for o in offset):
            continue
        sl = tuple(slice(1 + o, (-1 + o) or None) for o in offset)
        mask &= center < G[sl]
    found = np.argwhere(mask) + 1
    points = [np.array([axis[i] for i in ij]) for ij in found]
    return points, h


def _polish_grid_point(prob: Problem, x, h: float):
    """Snap near-zero coordinates and Newton-polish within the orthant."""
    x = np.asarray(x, dtype=np.float64).copy()
    x[np.abs(x) <= 1.5 * h] = 0.0
    idx = np.flatnonzero(x)
    if idx.size == 0:
        return np.zeros(prob.n), "converged"
    y, status = _newton_in_orthant(prob, idx, np.sign(x[idx]), x[idx])
    if status != "converged":
        return None, status
    out = np.zeros(prob.n)
    out[idx] = y
    return out, status


def equivalence_harness(
    prob: Problem, seed: int = 0, trials: int = 4000
) -> HarnessReport:
    """Cross-check the optimality conditions against a dense-grid scan.

    Grid-certified local minima (polished to full precision) must pass the
    matrix test; enumerated second-order points must pass the growth probe;
    and the two point sets must coincide.  The zero vector is handled by the
    growth probe on both sides since the matrix test is vacuous there.
    ``trials`` is the probe sample count.
    """
    if prob.n > 3:
        raise ValidationError(f"harness grids are limited to n <= 3, got {prob.n}")
    checks = []
    enum = enumerate_local_minima(prob, probe_samples=trials, seed=seed)
    for support, signs in enum.incomplete:
        checks.append(HarnessCheck(
            "enumeration-complete", np.zeros(prob.n), False,
            f"incomplete search on support {support} signs {signs}",
        ))

    radius = _grid_radius(prob)
    grid_points, h = _grid_local_minima(prob, radius)
    polished = []
    for gp in grid_points:
        x, status = _polish_grid_point(prob, gp, h)
        if x is None:
            checks.append(HarnessCheck(
                "grid-polish", gp, False, f"Newton polish failed: {status}"
            ))
            continue
        polished.append(x)
    polished = _dedupe(polished, tol=max(1e-8, 2.0 * h))

    # grid-certified minimum => second-order conditions (nonzero) or probe
    # (0): the enumeration keeps the zero point iff its probe, at this seed
    # and sample count, finds no violation
    for x in polished:
        if np.count_nonzero(x) == 0:
            ok = any(np.count_nonzero(y) == 0 for y, _ in enum.minima)
            detail = "the enumeration's zero-point probe found violations"
        else:
            report = classify_point(prob, x)
            ok = report.classification == CLASS_LOCAL_MIN
            detail = (
                f"classification={report.classification} "
                f"residual={report.first_order_residual:.3e} "
                f"min_eig={report.second_order_min_eig}"
            )
        checks.append(HarnessCheck("grid-implies-conditions", x, ok, detail))

    # second-order point => growth probe clean
    for x, report in enum.minima:
        probe = report.growth
        checks.append(HarnessCheck(
            "conditions-imply-growth", x, probe.violations == 0,
            f"violations={probe.violations} eps_hat={probe.eps_hat:.3e}",
        ))

    # the two point sets must agree (zero handled by the probes above)
    enum_nonzero = [x for x, _ in enum.minima if np.count_nonzero(x)]
    grid_nonzero = [x for x in polished if np.count_nonzero(x)]
    match_tol = max(1e-6, 4.0 * h)
    for x in grid_nonzero:
        ok = any(np.linalg.norm(x - y) <= match_tol for y in enum_nonzero)
        checks.append(HarnessCheck(
            "grid-in-enumeration", x, ok, f"match tol {match_tol:.2e}"
        ))
    for y in enum_nonzero:
        inside = bool(np.all(np.abs(y) <= radius - 2 * h))
        ok = (not inside) or any(
            np.linalg.norm(x - y) <= match_tol for x in grid_nonzero
        )
        checks.append(HarnessCheck(
            "enumeration-in-grid", y, ok, f"match tol {match_tol:.2e}"
        ))
    return HarnessReport(checks=checks, grid_minima=polished,
                         enumerated=[x for x, _ in enum.minima])
