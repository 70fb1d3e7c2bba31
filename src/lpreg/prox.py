"""Scalar proximal operator of the lp quasi-norm penalty, with certificates.

For a query (z, v, lambda, p) the prox minimizes

    g(t) = lambda * |t|^p + (t - z)^2 / (2 v),        0 < p < 1.

By odd symmetry assume z >= 0.  Any positive local minimizer t satisfies
g''(t) >= 0, which rearranges to

    t >= t_lb := (v * lambda * p * (1 - p)) ** (1 / (2 - p)),

and g'(z) > 0 forces any stationary minimizer strictly below z, so the
positive candidate is the largest root of the stationarity equation

    t + v * lambda * p * t^(p-1) = z

bracketed in [t_lb, z].  The global minimizer is that root or t = 0,
whichever gives the smaller g; both can win simultaneously only at the
thresholding boundary, which is reported as a tie.  Vector application
selects 0 at ties (sparsity-promoting; the tie set has measure zero and the
minimizer set is set-valued there, so any selection is admissible).

Inexactness is simulated with certificates: the exact minimizer is always
computed first, and the returned point's value gap or distance is measured
against it exactly, so solver-side inexactness controls can be checked a
posteriori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProxConvergenceError, ValidationError
from .problem import Problem

__all__ = [
    "ProxQuery",
    "ProxResult",
    "lower_bound",
    "prox_scalar",
    "prox_scalar_half",
    "prox_vector",
    "prox_inexact_value",
    "prox_inexact_dist",
    "prox_oracle",
]

# |g'(t)| <= GPRIME_TOL * (1 + 1/v) declares the stationarity solve converged.
GPRIME_TOL = 1e-13
# |g(0) - g(t*)| <= TIE_TOL * (1 + |g(0)|) declares the threshold tie.
TIE_TOL = 1e-12

NEWTON_MAX_ITERS = 80
BISECT_MAX_ITERS = 200


@dataclass(frozen=True)
class ProxQuery:
    """Scalar prox inputs: point z, stepsize v, weight lam, exponent p."""

    z: float
    v: float
    lam: float
    p: float

    def __post_init__(self):
        if not math.isfinite(self.z):
            raise ValidationError("z must be finite")
        if not (self.v > 0 and math.isfinite(self.v)):
            raise ValidationError(f"v must be positive, got {self.v}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValidationError(f"lambda must be positive, got {self.lam}")
        if not (0.0 < self.p < 1.0):
            raise ValidationError(f"p must lie in (0, 1), got {self.p}")


@dataclass(frozen=True)
class ProxResult:
    """Certified minimizer set of g: one value, or two at the tie point."""

    minimizers: tuple[float, ...]
    value: float
    tie: bool

    @property
    def selection(self) -> float:
        """The minimizer a sparsity-promoting selection picks (0 at ties)."""
        if self.tie:
            return 0.0
        return self.minimizers[0]


def lower_bound(v: float, lam: float, p: float) -> float:
    """Smallest possible magnitude of a nonzero prox output."""
    return (v * lam * p * (1.0 - p)) ** (1.0 / (2.0 - p))


def _g(z: float, v: float, lam: float, p: float, t: float) -> float:
    return lam * abs(t) ** p + (t - z) ** 2 / (2.0 * v)


def _stationary_root(a: float, v: float, lam: float, p: float) -> float | None:
    """Largest root of r(t) = t + v*lam*p*t^(p-1) - a on [t_lb, a], or None.

    r is convex and strictly increasing on the bracket, so Newton from the
    right endpoint converges monotonically; bisection safeguards every step.
    """
    c = v * lam * p
    t_lb = lower_bound(v, lam, p)
    if t_lb >= a:
        return None

    def r(t):
        return t + c * t ** (p - 1.0) - a

    if r(t_lb) > 0.0:
        return None  # no stationary point with g'' >= 0
    lo, hi = t_lb, a
    tol = GPRIME_TOL * (v + 1.0)
    t = a
    rt = r(t)
    for _ in range(NEWTON_MAX_ITERS):
        if abs(rt) <= tol:
            return t
        if rt > 0.0:
            hi = t
        else:
            lo = t
        drdt = 1.0 + c * (p - 1.0) * t ** (p - 2.0)
        t_new = t - rt / drdt if drdt > 0.0 else lo
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        t = t_new
        rt = r(t)
    for _ in range(BISECT_MAX_ITERS):
        if abs(rt) <= tol:
            return t
        if rt > 0.0:
            hi = t
        else:
            lo = t
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # bracket exhausted at machine resolution
        t = mid
        rt = r(t)
    # IEEE floor: the residual cannot shrink below the rounding noise of its
    # own evaluation; accept when the bracket is a single ulp wide.
    scale = abs(a) + t + c * t ** (p - 1.0)
    if abs(rt) <= max(tol, 8.0 * np.finfo(float).eps * scale):
        return t
    raise ProxConvergenceError(
        f"stationarity solve stalled at t={t!r} with residual {rt!r}"
    )


def _result(a: float, sgn: float, v: float, lam: float, p: float,
            root: float | None) -> ProxResult:
    g0 = a * a / (2.0 * v)
    if root is None:
        return ProxResult((0.0,), g0, tie=False)
    gt = _g(a, v, lam, p, root)
    if abs(g0 - gt) <= TIE_TOL * (1.0 + abs(g0)):
        return ProxResult((0.0, sgn * root), min(g0, gt), tie=True)
    if gt < g0:
        return ProxResult((sgn * root,), gt, tie=False)
    return ProxResult((0.0,), g0, tie=False)


def prox_scalar(q: ProxQuery) -> ProxResult:
    """Global minimizer(s) of g via safeguarded Newton on the bracket."""
    if q.z == 0.0:
        return ProxResult((0.0,), 0.0, tie=False)
    a, sgn = abs(q.z), math.copysign(1.0, q.z)
    root = _stationary_root(a, q.v, q.lam, q.p)
    return _result(a, sgn, q.v, q.lam, q.p, root)


def prox_scalar_half(z: float, v: float, lam: float) -> ProxResult:
    """Closed-form prox for p = 1/2 (half thresholding).

    Substituting t = u^2 turns the stationarity equation into the depressed
    cubic u^3 - z u + v*lam/2 = 0, whose largest root has the trigonometric
    form below; the root exists iff |z| >= 3 * (v*lam/4)^(2/3), and the
    value tie against 0 happens exactly at |z| = (3/2) * (v*lam)^(2/3).
    """
    q = ProxQuery(z=z, v=v, lam=lam, p=0.5)
    if q.z == 0.0:
        return ProxResult((0.0,), 0.0, tie=False)
    a, sgn = abs(q.z), math.copysign(1.0, q.z)
    c = v * lam
    z_exist = 3.0 * (c / 4.0) ** (2.0 / 3.0)
    root = None
    if a >= z_exist:
        arg = -(3.0 * math.sqrt(3.0) * c) / (4.0 * a ** 1.5)
        u = 2.0 * math.sqrt(a / 3.0) * math.cos(math.acos(max(-1.0, arg)) / 3.0)
        root = u * u
    return _result(a, sgn, v, lam, 0.5, root)


def prox_vector(z, v: float, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise exact prox with per-coordinate weights.

    Returns the selected minimizers (0 at ties) and the minimum values of
    the scalar problems.  Coordinates are solved serially in index order by
    ``prox_scalar``, so the output is bit-reproducible.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (prob.n,):
        raise ValidationError(f"z has shape {z.shape}, expected ({prob.n},)")
    p = prob.p
    selection, value = [], []
    # each result is dropped at once: holding n of them alive would wake
    # the cyclic garbage collector several times per call
    for zi, li in zip(z.tolist(), prob.lambda_vec.tolist()):
        res = prox_scalar(ProxQuery(z=zi, v=v, lam=li, p=p))
        selection.append(res.selection)
        value.append(res.value)
    return np.array(selection), np.array(value)


def prox_inexact_value(
    q: ProxQuery, eps_budget: float, knob: float = 0.9
) -> tuple[float, float]:
    """Point y with g(y) - min g <= eps_budget, plus its certified gap.

    knob=0 returns the exact (selected) minimizer; knob=1 targets the point
    whose gap is closest to the budget.  The search perturbs the exact
    minimizer toward z and bisects on the perturbation, so the output is
    deterministic; the achieved gap is recomputed against the certified
    minimum and never exceeds the budget.

    A budget below the rounding error of g at y* returns (y*, 0.0).  At a
    threshold tie, for instance, the certified minimum is min(g(0), g(root))
    while the selection is 0, so g(y*) may exceed it by up to
    TIE_TOL * (1 + g(0)); prox_scalar declared both candidates minimizers,
    so y* is exact and its gap is 0.
    """
    if not (eps_budget >= 0.0 and math.isfinite(eps_budget)):
        raise ValidationError(f"eps budget must be nonnegative, got {eps_budget}")
    if not (0.0 <= knob <= 1.0):
        raise ValidationError(f"knob must lie in [0, 1], got {knob}")
    exact = prox_scalar(q)
    y_star = exact.selection
    if eps_budget == 0.0 or knob == 0.0 or q.z == y_star:
        return y_star, 0.0

    def gap_at(s):
        y = y_star + s * (q.z - y_star)
        return y, _g(q.z, q.v, q.lam, q.p, y) - exact.value

    target = knob * eps_budget
    y_hi, gap_hi = gap_at(1.0)
    if gap_hi <= target:
        y, gap = y_hi, gap_hi
    else:
        s_lo, s_hi = 0.0, 1.0
        for _ in range(60):
            s_mid = 0.5 * (s_lo + s_hi)
            _, gap_mid = gap_at(s_mid)
            if gap_mid > target:
                s_hi = s_mid
            else:
                s_lo = s_mid
        y, gap = gap_at(s_lo)
    while gap > eps_budget:  # float guard; bisection leaves margin
        if y == y_star:
            return y_star, 0.0
        y = y_star + 0.5 * (y - y_star)
        gap = _g(q.z, q.v, q.lam, q.p, y) - exact.value
    return y, max(gap, 0.0)


def prox_inexact_dist(
    q: ProxQuery, dist_budget: float, knob: float = 0.9
) -> tuple[float, float]:
    """Point y with |y - y*| <= dist_budget for the nearest exact minimizer.

    The perturbation is the deterministic shift knob * dist_budget toward z,
    clipped so y keeps the sign of y* when y* is nonzero.
    """
    if not (dist_budget >= 0.0 and math.isfinite(dist_budget)):
        raise ValidationError(f"dist budget must be nonnegative, got {dist_budget}")
    if not (0.0 <= knob <= 1.0):
        raise ValidationError(f"knob must lie in [0, 1], got {knob}")
    exact = prox_scalar(q)
    y_star = exact.selection
    if dist_budget == 0.0 or knob == 0.0:
        return y_star, 0.0
    step = knob * dist_budget * math.copysign(1.0, q.z - y_star)
    if q.z == y_star:
        step = 0.0
    y = y_star + step
    if y_star != 0.0 and y * y_star <= 0.0:
        y = y_star - math.copysign(min(knob * dist_budget, abs(y_star) / 2.0), y_star)
    achieved = min(abs(y - m) for m in exact.minimizers)
    return y, achieved


# ---------------------------------------------------------------------------
# Independent brute-force oracle: canonical-grid scan plus golden-section
# and parabolic refinement.  Shares no root-finding code with prox_scalar.
#
# The default scan walks the same 10^6-point grid a dense sweep would, but
# locates the local-minimum brackets by search instead of full evaluation:
# on the positive side the node-difference sequence d[j] = g[t_{j+1}] -
# g[t_j] integrates g', whose third derivative is positive, so d is a
# convex sequence with at most one sign change from + to - and one from -
# to +.  Ternary search finds its minimum and bisection finds the sign
# changes, which pins down the same brackets the dense sweep would report.
# ``dense=True`` runs the literal full-grid sweep; both paths must and do
# return identical brackets (exercised by the test suite).
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(f, a, b, xtol):
    """Golden-section minimization of f on [a, b]."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def _parabolic_polish(f, x, w, rounds=2):
    """Vertex-of-parabola polish; beats the value-flatness floor of golden
    section because the stencil spans the full bracket width.  The vertex
    is taken whenever the sampled curvature is positive: near the minimum
    the value differences sit below rounding noise, so comparing f there
    would veto genuine improvements."""
    for _ in range(rounds):
        fl, fc, fr = f(x - w), f(x), f(x + w)
        denom = fl - 2.0 * fc + fr
        if denom > 0.0:
            shift = 0.5 * w * (fl - fr) / denom
            x += max(-w, min(w, shift))
        w /= 8.0
    return x, f(x)


def _dense_brackets(g, lo, h, n_grid):
    """Local-minimum brackets from a literal full-grid sweep."""
    t = lo + h * np.arange(n_grid)
    with np.errstate(divide="ignore"):
        gv = g(t)
    inner = gv[1:-1]
    is_min = (inner < gv[:-2]) & (inner <= gv[2:])
    cand = np.flatnonzero(is_min) + 1
    if cand.size == 0:
        cand = np.array([int(np.argmin(gv))])
    order = np.argsort(gv[cand], kind="stable")
    return [int(cand[j]) for j in order[:3]]


def _searched_brackets(g, lo, h, n_grid, a):
    """Same brackets as _dense_brackets, found by structured search.

    Nodes left of 0 are strictly downhill and nodes right of a = |z| are
    strictly uphill (both terms of g are monotone there), so every local
    minimum lies within a node of [0, a].  On (0, a] the difference
    sequence is convex: ternary search for its minimum, then bisection for
    its sign changes.
    """
    def d(j):
        tj = lo + h * j
        return g(tj + h) - g(tj)

    j_zero = int((0.0 - lo) / h)  # node at or just below 0
    j_hi = min(n_grid - 2, int(math.ceil((a - lo) / h)) + 2)
    brackets = [max(1, j_zero)]
    visited = {}

    def dval(j):
        if j not in visited:
            visited[j] = d(j)
        return visited[j]

    lo_j, hi_j = j_zero + 2, j_hi
    if hi_j > lo_j:
        # ternary search for the minimum of the convex sequence d
        a_j, b_j = lo_j, hi_j
        while b_j - a_j > 2:
            m1 = a_j + (b_j - a_j) // 3
            m2 = b_j - (b_j - a_j) // 3
            if dval(m1) <= dval(m2):
                b_j = m2
            else:
                a_j = m1
        j_dmin = min(range(a_j, b_j + 1), key=dval)
        if dval(j_dmin) < 0.0:
            # descending run exists; its end is the interior local minimum
            s_lo, s_hi = j_dmin, hi_j
            if dval(s_hi) >= 0.0:
                while s_hi - s_lo > 1:
                    mid = (s_lo + s_hi) // 2
                    if dval(mid) < 0.0:
                        s_lo = mid
                    else:
                        s_hi = mid
                brackets.append(s_hi)
            else:
                brackets.append(s_hi + 1)
    # order brackets by their grid value, matching the dense sweep's ranking
    tvals = [lo + h * j for j in brackets]
    order = sorted(range(len(brackets)), key=lambda i: g(tvals[i]))
    return [brackets[i] for i in order[:3]]


def prox_oracle(q: ProxQuery, n_grid: int = 10**6, dense: bool = False) -> ProxResult:
    """Brute-force global minimization of g on a dense uniform grid.

    The grid spans [min(0,z)-1, max(0,z)+1] with ``n_grid`` points; the
    best three local-minimum brackets are refined by golden section plus a
    parabolic polish, and the winner is compared against t = 0 (the kink).
    By odd symmetry the scan works on |z| and mirrors the result, which
    maps the grid onto itself exactly.
    """
    z, v, lam, p = q.z, q.v, q.lam, q.p
    a, sgn = abs(z), math.copysign(1.0, z)

    def g(t):
        return lam * np.abs(t) ** p + (t - a) ** 2 / (2.0 * v)

    lo = -1.0
    h = (a + 2.0) / (n_grid - 1)
    if dense:
        best = _dense_brackets(g, lo, h, n_grid)
    else:
        best = _searched_brackets(g, lo, h, n_grid, a)

    xtol = 1e-10 * (1.0 + a)
    candidates = [(0.0, float(g(0.0)))]
    for j in best:
        b_lo = lo + h * (j - 1)
        b_hi = lo + h * (j + 1)
        x, fx = _golden(g, b_lo, b_hi, xtol)
        x, fx = _parabolic_polish(g, x, h)
        candidates.append((float(x), float(fx)))
    x_best, f_best = min(candidates, key=lambda c: (c[1], abs(c[0])))
    g0 = float(g(0.0))
    if x_best != 0.0 and abs(g0 - f_best) <= TIE_TOL * (1.0 + abs(g0)):
        return ProxResult((0.0, sgn * x_best), min(g0, f_best), tie=True)
    return ProxResult((sgn * x_best,), f_best, tie=False)
