"""Coordinate-wise proximal operator of the lp quasi-norm penalty, with certificates.

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

One array kernel solves for all coordinates of a vector at once.
``prox_vector`` calls it once per vector, ``prox_scalar`` on one
coordinate, and ``prox_scalar_half`` with the closed-form root for p = 1/2.
What depends only on (v, lambda, p) is prepared once (``_Prepared``; the
solvers keep it while the stepsize stays the same and restrict it to their
working set of coordinates), and each call solves only the candidates, the
coordinates that can have a nonzero minimizer.
The safeguarded Newton solve starts at t = z, except at p = 1/2, where it
starts at the closed-form root (half thresholding, Xu et al., IEEE TNNLS
2012) clamped into the bracket; bisection, then the IEEE floor, then
``ProxConvergenceError`` are its one fallback, and the returned root is
the one that passes the kernel's own residual check.

Inexactness is simulated with certificates: ``prox_inexact_value``
perturbs the exact vector prox returned by ``prox_vector`` and recomputes
each coordinate's value gap against the certified minimum, so solver-side
inexactness controls can be checked a posteriori.
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
    "prox_oracle",
]

# |g'(t)| <= GPRIME_TOL * (1 + 1/v) declares the stationarity solve converged.
GPRIME_TOL = 1e-13
# |g(0) - g(t*)| <= TIE_TOL * (1 + |g(0)|) declares the threshold tie.
TIE_TOL = 1e-12

NEWTON_MAX_ITERS = 80
BISECT_MAX_ITERS = 200

# The inexact variants use this share of each coordinate's budget; the
# unused share absorbs the rounding of the perturbation and its certificate.
BUDGET_SHARE = 0.9


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


def lower_bound(v: float, lam, p: float):
    """Smallest possible magnitude of a nonzero prox output (lam may be an array)."""
    return (v * lam * p * (1.0 - p)) ** (1.0 / (2.0 - p))


class _Prepared:
    """The kernel's constants for one (v, lam, p), computed once.

    c = v*lam*p, the bracket's lower end t_lb = lower_bound(v, lam, p) and
    the candidate cut t_lb + c*t_lb^(p-1), which is r(t_lb) + a.  A
    coordinate can have a nonzero minimizer only where t_lb < a and
    cut <= a; that equals the test ~(r(t_lb) > 0) bit for bit, since
    fl(X - a) > 0 iff X > a for finite doubles.  At p = 1/2 it also holds
    ``_half_root``'s existence threshold and negated numerator, from c/p,
    which is v*lam exactly there.  ``restrict`` gives the constants of a
    subset ``cols`` of the coordinates, which it records (None: all).
    """

    __slots__ = ("v", "lam", "p", "c", "t_lb", "cut", "half", "cols")

    def __init__(self, v: float, lam: np.ndarray, p: float):
        self.v, self.lam, self.p, self.cols = v, lam, p, None
        self.c = v * lam * p
        self.t_lb = lower_bound(v, lam, p)
        self.cut = self.t_lb + self.c * self.t_lb ** (p - 1.0)
        self.half = None
        if p == 0.5:
            vlam = self.c / p
            self.half = (3.0 * (vlam / 4.0) ** (2.0 / 3.0),
                         -(3.0 * math.sqrt(3.0) * vlam))

    def restrict(self, cols: np.ndarray) -> "_Prepared":
        """The same constants on the sorted coordinates ``cols`` only; when
        ``cols`` is every coordinate, the arrays are shared, not copied."""
        every = cols.size == self.lam.size

        def take(a):
            return a if every else a[cols]

        k = object.__new__(_Prepared)
        k.v, k.p, k.cols = self.v, self.p, cols
        k.lam, k.c, k.t_lb, k.cut = map(take, (self.lam, self.c, self.t_lb, self.cut))
        k.half = None if self.half is None else tuple(map(take, self.half))
        return k


def _half_root(a: np.ndarray, threshold: np.ndarray, neg_num: np.ndarray):
    """Largest root of the p = 1/2 stationarity equation, 0 where none.

    With c = v*lam, substituting t = u^2 turns t + (c/2) t^(-1/2) = a into
    the depressed cubic u^3 - a u + c/2 = 0, whose largest root has the
    trigonometric form below; the root exists iff a >= threshold =
    3 * (c/4)^(2/3), which is positive, so a = 0 has none.  neg_num is
    -3*sqrt(3)*c; both come from ``_Prepared``.
    """
    has = a >= threshold
    a = np.where(has, a, 1.0)
    arg = np.maximum(-1.0, neg_num / (4.0 * a ** 1.5))
    u = 2.0 * np.sqrt(a / 3.0) * np.cos(np.arccos(arg) / 3.0)
    return np.where(has, u * u, 0.0)


def _stationary_root(a: np.ndarray, idx: np.ndarray, k: _Prepared):
    """Root of r(t) = t + c*t^(p-1) - a in [t_lb, a] for the candidates idx.

    r is convex and increasing on [t_lb, a], which brackets its one root
    there.  Newton starts at a, or at p = 1/2 at the closed-form root
    clamped into the bracket, where it usually passes the residual check
    at once.  Each step keeps the bracket around the root, so convergence
    rests on the bracket, not on a monotone Newton sequence: a step that
    leaves it is replaced by bisection, which takes over after
    NEWTON_MAX_ITERS.  A coordinate leaves the active set once converged,
    so its result does not depend on the others.
    """
    p = k.p
    c, lo = k.c[idx], k.t_lb[idx]
    hi = t = a
    if k.half is not None:
        t = np.minimum(np.maximum(
            _half_root(a, k.half[0][idx], k.half[1][idx]), lo), hi)

    def r(t, a, c):
        return t + c * t ** (p - 1.0) - a

    root = np.empty_like(a)
    act = np.arange(a.size)  # positions of the active candidates
    rt = r(t, a, c)
    tol = GPRIME_TOL * (k.v + 1.0)
    for it in range(NEWTON_MAX_ITERS + BISECT_MAX_ITERS):
        done = np.abs(rt) <= tol
        n_done = np.count_nonzero(done)
        if n_done == done.size:
            break
        if n_done:
            root[act[done]] = t[done]
            act, a, c, lo, hi, t, rt = (
                x[~done] for x in (act, a, c, lo, hi, t, rt))
        up = rt > 0.0
        hi = np.where(up, t, hi)
        lo = np.where(up, lo, t)
        mid = 0.5 * (lo + hi)
        if it < NEWTON_MAX_ITERS:
            drdt = 1.0 + c * (p - 1.0) * t ** (p - 2.0)
            ok = drdt > 0.0
            t_new = np.where(ok, t - rt / np.where(ok, drdt, 1.0), lo)
            t = np.where((lo < t_new) & (t_new < hi), t_new, mid)
        else:
            # a bracket exhausted at machine resolution keeps its t
            stuck = (mid == lo) | (mid == hi)
            if np.count_nonzero(stuck) == stuck.size:
                break
            t = np.where(stuck, t, mid)
        rt = r(t, a, c)
    if np.count_nonzero(done) < done.size:
        # IEEE floor: the residual cannot shrink below the rounding
        # noise of its own evaluation; accept when the bracket is a
        # single ulp wide.
        scale = a + t + c * t ** (p - 1.0)
        floor = np.abs(rt) <= np.maximum(tol, 8.0 * np.finfo(float).eps * scale)
        if np.count_nonzero(floor) < floor.size:
            j = (~floor).nonzero()[0][0]
            raise ProxConvergenceError(
                f"stationarity solve stalled at t={float(t[j])!r} "
                f"with residual {float(rt[j])!r}"
            )
    root[act] = t
    return root


def _prox_abs(a: np.ndarray, k: _Prepared, root=None):
    """The prox kernel on magnitudes a = |z|, all coordinates at once.

    Only the candidates idx, the coordinates that can have a nonzero
    minimizer, are solved and compared with t = 0; every other coordinate
    has t = 0, value a^2 / (2v) and no tie.  Returns (idx, t, tie, value):
    on the candidates, t is the magnitude of the nonzero minimizer (0 where
    0 is the only one) and tie marks where 0 and t give the same value;
    value is the minimum of g on every coordinate.  ``root`` (0 where none)
    replaces the solve.
    """
    if root is None:
        idx = ((k.t_lb < a) & (k.cut <= a)).nonzero()[0]
        a_ = a[idx]
        root_ = _stationary_root(a_, idx, k)
    else:
        idx = (root > 0.0).nonzero()[0]
        a_, root_ = a[idx], root[idx]
    # a candidate's root is at least t_lb > 0, and g0 >= 0 is its own |g0|
    value = a * a / (2.0 * k.v)
    g0 = value[idx]
    gt = k.lam[idx] * root_ ** k.p + (root_ - a_) ** 2 / (2.0 * k.v)
    tie = np.abs(g0 - gt) <= TIE_TOL * (1.0 + g0)
    win = gt < g0
    value[idx] = np.where(win, gt, g0)
    return idx, np.where(tie | win, root_, 0.0), tie, value


def _selection(t: np.ndarray, tie: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The signed minimizer that the vector prox selects: 0 at a tie."""
    return np.where(tie | (t == 0.0), 0.0, np.copysign(t, z))


def _one_coordinate(q: ProxQuery, half: bool = False) -> ProxResult:
    """The kernel on the single coordinate of q, as a ProxResult.

    With ``half`` the root is the closed form of ``_half_root`` (p = 1/2).
    """
    a = np.array([abs(q.z)])
    k = _Prepared(q.v, np.array([q.lam]), q.p)
    root = _half_root(a, *k.half) if half else None
    idx, t, tie, value = _prox_abs(a, k, root)
    value = float(value[0])
    if idx.size == 0:
        return ProxResult((0.0,), value, tie=False)
    t = float(t[0])
    if tie[0]:
        return ProxResult((0.0, math.copysign(t, q.z)), value, tie=True)
    if t > 0.0:
        return ProxResult((math.copysign(t, q.z),), value, tie=False)
    return ProxResult((0.0,), value, tie=False)


def prox_scalar(q: ProxQuery) -> ProxResult:
    """Global minimizer(s) of g: the prox kernel on one coordinate."""
    return _one_coordinate(q)


def prox_scalar_half(z: float, v: float, lam: float) -> ProxResult:
    """Closed-form prox for p = 1/2 (half thresholding).

    The kernel's tie rule on the closed-form root of ``_half_root``, with
    no stationarity solve; the value tie against 0 happens exactly at
    |z| = (3/2) * (v*lam)^(2/3).
    """
    return _one_coordinate(ProxQuery(z=z, v=v, lam=lam, p=0.5), half=True)


def prox_vector(z, v: float, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise exact prox with per-coordinate weights.

    Returns the selected minimizers (0 at ties) and the minimum values of
    the scalar problems, from one call of the array kernel.  Each
    coordinate's result is bit-identical to ``prox_scalar`` on it alone.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (prob.n,):
        raise ValidationError(f"z has shape {z.shape}, expected ({prob.n},)")
    if not (v > 0 and math.isfinite(v)):
        raise ValidationError(f"v must be positive, got {v}")
    y, value, _ = _prox_select(z, _Prepared(v, prob.lambda_vec, prob.p))
    return y, value


def _prox_select(z: np.ndarray, k: _Prepared):
    """``prox_vector`` of a checked-shape z with constants prepared for its
    v, and the candidates, the coordinates that can have a nonzero output."""
    if np.count_nonzero(np.isfinite(z)) < z.size:
        raise ValidationError("z must be finite")
    idx, t, tie, value = _prox_abs(np.abs(z), k)
    y = np.zeros(z.size)
    y[idx] = _selection(t, tie, z[idx])
    return y, value, idx


def prox_inexact_value(z, v: float, prob: Problem, y_star, value, x,
                       tau: float, *, lam=None):
    """Value-type perturbation of the exact prox ``(y_star, value)`` of z.

    Coordinate i may return any y_i whose scalar prox objective g_i lies
    within its budget tau * (y_i - x_i)^2 of the minimum ``value[i]``.  A
    coordinate moves only when its step delta = y*_i - x_i is nonzero and
    y*_i != 0; it moves away from x_i by

        s = min(sqrt(2 v BUDGET_SHARE tau) |delta|, |y*_i| / 2),

    so y_i keeps the sign of y*_i.  On either side of 0, g_i'' <= 1/v, so
    the true gap is at most s^2 / (2 v) <= BUDGET_SHARE * tau * delta^2.
    A zero selection, a tie included, stays at 0 with gap 0.

    The certificate is the gap recomputed against ``value``.  A coordinate
    whose recomputed gap exceeds its bound falls back to y*_i with gap 0.
    Returns the point, the per-coordinate gaps and their bounds.  ``lam``
    gives the weights of the coordinates that the vectors hold when they
    are not all of the problem's (the solvers' working set).
    """
    if not (tau >= 0.0 and math.isfinite(tau)):
        raise ValidationError(f"tau must be nonnegative, got {tau}")
    delta = y_star - x
    i = ((delta != 0.0) & (y_star != 0.0)).nonzero()[0]  # moving
    d, ys = delta[i], y_star[i]
    s = np.minimum(math.sqrt(2.0 * v * BUDGET_SHARE * tau) * np.abs(d),
                   0.5 * np.abs(ys))
    y = ys + np.copysign(s, d)
    lam = (prob.lambda_vec if lam is None else lam)[i]
    g = lam * np.abs(y) ** prob.p + (y - z[i]) ** 2 / (2.0 * v)
    gap = np.maximum(g - value[i], 0.0)
    fallback = ~(gap <= tau * (y - x[i]) ** 2)  # a NaN gap falls back too
    y[fallback] = ys[fallback]
    gap[fallback] = 0.0
    out, gaps = y_star.copy(), np.zeros_like(y_star)
    out[i] = y
    gaps[i] = gap
    return out, gaps, tau * (out - x) ** 2


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
