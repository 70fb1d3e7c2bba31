"""Problem instances: objective evaluation, generators and file I/O.

The objective is

    F(x) = ||A x - b||^2 + sum_i lambda_i |x_i|^p,      0 < p < 1,

with a uniform weight lambda_i = lambda unless per-coordinate weights are
given.  Objective sums are evaluated with ``math.fsum`` (exact compensated
summation) in ascending index order, so repeated evaluations are
bit-reproducible; downstream certification compares floating-point
inequalities and relies on this.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ProblemFormatError, ValidationError

__all__ = [
    "Problem",
    "SupportSet",
    "objective",
    "gradient_smooth",
    "spectral_norm_sq",
    "rescale_weighted",
    "generate_instance",
    "load_problem",
    "save_problem",
    "save_trace",
    "load_trace",
]

# Power-iteration stopping tolerance; spectral_norm_sq may underestimate the
# true value by at most this much, so consumers add it back (see solvers).
SPECTRAL_TOL = 1e-10


def _as_readonly(a, dtype=np.float64):
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Problem:
    """Immutable instance data (A, b, lambda, p, optional weights).

    ``weights`` holds per-coordinate regularization weights; absent means the
    uniform weight ``lam`` for every coordinate.
    """

    A: np.ndarray
    b: np.ndarray
    lam: float
    p: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        A = _as_readonly(np.atleast_2d(self.A))
        b = _as_readonly(np.atleast_1d(self.b))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if A.ndim != 2:
            raise ValidationError("A must be a matrix")
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise ValidationError("A must have m >= 1 rows and n >= 1 columns")
        if b.shape != (A.shape[0],):
            raise DimensionMismatchError(
                f"b has shape {b.shape}, expected ({A.shape[0]},)"
            )
        if not np.isfinite(A).all() or not np.isfinite(b).all():
            raise ValidationError("A and b must be finite")
        if not (self.lam > 0):
            raise ValidationError(f"lambda must be positive, got {self.lam}")
        if not (0.0 < self.p < 1.0):
            raise ValidationError(f"p must lie in (0, 1), got {self.p}")
        if self.weights is not None:
            w = _as_readonly(np.atleast_1d(self.weights))
            if w.shape != (A.shape[1],):
                raise DimensionMismatchError(
                    f"weights has shape {w.shape}, expected ({A.shape[1]},)"
                )
            if not np.isfinite(w).all() or not (w > 0).all():
                raise ValidationError("weights must be finite and positive")
            object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def lambda_vec(self) -> np.ndarray:
        """Per-coordinate weights (uniform ``lam`` when no weights given)."""
        if self.weights is not None:
            return self.weights
        return np.full(self.n, self.lam)

    @property
    def lambda_lower(self) -> float:
        """Largest lower bound on the weights (lam itself when uniform)."""
        if self.weights is not None:
            return float(self.weights.min())
        return float(self.lam)


@dataclass(frozen=True)
class SupportSet:
    """Sorted index set supp(x) with its cardinality."""

    indices: tuple[int, ...]
    size: int = field(init=False)

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if idx != self.indices:
            object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "size", len(idx))

    @classmethod
    def of(cls, x) -> "SupportSet":
        return cls(tuple(int(i) for i in np.flatnonzero(np.asarray(x))))


def _check_x(prob: Problem, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (prob.n,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({prob.n},)")
    if not np.isfinite(x).all():
        raise ValidationError("x must be finite")
    return x


def objective(prob: Problem, x) -> float:
    """F(x) = ||Ax-b||^2 + sum_i lambda_i |x_i|^p, compensated summation."""
    x = _check_x(prob, x)
    r = prob.A @ x - prob.b
    resid = math.fsum((r * r).tolist())
    pen_terms = prob.lambda_vec * np.abs(x) ** prob.p
    return resid + math.fsum(pen_terms.tolist())


def gradient_smooth(prob: Problem, x) -> np.ndarray:
    """Gradient of the smooth part: 2 A^T (A x - b)."""
    x = _check_x(prob, x)
    return 2.0 * (prob.A.T @ (prob.A @ x - prob.b))


def spectral_norm_sq(prob: Problem, tol: float = SPECTRAL_TOL) -> float:
    """||A||^2, the largest eigenvalue of A^T A, by power iteration.

    Deterministic seeded start vectors (two of them, to dodge the
    measure-zero case of a start orthogonal to the top eigenspace); the
    Rayleigh quotient never exceeds the true value, so the result is an
    underestimate by at most ``tol``.
    """
    A = prob.A
    n = A.shape[1]
    best = 0.0
    for seed in (12345, 54321):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        mu = 0.0
        for _ in range(200_000):
            w = A.T @ (A @ v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                mu = 0.0
                break
            v = w / nw
            mu_new = float(v @ (A.T @ (A @ v)))
            if abs(mu_new - mu) <= tol * max(1.0, mu_new):
                mu = mu_new
                break
            mu = mu_new
        best = max(best, mu)
    return best


def rescale_weighted(prob: Problem) -> tuple[Problem, np.ndarray]:
    """Fold per-coordinate weights into the columns of A.

    Returns the uniform-weight problem (K, b, lam, p) with

        u_i = (lambda_i / lam)^(1/p) x_i,    K_i = (lam / lambda_i)^(1/p) A_i,

    plus the scale vector s with x = s * u.  Objective values coincide:
    objective(canonical, u) == objective(weighted, x), and supports match.
    """
    if prob.weights is None:
        raise ValidationError("rescale_weighted needs a weighted problem")
    ratio = (prob.lam / prob.weights) ** (1.0 / prob.p)
    K = prob.A * ratio[np.newaxis, :]
    canonical = Problem(A=K, b=prob.b, lam=prob.lam, p=prob.p)
    return canonical, ratio


def generate_instance(
    seed: int,
    m: int,
    n: int,
    s: int,
    noise: float = 0.0,
    lam: float = 0.1,
    p: float = 0.5,
) -> tuple[Problem, np.ndarray]:
    """Random sparse-recovery instance with a planted solution.

    A has i.i.d. N(0, 1/m) entries; the planted x has ``s`` nonzeros with
    magnitudes in [1, 2] (so support membership is well separated from zero)
    at uniformly random positions; b = A x + noise * N(0, I).
    """
    if not (0 <= s <= n):
        raise ValidationError(f"sparsity s={s} must satisfy 0 <= s <= n={n}")
    if m < 1 or n < 1:
        raise ValidationError("m and n must be >= 1")
    if noise < 0:
        raise ValidationError("noise level must be nonnegative")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    x0 = np.zeros(n)
    support = rng.choice(n, size=s, replace=False)
    signs = rng.choice([-1.0, 1.0], size=s)
    x0[support] = signs * rng.uniform(1.0, 2.0, size=s)
    b = A @ x0
    if noise > 0:
        b = b + noise * rng.standard_normal(m)
    return Problem(A=A, b=b, lam=lam, p=p), x0


# ---------------------------------------------------------------------------
# File formats.
#
# Problem file: UTF-8 JSON object with keys "m", "n", "p", "lambda",
# optional "weights" (length n), "A" (m rows of n numbers, row-major),
# "b" (length m).
#
# Trace file: CSV with header k,F,step_norm,residual,support_size,eps_k;
# one row per recorded iterate, numbers with 17 significant digits.  The
# final row's step_norm and eps_k are 0.0 (no successor iterate).  Reading
# rejects non-finite numbers, so a certificate never sees them.
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("m", "n", "p", "lambda", "A", "b")


def load_problem(path) -> Problem:
    """Read a problem instance from its JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(exc.msg, line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ProblemFormatError("top-level value must be an object")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ProblemFormatError(f"missing required field {key!r}")
    m, n = int(data["m"]), int(data["n"])
    A = np.asarray(data["A"], dtype=np.float64)
    b = np.asarray(data["b"], dtype=np.float64)
    if A.shape != (m, n):
        raise ProblemFormatError(f"A has shape {A.shape}, header says ({m}, {n})")
    if b.shape != (m,):
        raise ProblemFormatError(f"b has length {b.shape[0]}, header says {m}")
    weights = None
    if data.get("weights") is not None:
        weights = np.asarray(data["weights"], dtype=np.float64)
        if weights.shape != (n,):
            raise ProblemFormatError(
                f"weights has length {weights.shape[0]}, header says {n}"
            )
    try:
        return Problem(A=A, b=b, lam=float(data["lambda"]), p=float(data["p"]),
                       weights=weights)
    except (ValidationError, DimensionMismatchError) as exc:
        raise ProblemFormatError(str(exc)) from exc


def save_problem(path, prob: Problem) -> None:
    """Write a problem instance to its JSON file (17 significant digits)."""
    def num(x):
        return float(f"{x:.17g}")

    data = {
        "m": prob.m,
        "n": prob.n,
        "p": num(prob.p),
        "lambda": num(prob.lam),
        "A": [[num(v) for v in row] for row in prob.A],
        "b": [num(v) for v in prob.b],
    }
    if prob.weights is not None:
        data["weights"] = [num(v) for v in prob.weights]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=None, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


TRACE_HEADER = ("k", "F", "step_norm", "residual", "support_size", "eps_k")


def save_trace(path, trace) -> None:
    """Write a per-iteration trace as CSV (see module header for format)."""
    rows = trace.csv_rows()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.17g}" for v in row[1:]])


def load_trace(path):
    """Read a trace CSV back into an IterationTrace (iterates absent)."""
    from .solvers import IterationTrace

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ProblemFormatError("empty trace file", line=1) from None
        if tuple(header) != TRACE_HEADER:
            raise ProblemFormatError(
                f"bad trace header {header!r}", line=1
            )
        f_vals, steps, resids, sizes, eps = [], [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ProblemFormatError(
                    f"expected 6 columns, got {len(row)}", line=lineno
                )
            try:
                f, step, resid, e = (float(row[i]) for i in (1, 2, 3, 5))
                sizes.append(int(row[4]))
            except ValueError as exc:
                raise ProblemFormatError(str(exc), line=lineno) from exc
            if not all(map(math.isfinite, (f, step, resid, e))):
                raise ProblemFormatError(f"non-finite value in {row!r}", line=lineno)
            f_vals.append(f)
            steps.append(step)
            resids.append(resid)
            eps.append(e)
    # The CSV stores a 0.0 placeholder on the final row; drop it so the
    # step/eps sequences have one entry per actual step.
    return IterationTrace(
        iterates=None,
        f_values=f_vals,
        step_norms=steps[:-1],
        eps_values=eps[:-1],
        supports=None,
        support_sizes=sizes,
        residuals=resids,
        converged=None,
        algo="loaded",
    )
