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
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ProblemFormatError, ValidationError

__all__ = [
    "Problem",
    "objective",
    "gradient_smooth",
    "spectral_norm_sq",
    "spectral_upper_bound",
    "generate_instance",
    "load_problem",
    "save_problem",
    "save_trace",
    "load_trace",
]

# Relative margin for rounding error in spectral_norm_sq: stepsize tests
# use spectral_upper_bound, so they stay conservative when the eigensolve
# rounds low.
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
    # per-coordinate weights (uniform ``lam`` when no weights given), read-only
    lambda_vec: np.ndarray = field(init=False, repr=False, compare=False)

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
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValidationError(f"lambda must be positive, got {self.lam}")
        if not (0.0 < self.p < 1.0):
            raise ValidationError(f"p must lie in (0, 1), got {self.p}")
        if self.weights is None:
            w = _as_readonly(np.full(A.shape[1], self.lam))
        else:
            w = _as_readonly(np.atleast_1d(self.weights))
            if w.shape != (A.shape[1],):
                raise DimensionMismatchError(
                    f"weights has shape {w.shape}, expected ({A.shape[1]},)"
                )
            if not np.isfinite(w).all() or not (w > 0).all():
                raise ValidationError("weights must be finite and positive")
            object.__setattr__(self, "weights", w)
        object.__setattr__(self, "lambda_vec", w)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def lambda_lower(self) -> float:
        """Largest lower bound on the weights (lam itself when uniform)."""
        if self.weights is not None:
            return float(self.weights.min())
        return float(self.lam)


def _check_x(prob: Problem, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (prob.n,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({prob.n},)")
    if not np.isfinite(x).all():
        raise ValidationError("x must be finite")
    return x


def _objective_at(prob: Problem, x: np.ndarray, r: np.ndarray) -> float:
    """F(x) given the residual r = A x - b."""
    resid = math.fsum((r * r).tolist())
    pen_terms = prob.lambda_vec * np.abs(x) ** prob.p
    return resid + math.fsum(pen_terms.tolist())


def _gradient_at(prob: Problem, r: np.ndarray) -> np.ndarray:
    """2 A^T r, the smooth gradient given the residual r = A x - b."""
    return 2.0 * (prob.A.T @ r)


def objective(prob: Problem, x) -> float:
    """F(x) = ||Ax-b||^2 + sum_i lambda_i |x_i|^p, compensated summation."""
    x = _check_x(prob, x)
    return _objective_at(prob, x, prob.A @ x - prob.b)


def gradient_smooth(prob: Problem, x) -> np.ndarray:
    """Gradient of the smooth part: 2 A^T (A x - b)."""
    x = _check_x(prob, x)
    return _gradient_at(prob, prob.A @ x - prob.b)


def spectral_norm_sq(prob: Problem) -> float:
    """||A||^2, the largest eigenvalue of the smaller Gram matrix.

    That is A A^T when m <= n and A^T A otherwise; both have the same
    nonzero eigenvalues, and the smaller one is never larger than A itself.
    The result is exact up to rounding of order max(m, n) * eps * ||A||^2,
    which ``spectral_upper_bound`` covers while max(m, n) stays below about
    4e5 (eps = 2.2e-16).
    """
    A = prob.A
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.linalg.eigvalsh(G)[-1])


def spectral_upper_bound(a_sq: float) -> float:
    """A computed ||A||^2 plus its rounding margin SPECTRAL_TOL * max(1, a_sq)."""
    return a_sq + SPECTRAL_TOL * max(1.0, a_sq)


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


_float_array = functools.partial(np.asarray, dtype=np.float64)


def _integer(value) -> int:
    """A JSON integer as is; a float, a string or a boolean is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _field(data, key, convert, shape=None):
    """``convert(data[key])``, of the header's ``shape`` when one is given.

    A value that fails either is a ProblemFormatError naming the field.
    """
    try:
        value = convert(data[key])
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"field {key!r}: {exc}") from exc
    if shape is not None and value.shape != shape:
        raise ProblemFormatError(f"{key} has shape {value.shape}, header says {shape}")
    return value


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
    m, n = _field(data, "m", _integer), _field(data, "n", _integer)
    A = _field(data, "A", _float_array, (m, n))
    b = _field(data, "b", _float_array, (m,))
    weights = None
    if data.get("weights") is not None:
        weights = _field(data, "weights", _float_array, (n,))
    lam, p = _field(data, "lambda", float), _field(data, "p", float)
    try:
        return Problem(A=A, b=b, lam=lam, p=p, weights=weights)
    except (ValidationError, DimensionMismatchError) as exc:
        raise ProblemFormatError(str(exc)) from exc


def save_problem(path, prob: Problem) -> None:
    """Write a problem instance to its JSON file (shortest round-trip floats)."""
    data = {
        "m": prob.m,
        "n": prob.n,
        "p": float(prob.p),
        "lambda": float(prob.lam),
        "A": prob.A.tolist(),
        "b": prob.b.tolist(),
    }
    if prob.weights is not None:
        data["weights"] = prob.weights.tolist()
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
