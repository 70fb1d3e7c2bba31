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
import os
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

# float64 values per block (192 KiB) that a row-major copy of part of A
# handles at once
_BLOCK = 3 << 13


class _Owned:
    """An array that ``load_problem`` has just allocated and hands over to
    ``Problem`` as it is: no caller holds another reference to it."""

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = array


def _as_readonly(a, order="K", ndmin=1):
    """A read-only float64 array of ``a`` with at least ``ndmin`` dimensions:
    a copy, so that no caller can write through it, unless ``a`` is
    ``_Owned``, whose array is taken without one (converted only where its
    dtype or order differs) and made read-only with its bases."""
    owned = isinstance(a, _Owned)
    out = np.array(a.array if owned else a, dtype=np.float64, order=order,
                   copy=None if owned else True, ndmin=ndmin)
    base = out
    while isinstance(base, np.ndarray):
        base.setflags(write=False)
        base = base.base
    return out


@dataclass(frozen=True, eq=False)
class Problem:
    """Immutable instance data (A, b, lambda, p, optional weights).

    ``weights`` holds per-coordinate regularization weights; absent means the
    uniform weight ``lam`` for every coordinate.  Instances compare by
    identity: an elementwise ``==`` of the arrays has no single truth value.
    ``A`` is held read-only in column-major order, so ``A.T`` is the
    C-ordered array whose rows are the columns of A, which the solvers'
    products read without a copy.  The constructor copies every array it
    is given, so that no caller can change an instance; only
    ``load_problem`` hands over the arrays it has just read, without a copy.
    """

    A: np.ndarray
    b: np.ndarray
    lam: float
    p: float
    weights: np.ndarray | None = None
    # per-coordinate weights (uniform ``lam`` when no weights given), read-only
    lambda_vec: np.ndarray = field(init=False, repr=False)
    # ||A||^2 once spectral_norm_sq has computed it; dataclasses.replace
    # builds a new instance, which starts without it
    _a_sq: float | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        A = _as_readonly(self.A, order="F", ndmin=2)
        b = _as_readonly(self.b)
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
        for name, arr in (("A", A), ("b", b)):
            # min and max are finite iff every entry is; isfinite builds an A-sized mask
            if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
                raise ValidationError(f"{name} must be finite")
        # F(0) = ||b||^2 over b / max|b_i|: Python floats overflow to inf silently
        s = float(np.abs(b).max())
        if s > 0 and not math.isfinite(s * s * float(np.dot(b / s, b / s))):
            raise ValidationError("||b||^2 overflows: b must have a finite squared norm")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValidationError(f"lambda must be positive, got {self.lam}")
        if not (0.0 < self.p < 1.0):
            raise ValidationError(f"p must lie in (0, 1), got {self.p}")
        if self.weights is None:
            w = _as_readonly(np.full(A.shape[1], self.lam))
        else:
            w = _as_readonly(self.weights)
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
    # count_nonzero is one call; .all() goes through the Python-level reduce
    if np.count_nonzero(np.isfinite(x)) < x.size:
        raise ValidationError("x must be finite")
    return x


def _objective_at(prob: Problem, r: np.ndarray, lam: np.ndarray,
                  ax: np.ndarray) -> float:
    """F(x) from the residual r = A x - b and the weights lam and magnitudes
    ax = |x_i| of coordinates that cover supp(x).

    fsum is exact, so the zero terms of coordinates off the support change
    nothing: the penalty may run over all of x or over its support alone.
    """
    return (math.fsum((r * r).tolist())
            + math.fsum((lam * ax ** prob.p).tolist()))


# The matrix-vector products below are ``np.vecdot`` over C-ordered rows:
# each entry is one dot product of two contiguous vectors and depends on
# those vectors alone.  A BLAS gemv rounds an entry differently depending on
# the column's position in the matrix, and a strided row takes another BLAS
# path, so the solvers, which keep only a working set of columns, would
# disagree with ``objective`` and ``gradient_smooth`` in the last bits.

def _columns(A: np.ndarray, idx=slice(None)) -> np.ndarray:
    """The columns idx of A as the rows of a C-ordered array: a view of the
    column-major ``Problem.A`` for every column, a copy for a subset."""
    return np.ascontiguousarray(A[:, idx].T)


def _rows(A: np.ndarray) -> np.ndarray:
    """A row-major (C-ordered) copy of the column-major ``Problem.A`` or of
    a block of its rows, for readers whose rounding follows the layout:
    BLAS products, ``einsum`` and ``np.sum`` reduce in memory order."""
    return np.ascontiguousarray(A)


def _residual(prob: Problem, x: np.ndarray, rows: np.ndarray | None = None):
    """supp(x) and r = A x - b, each entry of A x a dot product over supp(x).

    A dense x takes the rows of ``rows = _rows(prob.A)`` when a caller that
    evaluates many dense points holds one; otherwise A is copied a block of
    rows at a time, at least 8 rows so that the copy reads whole cache lines
    of the column-major A.
    """
    idx = x.nonzero()[0]
    if idx.size < x.size:
        return idx, np.vecdot(np.ascontiguousarray(prob.A[:, idx]), x[idx]) - prob.b
    if rows is not None:
        return idx, np.vecdot(rows, x) - prob.b
    A, k = prob.A, max(8, _BLOCK // prob.n)
    ax = [np.vecdot(_rows(A[i:i + k]), x) for i in range(0, prob.m, k)]
    return idx, np.concatenate(ax) - prob.b


def _gradient_at(cols: np.ndarray, r: np.ndarray) -> np.ndarray:
    """2 A^T r on the columns of A held as the rows of ``cols``."""
    return 2.0 * np.vecdot(cols, r)


def objective(prob: Problem, x) -> float:
    """F(x) = ||Ax-b||^2 + sum_i lambda_i |x_i|^p, compensated summation."""
    x = _check_x(prob, x)
    return _objective_at(prob, _residual(prob, x)[1], prob.lambda_vec, np.abs(x))


def gradient_smooth(prob: Problem, x) -> np.ndarray:
    """Gradient of the smooth part: 2 A^T (A x - b)."""
    _, r = _residual(prob, _check_x(prob, x))
    return _gradient_at(_columns(prob.A), r)


def spectral_norm_sq(prob: Problem) -> float:
    """||A||^2, the largest eigenvalue of the smaller Gram matrix.

    That is A A^T when m <= n and A^T A otherwise; both have the same
    nonzero eigenvalues, and the smaller one is never larger than A itself.
    The result is exact up to rounding of order max(m, n) * eps * ||A||^2,
    which ``spectral_upper_bound`` covers while max(m, n) stays below about
    4e5 (eps = 2.2e-16).  A is read-only, so the value is computed once per
    Problem and kept on it.  The Gram matrix of the column-major A has the
    bits of the row-major one's (pinned by the tests).  A Gram matrix that
    overflows is a ValidationError, not a warning or a failed eigensolve.
    """
    if prob._a_sq is None:
        A = prob.A
        with np.errstate(over="ignore", invalid="ignore"):
            G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
        if not np.isfinite(G).all():
            raise ValidationError("||A||^2 overflows: the Gram matrix of A "
                                  "is not finite")
        object.__setattr__(prob, "_a_sq", float(np.linalg.eigvalsh(G)[-1]))
    return prob._a_sq


def spectral_upper_bound(prob: Problem) -> float:
    """||A||^2 plus its rounding margin SPECTRAL_TOL * max(1, ||A||^2)."""
    a_sq = spectral_norm_sq(prob)
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
    if not (0.0 <= noise < math.inf):  # NaN fails too
        raise ValidationError(f"noise level must be finite and nonnegative, got {noise}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A /= math.sqrt(m)
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
# Problem file, as save_problem writes it: b"LPREGPB1", the header's length
# as 8 little-endian bytes, the header (compact, key-sorted JSON with
# "lambda", "m", "n", "p" and "weights", true when weights follow), then the
# little-endian float64 bytes of A in column-major order (Problem.A's
# layout), of b and of the weights, and nothing after them.  A load checks
# the file's size against the header's shape before it allocates an array.
#
# Any other file is read as UTF-8 JSON, the form people write by hand:
# keys "m", "n", "p", "lambda" (JSON numbers), optional "weights" (length
# n), "A" (m x n) and "b" (length m), each array a JSON list of numbers (A
# as m rows of n).  A string in place of an array is an error: the
# encoded-string form that earlier versions wrote is no longer read.
#
# Trace file: CSV with header k,F,step_norm,residual,support_size and an
# eps column named after the trace's eps kind: eps_k for an exact run,
# eps_value (value gaps, ipga1p) or eps_dist (distance norms, ipga2p).
# One row per recorded iterate, k = 0, 1, ... in order, numbers with 17
# significant digits, each row ending in \r\n as csv.writer ends it
# (reading also takes \n and skips blank lines).  The final row's
# step_norm and eps are 0.0 (no successor iterate).  Reading rejects a
# file without rows, non-finite numbers, negative support sizes and a
# final row whose step_norm or eps is not 0.0 (a truncated file), so a
# certificate never sees them.
# ---------------------------------------------------------------------------

_MAGIC = b"LPREGPB1"


def _integer(value) -> int:
    """A JSON integer as is; a float, a string or a boolean is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A JSON number as a float; a string or a boolean is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _float_array(value) -> np.ndarray:
    """A JSON list of numbers as a float64 array; a string, strings in a
    list and booleans are errors."""
    if isinstance(value, str):
        raise TypeError("expected a list of numbers, got a string (the "
                        "encoded-string form of earlier versions is no longer read)")
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"expected numbers, got {arr.ravel()[:1].tolist()[0]!r}")
    return arr.astype(np.float64, copy=False)


def _field(data, key, convert, shape=None):
    """``convert(data[key])``, whose shape must be ``shape`` when given.

    A value that fails either is a ProblemFormatError naming the field.
    """
    try:
        value = convert(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"field {key!r}: {exc}") from exc
    if shape is not None and value.shape != shape:
        raise ProblemFormatError(f"{key} has shape {value.shape}, header says {shape}")
    return value


def _header(data, keys) -> tuple[int, int, float, float]:
    """m, n, lambda and p of a problem file's object, once it holds ``keys``."""
    if not isinstance(data, dict):
        raise ProblemFormatError("top-level value must be an object")
    for key in keys:
        if key not in data:
            raise ProblemFormatError(f"missing required field {key!r}")
    return (_field(data, "m", _integer), _field(data, "n", _integer),
            _field(data, "lambda", _number), _field(data, "p", _number))


def _load_binary(fh) -> dict:
    """Problem's fields from a binary problem file read past its magic."""
    size, length = os.fstat(fh.fileno()).st_size, int.from_bytes(fh.read(8), "little")
    if length > size - 16:
        raise ProblemFormatError(f"header length {length} runs past the {size}-byte file")
    try:
        data = json.loads(fh.read(length))
    except ValueError as exc:
        raise ProblemFormatError(f"bad header: {exc}") from exc
    m, n, lam, p = _header(data, ("m", "n", "p", "lambda", "weights"))
    if not isinstance(weighted := data["weights"], bool):
        raise ProblemFormatError(f"field 'weights': expected true or false, got {weighted!r}")
    need, held = 8 * (m * n + m + n * weighted), size - 16 - length
    if min(m, n) < 1 or need != held:
        raise ProblemFormatError(f"header shape ({m}, {n}), weights {weighted}, "
                                 f"needs {need} bytes of arrays; the file holds {held}")
    A, b, w = (np.empty(k, dtype="<f8") for k in (m * n, m, n * weighted))
    if sum(fh.readinto(a) for a in (A, b, w)) != need:
        raise ProblemFormatError("the file changed while it was read")
    return dict(A=A.reshape(n, m).T, b=b, weights=w if weighted else None, lam=lam, p=p)


def _load_json(fh) -> dict:
    """Problem's fields from a JSON problem file, read from its start."""
    fh.seek(0)
    try:
        data = json.loads(fh.read().decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(exc.msg, line=exc.lineno) from exc
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"neither starts with {_MAGIC!r} nor is "
                                 f"UTF-8 JSON: {exc.reason}") from exc
    m, n, lam, p = _header(data, ("m", "n", "p", "lambda", "A", "b"))
    weights = None
    if data.get("weights") is not None:
        weights = _field(data, "weights", _float_array, (n,))
    return dict(A=_field(data, "A", _float_array, (m, n)), lam=lam, p=p,
                b=_field(data, "b", _float_array, (m,)), weights=weights)


def load_problem(path) -> Problem:
    """Read a problem instance from its file: the binary layout, or JSON
    with its arrays as lists (see File formats)."""
    with open(path, "rb") as fh:
        fields = _load_binary(fh) if fh.read(len(_MAGIC)) == _MAGIC else _load_json(fh)
    # the arrays are this call's own: Problem checks them and keeps them
    owned = {k: _Owned(v) if isinstance(v, np.ndarray) else v for k, v in fields.items()}
    try:
        return Problem(**owned)
    except (ValidationError, DimensionMismatchError) as exc:
        raise ProblemFormatError(str(exc)) from exc


def save_problem(path, prob: Problem) -> None:
    """Write a problem instance in the binary layout (see File formats),
    each array from its own buffer, so that the write copies none."""
    header = json.dumps({"lambda": float(prob.lam), "m": prob.m, "n": prob.n,
                         "p": float(prob.p), "weights": prob.weights is not None},
                        separators=(",", ":"), sort_keys=True).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + len(header).to_bytes(8, "little") + header)
        # A.T is C-ordered, so its buffer is A's bytes in column-major order
        for arr in (prob.A.T, prob.b, prob.weights):
            if arr is not None:
                fh.write(arr.astype("<f8", copy=False))


TRACE_COLUMNS = ("k", "F", "step_norm", "residual", "support_size")
EPS_COLUMNS = {"none": "eps_k", "value": "eps_value", "dist": "eps_dist"}
_EPS_KINDS = {name: kind for kind, name in EPS_COLUMNS.items()}
# one trace row as csv.writer writes it: no field needs quoting
_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\r\n"


def save_trace(path, trace) -> None:
    """Write a per-iteration trace as CSV (see module header for format),
    byte for byte what ``csv.writer`` writes, one ``%`` format per row."""
    # the final iterate has no successor step: 0.0 placeholders
    rows = zip(range(len(trace.f_values)), trace.f_values, trace.step_norms + [0.0],
               trace.residuals, trace.support_sizes, trace.eps_values + [0.0], strict=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS + (EPS_COLUMNS[trace.eps_kind],)) + "\r\n")
        fh.write("".join(map(_TRACE_ROW.__mod__, rows)))


def _trace_error(lines) -> ProblemFormatError:
    """The error of the first faulty row of a trace CSV split into
    ``lines`` (header first), found row by row; blank lines count towards
    the line numbers and are skipped.  Called once the rows fail a check."""
    count = last = 0
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != 6:
            return ProblemFormatError(f"expected 6 columns, got {len(row)}", line=lineno)
        try:
            k, size = int(row[0]), int(row[4])
            values = [float(row[i]) for i in (1, 2, 3, 5)]
        except ValueError as exc:
            return ProblemFormatError(str(exc), line=lineno)
        if k != count:
            return ProblemFormatError(f"k={k}, expected {count}", line=lineno)
        if size < 0:
            return ProblemFormatError(f"negative support_size {size}", line=lineno)
        if not all(map(math.isfinite, values)):
            return ProblemFormatError(f"non-finite value in {row!r}", line=lineno)
        count, last = count + 1, lineno
    if not count:
        return ProblemFormatError("trace has no rows", line=2)
    # every row passes: the check left is the final row's placeholders
    # (save_trace), which a truncated file has lost
    return ProblemFormatError(
        "final row's step_norm and eps must be 0.0; truncated trace?", line=last)


def load_trace(path):
    """Read a trace CSV back into an IterationTrace (iterates absent), its
    eps kind taken from the eps column's name.

    ``csv.reader`` splits the rows; whole columns are then converted and
    checked at once, and a file that fails any check is walked row by row
    for the first fault and its line.
    """
    from .solvers import IterationTrace

    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        raise ProblemFormatError("empty trace file", line=1)
    header = lines[0]
    if tuple(header[:-1]) != TRACE_COLUMNS or header[-1] not in _EPS_KINDS:
        raise ProblemFormatError(f"bad trace header {header!r}", line=1)
    try:
        # unpacking fails on no rows, and strict zip on rows of other lengths
        k, f, step, resid, size, eps = zip(*filter(None, lines[1:]), strict=True)
        ks, sizes = list(map(int, k)), list(map(int, size))
        f, step, resid, eps = (list(map(float, col)) for col in (f, step, resid, eps))
    except ValueError:
        raise _trace_error(lines) from None
    # the final row's 0.0 placeholders mark a complete file
    if (ks != list(range(len(ks))) or min(sizes) < 0
            or not all(map(math.isfinite, f + step + resid + eps))
            or step[-1] != 0.0 or eps[-1] != 0.0):
        raise _trace_error(lines)
    # drop those placeholders: the step and eps sequences have one entry
    # per actual step
    return IterationTrace(
        f_values=f,
        step_norms=step[:-1],
        eps_values=eps[:-1],
        support_sizes=sizes,
        residuals=resid,
        converged=None,
        algo="loaded",
        eps_kind=_EPS_KINDS[header[-1]],
    )
