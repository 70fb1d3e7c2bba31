import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpreg import (
    Problem,
    generate_instance,
    gradient_smooth,
    load_problem,
    load_trace,
    objective,
    save_problem,
    save_trace,
    spectral_norm_sq,
)
from lpreg.errors import (
    DimensionMismatchError,
    ProblemFormatError,
    ValidationError,
)
from lpreg.experiments import make_instances
from lpreg.problem import SPECTRAL_TOL
from lpreg.solvers import SolverConfig, residual_on_support, run_pga


def test_objective_zero_point():
    prob = Problem(A=np.eye(2), b=[1.0, 1.0], lam=1.0, p=0.5)
    assert objective(prob, [0.0, 0.0]) == 2.0


def test_objective_zero_residual():
    prob = Problem(A=np.eye(2), b=[1.0, 1.0], lam=1.0, p=0.5)
    assert objective(prob, [1.0, 1.0]) == 2.0


def test_objective_diagonal_hand_value():
    prob = Problem(A=[[1.0, 0.0], [0.0, 2.0]], b=[1.0, 2.0], lam=2.0, p=0.5)
    # residual (0, -2) -> 4; penalty 2 * |1|^0.5 = 2
    assert objective(prob, [1.0, 0.0]) == 6.0


def test_objective_nonnegative_and_at_zero():
    rng = np.random.default_rng(0)
    for _ in range(25):
        A = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        prob = Problem(A=A, b=b, lam=0.7, p=0.4)
        x = rng.standard_normal(4)
        assert objective(prob, x) >= 0.0
        assert_allclose(objective(prob, np.zeros(4)), float(b @ b), rtol=1e-15)


def test_objective_dimension_mismatch():
    prob = Problem(A=np.eye(2), b=[1.0, 1.0], lam=1.0, p=0.5)
    with pytest.raises(DimensionMismatchError):
        objective(prob, [1.0, 2.0, 3.0])


def test_gradient_trivial_cases():
    prob = Problem(A=np.eye(2), b=[0.0, 0.0], lam=1.0, p=0.5)
    assert_allclose(gradient_smooth(prob, [1.0, -1.0]), [2.0, -2.0])
    prob2 = Problem(A=[[1.0, 2.0]], b=[3.0], lam=1.0, p=0.5)
    assert_allclose(gradient_smooth(prob2, [1.0, 1.0]), [0.0, 0.0])


def test_gradient_row_example():
    prob = Problem(A=[[1.0, 2.0]], b=[1.0], lam=1.0, p=0.5)
    assert_allclose(gradient_smooth(prob, [1.0, 1.0]), [4.0, 8.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.standard_normal((5, 4))
        b = rng.standard_normal(5)
        prob = Problem(A=A, b=b, lam=1.0, p=0.5)
        x = rng.standard_normal(4)
        grad = gradient_smooth(prob, x)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            def smooth(y):
                r = A @ y - b
                return float(r @ r)
            fd = (smooth(x + e) - smooth(x - e)) / (2.0 * h)
            assert abs(grad[i] - fd) <= 1e-6 * (1.0 + abs(fd))


def test_spectral_norm_identity_and_diagonal():
    assert_allclose(
        spectral_norm_sq(Problem(A=np.eye(3), b=np.zeros(3), lam=1, p=0.5)),
        1.0, atol=1e-9)
    assert_allclose(
        spectral_norm_sq(Problem(A=np.diag([1.0, 3.0]), b=np.zeros(2), lam=1, p=0.5)),
        9.0, atol=1e-8)


def test_spectral_norm_closed_form():
    # A^T A for [[1,1],[0,1]] has eigenvalues (3 +- sqrt(5)) / 2
    prob = Problem(A=[[1.0, 1.0], [0.0, 1.0]], b=[0.0, 0.0], lam=1, p=0.5)
    assert_allclose(spectral_norm_sq(prob), (3.0 + math.sqrt(5.0)) / 2.0,
                    rtol=1e-9)


def test_spectral_norm_never_overestimates():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.standard_normal((4, 6))
        prob = Problem(A=A, b=np.zeros(4), lam=1, p=0.5)
        exact = float(np.linalg.eigvalsh(A.T @ A)[-1])
        est = spectral_norm_sq(prob)
        assert est <= exact * (1.0 + 1e-12)
        assert est >= exact - SPECTRAL_TOL


def test_spectral_norm_plus_margin_covers_the_svd_norm():
    # wide (A A^T) and tall (A^T A) Gram branches, checked against the SVD
    rng = np.random.default_rng(0)
    probs = make_instances() + [
        generate_instance(seed=1, m=200, n=2000, s=20)[0],
        Problem(A=rng.standard_normal((60, 8)), b=np.zeros(60), lam=1, p=0.5),
    ]
    for prob in probs:
        exact = np.linalg.norm(prob.A, 2) ** 2
        assert spectral_norm_sq(prob) + SPECTRAL_TOL >= exact


def test_spectral_norm_zero_matrix():
    prob = Problem(A=np.zeros((2, 2)), b=np.zeros(2), lam=1, p=0.5)
    assert spectral_norm_sq(prob) == 0.0


def test_generate_zero_noise_consistency():
    prob, x0 = generate_instance(seed=1, m=4, n=8, s=2, noise=0.0, lam=0.1, p=0.5)
    assert_allclose(prob.A @ x0, prob.b, rtol=0, atol=0)
    assert np.count_nonzero(x0) == 2
    assert np.abs(x0[x0 != 0]).min() >= 1.0


def test_generate_deterministic():
    a = generate_instance(seed=7, m=5, n=9, s=3, noise=0.1, lam=0.2, p=0.4)
    b = generate_instance(seed=7, m=5, n=9, s=3, noise=0.1, lam=0.2, p=0.4)
    assert np.array_equal(a[0].A, b[0].A)
    assert np.array_equal(a[0].b, b[0].b)
    assert np.array_equal(a[1], b[1])


def test_generate_sparsity():
    _, x0 = generate_instance(seed=2, m=20, n=50, s=5, noise=0.0, lam=0.1, p=0.5)
    assert np.count_nonzero(x0) == 5


def test_generate_invalid_dims():
    with pytest.raises(ValidationError):
        generate_instance(seed=1, m=4, n=3, s=5)


def test_problem_validation():
    for lam in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            Problem(A=np.eye(2), b=[0.0, 0.0], lam=lam, p=0.5)
    with pytest.raises(ValidationError):
        Problem(A=np.eye(2), b=[0.0, 0.0], lam=1.0, p=1.0)
    with pytest.raises(DimensionMismatchError):
        Problem(A=np.eye(2), b=[0.0, 0.0, 1.0], lam=1.0, p=0.5)
    with pytest.raises(ValidationError):
        Problem(A=[[np.inf, 0.0], [0.0, 1.0]], b=[0.0, 0.0], lam=1.0, p=0.5)


def test_problem_file_roundtrip(tmp_path):
    prob, _ = generate_instance(seed=3, m=4, n=6, s=2, noise=0.05, lam=0.3, p=0.6)
    edge = [-0.0, 5e-324, 1 / 3, 0.1 + 0.2, 1.7976931348623157e308]
    weighted = Problem(A=[edge, edge[::-1]], b=edge[:2], lam=1 / 3, p=0.1 + 0.2,
                       weights=[5e-324, 1 / 3, 0.1 + 0.2, 1.7976931348623157e308, 1.0])
    for prob in (prob, weighted):
        path = tmp_path / "prob.json"
        save_problem(path, prob)
        loaded = load_problem(path)
        for name in ("A", "b", "weights"):
            if getattr(prob, name) is not None:
                assert getattr(loaded, name).tobytes() == getattr(prob, name).tobytes()
        assert loaded.lam == prob.lam and loaded.p == prob.p


def test_problem_file_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 1, "n": 1, "lambda": 1.0, "A": [[1.0]], "b": [1.0]}')
    with pytest.raises(ProblemFormatError, match="'p'"):
        load_problem(path)


def test_problem_file_invalid_p(tmp_path):
    path = tmp_path / "bad.json"
    data = {"m": 1, "n": 1, "p": 1.0, "lambda": 1.0, "A": [[1.0]], "b": [1.0]}
    path.write_text(json.dumps(data))
    with pytest.raises(ProblemFormatError, match="p must lie"):
        load_problem(path)


@pytest.mark.parametrize("key, value, message", [
    ("m", "x", "field 'm'"),
    ("lambda", "abc", "field 'lambda'"),
    ("A", [[1, 2], [3]], r"field 'A'.*shape was \(2,\)"),
    ("A", [["a"]], "field 'A'.*'a'"),
    ("b", 3, r"b has shape \(\), header says \(1,\)"),
    ("b", [[1]], r"b has shape \(1, 1\), header says \(1,\)"),
    ("weights", 2, r"weights has shape \(\), header says \(1,\)"),
    ("m", 1.9, "field 'm': expected an integer, got 1.9"),
    ("m", 1.0, "field 'm': expected an integer, got 1.0"),
    ("n", True, "field 'n': expected an integer, got True"),
])
def test_problem_file_malformed_field(tmp_path, key, value, message):
    path = tmp_path / "bad.json"
    data = {"m": 1, "n": 1, "p": 0.5, "lambda": 1.0, "A": [[1.0]], "b": [1.0]}
    path.write_text(json.dumps({**data, key: value}))
    with pytest.raises(ProblemFormatError, match=message):
        load_problem(path)


def test_problem_file_parse_error_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 1,\n "n": oops}')
    with pytest.raises(ProblemFormatError, match="line 2"):
        load_problem(path)


def test_trace_roundtrip(tmp_path, small_instance):
    prob, _ = small_instance
    from lpreg.solvers import default_stepsize

    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob), max_iters=40))
    path = tmp_path / "trace.csv"
    save_trace(path, trace)
    loaded = load_trace(path)
    assert loaded.f_values == trace.f_values
    assert loaded.step_norms == trace.step_norms
    assert loaded.residuals == trace.residuals
    assert loaded.support_sizes == trace.support_sizes


def test_trace_rejects_non_finite(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("k,F,step_norm,residual,support_size,eps_k\n"
                    "0,1.0,0.5,0.0,1,0.0\n"
                    "1,nan,0.0,0.0,1,0.0\n")
    with pytest.raises(ProblemFormatError, match="line 3") as info:
        load_trace(path)
    assert info.value.line == 3


def test_lp_norm_ordering_property():
    # sum |x|^p norms are ordered: ||x||_p >= ||x||_q for p <= q
    rng = np.random.default_rng(42)
    exps = [0.3, 0.5, 0.9, 1.0]
    for _ in range(1000):
        x = rng.standard_normal(6) * rng.uniform(0.1, 10.0)
        norms = [np.sum(np.abs(x) ** p) ** (1.0 / p) for p in exps]
        for a, b in zip(norms, norms[1:]):
            assert a >= b * (1.0 - 1e-12)


def test_quadratic_expansion_identity():
    # ||Ay-b||^2 - ||Ax-b||^2 = <y-x, 2A^T(Ax-b)> + ||A(y-x)||^2
    rng = np.random.default_rng(8)
    for _ in range(50):
        A = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        x = rng.standard_normal(7)
        y = rng.standard_normal(7)
        lhs = np.sum((A @ y - b) ** 2) - np.sum((A @ x - b) ** 2)
        rhs = (y - x) @ (2.0 * A.T @ (A @ x - b)) + np.sum((A @ (y - x)) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_support_set():
    prob = Problem(A=np.eye(4), b=np.zeros(4), lam=1.0, p=0.5)
    _, support = residual_on_support(prob, [0.0, 1.5, 0.0, -2.0])
    assert support == (1, 3)
