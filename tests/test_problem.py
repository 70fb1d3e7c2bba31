import base64
import dataclasses
import json
import math
import struct
import tracemalloc
import warnings

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
from lpreg.optimality import default_probe_delta
from lpreg.problem import SPECTRAL_TOL, _columns, _residual, _rows
from lpreg.solvers import (
    Schedule,
    SolverConfig,
    default_stepsize,
    residual_on_support,
    run_ipga_1p,
    run_ipga_2p,
    run_pga,
)


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
    # the value is kept on the instance; a replaced A starts afresh
    assert spectral_norm_sq(prob) == spectral_norm_sq(prob)
    scaled = dataclasses.replace(prob, A=2.0 * prob.A)
    assert_allclose(spectral_norm_sq(scaled), 2.0 * (3.0 + math.sqrt(5.0)), rtol=1e-9)


def test_problems_compare_by_identity():
    # an elementwise == of the arrays has no single truth value
    prob = Problem(A=np.eye(2), b=np.ones(2), lam=0.1, p=0.5)
    assert (prob == dataclasses.replace(prob, lam=0.3)) is False
    assert prob == prob
    assert hash(prob) == hash(prob)


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
    for noise in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="noise level"):
            generate_instance(seed=1, m=4, n=3, s=1, noise=noise)


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
        path = tmp_path / "prob.lpreg"
        save_problem(path, prob)
        loaded = load_problem(path)
        for name in ("A", "b", "weights"):
            if getattr(prob, name) is not None:
                assert getattr(loaded, name).tobytes() == getattr(prob, name).tobytes()
        assert loaded.lam == prob.lam and loaded.p == prob.p


def _b64(values) -> str:
    """The base64 of little-endian doubles, packed by struct, not numpy."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _binary(header, *arrays, magic=b"LPREGPB1") -> bytes:
    """A binary problem file packed by struct, not lpreg: the magic, the
    header's length, the header (a dict as compact sorted JSON, or bytes as
    they are) and each array as little-endian doubles."""
    if isinstance(header, dict):
        header = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    body = b"".join(struct.pack(f"<{len(a)}d", *a) for a in arrays)
    return magic + struct.pack("<Q", len(header)) + header + body


def test_problem_file_bytes_equal_a_struct_packed_reference(tmp_path):
    prob, _ = generate_instance(seed=3, m=4, n=6, s=2, noise=0.05, lam=0.3, p=0.6)
    weighted = Problem(A=prob.A, b=prob.b, lam=1 / 3, p=0.1 + 0.2,
                       weights=[5e-324, 1 / 3, 0.1 + 0.2, 1.7976931348623157e308,
                                1.0, 2.0])
    # a 1 x 1 and a tall A, F-ordered and strided inputs, and arrays of
    # several hundred KiB
    rng = np.random.default_rng(5)
    others = [
        Problem(A=[[0.1 + 0.2]], b=[1 / 3], lam=0.25, p=0.5),
        Problem(A=rng.standard_normal((60, 8)), b=rng.standard_normal(60),
                lam=0.25, p=0.5),
        Problem(A=rng.standard_normal((2, 1)), b=[5e-324, -0.0], lam=0.25, p=0.5,
                weights=[1.7976931348623157e308]),
        Problem(A=np.asfortranarray(rng.standard_normal((7, 5000))),
                b=rng.standard_normal(14)[::2], lam=0.25, p=0.5),
        Problem(A=rng.standard_normal((4, 60003))[::2, ::2], b=rng.standard_normal(2),
                lam=0.25, p=0.5, weights=rng.random(30002) + 0.5),
    ]
    for prob in (prob, weighted, *others):
        columns = [x for col in zip(*prob.A.tolist()) for x in col]
        weights = [] if prob.weights is None else prob.weights.tolist()
        ref = _binary({"m": prob.m, "n": prob.n, "p": prob.p, "lambda": prob.lam,
                       "weights": prob.weights is not None},
                      columns, prob.b.tolist(), weights)
        save_problem(tmp_path / "prob.lpreg", prob)
        assert (tmp_path / "prob.lpreg").read_bytes() == ref


def test_problem_copies_its_inputs():
    A, b, w = np.eye(2), np.ones(2), np.full(2, 0.5)
    prob = Problem(A=A, b=b, lam=0.1, p=0.5, weights=w)
    A[0, 0] = b[0] = w[0] = 7.0
    assert prob.A[0, 0] == prob.b[0] == 1.0 and prob.weights[0] == 0.5
    # a read-only view of a writable array is copied too
    view = b.view()
    view.setflags(write=False)
    prob = Problem(A=A, b=view, lam=0.1, p=0.5)
    b[1] = 9.0
    assert prob.b[1] == 1.0 and not np.shares_memory(prob.b, b)
    assert not (prob.A.flags.writeable or prob.b.flags.writeable)


def test_loaded_problem_holds_one_copy_of_each_array(tmp_path):
    prob, _ = generate_instance(seed=3, m=4, n=6, s=2, noise=0.05, lam=0.3, p=0.6)
    prob = Problem(A=prob.A, b=prob.b, lam=0.3, p=0.6, weights=np.linspace(0.5, 2.0, 6))
    save_problem(tmp_path / "p.lpreg", prob)
    loaded = load_problem(tmp_path / "p.lpreg")
    # A is one column-major copy, whose transpose the solvers read without another
    assert loaded.A.flags.f_contiguous and not loaded.A.flags.writeable
    assert np.shares_memory(_columns(loaded.A), loaded.A)


def test_spectral_norm_matches_the_row_major_gram():
    # ||A||^2 reads the column-major A, and must keep the row-major Gram
    # matrix's bits; the tall branch (A^T A) too
    rng = np.random.default_rng(0)
    probs = make_instances() + [
        generate_instance(seed=1, m=200, n=2000, s=20)[0],
        Problem(A=rng.standard_normal((60, 8)), b=np.zeros(60), lam=1, p=0.5),
    ]
    for prob in probs:
        A = np.ascontiguousarray(prob.A)
        G = A @ A.T if prob.m <= prob.n else A.T @ A
        assert spectral_norm_sq(prob) == float(np.linalg.eigvalsh(G)[-1])
        # the optimality readers' A[:, idx] copies have the row-major one's layout
        idx = np.flatnonzero(rng.random(prob.n) < 0.3)
        assert prob.A[:, idx].strides == A[:, idx].strides


def test_spectral_norm_fails_closed_on_overflow():
    prob, _ = generate_instance(seed=1, m=5, n=8, s=2)
    huge = Problem(A=1e160 * prob.A, b=prob.b, lam=prob.lam, p=prob.p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match=r"\|\|A\|\|\^2 overflows"):
            spectral_norm_sq(huge)


def test_problem_fails_closed_on_an_overflowing_b(tmp_path):
    prob, _ = generate_instance(seed=1, m=5, n=8, s=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1e160, 1e200):
            with pytest.raises(ValidationError, match=r"\|\|b\|\|\^2 overflows"):
                Problem(A=prob.A, b=scale * prob.b, lam=prob.lam, p=prob.p)
            path = tmp_path / "b.lpreg"
            path.write_bytes(_binary({"m": 5, "n": 8, "p": prob.p, "lambda": prob.lam,
                                      "weights": False}, prob.A.T.ravel().tolist(),
                                     (scale * prob.b).tolist()))
            with pytest.raises(ProblemFormatError, match=r"\|\|b\|\|\^2 overflows"):
                load_problem(path)
        # tiny scales stay clean
        for A, b in ((prob.A, 1e-300 * prob.b), (1e-160 * prob.A, prob.b)):
            small = Problem(A=A, b=b, lam=prob.lam, p=prob.p)
            assert run_pga(small, SolverConfig(v=default_stepsize(small))).converged


@pytest.fixture(scope="module")
def wide_instance(tmp_path_factory):
    # A is 15.3 MiB, its binary file 15.3 MiB and its base64 JSON file 20.35 MiB
    prob, _ = generate_instance(seed=1, m=100, n=20_000, s=10)
    return prob, tmp_path_factory.mktemp("wide")


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_save_problem_copies_no_array(wide_instance):
    prob, tmp = wide_instance
    peak, _ = _traced_peak(save_problem, tmp / "p.lpreg", prob)
    assert peak < 2**20


def test_load_problem_reads_the_arrays_without_text(wide_instance):
    # the array read from the file and Problem's own copy of it
    prob, tmp = wide_instance
    save_problem(tmp / "p.lpreg", prob)
    peak, loaded = _traced_peak(load_problem, tmp / "p.lpreg")
    assert loaded.A.tobytes() == prob.A.tobytes()
    assert peak <= 2 * prob.A.nbytes + 2**20


def test_load_problem_holds_the_text_and_one_payload(wide_instance):
    prob, tmp = wide_instance
    path = tmp / "p.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"m": prob.m, "n": prob.n, "p": prob.p, "lambda": prob.lam,
                   "A": base64.b64encode(np.ascontiguousarray(prob.A, "<f8")).decode(),
                   "b": base64.b64encode(prob.b.astype("<f8")).decode()}, fh)
    payload = 4 * math.ceil(prob.A.nbytes / 3)
    peak, loaded = _traced_peak(load_problem, path)
    assert loaded.A.tobytes() == prob.A.tobytes()
    assert peak <= path.stat().st_size + payload + 2**20


def test_dense_residual_copies_a_block_of_rows(wide_instance):
    # each entry is the dot product of one contiguous row of A with x, as
    # on a whole row-major copy, without building that copy
    prob, _ = wide_instance
    x = np.random.default_rng(2).standard_normal(prob.n)
    ref = np.vecdot(np.ascontiguousarray(prob.A), x) - prob.b
    peak, (_, r) = _traced_peak(_residual, prob, x)
    assert r.tobytes() == ref.tobytes()
    assert peak < prob.A.nbytes / 2
    # and a caller's whole row-major copy gives the same bits
    assert _residual(prob, x, _rows(prob.A))[1].tobytes() == ref.tobytes()


def test_probe_delta_holds_one_row_major_array(wide_instance):
    prob, _ = wide_instance
    # the square of A is the one row-major array its sum reads
    x = np.zeros(prob.n)
    x[0] = 1.0
    peak, delta = _traced_peak(default_probe_delta, prob, x)
    assert delta > 0.0 and peak < 1.5 * prob.A.nbytes


def test_run_pga_makes_no_copy_of_a(wide_instance):
    prob, _ = wide_instance
    spectral_norm_sq(prob)
    cfg = SolverConfig(v=default_stepsize(prob), max_iters=20)
    peak, trace = _traced_peak(run_pga, prob, cfg)
    assert len(trace) == 21
    assert peak < prob.A.nbytes / 2


def test_problem_file_list_form_loads_as_the_written_form(tmp_path):
    # the two JSON forms of earlier files, written here by json and struct,
    # load to the bits of the binary file save_problem writes
    prob, _ = generate_instance(seed=3, m=4, n=6, s=2, noise=0.05, lam=0.3, p=0.6)
    prob = Problem(A=prob.A, b=prob.b, lam=0.3, p=0.6, weights=np.linspace(0.5, 2.0, 6))
    rows, b, w = prob.A.tolist(), prob.b.tolist(), prob.weights.tolist()
    head = {"m": 4, "n": 6, "p": 0.6, "lambda": 0.3}
    (tmp_path / "listed.json").write_text(json.dumps({**head, "A": rows, "b": b,
                                                      "weights": w}))
    (tmp_path / "base64.json").write_text(json.dumps(
        {**head, "A": _b64([x for row in rows for x in row]), "b": _b64(b),
         "weights": _b64(w)}))
    save_problem(tmp_path / "written.lpreg", prob)
    for name in ("listed.json", "base64.json", "written.lpreg"):
        loaded = load_problem(tmp_path / name)
        for key in ("A", "b", "weights"):
            assert getattr(loaded, key).tobytes() == getattr(prob, key).tobytes()
        assert (loaded.lam, loaded.p) == (prob.lam, prob.p)


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
    ("lambda", True, "field 'lambda': expected a number, got True"),
    ("p", "0.5", "field 'p': expected a number, got '0.5'"),
    ("A", [["1.5"]], "field 'A': expected numbers, got '1.5'"),
    ("A", [[True]], "field 'A': expected numbers, got True"),
    ("b", ["3"], "field 'b': expected numbers, got '3'"),
    ("weights", [False], "field 'weights': expected numbers, got False"),
    ("lambda", 10**400, "field 'lambda': int too large to convert to float"),
    ("A", "!!!!", "field 'A': Only base64 data is allowed"),
    ("b", "AAA", "field 'b': Incorrect padding"),
    ("weights", "é", "field 'weights': string argument should contain only ASCII"),
    ("A", _b64([1.0])[:-4], r"field 'A': payload holds 6 bytes, header shape \(1, 1\) needs 8"),
    ("b", _b64([1.0, 2.0]), r"field 'b': payload holds 16 bytes, header shape \(1,\) needs 8"),
    ("weights", "", r"field 'weights': payload holds 0 bytes"),
    ("A", _b64([math.nan]), "A must be finite"),
    ("b", _b64([math.inf]), "b must be finite"),
    ("weights", _b64([-math.inf]), "weights must be finite"),
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


_HEAD = {"m": 1, "n": 1, "p": 0.5, "lambda": 1.0, "weights": False}
_ONE = ([1.0], [1.0])  # A and b of a 1 x 1 problem


def _head(**changes):
    """_HEAD with the keys changed, and those changed to None dropped."""
    return {k: v for k, v in {**_HEAD, **changes}.items() if v is not None}


@pytest.mark.parametrize("data, message", [
    pytest.param(_binary(_HEAD, *_ONE, magic=b"LPREGPB0"),
                 "neither starts with b'LPREGPB1'", id="bad-magic"),
    pytest.param(b"LPREGPB1\x05", "header length 5 runs past the 9-byte file",
                 id="cut-header-length"),
    pytest.param(b"LPREGPB1" + struct.pack("<Q", 2**63) + b"{}",
                 "header length 9223372036854775808 runs past", id="header-past-end"),
    pytest.param(_binary(b'{"m":1,', *_ONE), "bad header", id="header-not-json"),
    pytest.param(_binary(b"[1]", *_ONE), "top-level value must be an object",
                 id="header-not-object"),
    pytest.param(_binary(_head(m=None), *_ONE), "missing required field 'm'", id="no-m"),
    pytest.param(_binary(_head(n=None), *_ONE), "missing required field 'n'", id="no-n"),
    pytest.param(_binary(_head(weights=None), *_ONE), "missing required field 'weights'",
                 id="no-weights-flag"),
    pytest.param(_binary(_head(m=1.0), *_ONE), "field 'm': expected an integer, got 1.0",
                 id="float-m"),
    pytest.param(_binary(_head(n="1"), *_ONE), "field 'n': expected an integer, got '1'",
                 id="string-n"),
    pytest.param(_binary(_head(weights=0), *_ONE), "field 'weights': expected true or false",
                 id="integer-weights-flag"),
    pytest.param(_binary(_head(m=0), [], [1.0]), r"header shape \(0, 1\)", id="zero-m"),
    pytest.param(_binary(_HEAD, [1.0]), "needs 16 bytes of arrays; the file holds 8",
                 id="truncated"),
    pytest.param(_binary(_HEAD, *_ONE, [1.0]), "needs 16 bytes of arrays; the file holds 24",
                 id="bytes-past-the-end"),
    pytest.param(_binary(_head(weights=True), *_ONE), "needs 24 bytes of arrays",
                 id="weights-missing"),
    pytest.param(_binary(_head(m=10**9, n=10**9), *_ONE),
                 r"header shape \(1000000000, 1000000000\)", id="huge-shape"),
    pytest.param(_binary(_head(**{"lambda": -1.0}), *_ONE),
                 "lambda must be positive", id="negative-lambda"),
    pytest.param(_binary(_HEAD, [math.nan], [1.0]), "A must be finite", id="nan-in-A"),
    pytest.param(_binary(_HEAD, [1.0], [-math.inf]), "b must be finite", id="inf-in-b"),
    pytest.param(_binary(_head(weights=True), *_ONE, [math.inf]), "weights must be finite",
                 id="inf-in-weights"),
    pytest.param(_binary(_HEAD, [1.0], [1e160]), r"\|\|b\|\|\^2 overflows",
                 id="overflowing-b"),
])
def test_binary_problem_file_malformed(tmp_path, data, message):
    path = tmp_path / "bad.lpreg"
    path.write_bytes(data)
    # each case fails before it allocates an array of the header's shape
    tracemalloc.start()
    try:
        with pytest.raises(ProblemFormatError, match=message):
            load_problem(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_trace_roundtrip(tmp_path, small_instance):
    prob, _ = small_instance
    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob), max_iters=40))
    path = tmp_path / "trace.csv"
    save_trace(path, trace)
    loaded = load_trace(path)
    assert loaded.f_values == trace.f_values
    assert loaded.step_norms == trace.step_norms
    assert loaded.residuals == trace.residuals
    assert loaded.support_sizes == trace.support_sizes


def test_trace_header_names_the_eps_kind(tmp_path, small_instance):
    prob, _ = small_instance
    cfg = SolverConfig(v=default_stepsize(prob), max_iters=40,
                       inexact=Schedule.geometric(0.3, 0.7))
    path = tmp_path / "trace.csv"
    for run, column, kind in ((run_pga, "eps_k", "none"),
                              (run_ipga_1p, "eps_value", "value"),
                              (run_ipga_2p, "eps_dist", "dist")):
        trace = run(prob, cfg)
        save_trace(path, trace)
        header = path.read_text().split("\n", 1)[0]
        assert header == "k,F,step_norm,residual,support_size," + column
        loaded = load_trace(path)
        assert loaded.eps_kind == trace.eps_kind == kind
        assert loaded.eps_values == trace.eps_values


HEADER = "k,F,step_norm,residual,support_size,eps_k\n"


@pytest.mark.parametrize("text, line, message", [
    (HEADER, 2, "no rows"),
    ("k,F,step_norm,residual,support_size,eps\n0,1.0,0.0,0.0,1,0.0\n", 1, "header"),
    (HEADER + "7,1.0,0.5,0.0,-3,0.0\n3,0.9,0.0,0.0,-1,0.0\n", 2, "k=7"),
    (HEADER + "0,1.0,0.5,0.0,1,0.0\n2,0.9,0.0,0.0,1,0.0\n", 3, "k=2"),
    (HEADER + "0,1.0,0.5,0.0,1,0.0\n1,0.9,0.0,0.0,-1,0.0\n", 3, "negative support_size"),
    # a final row with a step or an eps lost the rows after it
    (HEADER + "0,1.0,0.5,0.0,1,0.0\n1,0.9,0.25,0.0,1,0.0\n", 3, "truncated"),
    (HEADER + "0,1.0,0.5,0.0,1,0.0\n1,0.9,0.0,0.0,1,1e-300\n", 3, "truncated"),
], ids=["header-only", "unknown-eps-column", "k-not-from-0", "k-skips",
        "negative-support", "final-step-nonzero", "final-eps-nonzero"])
def test_trace_rejects_malformed_file(tmp_path, text, line, message):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ProblemFormatError, match=message) as info:
        load_trace(path)
    assert info.value.line == line


def test_trace_rejects_non_finite(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "0,1.0,0.5,0.0,1,0.0\n1,nan,0.0,0.0,1,0.0\n")
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
