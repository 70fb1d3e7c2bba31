import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpreg import (
    Problem,
    classify_point,
    enumerate_local_minima,
    equivalence_harness,
    growth_probe,
    objective,
)
from lpreg.errors import ValidationError
from lpreg.optimality import (
    CLASS_INDEFINITE,
    CLASS_LOCAL_MIN,
    CLASS_NOT_CRITICAL,
    CLASS_ZERO,
    default_probe_delta,
    second_order_matrix,
)


def test_classify_zero_point(one_dim):
    report = classify_point(one_dim, [0.0])
    assert report.classification == CLASS_ZERO
    assert report.support.size == 0
    assert report.first_order_residual == 0.0
    assert report.second_order_min_eig is None


def test_classify_one_dim_local_min(one_dim, one_dim_tstar):
    report = classify_point(one_dim, [one_dim_tstar])
    assert report.classification == CLASS_LOCAL_MIN
    assert report.first_order_residual <= 1e-8
    expected_eig = 2.0 - 0.25 * one_dim_tstar ** -1.5
    assert_allclose(report.second_order_min_eig, expected_eig, rtol=1e-10)
    assert expected_eig > 1.8


def test_classify_one_dim_noncritical(one_dim):
    report = classify_point(one_dim, [1.0])
    assert report.classification == CLASS_NOT_CRITICAL
    assert_allclose(report.first_order_residual, 1.5, rtol=1e-12)


def test_classify_indefinite_critical(one_dim):
    # the smaller positive stationary point is a local max of F
    lo, hi = 1e-6, 0.5
    f = lambda t: 2.0 * (t - 2.0) + 0.5 * t ** -0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    t_max = 0.5 * (lo + hi)
    report = classify_point(one_dim, [t_max], fo_tol=1e-6)
    assert report.classification == CLASS_INDEFINITE
    assert report.second_order_min_eig < 0


def test_second_order_matrix_symmetric_eigenpair(small_instance):
    prob, planted = small_instance
    M = second_order_matrix(prob, planted)
    assert_allclose(M, M.T, rtol=0, atol=0)
    vals, vecs = np.linalg.eigh(M)
    q = vecs[:, 0]
    assert np.linalg.norm(M @ q - vals[0] * q) <= 1e-10 * np.linalg.norm(M)


def test_scaling_invariance_of_classification(one_dim, one_dim_tstar):
    # (A, b) -> (cA, cb), lam -> c^2 lam leaves minimizers in place
    c = 3.7
    scaled = Problem(A=c * one_dim.A, b=c * one_dim.b,
                     lam=c * c * one_dim.lam, p=one_dim.p)
    for t, expected in (
        (one_dim_tstar, CLASS_LOCAL_MIN),
        (1.0, CLASS_NOT_CRITICAL),
        (0.0, CLASS_ZERO),
    ):
        base = classify_point(one_dim, [t], fo_tol=1e-7)
        scl = classify_point(scaled, [t], fo_tol=1e-7 * c * c)
        assert base.classification == expected
        assert scl.classification == expected


def test_growth_probe_local_min(one_dim, one_dim_tstar):
    probe = growth_probe(one_dim, [one_dim_tstar], delta=0.05,
                         n_samples=10_000, seed=1)
    assert probe.violations == 0
    assert probe.eps_hat > 0
    # dense 1-D grid oracle over the same window agrees that t* is minimal
    ts = np.linspace(one_dim_tstar - 0.05, one_dim_tstar + 0.05, 200_001)
    F = (ts - 2.0) ** 2 + np.sqrt(np.abs(ts))
    f_star = (one_dim_tstar - 2.0) ** 2 + math.sqrt(one_dim_tstar)
    assert F.min() >= f_star - 1e-12


def test_growth_probe_zero_with_large_lambda():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((2, 2))
    b = rng.standard_normal(2)
    lam = 4.0 * float(np.linalg.norm(2.0 * A.T @ b))  # zero is global min
    prob = Problem(A=A, b=b, lam=lam, p=0.5)
    probe = growth_probe(prob, np.zeros(2), delta=0.1, n_samples=10_000, seed=2)
    assert probe.violations == 0
    # grid oracle: F on a small grid around 0 never dips below F(0)
    xs = np.linspace(-0.1, 0.1, 301)
    f0 = objective(prob, [0.0, 0.0])
    vals = [
        objective(prob, [u, w]) for u in xs for w in xs[::50]
    ]
    assert min(vals) >= f0 - 1e-12


def test_growth_probe_detects_non_minimum(one_dim):
    # t = 1.0 is not critical; descending directions exist
    probe = growth_probe(one_dim, [1.0], delta=0.1, n_samples=2000, seed=3)
    assert probe.violations > 0


def test_growth_probe_validation(one_dim):
    with pytest.raises(ValidationError):
        growth_probe(one_dim, [0.0], delta=-1.0)


def test_probe_delta_respects_off_support_slope(one_dim):
    prob2 = Problem(A=np.eye(2), b=[2.0, 2.0], lam=1.0, p=0.5)
    d = default_probe_delta(prob2, [1.8, 0.0])
    # must be far smaller than half the nonzero magnitude: coordinate 2
    # has smooth slope |2(0-2)| = 4 against penalty weight 1
    assert d < 0.2


def test_enumerate_trivial_zero_only():
    prob = Problem(A=[[1.0]], b=[0.0], lam=1.0, p=0.5)
    result = enumerate_local_minima(prob)
    assert len(result.minima) == 1
    assert_allclose(result.minima[0][0], [0.0])
    assert not result.incomplete


def test_enumerate_one_dim_matches_dense_scan(one_dim, one_dim_tstar):
    result = enumerate_local_minima(one_dim)
    points = sorted(x[0] for x, _ in result.minima)
    # dense scan oracle over [-1, 4]
    ts = np.linspace(-1.0, 4.0, 1_000_001)
    F = (ts - 2.0) ** 2 + np.sqrt(np.abs(ts))
    interior = (F[1:-1] < F[:-2]) & (F[1:-1] <= F[2:])
    grid_minima = ts[1:-1][interior]
    assert len(grid_minima) == 2 == len(points)
    assert abs(points[0]) <= 1e-12
    assert abs(points[1] - one_dim_tstar) <= 1e-8
    assert abs(grid_minima[0]) <= 1e-5
    assert abs(grid_minima[1] - one_dim_tstar) <= 1e-5


def test_enumerate_two_dim_separable(one_dim_tstar):
    # diagonal instance decouples into two copies of the 1-D problem
    prob = Problem(A=np.eye(2), b=[2.0, 2.0], lam=1.0, p=0.5)
    result = enumerate_local_minima(prob)
    points = {tuple(np.round(x, 6)) for x, _ in result.minima}
    t6 = round(one_dim_tstar, 6)
    assert points == {(0.0, 0.0), (t6, 0.0), (0.0, t6), (t6, t6)}
    for _, report in result.minima:
        if report.support.size:
            assert report.first_order_residual <= 1e-8
            assert report.second_order_min_eig > 0
        assert report.growth is not None and report.growth.violations == 0


def test_enumerate_guard():
    prob = Problem(A=np.zeros((1, 13)), b=[0.0], lam=1.0, p=0.5)
    with pytest.raises(ValidationError):
        enumerate_local_minima(prob)


def test_find_global_minimum(one_dim, one_dim_tstar):
    result = enumerate_local_minima(one_dim)
    assert not result.incomplete
    x, _ = result.minima[0]
    # F(0) = 4 versus F(t*) ~ 1.38: the nonzero point wins
    assert abs(x[0] - one_dim_tstar) <= 1e-8
    assert objective(one_dim, x) < 4.0


def test_harness_fixed_one_dim(one_dim):
    report = equivalence_harness(one_dim, seed=0, trials=2000)
    assert report.ok, [c.detail for c in report.failures]
    kinds = {c.kind for c in report.checks}
    assert "grid-implies-conditions" in kinds
    assert "conditions-imply-growth" in kinds


def test_harness_random_two_dim():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 2)) / math.sqrt(3.0)
    b = rng.standard_normal(3) * 2.0
    prob = Problem(A=A, b=b, lam=1.0, p=0.5)
    report = equivalence_harness(prob, seed=3, trials=2000)
    assert report.ok, [c.detail for c in report.failures]


def test_harness_degenerate_zero_matrix():
    # with A = 0 every nonzero support fails the matrix test; only the
    # zero vector remains
    prob = Problem(A=np.zeros((2, 2)), b=[1.0, 1.0], lam=1.0, p=0.5)
    report = equivalence_harness(prob, seed=4, trials=1000)
    assert report.ok, [c.detail for c in report.failures]
    assert len(report.enumerated) == 1
    assert_allclose(report.enumerated[0], [0.0, 0.0])


def test_harness_guard():
    prob = Problem(A=np.zeros((1, 4)), b=[0.0], lam=1.0, p=0.5)
    with pytest.raises(ValidationError):
        equivalence_harness(prob)


def test_classify_converged_pga_limit(small_instance):
    # residual at a converged limit is bounded by 10 * stop_tol / v_lo
    from lpreg import default_stepsize, run_pga
    from lpreg.solvers import SolverConfig

    prob, _ = small_instance
    v = default_stepsize(prob)
    trace = run_pga(prob, SolverConfig(v=v, stop_tol=1e-10))
    assert trace.converged
    report = classify_point(prob, trace.final_iterate,
                            fo_tol=10.0 * 1e-10 / v)
    assert report.classification in (CLASS_LOCAL_MIN, CLASS_INDEFINITE)
    assert report.first_order_residual <= 10.0 * 1e-10 / v
