import dataclasses
import math

import numpy as np
import pytest

from lpreg import (
    Problem,
    certify_h1,
    certify_h2,
    check_geometric_recursion,
    default_stepsize,
    detect_support_identification,
    fit_rate,
    run_ipga_1p,
    run_pga,
    spectral_norm_sq,
)
from lpreg.analysis import estimate_beta, fit_series
from lpreg.errors import ValidationError
from lpreg.experiments import reference_solution
from lpreg.problem import SPECTRAL_TOL, spectral_upper_bound
from lpreg.solvers import IterationTrace, Schedule, SolverConfig


def _fake_trace(f_values, step_norms, residuals=None, eps=None):
    n = len(f_values)
    return IterationTrace(
        algo="fake",
        f_values=list(f_values),
        step_norms=list(step_norms),
        eps_values=list(eps) if eps is not None else [0.0] * (n - 1),
        support_sizes=[1] * n,
        residuals=list(residuals) if residuals is not None else [0.0] * n,
        supports=[(0,)] * n,
        stepsizes=[0.1] * (n - 1),
    )


def test_h1_constant_trace_passes():
    trace = _fake_trace([1.0, 1.0, 1.0], [0.0, 0.0])
    report = certify_h1(trace, alpha=5.0)
    assert report.ok
    assert report.worst_violation <= 0.0


def test_h1_exact_pga_passes(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    trace = run_pga(prob, SolverConfig(v=v))
    alpha = 1.0 / (2.0 * v) - (spectral_norm_sq(prob) + SPECTRAL_TOL)
    report = certify_h1(trace, alpha=alpha)
    assert report.ok, (report.worst_index, report.worst_violation)


def test_h1_detects_ascent():
    trace = _fake_trace([1.0, 0.5, 0.9], [0.5, 0.5])
    report = certify_h1(trace, alpha=0.1)
    assert not report.ok
    assert report.violations == [1]


def test_h1_fails_closed_on_nan():
    trace = _fake_trace([1.0, np.nan, 0.5], [0.1, 0.1])
    report = certify_h1(trace, alpha=1.0)
    assert not report.ok
    assert report.violations == [0, 1]
    assert report.worst_violation == np.inf


def test_h2_fails_closed_on_nan():
    trace = _fake_trace([1.0, 0.9, 0.8], [0.1, 0.1], residuals=[0.0, np.nan, 0.0])
    report = certify_h2(None, trace, beta=10.0)
    assert not report.ok
    assert report.violations == [0]
    assert report.worst_violation == np.inf


def test_h1_eps_allows_increase():
    trace = _fake_trace([1.0, 1.05, 1.0], [0.1, 0.1], eps=[0.2, 0.1])
    assert certify_h1(dataclasses.replace(trace, eps_kind="value"), alpha=1.0).ok
    # only value gaps enter H1; without them the increase is a violation
    assert not certify_h1(dataclasses.replace(trace, eps_kind="dist"), alpha=1.0).ok


def test_h2_critical_point_trace(one_dim, one_dim_tstar):
    trace = run_pga(one_dim, SolverConfig(v=0.4), x0=[one_dim_tstar])
    report = certify_h2(one_dim, trace, beta=1.0)
    assert report.ok


def test_h2_exact_pga_auto_beta(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    trace = run_pga(prob, SolverConfig(v=v))
    report = certify_h2(prob, trace, beta="auto")
    assert report.ok, (report.worst_index, report.worst_violation)
    assert report.constant >= 1.0 / v


def test_h2_detects_violation(one_dim):
    trace = _fake_trace([1.0, 0.9], [1e-6], residuals=[0.0, 5.0])
    report = certify_h2(one_dim, trace, beta=1.0)
    assert not report.ok


@pytest.mark.parametrize("n_values", [2, 3, 5])
def test_certify_rejects_unpaired_steps(n_values):
    # F values and residuals need one entry more than the 3 step norms;
    # unpaired steps must not drop out of the check and pass
    values = [1.0, 0.5, 0.25, 0.125, 0.0625][:n_values]
    paired = [1.0, 0.5, 0.25, 0.125]
    h1_trace = IterationTrace(algo="fake", f_values=values, step_norms=[0.1] * 3,
                              eps_values=[0.0] * 3, support_sizes=[1] * 4,
                              residuals=paired)
    h2_trace = dataclasses.replace(h1_trace, f_values=paired, residuals=values)
    with pytest.raises(ValidationError, match="shapes"):
        certify_h1(h1_trace, alpha=1.0)
    with pytest.raises(ValidationError, match="shapes"):
        certify_h2(None, h2_trace, beta=1.0)
    assert certify_h1(h2_trace, alpha=1.0).ok
    assert certify_h2(None, h1_trace, beta=10.0).ok


def test_estimate_beta_floor_without_iterates(small_instance):
    prob, _ = small_instance
    trace = _fake_trace([1.0, 0.9], [0.1])
    beta = estimate_beta(prob, trace, v_lo=0.07)
    assert beta > 1.0 / 0.07


def test_estimate_beta_is_the_minimum_over_the_tail(small_instance):
    # reference: the per-iterate loop, minimum over each tail iterate's
    # nonzero magnitudes; a tail of zeros falls back to the floor
    prob, _ = small_instance
    v = default_stepsize(prob)
    trace = run_pga(prob, SolverConfig(v=v))
    tail = [trace.iterate(k) for k in range(len(trace) // 2, len(trace))]
    min_mag = min(float(np.abs(x[x != 0.0]).min()) for x in tail if x.any())
    expected = (1.0 / v + 2.0 * spectral_upper_bound(prob)
                + float(prob.lambda_vec.max()) * prob.p * (1.0 - prob.p)
                * min_mag ** (prob.p - 2.0))
    assert estimate_beta(prob, trace, v) == expected
    floor = estimate_beta(prob, _fake_trace([1.0, 0.9], [0.1]), v)
    trace.values = [np.zeros(2)] * 3
    assert estimate_beta(prob, trace, v) == floor


def test_estimate_beta_tiny_tail_magnitude_raises_validation_error():
    prob = Problem(A=np.eye(2), b=np.ones(2), lam=1.0, p=0.5)
    trace = _fake_trace([1.0, 0.9], [0.1])
    trace.n, trace.supports = 2, [(0,), (0,)]
    trace.values = [np.array([1.0]), np.array([1e-300])]
    with pytest.raises(ValidationError, match="1e-300"):
        estimate_beta(prob, trace, v_lo=0.1)


def test_recursion_basic_example():
    # a_{k+1} = 0.5 a_k + 0.25^k with eta = 0.5; unrolled oracle dominates
    a = [1.0]
    for k in range(40):
        a.append(0.5 * a[-1] + 0.25**k)
    d = [0.25**k for k in range(40)]
    cert = check_geometric_recursion(a, d, eta=0.5)
    assert cert.hypothesis_ok and cert.dominated
    for k, val in enumerate(a):
        assert val <= cert.K * cert.theta**k * (1.0 + 1e-12)


def test_recursion_zero_delta_exact_geometric():
    a = [0.5**k for k in range(30)]
    d = [0.0] * 30
    cert = check_geometric_recursion(a, d, eta=0.5)
    assert cert.hypothesis_ok and cert.dominated
    assert cert.K == 1.0
    assert cert.theta == 0.5


def test_recursion_slow_delta_fails_hypothesis():
    a = [1.0 / (k + 1.0) for k in range(50)]
    d = [1.0 / (k + 1.0) for k in range(50)]
    cert = check_geometric_recursion(a, d, eta=0.5)
    assert not cert.hypothesis_ok


def test_recursion_violation_reports_index():
    a = [1.0, 0.2, 0.9]
    d = [0.0, 0.0]
    cert = check_geometric_recursion(a, d, eta=0.5)
    assert not cert.hypothesis_ok
    assert cert.fail_index == 1


def test_recursion_random_sweep():
    rng = np.random.default_rng(0)
    for _ in range(100):
        eta = rng.uniform(0.1, 0.9)
        rho = rng.uniform(0.05, 0.95)
        n = rng.integers(10, 60)
        d = (rng.uniform(0.1, 2.0) * rho ** np.arange(n)).tolist()
        a = [float(rng.uniform(0.0, 3.0))]
        for k in range(n - 1):
            a.append(float(rng.uniform(0.0, 1.0)) * (eta * a[-1] + d[k]))
        cert = check_geometric_recursion(a, d, eta=eta)
        assert cert.hypothesis_ok
        assert cert.dominated, (eta, rho, cert.dominance_fail_index)


def test_recursion_validation():
    with pytest.raises(ValidationError):
        check_geometric_recursion([1.0], [0.0], eta=1.5)
    with pytest.raises(ValidationError):
        check_geometric_recursion([1.0, -1.0], [0.0], eta=0.5)
    # a NaN or inf entry must not pass as a satisfied recursion
    a = [0.5**k for k in range(6)]
    d = [0.1 * 0.5**k for k in range(6)]
    for a_seq, d_seq in (([math.nan] * 6, d), (a[:2] + [math.nan] + a[3:], d),
                         (a[:1] + [math.inf] + a[2:], d),
                         (a, d[:3] + [math.nan] + d[4:])):
        with pytest.raises(ValidationError, match="finite"):
            check_geometric_recursion(a_seq, d_seq, eta=0.6)
    # a long stalled head before a fast tail puts K, or a c_k, past the
    # float range
    with pytest.raises(ValidationError, match=r"K = .* overflows"):
        check_geometric_recursion([0.0] * 79, [1.0] * 50 + [0.01**k for k in range(1, 30)],
                                  eta=0.5)
    with pytest.raises(ValidationError, match=r"c_\d+ = delta_k / tau\^k overflows"):
        check_geometric_recursion([0.0] * 89, [1.0] * 60 + [1e-13**k for k in range(1, 30)],
                                  eta=0.5)


def test_fit_series_exact_geometric():
    series = [3.0 * 0.5**k for k in range(40)]
    est = fit_series(series)
    assert abs(est.eta_hat - 0.5) <= 1e-12
    assert abs(est.c_hat - 3.0) <= 1e-9
    assert est.r2 == 1.0
    assert est.linear_convergence_detected


def test_fit_series_constant_flagged():
    est = fit_series([2.0] * 30)
    assert est.eta_hat == 1.0
    assert not est.linear_convergence_detected


def test_fit_series_too_few_points():
    with pytest.raises(ValidationError):
        fit_series([1.0, 0.5, 0.25, 0.125])


def test_fit_rate_on_pga_trace(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    trace = run_pga(prob, SolverConfig(v=v))
    ref = run_pga(prob, SolverConfig(v=v, stop_tol=1e-13, max_iters=200_000))
    est = fit_rate(trace, "objective-gap", f_star=ref.f_values[-1])
    assert 0.0 < est.eta_hat < 1.0


def test_fit_rate_iterate_distance_is_linear(small_instance):
    prob, _ = small_instance
    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob)))
    x_star, _ = reference_solution(prob)
    est = fit_rate(trace, "iterate-distance", x_star=x_star)
    assert 0.0 < est.eta_hat < 1.0
    assert est.r2 >= 0.99


def test_fit_rate_needs_reference(small_instance):
    prob, _ = small_instance
    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob), max_iters=30))
    with pytest.raises(ValidationError):
        fit_rate(trace, "objective-gap")
    with pytest.raises(ValidationError):
        fit_rate(trace, "iterate-distance")
    bare = dataclasses.replace(trace, values=None)
    with pytest.raises(ValidationError):
        fit_rate(bare, "iterate-distance", x_star=np.zeros(prob.n))


def test_support_identification_constant():
    trace = _fake_trace([1.0, 0.9, 0.8], [0.1, 0.1])
    assert detect_support_identification(trace) == 0


def test_support_identification_oscillating():
    n = 30
    trace = IterationTrace(
        algo="fake",
        f_values=[1.0] * n,
        step_norms=[0.1] * (n - 1),
        eps_values=[0.0] * (n - 1),
        support_sizes=[1] * n,
        residuals=[0.0] * n,
        supports=[(0,) if k % 2 == 0 else (1,) for k in range(n)],
    )
    assert detect_support_identification(trace) is None


def test_support_identification_on_run(small_instance):
    prob, _ = small_instance
    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob)))
    n_hat = detect_support_identification(trace)
    assert n_hat is not None
    assert 0 <= n_hat < len(trace)
    # residuals decay (mostly) after identification
    tail = trace.residuals[n_hat:]
    upticks = sum(1 for a, b in zip(tail, tail[1:]) if b > a * (1.0 + 1e-12))
    assert upticks <= 0.1 * len(tail)


def test_h1_ipga_value_gaps(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    trace = run_ipga_1p(prob, SolverConfig(v=v, inexact=Schedule.geometric(0.1, 0.5)))
    alpha = 1.0 / (2.0 * v) - (spectral_norm_sq(prob) + SPECTRAL_TOL)
    report = certify_h1(trace, alpha=alpha)  # eps^2 = summed value gaps
    assert report.ok, (report.worst_index, report.worst_violation)
