import numpy as np
import pytest

from lpreg import (
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
from lpreg.problem import SPECTRAL_TOL
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
    trace = _fake_trace([1.0, 1.05, 1.0], [0.1, 0.1], eps=[0.2, 0.0])
    report = certify_h1(trace, alpha=1.0, eps_sq=[0.2, 0.1])
    assert report.ok


def test_h1_symbolic_schedule_verdict():
    trace = _fake_trace([1.0, 0.9], [0.1])
    rep = certify_h1(trace, alpha=0.5, schedule=Schedule.geometric(0.1, 0.5))
    assert rep.symbolic_summable is True
    rep2 = certify_h1(trace, alpha=0.5, schedule=Schedule.explicit([0.1]))
    assert rep2.symbolic_summable is None


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


def test_estimate_beta_floor_without_iterates(small_instance):
    prob, _ = small_instance
    trace = _fake_trace([1.0, 0.9], [0.1])
    beta = estimate_beta(prob, trace, v_lo=0.07)
    assert beta > 1.0 / 0.07


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


def test_fit_rate_needs_reference(small_instance):
    prob, _ = small_instance
    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob), max_iters=30))
    with pytest.raises(ValidationError):
        fit_rate(trace, "objective-gap")


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
