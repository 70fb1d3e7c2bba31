import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpreg import (
    Problem,
    certify_h2,
    default_stepsize,
    lower_bound,
    objective,
    residual_on_support,
    run_ipga_1p,
    run_ipga_2p,
    run_pga,
    spectral_norm_sq,
)
from lpreg.errors import StepsizeError, ValidationError
from lpreg.problem import SPECTRAL_TOL
from lpreg.solvers import (
    IterationTrace,
    Schedule,
    SolverConfig,
    certify_dist_control,
    certify_value_control,
)


def test_pga_immediate_fixed_point():
    prob = Problem(A=np.eye(3), b=np.zeros(3), lam=1.0, p=0.5)
    trace = run_pga(prob, SolverConfig(v=0.4))
    assert len(trace) == 1
    assert trace.converged
    assert trace.f_values == [0.0]


def test_pga_one_dim_limit(one_dim, one_dim_tstar):
    trace = run_pga(one_dim, SolverConfig(v=0.4))
    assert trace.converged
    t = trace.final_iterate[0]
    assert abs(t - one_dim_tstar) <= 1e-8
    resid, support = residual_on_support(one_dim, trace.final_iterate)
    assert support.indices == (0,)
    assert resid <= 1e-8


def test_pga_monotone_descent(small_instance):
    prob, _ = small_instance
    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob)))
    assert trace.converged
    tol = 1e-12 * (1.0 + trace.f_values[0])
    for a, b in zip(trace.f_values, trace.f_values[1:]):
        assert b <= a + tol


def test_pga_descent_inequality_along_trajectory(small_instance):
    # F(x_{k+1}) - F(x_k) <= -(1/(2v) - ||A||^2) ||step||^2 for exact steps
    prob, _ = small_instance
    v = default_stepsize(prob)
    trace = run_pga(prob, SolverConfig(v=v, max_iters=300))
    a_sq = spectral_norm_sq(prob) + SPECTRAL_TOL
    alpha = 1.0 / (2.0 * v) - a_sq
    assert alpha > 0
    for k in range(len(trace.step_norms)):
        decrease = trace.f_values[k + 1] - trace.f_values[k]
        assert decrease <= -alpha * trace.step_norms[k] ** 2 + 1e-10


def test_pga_nonzero_magnitude_law(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    trace = run_pga(prob, SolverConfig(v=v))
    bound = lower_bound(v, prob.lambda_lower, prob.p) - 1e-12
    for x in trace.iterates[1:]:
        nz = np.abs(x[x != 0.0])
        if nz.size:
            assert nz.min() >= bound


def test_pga_deterministic(small_instance):
    prob, _ = small_instance
    cfg = SolverConfig(v=default_stepsize(prob))
    t1 = run_pga(prob, cfg)
    t2 = run_pga(prob, cfg)
    assert t1.f_values == t2.f_values
    assert all(np.array_equal(a, b) for a, b in zip(t1.iterates, t2.iterates))


def test_stepsize_validation_cites_bound(small_instance):
    prob, _ = small_instance
    bad_v = 1.0 / spectral_norm_sq(prob)  # twice the admissible sup
    with pytest.raises(StepsizeError, match=r"\|\|A\|\|"):
        run_pga(prob, SolverConfig(v=bad_v))


def test_ipga1p_zero_schedule_identical(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    exact = run_pga(prob, SolverConfig(v=v))
    inexact = run_ipga_1p(prob, SolverConfig(v=v, inexact=Schedule.zero()))
    assert exact.f_values == inexact.f_values
    assert all(np.array_equal(a, b)
               for a, b in zip(exact.iterates, inexact.iterates))


def test_ipga2p_zero_schedule_identical(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    exact = run_pga(prob, SolverConfig(v=v))
    inexact = run_ipga_2p(prob, SolverConfig(v=v, inexact=Schedule.zero()))
    assert exact.f_values == inexact.f_values


def test_ipga_fixed_point_start(one_dim):
    exact = run_pga(one_dim, SolverConfig(v=0.4))
    x_star = exact.final_iterate
    for runner in (run_ipga_1p, run_ipga_2p):
        trace = runner(one_dim, SolverConfig(v=0.4, inexact=Schedule.zero()),
                       x0=x_star)
        assert len(trace) <= 2  # at most the sub-tolerance settling step
        assert trace.converged


def test_ipga1p_per_coordinate_control(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    tau = Schedule.geometric(0.1, 0.5)
    trace = run_ipga_1p(prob, SolverConfig(v=v, inexact=tau))
    assert trace.converged
    for k in range(len(trace.step_norms)):
        gaps = trace.coord_certified[k]
        budgets = trace.coord_bounds[k]
        assert np.all(gaps <= budgets + 1e-12 * (1.0 + np.abs(budgets)))
    ok, bad = certify_value_control(trace, tau)
    assert ok, bad


def test_ipga2p_per_coordinate_control(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    t_sched = Schedule.geometric(0.3, 0.7)
    trace = run_ipga_2p(prob, SolverConfig(v=v, inexact=t_sched))
    assert trace.converged
    for k in range(len(trace.step_norms)):
        dists = trace.coord_certified[k]
        bounds = trace.coord_bounds[k]
        assert np.all(dists <= bounds + 1e-12 * (1.0 + np.abs(bounds)))
    ok, bad = certify_dist_control(trace, t_sched)
    assert ok, bad


def test_ipga2p_leaves_zero_selections_unperturbed(small_instance):
    # A zero exact selection is a minimizer at distance 0.  Perturbing it
    # walked coordinates through subnormal magnitudes and made the residual
    # on the support overflow.
    prob, _ = small_instance
    t_sched = Schedule.geometric(0.3, 0.7)
    trace = run_ipga_2p(prob, SolverConfig(v=default_stepsize(prob),
                                           inexact=t_sched))
    tiny = np.finfo(float).tiny
    for x in trace.iterates:
        assert not np.any((x != 0.0) & (np.abs(x) < tiny))
    assert np.isfinite(trace.residuals).all()
    h2 = certify_h2(prob, trace, beta="auto")  # eps_k from the trace
    assert h2.ok, (h2.worst_index, h2.worst_violation)


def _control_trace(kind, certified, bounds, eps):
    return IterationTrace(
        algo="fake", f_values=[1.0, 0.5], step_norms=[1.0], eps_values=[eps],
        support_sizes=[2, 2], residuals=[0.0, 0.0], eps_kind=kind,
        coord_certified=[np.array(certified)], coord_bounds=[np.array(bounds)],
    )


def test_control_checks_pass_within_bounds():
    trace = _control_trace("value", [0.01, 0.02], [0.1, 0.1], 0.03)
    assert certify_value_control(trace, Schedule.geometric(0.5, 0.5)) == (True, [])
    trace = _control_trace("dist", [0.01, 0.02], [0.1, 0.1], 0.03)
    assert certify_dist_control(trace, Schedule.geometric(0.5, 0.5)) == (True, [])


def test_control_checks_fail_closed_on_nan():
    trace = _control_trace("value", [0.01, np.nan], [0.1, 0.1], np.nan)
    assert certify_value_control(trace, Schedule.geometric(0.5, 0.5)) == (False, [0])


def test_control_checks_each_coordinate():
    # the aggregate 0.2 fits t_k ||step|| = 0.5, but coordinate 0 exceeds
    # its own bound
    trace = _control_trace("dist", [0.2, 0.0], [0.1, 0.5], 0.2)
    assert certify_dist_control(trace, Schedule.geometric(0.5, 0.5)) == (False, [0])


def test_ipga2p_rejects_large_t():
    prob = Problem(A=np.eye(2), b=np.ones(2), lam=1.0, p=0.5)
    with pytest.raises(ValidationError):
        run_ipga_2p(prob, SolverConfig(v=0.4, inexact=Schedule.geometric(1.0, 0.5)))


def test_residual_on_support_cases(one_dim, one_dim_tstar):
    resid, supp = residual_on_support(one_dim, [0.0])
    assert resid == 0.0 and supp.size == 0
    resid, supp = residual_on_support(one_dim, [one_dim_tstar])
    assert resid <= 1e-8
    # non-critical point: |2(1-2) + 0.5| = 1.5
    resid, _ = residual_on_support(one_dim, [1.0])
    assert_allclose(resid, 1.5, rtol=1e-12)


def test_residual_random_noncritical(small_instance):
    prob, _ = small_instance
    rng = np.random.default_rng(0)
    x = rng.standard_normal(prob.n)
    resid, _ = residual_on_support(prob, x)
    assert resid > 0.0


def test_trace_csv_rows(one_dim):
    trace = run_pga(one_dim, SolverConfig(v=0.4, max_iters=5))
    rows = trace.csv_rows()
    assert len(rows) == len(trace)
    assert rows[-1][2] == 0.0  # final row has no successor step
    assert all(len(r) == 6 for r in rows)


def test_schedule_family():
    s = Schedule.geometric(0.1, 0.5)
    assert s.value(0) == 0.1 and s.value(2) == 0.025
    e = Schedule.explicit([1.0, 0.5])
    assert e.value(1) == 0.5 and e.value(5) == 0.0
    with pytest.raises(ValidationError):
        Schedule.geometric(0.1, 1.0)
    with pytest.raises(ValidationError):
        Schedule.explicit([-1.0])


def test_default_stepsize_inside_bound(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    assert 0 < v < 0.5 / spectral_norm_sq(prob)


def test_ipga1p_converges_near_exact_limit(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    exact = run_pga(prob, SolverConfig(v=v))
    inexact = run_ipga_1p(
        prob, SolverConfig(v=v, inexact=Schedule.geometric(0.1, 0.5)))
    assert inexact.converged
    assert np.linalg.norm(
        inexact.final_iterate - exact.final_iterate) <= 1e-5


def test_stepsize_schedule_sequence(one_dim):
    trace = run_pga(one_dim, SolverConfig(v=[0.3, 0.4, 0.45]))
    assert trace.converged
    assert trace.stepsizes[:3] == [0.3, 0.4, 0.45]
    assert all(v == 0.45 for v in trace.stepsizes[3:])


def test_weighted_problem_matches_rescaled_run():
    from lpreg import rescale_weighted
    rng = np.random.default_rng(21)
    A = rng.standard_normal((6, 4)) / 2.0
    b = rng.standard_normal(6)
    w = rng.uniform(0.5, 2.0, size=4)
    weighted = Problem(A=A, b=b, lam=1.0, p=0.5, weights=w)
    canonical, scale = rescale_weighted(weighted)
    v = min(default_stepsize(weighted), default_stepsize(canonical))
    tw = run_pga(weighted, SolverConfig(v=v))
    tc = run_pga(canonical, SolverConfig(v=v))
    # same objective value at the limits; supports agree after mapping back
    assert abs(tw.f_values[-1] - tc.f_values[-1]) <= 1e-7 * (1 + abs(tw.f_values[-1]))
    mapped = scale * tc.final_iterate
    assert np.array_equal(np.flatnonzero(mapped), np.flatnonzero(tw.final_iterate))


def test_store_iterates_disabled(small_instance):
    prob, _ = small_instance
    cfg = SolverConfig(v=default_stepsize(prob), max_iters=50,
                       store_iterates=False)
    trace = run_pga(prob, cfg)
    assert trace.iterates is None
    assert len(trace.f_values) == len(trace.support_sizes)
