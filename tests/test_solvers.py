import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpreg import (
    Problem,
    certify_h2,
    default_stepsize,
    gradient_smooth,
    lower_bound,
    objective,
    prox_vector,
    residual_on_support,
    run_ipga_1p,
    run_ipga_2p,
    run_pga,
    spectral_norm_sq,
)
from lpreg import solvers
from lpreg.errors import StepsizeError, ValidationError
from lpreg.experiments import make_instances
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
    assert support == (0,)
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


def test_validate_rejects_stepsize_at_the_bound():
    # v = 1/(2 ||A||^2) is excluded by the paper's strict stepsize condition;
    # scaled by 1e3, the eigensolve rounds low by more than 1e-10 absolute
    probs = make_instances()
    probs += [Problem(A=1e3 * prob.A, b=prob.b, lam=prob.lam, p=prob.p)
              for prob in probs]
    for prob in probs:
        with pytest.raises(StepsizeError):
            SolverConfig(v=0.5 / np.linalg.norm(prob.A, 2) ** 2).validate(prob)


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


def _exact_prox_steps(prob, trace):
    """Each step's start x^k, exact prox y* of its gradient step, and x^{k+1}."""
    for k, v in enumerate(trace.stepsizes):
        x = trace.iterates[k]
        y_star, _ = prox_vector(x - v * gradient_smooth(prob, x), v, prob)
        yield k, v, x, y_star, trace.iterates[k + 1]


@pytest.mark.parametrize("run", [run_pga, run_ipga_2p])
@pytest.mark.parametrize("p, lam, weighted", [(0.5, 0.1, False), (0.3, 0.01, True)])
def test_stepsize_sequence_rebuilds_the_prox_constants(small_instance, monkeypatch,
                                                        run, p, lam, weighted):
    # three distinct stepsizes: the loop prepares the kernel once for each,
    # and every step's exact prox equals prox_vector of its gradient step
    prob, planted = small_instance
    weights = np.linspace(0.5, 2.0, prob.n) if weighted else None
    prob = dataclasses.replace(prob, p=p, lam=lam, weights=weights)
    v = default_stepsize(prob)
    cfg = SolverConfig(v=(0.5 * v, 0.8 * v, v), max_iters=40,
                       inexact=Schedule.geometric(0.3, 0.7))
    built, calls = [], []
    prepare, select = solvers._Prepared, solvers._prox_select

    def counting_prepare(v, lam, p):
        built.append(v)
        return prepare(v, lam, p)

    def recording_select(z, kernel):
        y_star, value = select(z, kernel)
        calls.append((z, kernel.v, y_star))
        return y_star, value

    monkeypatch.setattr(solvers, "_Prepared", counting_prepare)
    monkeypatch.setattr(solvers, "_prox_select", recording_select)
    trace = run(prob, cfg, x0=planted)
    assert built == list(cfg.v)
    assert trace.stepsizes == [cfg.stepsize(k) for k in range(len(trace.stepsizes))]
    assert len(calls) >= len(trace.step_norms) > 3
    for k, (z, v_k, y_star) in enumerate(calls[:len(trace.step_norms)]):
        x = trace.iterates[k]
        assert v_k == cfg.stepsize(k)
        assert z.tobytes() == (x - v_k * gradient_smooth(prob, x)).tobytes()
        assert y_star.tobytes() == prox_vector(z, v_k, prob)[0].tobytes(), k
        if run is run_pga:
            assert y_star.tobytes() == trace.iterates[k + 1].tobytes()


def test_ipga1p_shift_stays_within_its_closed_form(small_instance):
    prob, _ = small_instance
    tau = Schedule.geometric(0.1, 0.5)
    cfg = SolverConfig(v=default_stepsize(prob), inexact=tau)
    trace = run_ipga_1p(prob, cfg)
    for k, v, x, y_star, x_new in _exact_prox_steps(prob, trace):
        limit = np.sqrt(2.0 * v * cfg.knob * tau.value(k)) * np.abs(y_star - x)
        # one rounding of y* + s may land up to half an ulp of y* past s
        assert np.all(np.abs(x_new - y_star) <= limit + np.spacing(np.abs(y_star))), k


def test_ipga1p_is_exact_once_tau_is_negligible(small_instance):
    prob, _ = small_instance
    tau = Schedule.geometric(0.1, 0.5)
    trace = run_ipga_1p(prob, SolverConfig(v=default_stepsize(prob), inexact=tau))
    late = [(y_star, x_new) for k, _, _, y_star, x_new in _exact_prox_steps(prob, trace)
            if tau.value(k) < 1e-40]
    assert late
    assert all(np.array_equal(x_new, y_star) for y_star, x_new in late)


def test_ipga1p_stops_near_pga_iteration_count(small_instance):
    prob, _ = small_instance
    v = default_stepsize(prob)
    exact = run_pga(prob, SolverConfig(v=v))
    inexact = run_ipga_1p(prob, SolverConfig(v=v, inexact=Schedule.geometric(0.1, 0.5)))
    assert abs(len(inexact) - len(exact)) <= 0.1 * len(exact), (len(inexact), len(exact))


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
    assert resid == 0.0 and supp == ()
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
    with pytest.raises(ValidationError):
        Schedule.geometric(0.1, 1.0)


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
    rng = np.random.default_rng(21)
    A = rng.standard_normal((6, 4)) / 2.0
    b = rng.standard_normal(6)
    w = rng.uniform(0.5, 2.0, size=4)
    weighted = Problem(A=A, b=b, lam=1.0, p=0.5, weights=w)
    # u_i = (w_i / lam)^(1/p) x_i with columns A_i scaled by (lam / w_i)^(1/p)
    # turns the weighted problem into a uniform-weight one; x = scale * u
    scale = (weighted.lam / w) ** (1.0 / weighted.p)
    canonical = Problem(A=A * scale, b=b, lam=weighted.lam, p=weighted.p)
    v = min(default_stepsize(weighted), default_stepsize(canonical))
    tw = run_pga(weighted, SolverConfig(v=v))
    tc = run_pga(canonical, SolverConfig(v=v))
    # same objective value at the limits; supports agree after mapping back
    assert abs(tw.f_values[-1] - tc.f_values[-1]) <= 1e-7 * (1 + abs(tw.f_values[-1]))
    mapped = scale * tc.final_iterate
    assert np.array_equal(np.flatnonzero(mapped), np.flatnonzero(tw.final_iterate))


def test_store_iterates_disabled(small_instance, monkeypatch):
    prob, _ = small_instance
    monkeypatch.setattr(solvers, "STORE_ITERATES_MAX_N", prob.n - 1)
    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob), max_iters=50))
    assert trace.iterates is None
    assert len(trace.f_values) == len(trace.support_sizes)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_pga_rejects_non_finite_x0(small_instance, bad):
    prob, _ = small_instance
    x0 = np.zeros(prob.n)
    x0[3] = bad
    with pytest.raises(ValidationError, match="x0"):
        run_pga(prob, SolverConfig(v=default_stepsize(prob)), x0=x0)


@pytest.mark.parametrize("algo", ["pga", "ipga1p", "ipga2p"])
def test_trace_bookkeeping_matches_public_functions(small_instance, algo):
    prob, _ = small_instance
    cfg = SolverConfig(v=default_stepsize(prob),
                       inexact=Schedule.geometric(0.1, 0.5))
    trace = solvers.runner(algo)(prob, cfg)
    assert len(trace.iterates) == len(trace) > 2
    for k, x in enumerate(trace.iterates):
        assert trace.f_values[k] == objective(prob, x)
        assert (trace.residuals[k], trace.supports[k]) == residual_on_support(prob, x)
        assert trace.support_sizes[k] == len(trace.supports[k])


def _assert_same_trace(cut, real):
    for f in dataclasses.fields(IterationTrace):
        a, b = getattr(cut, f.name), getattr(real, f.name)
        if f.name in ("iterates", "coord_certified", "coord_bounds") and b is not None:
            assert len(a) == len(b), f.name
            assert all(np.array_equal(x, y) for x, y in zip(a, b)), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("algo", ["pga", "ipga1p", "ipga2p"])
def test_cut_of_a_tighter_run_equals_the_run(small_instance, algo):
    prob, _ = small_instance
    cfg = SolverConfig(v=default_stepsize(prob),
                       inexact=Schedule.geometric(0.1, 0.5))
    run = solvers.runner(algo)
    ref = run(prob, dataclasses.replace(cfg, stop_tol=1e-13, max_iters=200_000))
    real = run(prob, cfg)
    assert real.converged and len(real) < len(ref)
    _assert_same_trace(solvers._cut(ref, cfg), real)
    short = dataclasses.replace(cfg, max_iters=5)
    cut = solvers._cut(ref, short)
    assert len(cut) == 6 and cut.converged is False
    _assert_same_trace(cut, run(prob, short))


def test_cut_at_an_exact_fixed_point(one_dim):
    # stop_tol 0 runs on until a step is exactly zero
    ref = run_pga(one_dim, SolverConfig(v=0.4, stop_tol=0.0))
    assert ref.converged and ref.step_norms[-1] > 0.0
    n = len(ref.step_norms)
    # max_iters n stops before the zero step, n + 1 takes it
    for max_iters, converged in ((n, False), (n + 1, True)):
        cfg = SolverConfig(v=0.4, stop_tol=0.0, max_iters=max_iters)
        cut = solvers._cut(ref, cfg)
        assert cut.converged is converged
        _assert_same_trace(cut, run_pga(one_dim, cfg))
    # from x0 = t* the reference takes no step at all
    t_star = ref.final_iterate
    ref = run_pga(one_dim, SolverConfig(v=0.4, stop_tol=1e-13), x0=t_star)
    assert len(ref) == 1 and ref.converged
    cfg = SolverConfig(v=0.4)
    _assert_same_trace(solvers._cut(ref, cfg), run_pga(one_dim, cfg, x0=t_star))
