import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpreg import (
    Problem,
    certify_h2,
    default_stepsize,
    generate_instance,
    gradient_smooth,
    lower_bound,
    objective,
    prox_inexact_value,
    prox_vector,
    residual_on_support,
    run_ipga_1p,
    run_ipga_2p,
    run_pga,
    save_trace,
    spectral_norm_sq,
)
from lpreg import solvers
from lpreg.errors import StepsizeError, ValidationError
from lpreg.experiments import make_instances
from lpreg.problem import SPECTRAL_TOL, _columns
from lpreg.prox import BUDGET_SHARE, _Prepared
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
    for xs in trace.values[1:]:
        if xs.size:
            assert np.abs(xs).min() >= bound


def test_pga_deterministic(small_instance):
    prob, _ = small_instance
    cfg = SolverConfig(v=default_stepsize(prob))
    t1 = run_pga(prob, cfg)
    t2 = run_pga(prob, cfg)
    assert t1.f_values == t2.f_values
    assert all(np.array_equal(t1.iterate(k), t2.iterate(k)) for k in range(len(t1)))


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
    assert all(np.array_equal(exact.iterate(k), inexact.iterate(k))
               for k in range(len(exact)))


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
        x = trace.iterate(k)
        y_star, _ = prox_vector(x - v * gradient_smooth(prob, x), v, prob)
        yield k, v, x, y_star, trace.iterate(k + 1)


@pytest.mark.parametrize("run", [run_pga, run_ipga_2p])
@pytest.mark.parametrize("p, lam, weighted", [(0.5, 0.1, False), (0.3, 0.01, True)])
def test_stepsize_sequence_rebuilds_the_prox_constants(small_instance, monkeypatch,
                                                        run, p, lam, weighted):
    # three distinct stepsizes: the loop prepares the kernel once for each,
    # and every step's exact prox equals prox_vector of its gradient step,
    # on the working set J = kernel.cols, and is 0 off it
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
        y_star, value, cand = select(z, kernel)
        calls.append((z, kernel, y_star))
        return y_star, value, cand

    monkeypatch.setattr(solvers, "_Prepared", counting_prepare)
    monkeypatch.setattr(solvers, "_prox_select", recording_select)
    trace = run(prob, cfg, x0=planted)
    assert built == list(cfg.v)
    assert trace.stepsizes == [cfg.stepsize(k) for k in range(len(trace.stepsizes))]
    assert len(calls) >= len(trace.step_norms) > 3
    for k, (z, kernel, y_star) in enumerate(calls[:len(trace.step_norms)]):
        x, v_k, cols = trace.iterate(k), kernel.v, kernel.cols
        assert v_k == cfg.stepsize(k)
        z_full = x - v_k * gradient_smooth(prob, x)
        y_full = prox_vector(z_full, v_k, prob)[0]
        assert z.tobytes() == z_full[cols].tobytes()
        assert y_star.tobytes() == y_full[cols].tobytes(), k
        assert np.count_nonzero(y_full) == np.count_nonzero(y_star), k
        if run is run_pga:
            assert y_full.tobytes() == trace.iterate(k + 1).tobytes()
    assert min(kernel.cols.size for _, kernel, _ in calls) < prob.n


def test_ipga1p_shift_stays_within_its_closed_form(small_instance):
    prob, _ = small_instance
    tau = Schedule.geometric(0.1, 0.5)
    cfg = SolverConfig(v=default_stepsize(prob), inexact=tau)
    trace = run_ipga_1p(prob, cfg)
    for k, v, x, y_star, x_new in _exact_prox_steps(prob, trace):
        limit = np.sqrt(2.0 * v * BUDGET_SHARE * tau.value(k)) * np.abs(y_star - x)
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
    for xs in trace.values:
        assert not np.any(np.abs(xs) < tiny)
    assert np.isfinite(trace.residuals).all()
    h2 = certify_h2(prob, trace, beta="auto")  # eps_k from the trace
    assert h2.ok, (h2.worst_index, h2.worst_violation)


def _control_trace(kind, certified, bounds, eps, cols=(2, 5)):
    # one step whose certificates are rows on its working set J = cols
    return IterationTrace(
        algo="fake", f_values=[1.0, 0.5], step_norms=[1.0], eps_values=[eps],
        support_sizes=[2, 2], residuals=[0.0, 0.0], eps_kind=kind,
        coord_sets=[np.array(cols)], coord_certified=[np.array(certified)],
        coord_bounds=[np.array(bounds)],
    )


def test_control_checks_pass_within_bounds():
    trace = _control_trace("value", [0.01, 0.02], [0.1, 0.1], 0.03)
    assert certify_value_control(trace, Schedule.geometric(0.5, 0.5)) == (True, [])
    trace = _control_trace("dist", [0.01, 0.02], [0.1, 0.1], 0.03)
    assert certify_dist_control(trace, Schedule.geometric(0.5, 0.5)) == (True, [])


def test_control_checks_fail_closed_on_nan():
    trace = _control_trace("value", [0.01, np.nan], [0.1, 0.1], np.nan)
    assert certify_value_control(trace, Schedule.geometric(0.5, 0.5)) == (False, [0])
    trace = _control_trace("dist", [0.01, 0.02], [0.1, np.inf], 0.03)
    assert certify_dist_control(trace, Schedule.geometric(0.5, 0.5)) == (False, [0])


@pytest.mark.parametrize("relative", [False, True])
def test_violations_pass_rule(relative):
    # step k passes iff both sides are finite and lhs <= rhs + slack
    slack, rhs = 1e-9, 0.3
    edge = rhs + (slack * (1.0 + abs(rhs)) if relative else slack)
    above = float(np.nextafter(edge, np.inf))

    def check(lhs, r):
        return solvers._violations(lhs, r, slack, relative)

    assert check([edge], [rhs]) == ([], edge - rhs, 0)
    assert check([above], [rhs]) == ([0], above - rhs, 0)
    for lhs, r in ((np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (-np.inf, 0.0),
                   (0.0, np.inf), (0.0, -np.inf), (np.inf, np.inf)):
        assert check([0.0, lhs], [1.0, r]) == ([1], np.inf, 1)
    assert check([], []) == ([], 0.0, None)
    # a step of several comparisons fails if any one of them does
    assert check([[0.0, 0.0], [0.0, 2.0], [0.5, 0.0]],
                 [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]) == ([1], 1.0, 1)
    for lhs, r in (([0.0], [0.0, 1.0]), ([[0.0, 1.0]], [0.0, 1.0])):
        with pytest.raises(ValidationError, match="shapes"):
            check(lhs, r)


def test_control_checks_each_coordinate():
    # the aggregate 0.2 fits t_k ||step|| = 0.5, but coordinate 0 exceeds
    # its own bound
    trace = _control_trace("dist", [0.2, 0.0], [0.1, 0.5], 0.2)
    assert certify_dist_control(trace, Schedule.geometric(0.5, 0.5)) == (False, [0])
    # rows of several steps, J shared by the last two: an excess is charged
    # to the step whose row holds it
    wide, narrow = np.array([0, 1, 4]), np.array([4])
    trace = IterationTrace(
        algo="fake", f_values=[1.0, 0.8, 0.7, 0.65], step_norms=[1.0] * 3,
        eps_values=[0.0] * 3, support_sizes=[1] * 4, residuals=[0.0] * 4,
        eps_kind="dist", coord_sets=[wide, narrow, narrow],
        coord_certified=[np.zeros(3), np.zeros(1), np.array([0.2])],
        coord_bounds=[np.full(3, 0.1), np.full(1, 0.1), np.full(1, 0.1)])
    assert certify_dist_control(trace, Schedule.geometric(0.5, 0.5)) == (False, [2])
    trace.coord_bounds[0] = np.full(2, 0.1)
    with pytest.raises(ValidationError, match="columns"):
        certify_dist_control(trace, Schedule.geometric(0.5, 0.5))


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


def test_trace_csv_rows(one_dim, tmp_path):
    trace = run_pga(one_dim, SolverConfig(v=0.4, max_iters=5))
    path = tmp_path / "trace.csv"
    save_trace(path, trace)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0] == ["k", "F", "step_norm", "residual", "support_size", "eps_k"]
    assert len(rows) == len(trace) + 1
    assert all(len(r) == 6 for r in rows)
    for k, row in enumerate(rows[1:]):
        assert row[0] == str(k) and float(row[1]) == trace.f_values[k]
    assert rows[-1][2] == rows[-1][5] == "0"  # final row has no successor step


def test_schedule_family():
    s = Schedule.geometric(0.1, 0.5)
    assert s.value(0) == 0.1 and s.value(2) == 0.025
    with pytest.raises(ValidationError):
        Schedule.geometric(0.1, 1.0)


@pytest.mark.parametrize("c, rho", [(float("nan"), 0.5), (float("inf"), 0.5),
                                    (-1.0, 0.5), (0.1, float("nan")),
                                    (0.1, -0.1), (-1.0, 2.0)])
def test_invalid_schedule_raises(c, rho):
    # checked on construction, so a direct Schedule(...) is checked too
    with pytest.raises(ValidationError, match="schedule"):
        Schedule.geometric(c, rho)
    with pytest.raises(ValidationError, match="schedule"):
        Schedule(c=c, rho=rho)


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
    assert len(trace.values) == len(trace) > 2
    for k in range(len(trace)):
        x = trace.iterate(k)
        assert trace.f_values[k] == objective(prob, x)
        assert (trace.residuals[k], trace.supports[k]) == residual_on_support(prob, x)
        assert trace.support_sizes[k] == len(trace.supports[k])


# ---------------------------------------------------------------------------
# The working set: every iterate of the solvers runs on the columns J, and
# must equal the loop that runs on all n columns.
# ---------------------------------------------------------------------------

def _full_vector_run(prob, cfg, algo):
    """pga, ipga1p or ipga2p from x = 0 on every coordinate, from the public
    functions.

    Returns the iterates, the step norms and, for the inexact variants, the
    per-coordinate certificates and bounds of each step.
    """
    x = np.zeros(prob.n)
    iterates, steps, certified, bounds = [x], [], [], []
    for k in range(cfg.max_iters):
        v = cfg.stepsize(k)
        z = x - v * gradient_smooth(prob, x)
        y, value = prox_vector(z, v, prob)
        if algo == "ipga1p":
            y, cert, bound = prox_inexact_value(z, v, prob, y, value, x,
                                                cfg.inexact.value(k))
        elif algo == "ipga2p":
            t = cfg.inexact.value(k)
            d = y - x
            moving = (d != 0.0) & (y != 0.0)
            y_star = y.copy()
            y[moving] += np.copysign(BUDGET_SHARE * t * np.abs(d[moving]) / (1.0 - t),
                                     d[moving])
            cert = np.abs(y - y_star)
            bound = np.where(moving, t * np.abs(y - x), 0.0)
        step = np.linalg.norm(y - x)
        if step == 0.0:
            break
        iterates.append(y)
        steps.append(step)
        if algo != "pga":
            certified.append(cert)
            bounds.append(bound)
        x = y
        if step <= cfg.stop_tol:
            break
    return iterates, steps, certified, bounds


def _shrinking_instance(weighted=False):
    # m=20, n=200: J stays well below n once the first iterates have passed
    prob, planted = generate_instance(seed=1, m=20, n=200, s=3, noise=0.0,
                                      lam=0.1, p=0.5)
    if weighted:
        prob = dataclasses.replace(prob, p=0.3, lam=0.05,
                                   weights=np.linspace(0.02, 0.08, prob.n))
    return prob, planted


def _late_entry_instance():
    # b = e1 + e2 needs column 1, c = (e1 - e2)/sqrt(2), which is orthogonal
    # to b: g_1 = 0 at x = 0, so the unit-norm filler columns, weakly
    # correlated with b, have smaller radii and J starts without it.  Only
    # once x_0 has fitted e1 does the residual turn towards c.
    m, n = 12, 40
    rng = np.random.default_rng(0)
    A = np.zeros((m, n))
    A[0, 0] = 1.0
    A[0, 1], A[1, 1] = np.sqrt(0.5), -np.sqrt(0.5)
    fill = rng.standard_normal((m - 2, n - 2))
    A[2:, 2:] = fill / np.linalg.norm(fill, axis=0)
    A[:2, 2:] = 0.05 * rng.standard_normal((2, n - 2))
    b = np.zeros(m)
    b[:2] = 1.0
    return Problem(A=A, b=b, lam=0.1, p=0.5)


_SCHEDULES = {"pga": Schedule.zero(), "ipga1p": Schedule.geometric(0.1, 0.5),
              "ipga2p": Schedule.geometric(0.3, 0.7)}


@pytest.mark.parametrize("algo", ["pga", "ipga1p", "ipga2p"])
@pytest.mark.parametrize("case", ["constant", "stepsize-sequence", "weighted-p0.3",
                                  "late-entry", "wide-start"])
def test_working_set_run_equals_the_full_vector_loop(algo, case):
    if case == "late-entry":
        prob = _late_entry_instance()
    elif case == "wide-start":
        # over half the columns are candidates at x = 0, so the first J is
        # every column; it must shrink once the support has fallen
        prob, _ = generate_instance(seed=1, m=20, n=60, s=3, noise=0.0,
                                    lam=0.1, p=0.5)
    else:
        prob, _ = _shrinking_instance(weighted=case == "weighted-p0.3")
    v = default_stepsize(prob)
    steps = (0.5 * v, 0.7 * v, 0.9 * v, v) if case == "stepsize-sequence" else v
    cfg = SolverConfig(v=steps, inexact=_SCHEDULES[algo])
    trace = solvers.runner(algo)(prob, cfg)
    iterates, step_norms, certified, bounds = _full_vector_run(prob, cfg, algo)
    for k, x in enumerate(iterates):
        assert trace.iterate(k).tobytes() == x.tobytes(), k
        assert trace.supports[k] == tuple(np.flatnonzero(x).tolist()), k
        assert trace.f_values[k] == objective(prob, x), k
    assert len(trace) == len(iterates)
    assert trace.mean_working_set < 0.6 * prob.n
    # the solver's step norm sums over J, the reference's over all n
    assert_allclose(trace.step_norms, step_norms, rtol=4e-16, atol=0.0)
    if algo != "pga":
        assert len(trace.coord_sets) == len(certified)
        for k, cols in enumerate(trace.coord_sets):
            off = np.ones(prob.n, dtype=bool)
            off[cols] = False
            for row, ref in ((trace.coord_certified[k], certified[k]),
                             (trace.coord_bounds[k], bounds[k])):
                assert row.tobytes() == ref[cols].tobytes(), k
                assert not ref[off].any(), k  # 0 off J
    # a new stepsize rebuilds the kernel constants, so it refreshes J
    changes = [k for k in range(1, len(trace.stepsizes))
               if trace.stepsizes[k] != trace.stepsizes[k - 1]]
    assert set(changes) <= set(trace.refreshes)
    assert trace.refreshes[0] == 0 and trace.full_products == len(trace.refreshes)
    if case == "stepsize-sequence":
        assert changes == [1, 2, 3]
    if case == "wide-start":
        sizes = [trace.working_set_sizes[k] for k in trace.refreshes]
        assert sizes[0] == prob.n and len(sizes) > 1 and sizes[-1] < prob.n / 2


def test_a_column_outside_the_working_set_enters_the_support(monkeypatch):
    # column 1 is left out of the first J; a drift refresh lets it in, and
    # it ends in the support, as in the full-vector loop
    prob = _late_entry_instance()
    working_sets = []
    choose = solvers._working_set

    def recording(s, support):
        J, rho = choose(s, support)
        working_sets.append(J.tolist())
        return J, rho

    monkeypatch.setattr(solvers, "_working_set", recording)
    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob)))
    assert trace.converged and len(working_sets) == trace.full_products
    assert 1 not in working_sets[0]
    entry = next(k for k, supp in enumerate(trace.supports) if 1 in supp)
    assert entry > trace.refreshes[1] and 1 in trace.supports[-1]


def _cut_is_out_of_reach(cols, col_norm, kernel, v, r_ref, gamma, tested):
    """Move r_ref by each tested column's own radius s_j, straight along a_j,
    and assert that the computed z_j = -v g_j still falls short of the
    kernel's cut; returns the number of columns checked."""
    g_ref = 2.0 * np.vecdot(cols, r_ref)
    s = solvers._radii(kernel, g_ref, col_norm, np.linalg.norm(r_ref), gamma)
    checked = 0
    for j in tested[s[tested] > 0.0]:
        step = s[j] * np.sign(g_ref[j]) * cols[j] / col_norm[j]
        for _ in range(20):
            r = r_ref + step
            drift = np.linalg.norm(r - r_ref)  # what the loop measures
            if drift <= s[j]:
                break
            step *= (s[j] / drift) * (1.0 - 1e-12)
        else:
            continue  # r_ref + step rounds too coarsely at this radius
        a = abs(0.0 - v * (2.0 * np.vecdot(cols[j], r)))
        assert a < kernel.cut[j], j
        checked += 1
    return checked


def test_drift_radius_is_safe_in_the_worst_direction():
    # Without the rounding margin, about half of these columns would land
    # on or past the cut.
    rng = np.random.default_rng(11)
    m, n, k = 30, 400, 10
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    prob = Problem(A=A, b=np.zeros(m), lam=1.0, p=0.5)
    v = default_stepsize(prob)
    cols = _columns(A)
    col_norm = np.sqrt(np.vecdot(cols, cols))
    gamma = (m + 4) * solvers.EPS
    checked = far = 0
    for trial in range(8):
        kernel = _Prepared(v, prob.lambda_vec * rng.uniform(0.5, 2.0), prob.p)
        # |g| spreads around cut/v, so many columns sit just below the cut
        r_ref = rng.standard_normal(m) * (kernel.cut[0] / v) * rng.uniform(0.5, 3.0)
        checked += _cut_is_out_of_reach(cols, col_norm, kernel, v, r_ref, gamma,
                                        np.arange(n))
        # ||r_ref|| a million times cut/v, all of it orthogonal to k tested
        # columns whose |g_j| sit a hair below cut_j/v: the rounding of g_j
        # grows with ||r_ref||, and only the margin's 2 gamma ||r_ref|| term
        # covers it
        tested = np.sort(rng.choice(n, size=k, replace=False))
        A_t = A[:, tested]
        target = (rng.choice([-1.0, 1.0], size=k) * (kernel.cut[tested] / v)
                  * (1.0 - rng.uniform(1e-7, 1e-6, size=k)))
        r_ref = A_t @ np.linalg.solve(A_t.T @ A_t, 0.5 * target)  # 2 A_t^T r_ref
        away = np.linalg.qr(A_t, mode="complete")[0][:, k:] @ rng.standard_normal(m - k)
        r_ref = r_ref + away * (1e6 * kernel.cut[0] / v / np.linalg.norm(away))
        far += _cut_is_out_of_reach(cols, col_norm, kernel, v, r_ref, gamma, tested)
    assert checked > 500 and far > 60
