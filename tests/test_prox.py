import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpreg import (
    Problem,
    ProxQuery,
    lower_bound,
    prox_inexact_value,
    prox_oracle,
    prox_scalar,
    prox_scalar_half,
    prox_vector,
)
from lpreg.errors import ValidationError
from lpreg.experiments import ARGMIN_TOL, MAGNITUDE_SLACK, VALUE_TOL
from lpreg.prox import BUDGET_SHARE, GPRIME_TOL, TIE_TOL, _Prepared

from conftest import scalar_newton_oracle


def g_val(q, t):
    return q.lam * abs(t) ** q.p + (t - q.z) ** 2 / (2.0 * q.v)


def test_prox_zero_input():
    res = prox_scalar(ProxQuery(z=0.0, v=1.0, lam=1.0, p=0.5))
    assert res.minimizers == (0.0,)
    assert res.value == 0.0


def test_prox_small_z_stays_zero():
    q = ProxQuery(z=0.5, v=1.0, lam=1.0, p=0.5)
    res = prox_scalar(q)
    assert res.selection == 0.0
    oracle = prox_oracle(q)
    assert oracle.selection == 0.0


def test_prox_large_z_matches_oracle():
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    res = prox_scalar(q)
    assert abs(res.selection - 9.8406) < 1e-3  # pinned magnitude
    oracle = prox_oracle(q)
    assert abs(res.selection - oracle.selection) <= 1e-8
    assert abs(res.value - oracle.value) <= 1e-10 * (1.0 + abs(oracle.value))


def test_prox_query_validation():
    with pytest.raises(ValidationError):
        ProxQuery(z=0.0, v=0.0, lam=1.0, p=0.5)
    with pytest.raises(ValidationError):
        ProxQuery(z=0.0, v=1.0, lam=-1.0, p=0.5)
    with pytest.raises(ValidationError):
        ProxQuery(z=0.0, v=1.0, lam=1.0, p=1.5)
    with pytest.raises(ValidationError):
        ProxQuery(z=math.nan, v=1.0, lam=1.0, p=0.5)


def test_half_thresholding_agrees_with_general_path():
    rng = np.random.default_rng(1)
    for _ in range(500):
        z = rng.uniform(-15.0, 15.0)
        v = rng.uniform(0.05, 4.0)
        lam = rng.uniform(0.05, 8.0)
        a = prox_scalar(ProxQuery(z=z, v=v, lam=lam, p=0.5))
        b = prox_scalar_half(z, v, lam)
        assert abs(a.selection - b.selection) <= 1e-10 * (1.0 + abs(a.selection))
        assert abs(a.value - b.value) <= 1e-10 * (1.0 + abs(a.value))


def _newton_reference(z, v, lam):
    """Minimizers and value of g at p = 1/2 from the plain Newton solve of
    conftest, started at |z|: no closed form and no prox kernel.  Near the
    tie both 0 and the root are admissible."""
    a, k = abs(z), math.sqrt(0.5 / v)
    g0 = a * a / (2.0 * v)
    t = scalar_newton_oracle(k, k * a, lam, 0.5, t0=a) if a > 0.0 else 0.0
    gt = lam * math.sqrt(t) + (t - a) ** 2 / (2.0 * v)
    if t > 0.0 and abs(g0 - gt) <= 4.0 * TIE_TOL * (1.0 + g0):
        return (0.0, math.copysign(t, z)), min(g0, gt)
    if t > 0.0 and gt < g0:
        return (math.copysign(t, z),), gt
    return (0.0,), g0


HALF_PROXES = {
    "prox_scalar": lambda z, v, lam: prox_scalar(ProxQuery(z=z, v=v, lam=lam, p=0.5)),
    "prox_scalar_half": prox_scalar_half,
}


def _half_queries():
    rng = np.random.default_rng(11)
    for _ in range(300):
        yield (float(rng.uniform(-15.0, 15.0)), float(rng.uniform(0.05, 4.0)),
               float(rng.uniform(0.05, 8.0)))
    for v, lam in ((1.0, 1.0), (0.07, 3.3), (2.5, 0.2)):
        # just above the root-existence bound, where arccos is ill-conditioned
        a_min = 3.0 * (v * lam / 4.0) ** (2.0 / 3.0)
        for e in range(-15, 0):
            yield a_min * (1.0 + 10.0 ** e), v, lam
        # within 1e-9 of the tie point
        a_tie = 1.5 * (v * lam) ** (2.0 / 3.0)
        for off in np.concatenate([[0.0], rng.uniform(-1e-9, 1e-9, size=10)]):
            yield -(a_tie + off), v, lam


@pytest.mark.parametrize("name", sorted(HALF_PROXES))
def test_half_prox_matches_plain_newton(name):
    for z, v, lam in _half_queries():
        res = HALF_PROXES[name](z, v, lam)
        minimizers, value = _newton_reference(z, v, lam)
        assert min(abs(res.selection - m) for m in minimizers) <= 1e-10, (z, v, lam)
        assert abs(res.value - value) <= 1e-10 * (1.0 + abs(value)), (z, v, lam)
        t = abs(res.minimizers[-1])
        if t > 0.0:
            # the returned root passes the kernel's residual check
            r = t + 0.5 * v * lam / math.sqrt(t) - abs(z)
            assert abs(r) <= GPRIME_TOL * (1.0 + v), (z, v, lam, r)


def test_half_thresholding_zero():
    assert prox_scalar_half(0.0, 1.0, 1.0).selection == 0.0


def test_half_threshold_boundary_location():
    # bisection on the oracle's output locates the jump; the closed form
    # puts it at 1.5 * (v lam)^(2/3)
    v, lam = 0.7, 1.3
    z_lo, z_hi = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (z_lo + z_hi)
        if prox_oracle(ProxQuery(z=mid, v=v, lam=lam, p=0.5)).selection == 0.0:
            z_lo = mid
        else:
            z_hi = mid
    closed = 1.5 * (v * lam) ** (2.0 / 3.0)
    assert abs(z_hi - closed) <= 1e-9
    # same bisection over the closed form agrees
    z_lo2, z_hi2 = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (z_lo2 + z_hi2)
        if prox_scalar_half(mid, v, lam).selection == 0.0:
            z_lo2 = mid
        else:
            z_hi2 = mid
    assert abs(z_hi2 - z_hi) <= 1e-9


def test_prox_vector_zero_and_mixed():
    prob = Problem(A=np.eye(2), b=np.zeros(2), lam=1.0, p=0.5)
    sel, value = prox_vector([0.0, 0.0], 1.0, prob)
    assert_allclose(sel, [0.0, 0.0])
    assert_allclose(value, [0.0, 0.0])
    sel, value = prox_vector([0.5, 10.0], 1.0, prob)
    assert sel[0] == 0.0
    assert abs(sel[1] - 9.8406) < 1e-3
    assert value[1] == prox_scalar(ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)).value


def test_prox_vector_permutation_equivariance():
    rng = np.random.default_rng(2)
    prob = Problem(A=np.eye(5), b=np.zeros(5), lam=0.8, p=0.4)
    x = rng.standard_normal(5) * 3.0
    perm = rng.permutation(5)
    out, _ = prox_vector(x, 0.9, prob)
    out_p, _ = prox_vector(x[perm], 0.9, prob)
    assert_allclose(out_p, out[perm], rtol=0, atol=0)


def test_prox_vector_weighted():
    prob = Problem(A=np.eye(2), b=np.zeros(2), lam=1.0, p=0.5,
                   weights=[1.0, 100.0])
    out, _ = prox_vector([3.0, 3.0], 1.0, prob)
    assert out[0] != 0.0
    assert out[1] == 0.0  # heavy weight thresholds the coordinate away


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 0.3, 0.7])
def test_prox_vector_matches_oracle_and_scalar(p):
    # one batch with its own lambda per coordinate; for p = 1/2 the first
    # six coordinates sit at the tie point z = 1.5 (v lam)^(2/3)
    rng = np.random.default_rng(int(p * 10))
    n, v = 40, float(rng.uniform(0.05, 3.0))
    lam = rng.uniform(0.01, 10.0, size=n)
    z = rng.uniform(-20.0, 20.0, size=n)
    if p == 0.5:
        z[:6] = np.array([1, -1] * 3) * 1.5 * (v * lam[:6]) ** (2.0 / 3.0)
    # then the kernel's boundaries on the first four weights, either sign:
    # the candidate cut, one ulp below it, t_lb, the p = 1/2 tie point, 0
    k = _Prepared(v, lam[:4], p)
    edges = (k.cut, np.nextafter(k.cut, 0.0), k.t_lb,
             1.5 * (v * lam[:4]) ** (2.0 / 3.0), np.zeros(4))
    z = np.concatenate([z] + [sign * e for e in edges for sign in (1.0, -1.0)])
    lam = np.concatenate([lam] + [lam[:4]] * 2 * len(edges))
    n = z.size
    prob = Problem(A=np.ones((1, n)), b=np.zeros(1), lam=1.0, p=p, weights=lam)
    sel, value = prox_vector(z, v, prob)
    scalar = [prox_scalar(ProxQuery(z=float(zi), v=v, lam=float(li), p=p))
              for zi, li in zip(z, lam)]
    # bit for bit, so no coordinate's result depends on its batch
    assert np.array_equal(sel.view(np.uint64),
                          np.array([s.selection for s in scalar]).view(np.uint64))
    assert np.array_equal(value, [s.value for s in scalar])
    if p == 0.5:
        assert all(s.tie for s in scalar[:6])
    for i in range(n):
        oracle = prox_oracle(ProxQuery(z=float(z[i]), v=v, lam=float(lam[i]), p=p))
        best = min(oracle.minimizers, key=lambda m: abs(m - sel[i]))
        assert abs(sel[i] - best) <= ARGMIN_TOL
        assert abs(value[i] - oracle.value) <= VALUE_TOL * (1.0 + abs(oracle.value))
        assert sel[i] == 0.0 or abs(sel[i]) >= lower_bound(v, lam[i], p) - MAGNITUDE_SLACK


def test_prox_vector_validation():
    prob = Problem(A=np.ones((1, 3)), b=np.zeros(1), lam=1.0, p=0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            prox_vector([1.0, bad, 2.0], 1.0, prob)
    for v in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            prox_vector([1.0, 0.5, 2.0], v, prob)


def test_prox_accepts_at_the_ieee_floor():
    # Newton and bisection end on a one-ulp bracket whose residual sits
    # above tol but within the rounding noise of r: the answer is accepted,
    # 8.7e-10 from the oracle's, and a batch returns it bit for bit
    q = ProxQuery(z=2364.693070700983, v=1.5497266041996982,
                  lam=41.56004561420721, p=0.8078453948056181)
    assert prox_scalar(q).selection == 2352.987647616549
    prob = Problem(A=np.ones((1, 3)), b=np.zeros(1), lam=1.0, p=q.p,
                   weights=[1.0, q.lam, 2.0])
    sel, _ = prox_vector([5.0, q.z, -7.0], q.v, prob)
    assert sel[1] == 2352.987647616549
    assert sel[0] != 0.0 and sel[2] != 0.0


def _inexact(q, x, tau, value_shift=0.0):
    """prox_inexact_value on the one-coordinate problem of q, stepping from x."""
    prob = Problem(A=np.eye(1), b=np.zeros(1), lam=q.lam, p=q.p)
    z = np.array([q.z])
    y_star, value = prox_vector(z, q.v, prob)
    y, gaps, bounds = prox_inexact_value(z, q.v, prob, y_star, value - value_shift,
                                         np.array([x]), tau)
    return float(y[0]), float(gaps[0]), float(bounds[0])


def test_inexact_value_zero_budget():
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    assert _inexact(q, 0.0, 0.0) == (prox_scalar(q).selection, 0.0, 0.0)


def test_inexact_value_consumes_budget():
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    exact = prox_scalar(q)
    tau = 1e-5
    y, gap, bound = _inexact(q, 0.0, tau)
    delta = exact.selection
    # the closed-form shift, away from x = 0
    assert_allclose(y - exact.selection, np.sqrt(2.0 * q.v * BUDGET_SHARE * tau) * delta,
                    rtol=1e-12)
    assert 0.0 < gap <= BUDGET_SHARE * tau * delta**2 <= bound == tau * y**2
    # the reported gap is the recomputed one
    assert_allclose(gap, g_val(q, y) - exact.value, rtol=1e-9, atol=1e-15)


def test_inexact_value_huge_budget_stays_feasible():
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    y_star = prox_scalar(q).selection
    # the shift is capped at |y*| / 2, away from x on either side of y*
    for x, expected in ((0.0, 1.5 * y_star), (20.0, 0.5 * y_star)):
        y, gap, bound = _inexact(q, x, 1e9)
        assert y == expected
        assert 0.0 < gap <= bound


def test_inexact_value_budget_never_exceeded():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n, v, p = 10, float(rng.uniform(0.05, 3)), float(rng.uniform(0.2, 0.8))
        prob = Problem(A=np.eye(n), b=np.zeros(n), lam=1.0, p=p,
                       weights=rng.uniform(0.1, 5, size=n))
        z = rng.uniform(-12, 12, size=n)
        y_star, value = prox_vector(z, v, prob)
        x = np.where(rng.random(n) < 0.2, y_star, rng.uniform(-12, 12, size=n))
        tau = float(rng.uniform(0, 1e-2))
        y, gaps, bounds = prox_inexact_value(z, v, prob, y_star, value, x, tau)
        assert np.all(gaps <= bounds)
        assert np.array_equal(bounds, tau * (y - x) ** 2)
        for i in range(n):
            qi = ProxQuery(z=float(z[i]), v=v, lam=float(prob.lambda_vec[i]), p=p)
            exact = prox_scalar(qi)
            assert value[i] == exact.value
            # the true gap fits BUDGET_SHARE of the budget tau * delta^2
            budget = BUDGET_SHARE * tau * (y_star[i] - x[i]) ** 2
            assert g_val(qi, y[i]) - exact.value <= budget + 1e-12 * (1 + exact.value)


def test_inexact_value_falls_back_when_gap_exceeds_bound():
    # an understated minimum makes the recomputed gap exceed the bound, so
    # the coordinate returns the exact selection with gap 0
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    y, gap, bound = _inexact(q, 0.0, 1e-5, value_shift=1.0)
    assert (y, gap) == (prox_scalar(q).selection, 0.0)
    assert bound == 1e-5 * y**2


def test_oracle_odd_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = float(rng.uniform(0.1, 15.0))
        v = float(rng.uniform(0.05, 3.0))
        lam = float(rng.uniform(0.1, 5.0))
        p = float(rng.uniform(0.2, 0.8))
        pos = prox_oracle(ProxQuery(z=z, v=v, lam=lam, p=p))
        neg = prox_oracle(ProxQuery(z=-z, v=v, lam=lam, p=p))
        assert_allclose(neg.selection, -pos.selection, rtol=0, atol=0)


def test_oracle_zero():
    assert prox_oracle(ProxQuery(z=0.0, v=1.0, lam=1.0, p=0.5)).selection == 0.0


def test_oracle_search_matches_dense_sweep():
    # the structured bracket search must reproduce the literal grid sweep
    rng = np.random.default_rng(6)
    for _ in range(25):
        q = ProxQuery(z=float(rng.uniform(-20, 20)), v=float(rng.uniform(0.01, 5)),
                      lam=float(rng.uniform(0.01, 10)), p=float(rng.uniform(0.2, 0.8)))
        fast = prox_oracle(q, n_grid=100_001)
        dense = prox_oracle(q, n_grid=100_001, dense=True)
        assert fast == dense


def test_oracle_agreement_sample():
    rng = np.random.default_rng(7)
    for _ in range(300):
        q = ProxQuery(z=float(rng.uniform(-20, 20)), v=float(rng.uniform(0.01, 5)),
                      lam=float(rng.uniform(0.01, 10)), p=float(rng.uniform(0.3, 0.7)))
        fast = prox_scalar(q)
        oracle = prox_oracle(q)
        best = min(oracle.minimizers, key=lambda m: abs(m - fast.selection))
        assert abs(fast.selection - best) <= 1e-7
        assert abs(fast.value - oracle.value) <= 1e-10 * (1 + abs(oracle.value))


def test_lower_bound_law():
    # pinned value at (v=1, lam=1, p=1/2): (1/4)^(2/3)
    assert_allclose(lower_bound(1.0, 1.0, 0.5), 0.25 ** (2.0 / 3.0), rtol=1e-15)
    assert_allclose(lower_bound(1.0, 1.0, 0.5), 0.39685, atol=1e-5)
    rng = np.random.default_rng(8)
    for _ in range(500):
        q = ProxQuery(z=float(rng.uniform(-20, 20)), v=float(rng.uniform(0.01, 5)),
                      lam=float(rng.uniform(0.01, 10)), p=float(rng.uniform(0.2, 0.8)))
        y = prox_scalar(q).selection
        if y != 0.0:
            assert abs(y) >= lower_bound(q.v, q.lam, q.p) - 1e-12


def test_prox_monotone_in_z():
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = float(rng.uniform(0.05, 3.0))
        lam = float(rng.uniform(0.1, 5.0))
        p = float(rng.uniform(0.2, 0.8))
        zs = np.sort(rng.uniform(0.0, 15.0, size=40))
        sels = [prox_scalar(ProxQuery(z=float(z), v=v, lam=lam, p=p)).selection
                for z in zs]
        for a, b in zip(sels, sels[1:]):
            assert b >= a - 1e-12


def test_tie_reporting():
    # exact tie point for p = 1/2 sits at z = 1.5 (v lam)^(2/3)
    v, lam = 1.0, 1.0
    z_tie = 1.5 * (v * lam) ** (2.0 / 3.0)
    res = prox_scalar(ProxQuery(z=z_tie, v=v, lam=lam, p=0.5))
    assert res.tie
    assert res.minimizers[0] == 0.0
    assert res.selection == 0.0  # sparsity-promoting selection
    t_tie = (v * lam) ** (2.0 / 3.0)
    assert abs(res.minimizers[1] - t_tie) <= 1e-6


def test_inexact_validation():
    q = ProxQuery(z=1.0, v=1.0, lam=1.0, p=0.5)
    for tau in (-1.0, math.nan):
        with pytest.raises(ValidationError):
            _inexact(q, 0.0, tau)


def test_inexact_value_returns_at_a_tie():
    # At this threshold tie prox_scalar selects 0 but reports the value of
    # the nonzero root, so g(0) sits 3.7e-12 above the certified minimum:
    # more than the budget.  A zero selection stays at 0 with gap 0.
    q = ProxQuery(z=0.8189641269819701, v=0.09875652480916083,
                  lam=4.085024172081335, p=0.5)
    exact = prox_scalar(q)
    assert exact.tie and g_val(q, exact.selection) - exact.value > 9.3e-13
    y, gap, _ = _inexact(q, 1.0, 9.3e-13)
    assert (y, gap) == (exact.selection, 0.0)
