import math
import signal

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpreg import (
    Problem,
    ProxQuery,
    lower_bound,
    prox_inexact_dist,
    prox_inexact_value,
    prox_oracle,
    prox_scalar,
    prox_scalar_half,
    prox_vector,
)
from lpreg.errors import ValidationError


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


def test_inexact_value_zero_budget():
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    y, gap = prox_inexact_value(q, 0.0)
    assert y == prox_scalar(q).selection
    assert gap == 0.0


def test_inexact_value_consumes_budget():
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    exact = prox_scalar(q)
    y, gap = prox_inexact_value(q, 1e-3, knob=1.0)
    assert y != exact.selection
    assert 0.0 < gap <= 1e-3
    # the reported gap is the recomputed one
    assert_allclose(gap, g_val(q, y) - exact.value, rtol=1e-9, atol=1e-15)


def test_inexact_value_huge_budget_stays_feasible():
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    y, gap = prox_inexact_value(q, 1e9, knob=1.0)
    assert gap <= 1e9
    assert abs(y) <= abs(q.z)


def test_inexact_value_budget_never_exceeded():
    rng = np.random.default_rng(4)
    for _ in range(200):
        q = ProxQuery(z=float(rng.uniform(-12, 12)), v=float(rng.uniform(0.05, 3)),
                      lam=float(rng.uniform(0.1, 5)), p=float(rng.uniform(0.2, 0.8)))
        budget = float(rng.uniform(0, 1e-2))
        y, gap = prox_inexact_value(q, budget, knob=float(rng.uniform(0, 1)))
        assert gap <= budget
        exact = prox_scalar(q)
        assert g_val(q, y) - exact.value <= budget + 1e-12 * (1 + exact.value)


def test_inexact_dist_zero_budget():
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    y, d = prox_inexact_dist(q, 0.0)
    assert y == prox_scalar(q).selection and d == 0.0


def test_inexact_dist_exact_shift():
    q = ProxQuery(z=10.0, v=1.0, lam=1.0, p=0.5)
    y, d = prox_inexact_dist(q, 1e-3, knob=1.0)
    assert_allclose(d, 1e-3, rtol=1e-12)
    assert abs(y - prox_scalar(q).selection) == d


def test_inexact_dist_zero_minimizer():
    q = ProxQuery(z=0.5, v=1.0, lam=1.0, p=0.5)
    y, d = prox_inexact_dist(q, 1e-3, knob=1.0)
    assert abs(y) <= 1e-3 and d <= 1e-3


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
    with pytest.raises(ValidationError):
        prox_inexact_value(q, -1.0)
    with pytest.raises(ValidationError):
        prox_inexact_dist(q, -0.5)
    with pytest.raises(ValidationError):
        prox_inexact_value(q, 1.0, knob=2.0)


def test_inexact_value_returns_at_a_tie():
    # At this threshold tie prox_scalar selects 0 but reports the value of
    # the nonzero root, so g(0) sits 3.7e-12 above the certified minimum:
    # more than the budget.  The search must stop at y* instead of halving
    # a zero perturbation forever.
    q = ProxQuery(z=0.8189641269819701, v=0.09875652480916083,
                  lam=4.085024172081335, p=0.5)
    exact = prox_scalar(q)
    assert exact.tie and g_val(q, exact.selection) - exact.value > 9.3e-13

    def expire(signum, frame):
        raise TimeoutError("prox_inexact_value did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        y, gap = prox_inexact_value(q, 9.3e-13)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert (y, gap) == (exact.selection, 0.0)
