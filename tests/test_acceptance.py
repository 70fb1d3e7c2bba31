"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The canned experiments are shared across criteria through
module-scoped fixtures, so the whole gate runs each of them at most twice
(the second run feeds the byte-identical reproducibility check).
"""

import time

import numpy as np
import pytest

from lpreg import (
    certify_h1,
    certify_h2,
    check_geometric_recursion,
    lower_bound,
    spectral_norm_sq,
)
from lpreg.experiments import (
    EXPERIMENTS,
    exp_equivalence,
    exp_ipga1_linear,
    exp_ipga2_linear,
    exp_pga_linear,
    exp_prox_pin,
    run_experiment,
)
from lpreg.problem import SPECTRAL_TOL


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def prox_pin():
    return _timed(exp_prox_pin)


@pytest.fixture(scope="module")
def pga_linear():
    return _timed(exp_pga_linear)


@pytest.fixture(scope="module")
def ipga1_linear():
    return _timed(exp_ipga1_linear)


@pytest.fixture(scope="module")
def ipga2_linear():
    return _timed(exp_ipga2_linear)


@pytest.fixture(scope="module")
def equivalence():
    return _timed(exp_equivalence)


def test_criterion_1_prox_oracle_equivalence(prox_pin):
    result, elapsed = prox_pin
    s = result.summary
    assert s["n_queries"] == 10_000
    assert s["worst_argmin_err"] <= 1e-7
    assert s["worst_value_err"] <= 1e-10
    assert s["worst_half_err"] <= 1e-10
    assert elapsed < 30.0, f"prox oracle sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 prox-oracle-equivalence: PASS "
          f"(argmin {s['worst_argmin_err']:.2e}, value {s['worst_value_err']:.2e}, "
          f"half {s['worst_half_err']:.2e}, {elapsed:.1f}s)")


def test_criterion_2_magnitude_law(prox_pin, pga_linear):
    result, _ = prox_pin
    assert result.summary["magnitude_law_violations"] == 0
    exp, _ = pga_linear
    violations = 0
    for prob, cfg, trace in zip(exp.artifacts["problems"],
                                exp.artifacts["configs"],
                                exp.artifacts["traces"]):
        bound = lower_bound(cfg.v_lo, prob.lambda_lower, prob.p) - 1e-12
        for xs in trace.values[1:]:
            if xs.size and np.abs(xs).min() < bound:
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 2 nonzero-magnitude-law: PASS (0 violations)")


def test_criterion_3_exact_pga_linear_convergence(pga_linear):
    result, elapsed = pga_linear
    assert result.ok, result.failures
    assert result.summary["r2_min"] >= 0.98
    assert 0.0 < result.summary["eta_max"] < 1.0
    assert elapsed < 60.0, f"PGA experiment took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 exact-pga-linear: PASS "
          f"(eta_max {result.summary['eta_max']:.4f}, "
          f"r2_min {result.summary['r2_min']:.4f}, {elapsed:.1f}s)")


def test_criterion_4_inexact_pga_linear_convergence(ipga1_linear, ipga2_linear):
    for result, _ in (ipga1_linear, ipga2_linear):
        assert result.ok, result.failures
        assert result.summary["r2_min"] >= 0.95
        assert 0.0 < result.summary["eta_max"] < 1.0
        assert result.summary["limit_matches"] >= 18
    r1 = ipga1_linear[0].summary
    r2 = ipga2_linear[0].summary
    print(f"\nACCEPTANCE 4 inexact-pga-linear: PASS "
          f"(value-type r2_min {r1['r2_min']:.4f} matches {r1['limit_matches']}/20; "
          f"distance-type r2_min {r2['r2_min']:.4f} matches {r2['limit_matches']}/20)")


def test_criterion_5_equivalence_harness(equivalence):
    result, elapsed = equivalence
    assert result.ok, result.failures
    assert elapsed < 120.0, f"equivalence harness took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 optimality-equivalence: PASS "
          f"({result.summary['instances']} instances, "
          f"t* {result.summary['t_star']:.8f}, {elapsed:.1f}s)")


def test_criterion_6_recursion_bound():
    rng = np.random.default_rng(1234)
    failures = 0
    for _ in range(1000):
        eta = float(rng.uniform(0.1, 0.9))
        if rng.uniform() < 0.5:
            rho = float(rng.uniform(0.05, 1.0)) * eta  # ratio below eta
        else:
            rho = float(rng.uniform(0.05, 0.98))       # independent ratio < 1
        n = int(rng.integers(10, 80))
        scale = float(rng.uniform(0.1, 5.0))
        d = (scale * rho ** np.arange(n)).tolist()
        a = [float(rng.uniform(0.0, 3.0))]
        for k in range(n - 1):
            a.append(float(rng.uniform(0.0, 1.0)) * (eta * a[-1] + d[k]))
        cert = check_geometric_recursion(a, d, eta=eta)
        if not (cert.hypothesis_ok and cert.dominated):
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 6 recursion-bound: PASS (1000 triples, 0 failures)")


def test_criterion_7_condition_certification_closure(pga_linear, ipga1_linear,
                                                     ipga2_linear):
    exp, _ = pga_linear
    for prob, cfg, trace in zip(exp.artifacts["problems"],
                                exp.artifacts["configs"],
                                exp.artifacts["traces"]):
        alpha = 1.0 / (2.0 * cfg.v_hi) - (spectral_norm_sq(prob) + SPECTRAL_TOL)
        assert alpha > 0
        h1 = certify_h1(trace, alpha=alpha)
        assert h1.ok, (h1.worst_index, h1.worst_violation)
        h2 = certify_h2(prob, trace, beta="auto")
        assert h2.ok, (h2.worst_index, h2.worst_violation)
    exp1, _ = ipga1_linear
    for prob, cfg, trace in zip(exp1.artifacts["problems"],
                                exp1.artifacts["configs"],
                                exp1.artifacts["traces"]):
        alpha = 1.0 / (2.0 * cfg.v_hi) - (spectral_norm_sq(prob) + SPECTRAL_TOL)
        h1 = certify_h1(trace, alpha=alpha)  # eps_k^2 = summed value gaps
        assert h1.ok, (h1.worst_index, h1.worst_violation)
    exp2, _ = ipga2_linear
    for prob, trace in zip(exp2.artifacts["problems"], exp2.artifacts["traces"]):
        h2 = certify_h2(prob, trace, beta="auto")  # eps_k = distance norms
        assert h2.ok, (h2.worst_index, h2.worst_violation)
    print("\nACCEPTANCE 7 condition-certification-closure: PASS "
          "(20 exact + 20 value-type + 20 distance-type traces)")


def test_criterion_8_reproducibility(prox_pin, pga_linear, ipga1_linear,
                                     ipga2_linear, equivalence):
    first = {
        "prox-pin": prox_pin[0],
        "pga-linear": pga_linear[0],
        "ipga1-linear": ipga1_linear[0],
        "ipga2-linear": ipga2_linear[0],
        "equivalence": equivalence[0],
    }
    assert set(first) == set(EXPERIMENTS)
    for name, result in first.items():
        rerun = run_experiment(name)
        assert rerun.files.keys() == result.files.keys()
        for fname in result.files:
            assert rerun.files[fname] == result.files[fname], (
                f"{name}: {fname} differs between runs"
            )
    print("\nACCEPTANCE 8 reproducibility: PASS "
          "(5 experiments re-rendered byte-identically)")
