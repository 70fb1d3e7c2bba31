"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The three canned experiments are shared across criteria through
module-scoped fixtures, so the whole gate runs each of them twice (the
second run feeds the byte-identical reproducibility check).  The fixtures
also count the solver runs of ``linear`` and the growth probes of
``equivalence``, so that no repeated work creeps back in.
"""

import collections
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
from lpreg import optimality, solvers
from lpreg.experiments import (
    EXPERIMENTS,
    exp_equivalence,
    exp_linear,
    exp_prox_pin,
    run_experiment,
)
from lpreg.problem import SPECTRAL_TOL


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _timed_counting(fn, module, names):
    """``_timed(fn)`` with ``module``'s ``names`` patched to count their
    calls; returns the result, the time and the counts by name."""
    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            mp.setattr(module, name, counted)
        return (*_timed(fn), calls)


def _failures(result, *names):
    """``linear``'s failures in the reports of ``names``."""
    return [f for f in result.failures if f.split(":")[0] in names]


@pytest.fixture(scope="module")
def prox_pin():
    return _timed(exp_prox_pin)


@pytest.fixture(scope="module")
def linear():
    return _timed_counting(exp_linear, solvers,
                           ("run_pga", "run_ipga_1p", "run_ipga_2p"))


@pytest.fixture(scope="module")
def equivalence():
    return _timed_counting(exp_equivalence, optimality, ("growth_probe",))


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


def test_criterion_2_magnitude_law(prox_pin, linear):
    result, _ = prox_pin
    assert result.summary["magnitude_law_violations"] == 0
    exp = linear[0]
    violations = 0
    for prob, cfg, trace in zip(exp.artifacts["problems"],
                                exp.artifacts["pga"]["configs"],
                                exp.artifacts["pga"]["traces"]):
        bound = lower_bound(cfg.v_lo, prob.lambda_lower, prob.p) - 1e-12
        for xs in trace.values[1:]:
            if xs.size and np.abs(xs).min() < bound:
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 2 nonzero-magnitude-law: PASS (0 violations)")


def test_criterion_3_exact_pga_linear_convergence(linear):
    result, elapsed, _ = linear
    s = result.summary["pga"]
    assert not _failures(result, "pga-linear"), result.failures
    assert s["r2_min"] >= 0.98
    assert 0.0 < s["eta_max"] < 1.0
    # the bound covers the whole rate pass: all three methods
    assert elapsed < 60.0, f"linear experiment took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 exact-pga-linear: PASS "
          f"(eta_max {s['eta_max']:.4f}, r2_min {s['r2_min']:.4f}, "
          f"rate pass {elapsed:.1f}s)")


def test_criterion_4_inexact_pga_linear_convergence(linear):
    result = linear[0]
    assert not _failures(result, "ipga1-linear", "ipga2-linear"), result.failures
    for algo in ("ipga1p", "ipga2p"):
        s = result.summary[algo]
        assert s["r2_min"] >= 0.95
        assert 0.0 < s["eta_max"] < 1.0
        assert s["limit_matches"] >= 18
    r1 = result.summary["ipga1p"]
    r2 = result.summary["ipga2p"]
    print(f"\nACCEPTANCE 4 inexact-pga-linear: PASS "
          f"(value-type r2_min {r1['r2_min']:.4f} matches {r1['limit_matches']}/20; "
          f"distance-type r2_min {r2['r2_min']:.4f} matches {r2['limit_matches']}/20)")


def test_criterion_5_equivalence_harness(equivalence):
    result, elapsed, _ = equivalence
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


def test_criterion_7_condition_certification_closure(linear):
    art = linear[0].artifacts
    for prob, cfg, trace in zip(art["problems"], art["pga"]["configs"],
                                art["pga"]["traces"]):
        alpha = 1.0 / (2.0 * cfg.v_hi) - (spectral_norm_sq(prob) + SPECTRAL_TOL)
        assert alpha > 0
        h1 = certify_h1(trace, alpha=alpha)
        assert h1.ok, (h1.worst_index, h1.worst_violation)
        h2 = certify_h2(prob, trace, beta="auto")
        assert h2.ok, (h2.worst_index, h2.worst_violation)
    for prob, cfg, trace in zip(art["problems"], art["ipga1p"]["configs"],
                                art["ipga1p"]["traces"]):
        alpha = 1.0 / (2.0 * cfg.v_hi) - (spectral_norm_sq(prob) + SPECTRAL_TOL)
        h1 = certify_h1(trace, alpha=alpha)  # eps_k^2 = summed value gaps
        assert h1.ok, (h1.worst_index, h1.worst_violation)
    for prob, trace in zip(art["problems"], art["ipga2p"]["traces"]):
        h2 = certify_h2(prob, trace, beta="auto")  # eps_k = distance norms
        assert h2.ok, (h2.worst_index, h2.worst_violation)
    print("\nACCEPTANCE 7 condition-certification-closure: PASS "
          "(20 exact + 20 value-type + 20 distance-type traces)")


def test_criterion_8_reproducibility(prox_pin, linear, equivalence):
    first = {
        "prox-pin": prox_pin[0],
        "linear": linear[0],
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
    print(f"\nACCEPTANCE 8 reproducibility: PASS ({len(first)} experiments, "
          f"{sum(len(r.files) for r in first.values())} files, "
          f"re-rendered byte-identically)")


def test_each_result_is_computed_once(linear, equivalence):
    # one run per method and instance; one probe per enumerated local
    # minimum, the zero point included
    assert linear[2] == {"run_pga": 20, "run_ipga_1p": 20, "run_ipga_2p": 20}
    assert equivalence[2] == {"growth_probe": 35}
