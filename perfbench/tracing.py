"""Per-layer tracing from outside the package.

The layers are lpreg's modules.  Their modules import each other's names
directly (``from .prox import prox_scalar``), so a wrapper only takes effect
where it replaces the name in the *calling* module.  ``Tracer`` therefore
replaces every reference to a wrapped function in every ``lpreg`` module,
the package namespace included, and restores the originals on exit.

Each wrapper counts calls and inclusive seconds.  A span's self time is its
duration minus the time of the wrapped spans it directly caused; a layer's
self time is the sum of the self times of its wrapped functions.
"""

from __future__ import annotations

import functools
import sys
import time

# Wrapped public functions, by the module (layer) that defines them.
WRAPPED = {
    "problem": ("objective", "gradient_smooth", "spectral_norm_sq",
                "load_problem", "save_trace", "load_trace"),
    "prox": ("prox_scalar", "prox_scalar_half", "prox_inexact_value",
             "prox_oracle"),
    "solvers": ("run_pga", "run_ipga_1p", "run_ipga_2p", "residual_on_support",
                "default_stepsize", "certify_value_control",
                "certify_dist_control"),
    "analysis": ("certify_h1", "certify_h2", "estimate_beta", "fit_rate",
                 "detect_support_identification"),
    "optimality": ("classify_point", "growth_probe", "enumerate_local_minima",
                   "equivalence_harness"),
    "experiments": ("reference_solution",),
    "cli": ("main",),
}
LAYERS = tuple(WRAPPED)
SOLVER_RUNS = ("run_pga", "run_ipga_1p", "run_ipga_2p")


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Context manager that wraps every function in WRAPPED while active."""

    def __init__(self, lpreg):
        self.lpreg = lpreg
        self.stats = {}
        self.iters = 0
        self._child_time = []  # one accumulator per open span
        self._patched = []

    def _wrap(self, key, fn, count_iters):
        stat = self.stats[key] = _Stat()
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child_time.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - inner
                if child_time:
                    child_time[-1] += dt
            if count_iters:
                self.iters += len(out) - 1
            return out

        return wrapper

    def __enter__(self):
        modules = [self.lpreg] + [
            mod for name, mod in sys.modules.items()
            if name.startswith(self.lpreg.__name__ + ".") and mod is not None
        ]
        wrappers = {}
        for layer, names in WRAPPED.items():
            mod = getattr(self.lpreg, layer)
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn,
                                                   name in SOLVER_RUNS))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    def layer_self_s(self, layer):
        return sum(s.self_time for key, s in self.stats.items()
                   if key.split(".", 1)[0] == layer)

    def uncovered(self, expected):
        """Names a workload should exercise that recorded zero calls."""
        return sorted(key for key in expected if self.stats[key].calls == 0)

    def metrics(self):
        """Per-layer metrics: value and unit by name."""
        st = self.stats
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for key in ("prox.prox_scalar", "prox.prox_inexact_value",
                    "prox.prox_oracle", "problem.spectral_norm_sq",
                    "problem.objective", "problem.gradient_smooth",
                    "solvers.residual_on_support", "analysis.estimate_beta",
                    "optimality.growth_probe"):
            put(f"{key}.calls", st[key].calls, "count")
        for key in ("prox.prox_scalar", "prox.prox_inexact_value",
                    "prox.prox_oracle", "prox.prox_scalar_half",
                    "problem.spectral_norm_sq", "problem.objective",
                    "problem.gradient_smooth", "solvers.residual_on_support",
                    "problem.load_problem", "problem.save_trace",
                    "problem.load_trace", "cli.main",
                    "analysis.certify_h1", "analysis.certify_h2",
                    "analysis.fit_rate", "analysis.detect_support_identification",
                    "optimality.classify_point", "optimality.growth_probe",
                    "optimality.equivalence_harness",
                    "experiments.reference_solution"):
            put(f"{key}.s", st[key].total, "s")
        scalar = st["prox.prox_scalar"]
        put("prox.prox_scalar.us_per_call",
            1e6 * scalar.total / scalar.calls if scalar.calls else 0.0, "us")
        for layer in LAYERS:
            put(f"{layer}.self_s", self.layer_self_s(layer), "s")
        solve_s = sum(st[f"solvers.{name}"].total for name in SOLVER_RUNS)
        put("solvers.iters", self.iters, "count")
        put("solvers.us_per_iter",
            1e6 * solve_s / self.iters if self.iters else 0.0, "us")
        return out
