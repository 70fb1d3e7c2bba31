"""Command-line interface.

Subcommands: generate, solve, prox-table, certify, rate, certify-point,
enumerate, repro.  Every run writes a manifest (command line, configuration
echo, input hashes, outputs, timing) next to its outputs; rerunning a
command with the same flags reproduces the data files byte-for-byte.

Exit codes: 0 success, 1 usage or validation error, 2 solver hit max_iters,
3 certification or reproduction check failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analysis, experiments, optimality, problem, prox, solvers
from .errors import LpregError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CHECK_FAILED = 3


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    config: dict
    seed: int | None
    versions: dict = field(default_factory=dict)
    input_hashes: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    wall_clock_s: float = 0.0
    stats: dict | None = None  # the solver's work counts (solve only)

    def write(self, out_dir: Path) -> Path:
        self.versions = {
            "lpreg": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        path = out_dir / f"{self.command}-manifest.json"
        data = asdict(self)
        if self.stats is None:
            del data["stats"]
        _json_dump(path, data)
        return path


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _say(args, message):
    if not args.quiet:
        print(message)


def _positive(text: str) -> float:
    """A flag value that is a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return value


def _auto_or_positive(text: str):
    """A flag value that is 'auto' or a positive finite number."""
    return text if text == "auto" else _positive(text)


def _positive_int(text: str) -> int:
    """A flag value that is an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _json_point(text: str) -> np.ndarray:
    """A flag value that is a JSON array of numbers."""
    try:
        return np.asarray(json.loads(text), dtype=np.float64)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected a JSON array of numbers, got {text!r}") from None


def _json_dump(path: Path, data) -> None:
    # one write of the whole text; json.dump writes every piece it encodes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True))
        fh.write("\n")


def cmd_generate(args) -> tuple[int, dict]:
    prob, planted = problem.generate_instance(
        seed=args.seed, m=args.m, n=args.n, s=args.s,
        noise=args.noise, lam=args.lam, p=args.p,
    )
    out = args.out_dir / args.out
    problem.save_problem(out, prob)
    planted_path = args.out_dir / (out.stem + "-planted.json")
    _json_dump(planted_path, {"x": planted.tolist()})
    _say(args, f"generate: wrote {out} (m={args.m} n={args.n} s={args.s})")
    return EXIT_OK, dict(
        config={k: getattr(args, k) for k in ("seed", "m", "n", "s", "noise", "lam", "p")},
        seed=args.seed,
        outputs=[str(out), str(planted_path)],
    )


def _solver_config(args, prob) -> solvers.SolverConfig:
    inexact = solvers.Schedule.zero()
    if args.inexact is not None:
        if args.algo == "pga":
            raise ValidationError("pga takes no --inexact schedule")
        inexact = solvers.Schedule.geometric(*args.inexact)
    v = args.v if args.v is not None else solvers.default_stepsize(prob)
    return solvers.SolverConfig(
        v=v, max_iters=args.max_iters, stop_tol=args.tol, inexact=inexact,
    )


def cmd_solve(args) -> tuple[int, dict]:
    prob = problem.load_problem(args.problem)
    config = _solver_config(args, prob)
    trace = solvers.runner(args.algo)(prob, config)
    trace_path = args.out_dir / args.trace_out
    problem.save_trace(trace_path, trace)
    status = "converged" if trace.converged else "max-iters"
    _say(args, f"solve[{args.algo}]: {status} after {len(trace) - 1} steps, "
               f"F={trace.f_values[-1]:.12g}, trace -> {trace_path}")
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE, dict(
        config={
            "algo": args.algo, "v": list(config.v),
            "max_iters": config.max_iters, "stop_tol": config.stop_tol,
            "inexact": args.inexact,
        },
        seed=None,
        input_hashes={args.problem: _hash_file(args.problem)},
        outputs=[str(trace_path)],
        stats={"full_products": trace.full_products,
               "mean_working_set": trace.mean_working_set},
    )


def cmd_prox_table(args) -> tuple[int, dict]:
    lines = ["z,v,lambda,p,argmin,value,tie"]
    for z in np.linspace(args.z_min, args.z_max, args.z_count).tolist():
        res = prox.prox_scalar(prox.ProxQuery(z=z, v=args.v, lam=args.lam, p=args.p))
        lines.append(f"{z:.17g},{args.v:.17g},{args.lam:.17g},{args.p:.17g},"
                     f"{res.selection:.17g},{res.value:.17g},{int(res.tie)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = args.out_dir / args.out
        out.write_text(text, encoding="utf-8")
        outputs = [str(out)]
        _say(args, f"prox-table: wrote {out} ({args.z_count} rows)")
    else:
        sys.stdout.write(text)
        outputs = []
    return EXIT_OK, dict(
        config={k: getattr(args, k) for k in ("z_min", "z_max", "z_count", "v", "lam", "p")},
        seed=None, outputs=outputs,
    )


def cmd_certify(args) -> tuple[int, dict]:
    prob = problem.load_problem(args.problem)
    trace = problem.load_trace(args.trace)
    v_lo = args.v if args.v is not None else solvers.default_stepsize(prob)
    a_sq = problem.spectral_upper_bound(prob)
    if args.alpha == "auto":
        alpha = 1.0 / (2.0 * v_lo) - a_sq
    else:
        alpha = args.alpha
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValidationError(f"nonpositive alpha {alpha}; stepsize too large?")
    h1 = analysis.certify_h1(trace, alpha)
    h2 = analysis.certify_h2(prob, trace, beta=args.beta, v_lo=v_lo)
    report = {"h1": asdict(h1), "h2": asdict(h2), "ok": h1.ok and h2.ok}
    out = args.out_dir / args.report_out
    _json_dump(out, report)
    _say(args, json.dumps(report, sort_keys=True))
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED, dict(
        config={"alpha": args.alpha, "beta": args.beta, "v": v_lo},
        seed=None,
        input_hashes={p: _hash_file(p) for p in (args.problem, args.trace)},
        outputs=[str(out)],
    )


def cmd_rate(args) -> tuple[int, dict]:
    if args.fstar is None and args.problem is None:
        raise ValidationError("rate needs --fstar or --problem for the reference value")
    trace = problem.load_trace(args.trace)
    if args.fstar is not None:
        f_star = args.fstar
    else:
        prob = problem.load_problem(args.problem)
        _, f_star = experiments.reference_solution(prob)
    est = analysis.fit_rate(trace, "objective-gap", f_star=f_star,
                            tail_frac=args.tail_frac)
    report = {
        "eta_hat": est.eta_hat, "c_hat": est.c_hat, "r2": est.r2,
        "tail_start": est.tail_start, "n_points": est.n_points,
        "quantity": est.quantity,
        "linear_convergence_detected": est.linear_convergence_detected,
    }
    out = args.out_dir / args.report_out
    _json_dump(out, report)
    _say(args, json.dumps(report, sort_keys=True))
    return EXIT_OK, dict(
        config={"tail_frac": args.tail_frac, "fstar": args.fstar},
        seed=None,
        input_hashes={args.trace: _hash_file(args.trace)},
        outputs=[str(out)],
    )


def cmd_certify_point(args) -> tuple[int, dict]:
    prob = problem.load_problem(args.problem)
    report = optimality.classify_point(prob, args.point, fo_tol=args.fo_tol,
                                       so_tol=args.so_tol)
    probe = None
    if args.probe:
        probe = optimality.growth_probe(prob, args.point, seed=args.seed)
    data = {
        "classification": report.classification,
        "support": list(report.support),
        "first_order_residual": report.first_order_residual,
        "second_order_min_eig": report.second_order_min_eig,
    }
    if probe is not None:
        data["growth_probe"] = {
            "eps_hat": probe.eps_hat, "delta": probe.delta,
            "n_samples": probe.n_samples, "violations": probe.violations,
        }
    print(json.dumps(data, sort_keys=True))
    out = args.out_dir / args.report_out
    _json_dump(out, data)
    return EXIT_OK, dict(
        config={"fo_tol": args.fo_tol, "so_tol": args.so_tol},
        seed=args.seed,
        input_hashes={args.problem: _hash_file(args.problem)},
        outputs=[str(out)],
    )


def cmd_enumerate(args) -> tuple[int, dict]:
    prob = problem.load_problem(args.problem)
    result = optimality.enumerate_local_minima(prob, seed=args.seed)
    data = {
        "minima": [
            {
                "x": x.tolist(),
                "objective": problem.objective(prob, x),
                "classification": rep.classification,
                "first_order_residual": rep.first_order_residual,
                "second_order_min_eig": rep.second_order_min_eig,
            }
            for x, rep in result.minima
        ],
        "incomplete_orthants": [
            {"support": list(s), "signs": list(g)} for s, g in result.incomplete
        ],
    }
    print(json.dumps(data, sort_keys=True))
    out = args.out_dir / args.report_out
    _json_dump(out, data)
    return EXIT_OK, dict(
        config={}, seed=args.seed,
        input_hashes={args.problem: _hash_file(args.problem)},
        outputs=[str(out)],
    )


def cmd_repro(args) -> tuple[int, dict]:
    result = experiments.run_experiment(args.experiment)
    outputs = []
    for name, text in sorted(result.files.items()):
        path = args.out_dir / name
        path.write_text(text, encoding="utf-8")
        outputs.append(str(path))
    if result.ok:
        _say(args, f"repro {args.experiment}: PASS ({len(outputs)} files)")
        code = EXIT_OK
    else:
        _say(args, f"repro {args.experiment}: FAIL")
        for f in result.failures:
            print(f"  {f}", file=sys.stderr)
        code = EXIT_CHECK_FAILED
    return code, dict(
        command=f"repro-{args.experiment}",
        config={"experiment": args.experiment},
        seed=None, outputs=outputs,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpreg", allow_abbrev=False,
        description="Solvers and certification tools for lp-regularized "
                    "least squares (0 < p < 1).",
    )
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--out-dir", default=".")
    # flags match whole names only: a prefix such as `solve --p` must not
    # pass for `--problem`
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    g = sub.add_parser("generate", help="write a random planted instance")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--m", type=int, default=20)
    g.add_argument("--n", type=int, default=50)
    g.add_argument("--s", type=int, default=5)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--lambda", dest="lam", type=float, default=0.1)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--out", default="problem.lpreg")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run a solver and write its trace")
    s.add_argument("--algo", choices=("pga", "ipga1p", "ipga2p"), default="pga")
    s.add_argument("--problem", required=True)
    s.add_argument("--v", type=float, default=None,
                   help="stepsize (default: 0.495 / ||A||^2)")
    s.add_argument("--inexact", type=float, nargs=2, metavar=("C", "RHO"),
                   help="schedule C * RHO^k: tau_k for ipga1p, t_k for ipga2p")
    s.add_argument("--max-iters", type=int, default=100_000)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--trace-out", default="trace.csv")
    s.set_defaults(func=cmd_solve)

    t = sub.add_parser("prox-table", help="pin the scalar prox on a z grid")
    t.add_argument("--z-min", type=float, default=-10.0)
    t.add_argument("--z-max", type=float, default=10.0)
    t.add_argument("--z-count", type=_positive_int, default=101)
    t.add_argument("--v", type=float, default=1.0)
    t.add_argument("--lambda", dest="lam", type=float, default=1.0)
    t.add_argument("--p", type=float, default=0.5)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_prox_table)

    c = sub.add_parser("certify", help="check descent conditions on a trace")
    c.add_argument("--trace", required=True)
    c.add_argument("--problem", required=True)
    c.add_argument("--alpha", type=_auto_or_positive, default="auto")
    c.add_argument("--beta", type=_auto_or_positive, default="auto")
    c.add_argument("--v", type=_positive, default=None,
                   help="stepsize used by the traced run (default rule if omitted)")
    c.add_argument("--report-out", default="certify-report.json")
    c.set_defaults(func=cmd_certify)

    r = sub.add_parser("rate", help="fit a geometric rate on a trace")
    r.add_argument("--trace", required=True)
    r.add_argument("--problem", default=None)
    r.add_argument("--fstar", type=float, default=None)
    r.add_argument("--tail-frac", type=float, default=0.5)
    r.add_argument("--report-out", default="rate-report.json")
    r.set_defaults(func=cmd_rate)

    cp = sub.add_parser("certify-point", help="classify a point")
    cp.add_argument("--problem", required=True)
    cp.add_argument("--point", type=_json_point, required=True,
                    help="JSON array of length n")
    cp.add_argument("--fo-tol", type=_positive, default=1e-8)
    cp.add_argument("--so-tol", type=_positive, default=1e-10)
    cp.add_argument("--probe", action="store_true",
                    help="attach a growth probe to the report")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--report-out", default="point-report.json")
    cp.set_defaults(func=cmd_certify_point)

    e = sub.add_parser("enumerate", help="enumerate local minima (n <= 12)")
    e.add_argument("--problem", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--report-out", default="enumerate-report.json")
    e.set_defaults(func=cmd_enumerate)

    rp = sub.add_parser("repro", help="run a canned certification experiment")
    rp.add_argument("experiment")
    rp.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    """Parse, run the command and write its manifest into ``--out-dir``.

    Each ``cmd_*`` returns its exit code and its manifest fields; a usage
    error raises ``LpregError`` before any output.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    t0 = time.perf_counter()
    try:
        args.out_dir = Path(args.out_dir)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        code, fields = args.func(args)
    except (LpregError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    fields.setdefault("command", args.command)
    RunManifest(argv=sys.argv[1:], wall_clock_s=time.perf_counter() - t0,
                **fields).write(args.out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
