"""lpreg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; lpreg is imported from its src/.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are the human-readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

# One thread: the BLAS under numpy would otherwise start a thread per core it
# sees, and on a shared host with fewer cores than that those threads wait
# on each other.  Set before numpy is imported; the import timings inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import KNOWN_FAILURES, TAIL_BEYOND, Record, median, tail  # noqa: E402

SETUP_REPS = 7   # set-ups and fresh-interpreter imports for setup_s
MIN_PASSES = 2   # so that each timing is a median over passes even on `large`
DEADLINE_S = 150  # a run must end within 180 s, however slow the host
IMPORT_CODE = ("import time; t0 = time.perf_counter(); import numpy, lpreg, lpreg.cli; "
               "print(time.perf_counter() - t0)")


def import_lpreg():
    """Import lpreg from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "lpreg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lpreg sources under {src}")
    sys.path.insert(0, str(src))
    import lpreg
    import lpreg.cli  # noqa: F401 - the cli module is not imported by the package

    if Path(lpreg.__file__).resolve().parent != src / "lpreg":
        raise SystemExit(f"perfbench: lpreg imported from {lpreg.__file__}, not {src}")
    return lpreg


def import_seconds():
    """Time to import numpy and lpreg in a fresh interpreter.

    One import per process is all a process can time; the child imports the
    same sources as this process, and has ended when this returns.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def set_up(workload):
    """Set the workload up SETUP_REPS times, each with one timed import.

    Returns the inputs and the median of import + set-up over the reps.
    """
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        inputs = workload.setup()
        times.append(perf_counter() - t0 + import_seconds())
    return inputs, median(times)


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(L, args):
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "lpreg": L.__version__, "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(), "src_lines": lines,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, inputs, seconds, deadline):
    """Passes over the same inputs for about ``seconds``.

    A pass starts while it would end within ``seconds`` plus half a pass, so
    that the passes fill the run.  At least MIN_PASSES run, since one pass of
    `large` takes about half of a run, but none that would end after
    ``deadline`` (a perf_counter time).

    Returns the record of all passes, the time of each pass less that of
    its stopped operations, and the samples of each pass.
    """
    rec, pass_s, samples, first = Record(workload.op_limit_s), [], [], None
    start = perf_counter()
    while True:
        one = Record(workload.op_limit_s)
        t0 = perf_counter()
        workload.run_pass(inputs, one)
        took = perf_counter() - t0
        pass_s.append(took - one.stopped_s)
        samples.append(one.samples)
        if first is None:
            first = one.fingerprint
        else:
            with one.op("rerun.fingerprint") as check:
                check(one.fingerprint == first, None, "a rerun on the same inputs differed")
        rec.merge(one)
        now = perf_counter()
        if now + took > deadline:
            break
        if len(pass_s) >= MIN_PASSES and now - start + median(pass_s) / 2 > seconds:
            break
    return rec, pass_s, samples


def end_to_end(rec, pass_s, samples, setup_s, report):
    """The end-to-end metrics and their report lines.

    Each pass repeats the same work, so a median is read off each pass and
    the run reports the median over the passes.  Pooled over the passes, a
    median can fall between two solves of different cost and read the one or
    the other as the host's speed wanders.  The tail is read off the solves
    of the first MIN_PASSES passes pooled: a fixed count, so that it is the
    same rank in every run however many passes fit.
    """
    def per_pass(stat, *keys):
        return median([stat([x for k in keys for x in s[k]]) for s in samples])

    def count(*keys):
        return sum(len(samples[0][k]) for k in keys)

    passes = f"median of {len(pass_s)} passes"
    solves = [x for s in samples[:MIN_PASSES] for k in ("solve_s", "reference_s") for x in s[k]]
    solve_tail, tail_pct = tail(solves)
    ok_frac = (rec.attempted - rec.failed) / rec.attempted
    rows = [
        ("wall_s", median(pass_s), "s", passes),
        ("setup_s", setup_s, "s", f"median of {SETUP_REPS} (import + set-up)"),
        ("solve_s_p50", per_pass(median, "solve_s", "reference_s"), "s",
         f"p50 of the {count('solve_s', 'reference_s')} solves of a pass, {passes}"),
        ("solve_s_tail", solve_tail, "s",
         f"p{tail_pct:.0f} of the {len(solves)} solves of the first {MIN_PASSES} passes, "
         f"{TAIL_BEYOND} beyond it"),
        ("certify_s_p50", per_pass(median, "certify_s"), "s",
         f"p50 of the {count('certify_s')} certifications of a pass, {passes}"),
        ("prox_us_p50", 1e6 * per_pass(median, "prox_s"), "us",
         f"p50 of the {count('prox_s')} samples of a pass, {passes}"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss of this process"),
        ("ok_frac", ok_frac, "ratio",
         f"failed_frac {1.0 - ok_frac:.6f}: {rec.failed} failed of {rec.attempted} attempted"),
    ]
    for name, value, unit, note in rows:
        report.append(f"{name:<14} {value:>14.6f} {unit:<6} {note}")
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}


def per_layer(L, workload, inputs, report):
    """One untraced pass, then the same pass traced; their results must agree."""
    plain = Record(workload.op_limit_s)
    t0 = perf_counter()
    workload.run_pass(inputs, plain)
    plain_s = perf_counter() - t0 - plain.stopped_s
    traced = Record(workload.op_limit_s)
    with tracing.Tracer(L) as tracer:
        t0 = perf_counter()
        workload.run_pass(inputs, traced)
        traced_s = perf_counter() - t0 - traced.stopped_s
    with traced.op("trace.fingerprint") as check:
        check(traced.fingerprint == plain.fingerprint, None,
              "the traced pass gave other iteration counts or values")
    metrics = tracer.metrics()
    uncovered = tracer.uncovered(workload.expected)
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    metrics["trace.uncovered"] = {"value": len(uncovered), "unit": "count"}
    report.append(f"untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s")
    for name in uncovered:
        report.append(f"COVERAGE {name}: 0 calls on {workload.name}, which should "
                      "exercise it; the layer moved or is no longer reached")
    for name, m in metrics.items():
        report.append(f"{name:<42} {m['value']:>16.6f} {m['unit']}")
    plain.merge(traced)
    return plain, metrics


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    deadline = perf_counter() + DEADLINE_S
    L = import_lpreg()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](L, args.seed, args.scale, str(workdir))
        report = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
                  f"trace={args.trace} scale={args.scale}",
                  "provenance " + json.dumps(provenance(L, args), sort_keys=True)]
        if args.trace:
            rec, metrics = per_layer(L, workload, workload.setup(), report)
        else:
            inputs, setup_s = set_up(workload)
            rec, pass_s, samples = run_passes(workload, inputs, args.seconds, deadline)
            metrics = end_to_end(rec, pass_s, samples, setup_s, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for name in sorted(rec.failures):
        known = KNOWN_FAILURES.get(name)
        tag = f"known: {known}" if known else "UNEXPECTED"
        report.append(f"failure {name} x{rec.failures[name]} ({tag}); "
                      f"first: {rec.details[name]}")
    unexpected = rec.unexpected()
    result = {"correct": not unexpected, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    return report, result


def main():
    report, result = run()
    print("\n".join(report))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
