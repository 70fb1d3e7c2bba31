import base64
import hashlib
import json
import math
import struct
import threading
import time

import numpy as np
import pytest

from lpreg import (
    Problem,
    ProxQuery,
    Schedule,
    SolverConfig,
    default_stepsize,
    generate_instance,
    load_problem,
    load_trace,
    prox_scalar,
    run_pga,
    save_problem,
    save_trace,
    spectral_norm_sq,
)
from lpreg import cli
from lpreg.cli import main
from lpreg.solvers import runner


def run_cli(*argv):
    return main(list(argv))


def test_generate_solve_rate_pipeline(tmp_path):
    out = str(tmp_path)
    assert run_cli("--out-dir", out, "--quiet", "generate", "--seed", "1",
                   "--m", "20", "--n", "50", "--s", "5",
                   "--lambda", "0.1", "--p", "0.5", "--out", "p.lpreg") == 0
    assert run_cli("--out-dir", out, "--quiet", "solve", "--algo", "pga",
                   "--problem", str(tmp_path / "p.lpreg"),
                   "--trace-out", "t.csv") == 0
    assert run_cli("--out-dir", out, "--quiet", "rate",
                   "--trace", str(tmp_path / "t.csv"),
                   "--problem", str(tmp_path / "p.lpreg")) == 0
    report = json.loads((tmp_path / "rate-report.json").read_text())
    assert 0.0 < report["eta_hat"] < 1.0
    assert report["linear_convergence_detected"]


def test_solve_stepsize_violation_exits_1(tmp_path):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.lpreg")
    prob = load_problem(tmp_path / "p.lpreg")
    bad_v = 1.0 / spectral_norm_sq(prob)
    code = run_cli("--out-dir", out, "--quiet", "solve",
                   "--problem", str(tmp_path / "p.lpreg"), "--v", str(bad_v))
    assert code == 1


def test_solve_max_iters_exits_2(tmp_path):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.lpreg")
    code = run_cli("--out-dir", out, "--quiet", "solve",
                   "--problem", str(tmp_path / "p.lpreg"),
                   "--max-iters", "3", "--tol", "0")
    assert code == 2


@pytest.mark.parametrize("flag, value, field", [
    ("--tol", "inf", "stop_tol"), ("--tol", "nan", "stop_tol"),
    ("--max-iters", "0", "max_iters"),
])
def test_solve_bad_stopping_rule_exits_1(tmp_path, capsys, flag, value, field):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.lpreg")
    capsys.readouterr()
    code = run_cli("--out-dir", out, "--quiet", "solve",
                   "--problem", str(tmp_path / "p.lpreg"), flag, value)
    assert code == 1
    assert f"{field} must be" in capsys.readouterr().err


def test_certify_point_zero(tmp_path, capsys):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--n", "4", "--m", "3",
            "--s", "1", "--out", "p.lpreg")
    code = run_cli("--out-dir", out, "certify-point",
                   "--problem", str(tmp_path / "p.lpreg"),
                   "--point", "[0.0, 0.0, 0.0, 0.0]")
    assert code == 0
    data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert data["classification"] == "zero-point"


@pytest.mark.parametrize("command, flags", [
    ("certify-point", ("--point", "[0, 0, 0, 0]", "--probe")),
    ("enumerate", ()),
])
def test_quiet_leaves_stdout_empty(tmp_path, capsys, command, flags):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--n", "4", "--m", "3",
            "--s", "1", "--out", "p.lpreg")
    assert run_cli("--out-dir", out, "--quiet", command,
                   "--problem", str(tmp_path / "p.lpreg"), *flags) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / f"{command}-manifest.json").exists()


def test_prox_table(tmp_path):
    # z = +-1.5 is the threshold tie of p = 1/2 at v = lambda = 1
    out = str(tmp_path)
    code = run_cli("--out-dir", out, "--quiet", "prox-table", "--z-min", "-2",
                   "--z-max", "2", "--z-count", "9", "--out", "tab.csv")
    assert code == 0
    lines = (tmp_path / "tab.csv").read_text().strip().splitlines()
    assert lines[0] == "z,v,lambda,p,argmin,value,tie"
    assert len(lines) == 10
    for z, line in zip(np.linspace(-2.0, 2.0, 9), lines[1:]):
        res = prox_scalar(ProxQuery(z=float(z), v=1.0, lam=1.0, p=0.5))
        assert line == (f"{z:.17g},1,1,0.5,{res.selection:.17g},"
                        f"{res.value:.17g},{int(res.tie)}")
    assert [line[-1] for line in lines[1:]] == list("010000010")


@pytest.mark.parametrize("flag, value", [("--v", "0"), ("--lambda", "-1"),
                                         ("--p", "1.5"), ("--z-count", "-1")])
def test_prox_table_bad_parameter_exits_1(tmp_path, flag, value):
    assert run_cli("--out-dir", str(tmp_path), "--quiet", "prox-table",
                   flag, value) == 1


@pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
def test_generate_bad_noise_exits_1(tmp_path, capsys, noise):
    assert run_cli("--out-dir", str(tmp_path), "--quiet", "generate",
                   "--noise", noise) == 1
    assert "noise level must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "problem.lpreg").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("certify", "--alpha", "abc"),
    ("certify", "--beta", "abc"),
    ("certify-point", "--point", "abc"),
    ("certify-point", "--point", '["a"]'),
    *(("certify", flag, value) for flag in ("--alpha", "--beta", "--v")
      for value in ("-1", "0", "nan", "inf")),
    *(("certify-point", flag, value) for flag in ("--fo-tol", "--so-tol")
      for value in ("-1", "nan", "inf")),
])
def test_certify_bad_parameter_exits_1(tmp_path, capsys, command, flag, value):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--n", "4", "--m", "3",
            "--s", "1", "--out", "p.lpreg")
    capsys.readouterr()
    extra = ["--trace", str(tmp_path / "t.csv")] if command == "certify" else []
    code = run_cli("--out-dir", out, "--quiet", command, "--problem",
                   str(tmp_path / "p.lpreg"), *extra, flag, value)
    assert code == 1
    assert f"error: argument {flag}: expected" in capsys.readouterr().err


def test_solve_malformed_problem_exits_1(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text('{"m": 1, "n": 1, "p": 0.5, "lambda": 1.0, '
                    '"A": [[1, 2], [3]], "b": [1.0]}')
    code = run_cli("--out-dir", str(tmp_path), "--quiet", "solve",
                   "--problem", str(path))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: field 'A'")


def test_certify_command(tmp_path):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.lpreg")
    run_cli("--out-dir", out, "--quiet", "solve",
            "--problem", str(tmp_path / "p.lpreg"), "--trace-out", "t.csv")
    code = run_cli("--out-dir", out, "--quiet", "certify",
                   "--trace", str(tmp_path / "t.csv"),
                   "--problem", str(tmp_path / "p.lpreg"))
    assert code == 0
    report = json.loads((tmp_path / "certify-report.json").read_text())
    assert report["ok"] and report["h1"]["ok"] and report["h2"]["ok"]


def test_repro_unknown_id(tmp_path, capsys):
    assert run_cli("--out-dir", str(tmp_path), "--quiet", "repro", "nope") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown experiment 'nope'; known: [")
    assert "'prox-pin'" in err
    assert not (tmp_path / "repro-nope-manifest.json").exists()


def test_repro_prox_pin_and_manifest(tmp_path):
    out = str(tmp_path)
    code = run_cli("--out-dir", out, "--quiet", "repro", "prox-pin")
    assert code == 0
    manifest = json.loads((tmp_path / "repro-prox-pin-manifest.json").read_text())
    assert manifest["command"] == "repro-prox-pin"
    assert manifest["outputs"]
    report = json.loads((tmp_path / "prox-pin-report.json").read_text())
    assert report["ok"]


def test_solve_reruns_byte_identical(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        run_cli("--out-dir", str(d), "--quiet", "generate", "--out", "p.lpreg")
        run_cli("--out-dir", str(d), "--quiet", "solve",
                "--problem", str(d / "p.lpreg"), "--trace-out", "t.csv")
    assert (tmp_path / "a" / "p.lpreg").read_bytes() == \
           (tmp_path / "b" / "p.lpreg").read_bytes()
    assert (tmp_path / "a" / "t.csv").read_bytes() == \
           (tmp_path / "b" / "t.csv").read_bytes()


def test_outputs_match_across_problem_file_forms(tmp_path):
    # a binary file and a list-form JSON file, written here by json, give
    # byte-identical traces and certify reports
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--seed", "2",
            "--out", "p.lpreg")
    prob = load_problem(tmp_path / "p.lpreg")
    (tmp_path / "listed.json").write_text(json.dumps(
        {"m": prob.m, "n": prob.n, "p": prob.p, "lambda": prob.lam,
         "A": prob.A.tolist(), "b": prob.b.tolist()}))
    outputs = []
    for name in ("p.lpreg", "listed.json"):
        path = str(tmp_path / name)
        assert run_cli("--out-dir", str(tmp_path), "--quiet", "solve",
                       "--problem", path, "--trace-out", f"{name}.csv") == 0
        assert run_cli("--out-dir", str(tmp_path), "--quiet", "certify", "--trace",
                       str(tmp_path / "p.lpreg.csv"), "--problem", path) == 0
        outputs.append(((tmp_path / f"{name}.csv").read_bytes(),
                        (tmp_path / "certify-report.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_solve_refuses_a_base64_problem_file(tmp_path, capsys):
    # earlier versions wrote each array as the base64 string of its float64
    # bytes; such a file exits 1 with a short message naming the field
    prob, _ = generate_instance(seed=2, m=20, n=50, s=5)
    b64 = [base64.b64encode(struct.pack(f"<{a.size}d", *a.ravel().tolist())).decode()
           for a in (prob.A, prob.b)]
    path = tmp_path / "base64.json"
    path.write_text(json.dumps({"m": prob.m, "n": prob.n, "p": prob.p,
                                "lambda": prob.lam, "A": b64[0], "b": b64[1]}))
    assert run_cli("--out-dir", str(tmp_path), "--quiet", "solve",
                   "--problem", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "field 'A'" in err and len(err) < 200


def test_loaded_trace_certifies(tmp_path):
    # CSV traces drop the iterates; certification falls back to the stored
    # residual column and the conservative beta estimate
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.lpreg")
    run_cli("--out-dir", out, "--quiet", "solve",
            "--problem", str(tmp_path / "p.lpreg"), "--trace-out", "t.csv")
    trace = load_trace(tmp_path / "t.csv")
    assert trace.values is None and trace.supports is None
    assert len(trace.step_norms) == len(trace.f_values) - 1


def test_solve_certify_rate_above_ten_thousand_columns(tmp_path):
    # traces keep each iterate as its support values at every n, so the
    # final iterate that rate's reference polish starts from exists here too
    out, path = str(tmp_path), str(tmp_path / "p.lpreg")
    assert run_cli("--out-dir", out, "--quiet", "generate", "--seed", "1",
                   "--m", "50", "--n", "10001", "--s", "3", "--out", "p.lpreg") == 0
    assert run_cli("--out-dir", out, "--quiet", "solve", "--algo", "pga",
                   "--problem", path, "--trace-out", "t.csv") == 0
    trace_path = str(tmp_path / "t.csv")
    assert run_cli("--out-dir", out, "--quiet", "certify",
                   "--trace", trace_path, "--problem", path) == 0
    assert run_cli("--out-dir", out, "--quiet", "rate",
                   "--trace", trace_path, "--problem", path) == 0
    prob = load_problem(path)
    trace = run_pga(prob, SolverConfig(v=default_stepsize(prob)))
    x = trace.final_iterate
    assert x.shape == (10001,)
    assert tuple(np.flatnonzero(x).tolist()) == trace.supports[-1]


def _solve(tmp_path, algo, *flags, trace_out="t.csv"):
    return run_cli("--out-dir", str(tmp_path), "--quiet", "solve", "--algo", algo,
                   *flags, "--problem", str(tmp_path / "p.lpreg"),
                   "--trace-out", trace_out)


def _certify(tmp_path, trace_csv, *flags):
    code = run_cli("--out-dir", str(tmp_path), "--quiet", "certify",
                   "--trace", str(tmp_path / trace_csv),
                   "--problem", str(tmp_path / "p.lpreg"), *flags)
    return code, json.loads((tmp_path / "certify-report.json").read_text())


def test_certify_eps_from_trace(tmp_path):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, "pga", trace_out="pga.csv") == 0
    assert _solve(tmp_path, "ipga1p", "--inexact", "0.1", "0.5",
                  trace_out="ipga1p.csv") == 0
    assert _solve(tmp_path, "ipga2p", "--inexact", "0.3", "0.7",
                  trace_out="ipga2p.csv") == 0

    # the eps column names its kind: an exact run has no eps, value gaps
    # enter the sufficient-decrease check as eps_k^2, distance norms the
    # relative-error check as eps_k
    code, report = _certify(tmp_path, "pga.csv")
    assert code == 0 and report["h1"]["eps_sum_sq"] == report["h2"]["eps_sum_sq"] == 0.0
    code, report = _certify(tmp_path, "ipga1p.csv")
    eps = load_trace(tmp_path / "ipga1p.csv").eps_values
    assert code == 0 and report["ok"]
    assert report["h1"]["eps_sum_sq"] == math.fsum(eps) > 0.0
    assert report["h2"]["eps_sum_sq"] == 0.0
    code, report = _certify(tmp_path, "ipga2p.csv")
    eps = load_trace(tmp_path / "ipga2p.csv").eps_values
    assert code == 0 and report["ok"]
    assert report["h1"]["eps_sum_sq"] == 0.0
    assert report["h2"]["eps_sum_sq"] == math.fsum(e * e for e in eps) > 0.0
    # a relative-error constant far too small fails certification
    code, report = _certify(tmp_path, "ipga1p.csv", "--beta", "1e-9")
    assert report["h1"]["ok"] and not report["h2"]["ok"]
    assert code == 3


@pytest.mark.parametrize("column, h1_eps, h2_eps", [
    ("eps_k", False, False), ("eps_value", True, False), ("eps_dist", False, True)])
def test_certify_takes_the_eps_kind_from_the_header(tmp_path, column, h1_eps, h2_eps):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, "ipga2p", "--inexact", "0.3", "0.7") == 0
    path = tmp_path / "t.csv"
    header, rows = path.read_text().split("\n", 1)
    path.write_text(header.rsplit(",", 1)[0] + "," + column + "\n" + rows)
    code, report = _certify(tmp_path, "t.csv")
    eps = load_trace(path).eps_values
    assert code == 0 and report["ok"]
    assert report["h1"]["eps_sum_sq"] == (math.fsum(eps) if h1_eps else 0.0)
    assert report["h2"]["eps_sum_sq"] == (
        math.fsum(e * e for e in eps) if h2_eps else 0.0)
    assert "symbolic_summable" not in report["h1"]
    assert "symbolic_summable" not in report["h2"]


@pytest.mark.parametrize("algo, schedule, column", [
    ("ipga1p", ("0.1", "0.5"), "eps_value"), ("ipga2p", ("0.3", "0.7"), "eps_dist")])
def test_solve_inexact_matches_the_library_run(tmp_path, algo, schedule, column):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, algo, "--inexact", *schedule) == 0
    prob = load_problem(tmp_path / "p.lpreg")
    cfg = SolverConfig(v=default_stepsize(prob),
                       inexact=Schedule.geometric(*map(float, schedule)))
    save_trace(tmp_path / "lib.csv", runner(algo)(prob, cfg))
    written = (tmp_path / "t.csv").read_text()
    assert written == (tmp_path / "lib.csv").read_text()
    assert written.split("\n", 1)[0].endswith("," + column)
    config = json.loads((tmp_path / "solve-manifest.json").read_text())["config"]
    assert config["inexact"] == [float(x) for x in schedule]
    assert "tau" not in config and "t" not in config


@pytest.mark.parametrize("flag, value", [("--p", "0.3"), ("--lambda", "5"),
                                         ("--knob", "0.5")])
def test_solve_takes_no_objective_or_share_flags(tmp_path, capsys, flag, value):
    # p and lambda come from the problem file only, as certify and rate read them
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    capsys.readouterr()
    assert _solve(tmp_path, "pga", flag, value) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "solve-manifest.json").exists()


def test_certify_refuses_a_truncated_trace(tmp_path, capsys):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, "ipga1p", "--inexact", "0.1", "0.5") == 0
    lines = (tmp_path / "t.csv").read_text().splitlines(keepends=True)
    assert len(lines) > 101
    (tmp_path / "t.csv").write_text("".join(lines[:101]))
    capsys.readouterr()
    code = run_cli("--out-dir", str(tmp_path), "--quiet", "certify",
                   "--trace", str(tmp_path / "t.csv"),
                   "--problem", str(tmp_path / "p.lpreg"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: line 101: final row's")
    assert not (tmp_path / "certify-report.json").exists()


def test_certify_refuses_a_nonpositive_alpha(tmp_path, capsys):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, "pga") == 0
    prob = load_problem(tmp_path / "p.lpreg")
    capsys.readouterr()
    # a stepsize at the bound 1/(2 ||A||^2) leaves no sufficient decrease
    code = run_cli("--out-dir", str(tmp_path), "--quiet", "certify",
                   "--trace", str(tmp_path / "t.csv"),
                   "--problem", str(tmp_path / "p.lpreg"),
                   "--v", str(1.0 / spectral_norm_sq(prob)))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: nonpositive alpha ")
    assert not (tmp_path / "certify-manifest.json").exists()


def test_rate_needs_a_reference_value(tmp_path, capsys):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, "pga") == 0
    capsys.readouterr()
    code = run_cli("--out-dir", str(tmp_path), "--quiet", "rate",
                   "--trace", str(tmp_path / "t.csv"))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: rate needs --fstar or --problem for the reference value\n")
    assert not (tmp_path / "rate-manifest.json").exists()


def test_rate_checks_its_flags_before_reading_the_trace(tmp_path, capsys):
    code = run_cli("--out-dir", str(tmp_path), "--quiet", "rate",
                   "--trace", str(tmp_path / "nowhere.csv"))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: rate needs --fstar or --problem for the reference value\n")


def test_solve_refuses_an_overflowing_norm(tmp_path, capsys):
    prob, _ = generate_instance(seed=1, m=5, n=8, s=2)
    save_problem(tmp_path / "p.lpreg",
                 Problem(A=1e160 * prob.A, b=prob.b, lam=prob.lam, p=prob.p))
    assert _solve(tmp_path, "pga") == 1
    assert capsys.readouterr().err.startswith("error: ||A||^2 overflows")
    assert not (tmp_path / "t.csv").exists()


def test_solve_pga_refuses_a_schedule(tmp_path, capsys):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, "pga", "--inexact", "0.1", "0.5") == 1
    assert "pga takes no --inexact" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "solve-manifest.json").exists()


@pytest.mark.parametrize("flags", [
    ["--tau-c", "0.1"], ["--t-c", "0.3", "--t-rho", "0.7"], ["--inexact", "0.1"],
    ["--inexact", "nan", "0.5"], ["--inexact", "0.1", "1"]])
def test_solve_bad_schedule_exits_1(tmp_path, flags):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, "ipga1p", *flags) == 1
    assert not (tmp_path / "t.csv").exists()


def test_manifest_only_when_output_written(tmp_path):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.lpreg")
    manifest = json.loads((tmp_path / "generate-manifest.json").read_text())
    assert set(manifest) == {"argv", "command", "config", "input_hashes",
                             "outputs", "seed", "versions", "wall_clock_s"}
    assert manifest["command"] == "generate" and manifest["seed"] == 1
    code = run_cli("--out-dir", out, "--quiet", "rate",
                   "--trace", str(tmp_path / "missing.csv"), "--fstar", "0")
    assert code == 1
    assert not (tmp_path / "rate-manifest.json").exists()


def test_solve_manifest_counts_the_solver_work(tmp_path):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--m", "20", "--n", "200",
            "--s", "3", "--out", "p.lpreg")
    assert run_cli("--out-dir", out, "--quiet", "solve",
                   "--problem", str(tmp_path / "p.lpreg")) == 0
    stats = json.loads((tmp_path / "solve-manifest.json").read_text())["stats"]
    assert set(stats) == {"full_products", "mean_working_set"}
    assert stats["full_products"] >= 1
    assert 0 < stats["mean_working_set"] < 200


def test_manifests_hash_the_inputs_in_chunks(tmp_path):
    # a problem file of several 64 KiB read chunks, hashed on certify's worker
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--m", "20", "--n", "1000",
            "--s", "3", "--out", "p.lpreg")
    problem_file, trace_file = tmp_path / "p.lpreg", tmp_path / "t.csv"
    assert problem_file.stat().st_size > 2 * 65536
    threads = threading.active_count()
    assert _solve(tmp_path, "pga") == 0
    code, _ = _certify(tmp_path, "t.csv")
    assert code == 0 and threading.active_count() == threads
    for command, paths in (("solve", [problem_file]), ("certify", [problem_file, trace_file])):
        manifest = json.loads((tmp_path / f"{command}-manifest.json").read_text())
        assert manifest["input_hashes"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def _certify_error(tmp_path, capsys, problem_file, trace_file):
    threads = threading.active_count()
    capsys.readouterr()
    code = run_cli("--out-dir", str(tmp_path), "--quiet", "certify",
                   "--trace", str(trace_file), "--problem", str(problem_file))
    assert threading.active_count() == threads
    assert not (tmp_path / "certify-manifest.json").exists()
    return code, capsys.readouterr().err


def test_certify_errors_join_the_hashing_worker(tmp_path, capsys, monkeypatch):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, "pga") == 0
    # a slow hash outlasts the main thread's error, unless main joins the worker
    hash_file = cli._hash_file
    monkeypatch.setattr(cli, "_hash_file", lambda path: time.sleep(0.05) or hash_file(path))
    problem_file, trace_file = tmp_path / "p.lpreg", tmp_path / "t.csv"
    missing = tmp_path / "missing"
    assert _certify_error(tmp_path, capsys, missing, trace_file) == (
        1, f"error: [Errno 2] No such file or directory: '{missing}'\n")
    # the worker has started, and fails on the missing trace too
    assert _certify_error(tmp_path, capsys, problem_file, missing) == (
        1, f"error: [Errno 2] No such file or directory: '{missing}'\n")
    lines = trace_file.read_text().splitlines(keepends=True)
    trace_file.write_text("".join(lines[:3]) + "5,1.0,0.0,0.0,1,0.0\n")
    assert _certify_error(tmp_path, capsys, problem_file, trace_file) == (
        1, "error: line 4: k=5, expected 2\n")


def test_certify_raises_the_hashing_workers_error(tmp_path, capsys, monkeypatch):
    run_cli("--out-dir", str(tmp_path), "--quiet", "generate", "--out", "p.lpreg")
    assert _solve(tmp_path, "pga") == 0

    def gone(path):
        raise FileNotFoundError(f"{path} went away")

    monkeypatch.setattr(cli, "_hash_file", gone)
    code, err = _certify_error(tmp_path, capsys, tmp_path / "p.lpreg", tmp_path / "t.csv")
    assert (code, err) == (1, f"error: {tmp_path / 'p.lpreg'} went away\n")
