import json
import math

import numpy as np
import pytest

from lpreg import ProxQuery, load_problem, load_trace, prox_scalar, spectral_norm_sq
from lpreg.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_generate_solve_rate_pipeline(tmp_path):
    out = str(tmp_path)
    assert run_cli("--out-dir", out, "--quiet", "generate", "--seed", "1",
                   "--m", "20", "--n", "50", "--s", "5",
                   "--lambda", "0.1", "--p", "0.5", "--out", "p.json") == 0
    assert run_cli("--out-dir", out, "--quiet", "solve", "--algo", "pga",
                   "--problem", str(tmp_path / "p.json"),
                   "--trace-out", "t.csv") == 0
    assert run_cli("--out-dir", out, "--quiet", "rate",
                   "--trace", str(tmp_path / "t.csv"),
                   "--problem", str(tmp_path / "p.json")) == 0
    report = json.loads((tmp_path / "rate-report.json").read_text())
    assert 0.0 < report["eta_hat"] < 1.0
    assert report["linear_convergence_detected"]


def test_solve_stepsize_violation_exits_1(tmp_path):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.json")
    prob = load_problem(tmp_path / "p.json")
    bad_v = 1.0 / spectral_norm_sq(prob)
    code = run_cli("--out-dir", out, "--quiet", "solve",
                   "--problem", str(tmp_path / "p.json"), "--v", str(bad_v))
    assert code == 1


def test_solve_max_iters_exits_2(tmp_path):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.json")
    code = run_cli("--out-dir", out, "--quiet", "solve",
                   "--problem", str(tmp_path / "p.json"),
                   "--max-iters", "3", "--tol", "0")
    assert code == 2


def test_certify_point_zero(tmp_path, capsys):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--n", "4", "--m", "3",
            "--s", "1", "--out", "p.json")
    code = run_cli("--out-dir", out, "--quiet", "certify-point",
                   "--problem", str(tmp_path / "p.json"),
                   "--point", "[0.0, 0.0, 0.0, 0.0]")
    assert code == 0
    data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert data["classification"] == "zero-point"


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


@pytest.mark.parametrize("command, flag, value", [
    ("certify", "--alpha", "abc"),
    ("certify", "--beta", "abc"),
    ("certify-point", "--point", "abc"),
    ("certify-point", "--point", '["a"]'),
])
def test_certify_bad_parameter_exits_1(tmp_path, capsys, command, flag, value):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--n", "4", "--m", "3",
            "--s", "1", "--out", "p.json")
    capsys.readouterr()
    extra = ["--trace", str(tmp_path / "t.csv")] if command == "certify" else []
    code = run_cli("--out-dir", out, "--quiet", command, "--problem",
                   str(tmp_path / "p.json"), *extra, flag, value)
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
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.json")
    run_cli("--out-dir", out, "--quiet", "solve",
            "--problem", str(tmp_path / "p.json"), "--trace-out", "t.csv")
    code = run_cli("--out-dir", out, "--quiet", "certify",
                   "--trace", str(tmp_path / "t.csv"),
                   "--problem", str(tmp_path / "p.json"))
    assert code == 0
    report = json.loads((tmp_path / "certify-report.json").read_text())
    assert report["ok"] and report["h1"]["ok"] and report["h2"]["ok"]


def test_repro_unknown_id(tmp_path):
    assert run_cli("--out-dir", str(tmp_path), "--quiet", "repro", "nope") == 1


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
        run_cli("--out-dir", str(d), "--quiet", "generate", "--out", "p.json")
        run_cli("--out-dir", str(d), "--quiet", "solve",
                "--problem", str(d / "p.json"), "--trace-out", "t.csv")
    assert (tmp_path / "a" / "p.json").read_bytes() == \
           (tmp_path / "b" / "p.json").read_bytes()
    assert (tmp_path / "a" / "t.csv").read_bytes() == \
           (tmp_path / "b" / "t.csv").read_bytes()


def test_loaded_trace_certifies(tmp_path):
    # CSV traces drop the iterates; certification falls back to the stored
    # residual column and the conservative beta estimate
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.json")
    run_cli("--out-dir", out, "--quiet", "solve",
            "--problem", str(tmp_path / "p.json"), "--trace-out", "t.csv")
    trace = load_trace(tmp_path / "t.csv")
    assert trace.iterates is None
    assert len(trace.step_norms) == len(trace.f_values) - 1


def test_certify_eps_from_trace(tmp_path):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.json")
    run_cli("--out-dir", out, "--quiet", "solve", "--algo", "ipga1p",
            "--tau-c", "0.1", "--tau-rho", "0.5",
            "--problem", str(tmp_path / "p.json"), "--trace-out", "t.csv")

    def certify(*flags):
        code = run_cli("--out-dir", out, "--quiet", "certify",
                       "--trace", str(tmp_path / "t.csv"),
                       "--problem", str(tmp_path / "p.json"), *flags)
        return code, json.loads((tmp_path / "certify-report.json").read_text())

    # without the flag both checks run with eps = 0; with it the stored
    # value gaps enter the sufficient-decrease check as eps_k^2
    code, report = certify()
    assert code == 0 and report["h1"]["eps_sum_sq"] == 0.0
    code, report = certify("--eps-from-trace")
    eps = load_trace(tmp_path / "t.csv").eps_values
    assert code == 0 and report["ok"]
    assert report["h1"]["eps_sum_sq"] == math.fsum(eps) > 0.0
    # a relative-error constant far too small fails certification
    code, report = certify("--eps-from-trace", "--beta", "1e-9")
    assert report["h1"]["ok"] and not report["h2"]["ok"]
    assert code == 3


def test_manifest_only_when_output_written(tmp_path):
    out = str(tmp_path)
    run_cli("--out-dir", out, "--quiet", "generate", "--out", "p.json")
    manifest = json.loads((tmp_path / "generate-manifest.json").read_text())
    assert set(manifest) == {"argv", "command", "config", "input_hashes",
                             "outputs", "seed", "versions", "wall_clock_s"}
    assert manifest["command"] == "generate" and manifest["seed"] == 1
    code = run_cli("--out-dir", out, "--quiet", "rate",
                   "--trace", str(tmp_path / "missing.csv"), "--fstar", "0")
    assert code == 1
    assert not (tmp_path / "rate-manifest.json").exists()
