import json
import os
import warnings

import numpy as np
import pytest

from jacobidiag import cli
from jacobidiag.harness import CheckResult
from jacobidiag.sweeps import RunConfig, run
from jacobidiag.symtensor import TensorSet, load_tensorset, save_tensorset

from test_harness import SUITE_VALUE_ERRORS


def gen_args(out, **over):
    base = {"--n": "6", "--d": "3", "--m": "1", "--profile": "equal",
            "--sigma": "1e-3", "--seed-rot": "2", "--seed-noise": "3"}
    base.update(over)
    argv = ["gen"]
    for k, v in base.items():
        argv.extend([k, v])
    return argv + ["--out", str(out)]


def test_gen_writes_problem(tmp_path, capsys):
    out = tmp_path / "p.st"
    assert cli.main(gen_args(out)) == 0
    assert "wrote" in capsys.readouterr().out
    ts = load_tensorset(out)
    assert ts.dim == 6 and ts.order == 3 and len(ts) == 1


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.st", tmp_path / "b.st"
    assert cli.main(gen_args(a)) == 0
    assert cli.main(gen_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_slice_mode(tmp_path):
    out = tmp_path / "s.st"
    argv = gen_args(out, **{"--d": "4", "--sigma": "1e-2"})
    argv.insert(1, "--slice-mode")
    assert cli.main(argv) == 0
    ts = load_tensorset(out)
    assert ts.order == 3 and len(ts) == 6


def test_gen_slice_mode_with_m_exits_2(tmp_path, capsys):
    out = tmp_path / "x.st"
    argv = gen_args(out, **{"--n": "4", "--d": "4", "--m": "3"})
    argv.insert(1, "--slice-mode")
    assert cli.main(argv) == 2
    assert "needs order 4 and m = 1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_invalid_order_exits_2(tmp_path):
    out = tmp_path / "x.st"
    assert cli.main(gen_args(out, **{"--d": "5"})) == 2


def test_gen_unallocatable_size_exits_2(tmp_path, capsys):
    # the n x n rotation alone would take 728 TiB: numpy refuses it at once
    out = tmp_path / "x.st"
    assert cli.main(gen_args(out, **{"--n": "10000000", "--d": "4"})) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_csv(tmp_path, capsys):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    csv_path = tmp_path / "t.csv"
    code = cli.main(["run", "--in", str(problem), "--algo", "pc",
                     "--delta0", "1e-3", "--max-sweeps", "50",
                     "--tol", "1e-10", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("k,sweep,i,j,theta")
    assert len(lines) > 1
    assert "f=" in capsys.readouterr().out


def test_run_missing_file_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--in", str(tmp_path / "nope.st"), "--algo", "c",
                     "--max-sweeps", "5", "--tol", "1e-8",
                     "--csv", str(tmp_path / "o.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_non_finite_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "inf.st"
    bad.write_text("symtensor v1 d=2 n=2 m=1\n1 inf\ninf 3\n")
    code = cli.main(["run", "--in", str(bad), "--algo", "c",
                     "--max-sweeps", "5", "--tol", "1e-8",
                     "--csv", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: tensor entries must be finite" in err


def test_run_asymmetric_extreme_scale_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "asym.st"
    bad.write_text("symtensor v1 d=2 n=2 m=1\n1e160 2e160\n0 1e160\n")
    code = cli.main(["run", "--in", str(bad), "--algo", "c",
                     "--max-sweeps", "5", "--tol", "1e-8",
                     "--csv", str(tmp_path / "o.csv")])
    assert code == 2
    assert f"error: {bad}: tensor 0 is not symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("scale,norm", [(1e-170, "0"), (1e160, "inf")])
def test_run_under_and_overflowing_norm_exits_2(tmp_path, capsys, scale,
                                                 norm):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    scaled = tmp_path / "scaled.st"
    save_tensorset(scaled, TensorSet(scale * load_tensorset(problem).stack[0]))
    code = cli.main(["run", "--in", str(scaled), "--algo", "c",
                     "--max-sweeps", "5", "--tol", "0",
                     "--csv", str(tmp_path / "o.csv")])
    assert code == 2
    assert f"squared norm is {norm};" in capsys.readouterr().err


@pytest.mark.parametrize("k", [511, 510])
def test_run_set_whose_omega_can_overflow_exits_2(tmp_path, capsys, k):
    problem, scaled = tmp_path / "p.st", tmp_path / "scaled.st"
    cli.main(gen_args(problem, **{"--n": "5", "--d": "4", "--sigma": "1e-2",
                                  "--seed-rot": "5"}))
    save_tensorset(scaled, TensorSet(2.0**k * load_tensorset(problem).stack[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", "--in", str(scaled), "--algo", "c",
                         "--max-sweeps", "3", "--tol", "0",
                         "--csv", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "exceeds 8.710e+305" in err and "rescale the input" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_non_finite_delta0_exits_2(tmp_path, capsys, value):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    code = cli.main(["run", "--in", str(problem), "--algo", "pc",
                     "--delta0", value, "--max-sweeps", "5", "--tol", "1e-8",
                     "--csv", str(tmp_path / "o.csv")])
    assert code == 2
    assert "error: delta0 must be finite" in capsys.readouterr().err


def test_run_unknown_algo_is_argparse_error(tmp_path):
    # an unknown method, and an option abbreviated: argparse refuses each
    # (SystemExit) before any file is read
    argv = ["run", "--in", "x", "--algo", "c", "--max-sweeps", "5",
            "--tol", "1e-8", "--csv", "y"]
    for given, bad in (("c", "newton"), ("--max-sweeps", "--max-sweep"),
                       ("--tol", "--to")):
        with pytest.raises(SystemExit) as exc:
            cli.main([bad if arg == given else arg for arg in argv])
        assert exc.value.code == 2


def test_bench_runs_suite(tmp_path, capsys):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    suite = tmp_path / "suite.cfg"
    suite.write_text("algo=c name=cyc\nalgo=gmax name=gm\n")
    outdir = tmp_path / "results"
    code = cli.main(["bench", "--in", str(problem), "--suite", str(suite),
                     "--outdir", str(outdir)])
    assert code == 0
    assert (outdir / "cyc.csv").exists()
    assert (outdir / "gm.csv").exists()
    assert (outdir / "report.json").exists()
    out = capsys.readouterr().out
    assert "cyc" in out and "gm" in out


def test_run_line_reads_the_final_state(tmp_path, capsys):
    # the line run prints: label, then f, offdiag_sq and ||Lambda|| of the
    # final state, sweeps, rotations and the stop reason
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    capsys.readouterr()
    cfg = RunConfig("pc", delta0=1e-3, max_sweeps=50, stationarity_tol=1e-10)
    assert cli.main(["run", "--in", str(problem), "--algo", "pc",
                     "--delta0", "1e-3", "--max-sweeps", "50",
                     "--tol", "1e-10", "--csv", str(tmp_path / "t.csv")]) == 0
    res = run(load_tensorset(problem), cfg)
    st = res.state
    assert capsys.readouterr().out.splitlines()[0] == (
        f"pc-delta0=0.001: f={st.f_current:.12g} "
        f"offdiag_sq={st.offdiag_sq():.6g} lambda={st.lambda_norm():.6g} "
        f"sweeps={res.sweeps_used} rotations={st.rotation_count} "
        f"stop={res.stop_reason}")


def test_bench_report_is_strict_json_with_a_failed_config(tmp_path, capsys):
    # a failed config is a row of label, method and error, not NaNs, and
    # prints as FAILED; bench lines are run's line, one per config
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    capsys.readouterr()
    suite = tmp_path / "suite.cfg"
    suite.write_text("algo=c\nalgo=g eps=1.0\nalgo=c delta0=1e-3\n")
    outdir = tmp_path / "results"
    assert cli.main(["bench", "--in", str(problem), "--suite", str(suite),
                     "--outdir", str(outdir)]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with open(outdir / "report.json") as fh:
        rows = json.load(fh, parse_constant=refuse)
    assert [r["label"] for r in rows] == ["c", "g-eps=1", "c-delta0=0.001"]
    assert rows[1] == {"label": "g-eps=1", "method": "g", "error": (
        "ValueError: eps must lie in (0, 2/n] = (0, 0.333333], got 1")}
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"g-eps=1: FAILED: {rows[1]['error']}"
    for line, row in zip((out[0], out[2]), (rows[0], rows[2])):
        assert line.startswith(f"{row['label']}: f={row['final_f']:.12g} ")
        assert f" rotations={row['rotations']} " in line
        assert os.path.exists(row["csv_path"])
    assert out[3] == f"report written to {outdir / 'report.json'}"


@pytest.mark.parametrize("names", [("", ""), (" name=a/b", " name=a_b")])
def test_bench_clashing_labels_exits_2(tmp_path, capsys, names):
    # the second run's trajectory would overwrite the first's CSV
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    suite = tmp_path / "suite.cfg"
    suite.write_text(f"algo=c max-sweeps=1{names[0]}\n"
                     f"algo=c max-sweeps=50{names[1]}\n")
    outdir = tmp_path / "results"
    code = cli.main(["bench", "--in", str(problem), "--suite", str(suite),
                     "--outdir", str(outdir)])
    assert code == 2
    assert not outdir.exists()
    assert "share the file name" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", SUITE_VALUE_ERRORS)
def test_bench_suite_value_error_exits_2_with_location(tmp_path, capsys,
                                                       line, message):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    suite = tmp_path / "suite.cfg"
    suite.write_text(f"algo=c\n{line}\n")
    code = cli.main(["bench", "--in", str(problem), "--suite", str(suite),
                     "--outdir", str(tmp_path / "results")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{suite}:2: " in err and message in err


def test_verify_ok(tmp_path, capsys):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    code = cli.main(["verify", "--in", str(problem), "--samples", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS gradient-fd" in out


def test_verify_invalid_file_exits_2(tmp_path):
    bad = tmp_path / "bad.st"
    bad.write_text("symtensor v1 d=2 n=2 m=1\n1 2\n2.5 3\n")
    assert cli.main(["verify", "--in", str(bad)]) == 2


@pytest.mark.parametrize("value", ["0", "1e-320"])
def test_verify_zero_norm_exits_2(tmp_path, capsys, value):
    # an all-zero set, and one whose squared norm underflows to zero
    zero = tmp_path / "zero.st"
    zero.write_text("symtensor v1 d=3 n=2 m=1\n"
                    + " ".join([value] * 8) + "\n")
    assert cli.main(["verify", "--in", str(zero), "--samples", "6"]) == 2
    assert "squared norm is 0" in capsys.readouterr().err


@pytest.mark.parametrize("k", [511, 510])
def test_verify_set_whose_omega_can_overflow_exits_2(tmp_path, capsys, k):
    problem, scaled = tmp_path / "p.st", tmp_path / "scaled.st"
    cli.main(gen_args(problem, **{"--n": "5", "--d": "4", "--sigma": "1e-2",
                                  "--seed-rot": "5"}))
    save_tensorset(scaled, TensorSet(2.0**k * load_tensorset(problem).stack[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["verify", "--in", str(scaled), "--samples", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "exceeds 8.710e+305" in err and "rescale the input" in err


def test_verify_failure_exits_3(tmp_path, monkeypatch, capsys):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    monkeypatch.setattr(
        cli, "verify_invariants",
        lambda *a, **k: [CheckResult("doom", False, "synthetic failure")])
    code = cli.main(["verify", "--in", str(problem)])
    assert code == 3
    assert "FAIL doom" in capsys.readouterr().out


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_gen_non_finite_sigma_exits_2(tmp_path, capsys, sigma):
    out = tmp_path / "p.st"
    assert cli.main(gen_args(out, **{"--sigma": sigma})) == 2
    assert "sigma must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("d", ["2", "3", "4"])
def test_gen_overflowing_sigma_exits_2_naming_it(tmp_path, capsys, d):
    # as under -W error::RuntimeWarning: no overflow warning escapes
    out = tmp_path / "p.st"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(gen_args(out, **{"--n": "3", "--d": d,
                                         "--sigma": "1e308"}))
    assert code == 2
    assert "error: sigma = 1e+308 overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,field", [("--seed-rot", "seed_rot"),
                                        ("--seed-noise", "seed_noise")])
def test_gen_negative_seed_exits_2_naming_it(tmp_path, capsys, flag, field):
    out = tmp_path / "p.st"
    assert cli.main(gen_args(out, **{flag: "-1"})) == 2
    assert f"{field} must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_verify_negative_seed_exits_2_naming_it(tmp_path, capsys):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    capsys.readouterr()
    code = cli.main(["verify", "--in", str(problem), "--seed", "-3"])
    assert code == 2
    captured = capsys.readouterr()
    assert "seed must be a non-negative integer" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_without_samples_exits_2(tmp_path, capsys, samples):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    capsys.readouterr()
    code = cli.main(["verify", "--in", str(problem), "--samples", samples])
    assert code == 2
    captured = capsys.readouterr()
    assert "samples must be >= 1" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("text,message", [
    # the count is checked before anything of size n^d is allocated
    ("symtensor v1 d=3 n=1000000 m=1\n1 2 3 4 5 6 7 8\n",
     "expected 1000000000000000000 values in {}, found 8"),
    ("symtensor v1 d=2 n=3 m=1\n1 2 3\n2 4 5\n3 5\n",
     "expected 9 values in {}, found 8"),
    ("symtensor v1 d=2 n=2 m=1\n1 x\nx 3\n",
     "{}: could not convert string to float: 'x'"),
    # the first bad token in file order, as when every token was parsed
    ("symtensor v1 d=2 n=3 m=1\n1 x 2\ny 3 x\n2 z 4\n",
     "{}: could not convert string to float: 'x'"),
    ("symtensor v1 d=x n=2 m=1\n1 2\n2 3\n", "bad symtensor header in {}"),
    ("symtensor v1 d=5 n=2 m=1\n1\n",
     "unsupported symtensor parameters d=5 n=2 m=1"),
    ("symtensor v1 d=2 n=1 m=1\n1\n",
     "unsupported symtensor parameters d=2 n=1 m=1"),
    ("symtensor v1 d=2 n=2 m=0\n",
     "unsupported symtensor parameters d=2 n=2 m=0"),
], ids=["huge-n", "truncated", "non-numeric", "non-numeric-first-named",
        "non-integer-header", "d=5", "n=1", "m=0"])
def test_run_malformed_body_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.st"
    bad.write_text(text)
    code = cli.main(["run", "--in", str(bad), "--algo", "c",
                     "--max-sweeps", "5", "--tol", "1e-8",
                     "--csv", str(tmp_path / "o.csv")])
    assert code == 2
    assert f"error: {message.format(bad)}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("name,data,argv,position", [
    ("latin1.st", b"symtensor v1 d=2 n=2 m=1\n1 \xff\n2 3\n",
     ["run", "--in", "{bad}", "--algo", "c", "--max-sweeps", "5",
      "--tol", "1e-8", "--csv", "{out}"], 27),
    # a text read decodes whole chunks, so the file is named, not the line
    ("latin1.cfg", b"algo=c eps=\xff\n",
     ["bench", "--in", "{problem}", "--suite", "{bad}", "--outdir", "{out}"],
     11),
], ids=["run", "bench"])
def test_run_of_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys,
                                                          name, data, argv,
                                                          position):
    paths = {"bad": tmp_path / name, "problem": tmp_path / "p.st",
             "out": tmp_path / "out"}
    paths["bad"].write_bytes(data)
    cli.main(gen_args(paths["problem"]))
    capsys.readouterr()
    code = cli.main([arg.format(**paths) for arg in argv])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {paths['bad']}: 'utf-8' codec can't decode byte 0xff in"
        f" position {position}: invalid start byte\n")
    assert not paths["out"].exists()
