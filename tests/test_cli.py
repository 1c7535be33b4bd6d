import numpy as np
import pytest

from jacobidiag import cli
from jacobidiag.harness import CheckResult
from jacobidiag.symtensor import load_tensorset


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


def test_gen_invalid_order_exits_2(tmp_path):
    out = tmp_path / "x.st"
    assert cli.main(gen_args(out, **{"--d": "5"})) == 2


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


def test_run_unknown_algo_is_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--in", "x", "--algo", "newton", "--max-sweeps", "5",
                  "--tol", "1e-8", "--csv", "y"])
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


def test_verify_failure_exits_3(tmp_path, monkeypatch, capsys):
    problem = tmp_path / "p.st"
    cli.main(gen_args(problem))
    monkeypatch.setattr(
        cli, "verify_invariants",
        lambda *a, **k: [CheckResult("doom", False, "synthetic failure")])
    code = cli.main(["verify", "--in", str(problem)])
    assert code == 3
    assert "FAIL doom" in capsys.readouterr().out
