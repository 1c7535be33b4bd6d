"""tools/trajectory_gate.py: a dump reproduces itself bitwise, a run with
ORTH_TOL patched re-orthonormalizes, the identity runs start from I and
the default ones from ``run``'s own start, and ``compare`` reports a
changed angle, relative and in radians, how many values moved, and
whether the path is the same within rounding, over all runs or, with
``--identity``, the identity runs alone."""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np

from jacobidiag import (ExperimentSpec, RunConfig, geometry,
                        make_test_problem, sweeps)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "trajectory_gate", ROOT / "tools" / "trajectory_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

# one run with skips and a no-progress stop, one d = 4 run at m = 2, one
# d = 4 run at m = 2 with ORTH_TOL patched, and one from the default start
GRID = (("cthresh", 3, 1, 0, None, None, "identity"),
        ("g", 4, 2, 1, None, None, "identity"),
        ("c", 4, 2, 0, None, gate.TIGHT_ORTH_TOL, "identity"),
        ("g", 4, 2, 1, None, None, "default"))


def test_grid_keys_are_distinct():
    keys = {gate._key(*run) for run in gate.GRID}
    assert len(keys) == len(gate.GRID) == 188
    assert sum(key.endswith(gate.DEFAULT_START) for key in keys) == 60


def test_dump_is_reproducible_and_compare_reports_a_perturbed_angle(
        tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    gate.dump(ROOT, a, GRID)
    gate.dump(ROOT, b, GRID)
    assert a.read_bytes() == b.read_bytes()
    assert gate.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "4 runs in a, 4 in b: bitwise identical" in out
    assert "largest absolute theta change: 0 rad\n" in out
    assert "theta values moved by more than 1e-12 relative: 0\n" in out

    dumped = json.loads(a.read_text())
    assert dumped["c d=4 m=2 p=0 orth_tol=1e-15"]["reorths"] > 0
    assert dumped["g d=4 m=2 p=1"]["reorths"] == 0
    # the identity run is run(q0=I), the default one run() without q0
    profile, sigma, seed_rot, seed_noise = gate.PROBLEMS[1]
    tensors, _ = make_test_problem(ExperimentSpec(
        n=gate.N, order=4, m=2, profile=profile, sigma=sigma,
        seed_rot=seed_rot, seed_noise=seed_noise))
    cfg = RunConfig(method="g", thresh=gate.THRESH,
                    max_sweeps=gate.MAX_SWEEPS)
    for key, q0 in (("g d=4 m=2 p=1", np.eye(gate.N)),
                    ("g d=4 m=2 p=1 start=default", None)):
        res = sweeps.run(tensors, cfg, q0=q0)
        assert dumped[key]["theta"] == [r.theta for r in res.records]
        assert dumped[key]["q"] == res.state.q.ravel().tolist()
    assert dumped["g d=4 m=2 p=1"]["rotations"] \
        > dumped["g d=4 m=2 p=1 start=default"]["rotations"]
    assert sweeps.ORTH_TOL == geometry.ORTH_TOL         # restored
    run = dumped["cthresh d=3 m=1 p=0"]
    assert sum(run["skipped"]) > 0 and run["stop_reason"] == "no_progress"
    first = run["skipped"].index(False)
    old = run["theta"][first]
    run["theta"][first] *= 1 + 1e-9
    b.write_text(json.dumps(dumped))
    assert gate.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "  theta: 1e-09 (cthresh d=3 m=1 p=0)" in out
    assert "  f: 0\n" in out
    # and the absolute change, in radians
    moved = abs(run["theta"][first] - old)
    assert f"largest absolute theta change: {moved:.3g} rad " \
        "(cthresh d=3 m=1 p=0)" in out
    # and where theta moved: one value, at the perturbed theta's magnitude
    assert "theta values moved by more than 1e-12 relative: 1, largest " \
        f"|theta| among them {abs(run['theta'][first]):.3g} rad\n" in out
    assert out.rstrip().endswith("trajectories differ")


def test_compare_reads_the_same_path_within_rounding(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    gate.dump(ROOT, a, GRID)
    base = json.loads(a.read_text())
    tight, plain = "c d=4 m=2 p=0 orth_tol=1e-15", "g d=4 m=2 p=1"

    def compare(change):
        """(verdict line reads yes, exit code) after change(dump)."""
        dumped = copy.deepcopy(base)
        change(dumped[plain], dumped[tight])
        b.write_text(json.dumps(dumped))
        code = gate.main(["compare", str(a), str(b)])
        out = capsys.readouterr().out
        assert ("same path within rounding: yes\n" in out) \
            != ("same path within rounding: no\n" in out)
        return "same path within rounding: yes\n" in out, code

    def theta_at_rounding(run, _):
        # the smallest angle moves by one rounding of the largest: far more
        # than FLOAT_RTOL of itself, far less than FLOAT_RTOL of the run's
        thetas = [abs(t) for t in run["theta"]]
        k = thetas.index(min(t for t in thetas if t))
        run["theta"][k] += 2.0**-52 * max(thetas)

    def reorth(run):
        run["reorths"] += 1

    def swap_pair(run, _):
        k = next(k for k in range(len(run["i"]) - 1)
                 if (run["i"][k], run["j"][k])
                 != (run["i"][k + 1], run["j"][k + 1]))
        for f in ("i", "j"):
            run[f][k], run[f][k + 1] = run[f][k + 1], run[f][k]

    def stop(run, _):
        run["stop_reason"] = "max_sweeps" \
            if run["stop_reason"] != "max_sweeps" else "stationary"

    def f_moved(run, _):
        run["f"][-1] *= 1 + 1e-9

    assert compare(lambda run, _: None) == (True, 0)
    assert compare(theta_at_rounding) == (True, 1)
    assert compare(lambda _, run: reorth(run)) == (True, 1)
    assert compare(lambda run, _: reorth(run)) == (False, 1)
    for change in (swap_pair, stop, f_moved):
        assert compare(change) == (False, 1)


def test_compare_identity_reads_the_identity_runs_alone(tmp_path, capsys):
    # a change of the default-start runs, even a missing one, fails the
    # plain compare and passes --identity; one of an identity run fails both
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    gate.dump(ROOT, a, GRID)
    dumped = json.loads(a.read_text())
    default, plain = "g d=4 m=2 p=1 start=default", "g d=4 m=2 p=1"
    dumped[default]["theta"][0] *= 1 + 1e-9
    b.write_text(json.dumps(dumped))
    assert gate.main(["compare", str(a), str(b)]) == 1
    assert gate.main(["compare", "--identity", str(a), str(b)]) == 0
    assert "3 runs in a, 3 in b: bitwise identical" in capsys.readouterr().out
    del dumped[default]
    b.write_text(json.dumps(dumped))
    assert gate.main(["compare", str(a), str(b)]) == 1
    assert gate.main(["compare", "--identity", str(a), str(b)]) == 0
    dumped[plain]["theta"][0] *= 1 + 1e-9
    b.write_text(json.dumps(dumped))
    assert gate.main(["compare", "--identity", str(a), str(b)]) == 1
