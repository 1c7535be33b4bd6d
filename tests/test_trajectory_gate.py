"""tools/trajectory_gate.py: a dump reproduces itself bitwise, a run with
ORTH_TOL patched re-orthonormalizes, and ``compare`` reports a changed
angle, relative and in radians, and how many values moved."""

import importlib.util
import json
from pathlib import Path

from jacobidiag import geometry, sweeps

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "trajectory_gate", ROOT / "tools" / "trajectory_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

# one run with skips and a no-progress stop, one d = 4 run at m = 2, and
# one d = 4 run at m = 2 with ORTH_TOL patched
GRID = (("cthresh", 3, 1, 0, None, None), ("g", 4, 2, 1, None, None),
        ("c", 4, 2, 0, None, gate.TIGHT_ORTH_TOL))


def test_grid_keys_are_distinct():
    assert len({gate._key(*run) for run in gate.GRID}) == len(gate.GRID) == 128


def test_dump_is_reproducible_and_compare_reports_a_perturbed_angle(
        tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    gate.dump(ROOT, a, GRID)
    gate.dump(ROOT, b, GRID)
    assert a.read_bytes() == b.read_bytes()
    assert gate.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "3 runs in a, 3 in b: bitwise identical" in out
    assert "largest absolute theta change: 0 rad\n" in out
    assert "theta values moved by more than 1e-12 relative: 0\n" in out

    dumped = json.loads(a.read_text())
    assert dumped["c d=4 m=2 p=0 orth_tol=1e-15"]["reorths"] > 0
    assert dumped["g d=4 m=2 p=1"]["reorths"] == 0
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
