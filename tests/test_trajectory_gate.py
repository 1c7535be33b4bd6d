"""tools/trajectory_gate.py: a dump reproduces itself bitwise, and
``compare`` reports a changed angle."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "trajectory_gate", ROOT / "tools" / "trajectory_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

# one run with skips and a no-progress stop, one d = 4 run at m = 2
GRID = (("cthresh", 3, 1, 0), ("g", 4, 2, 1))


def test_dump_is_reproducible_and_compare_reports_a_perturbed_angle(
        tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    gate.dump(ROOT, a, GRID)
    gate.dump(ROOT, b, GRID)
    assert a.read_bytes() == b.read_bytes()
    assert gate.main(["compare", str(a), str(b)]) == 0
    assert "2 runs in a, 2 in b: bitwise identical" in capsys.readouterr().out

    dumped = json.loads(a.read_text())
    run = dumped["cthresh d=3 m=1 p=0"]
    assert sum(run["skipped"]) > 0 and run["stop_reason"] == "no_progress"
    first = run["skipped"].index(False)
    run["theta"][first] *= 1 + 1e-9
    b.write_text(json.dumps(dumped))
    assert gate.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "  theta: 1e-09 (cthresh d=3 m=1 p=0)" in out
    assert "  f: 0\n" in out
    assert out.rstrip().endswith("trajectories differ")
