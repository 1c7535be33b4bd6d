"""tools/load_time.py: one JSON line per benchmark input file, with the
counts that the loader's speed rests on."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_load_time_prints_every_file_at_small_n():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "load_time.py"), str(ROOT),
         "--k", "2", "--n", "4"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    files = {row["file"]: row for row in map(json.loads, out.splitlines())}
    assert {name: (r["d"], r["n"], r["m"]) for name, r in files.items()} == {
        "order4-kernel": (4, 4, 1), "order3-mixed": (3, 4, 1),
        "slices-simultaneous": (3, 4, 4), "no-repeats": (4, 4, 1)}
    for r in files.values():
        assert r["tokens"] == r["m"] * r["n"] ** r["d"]
        assert 0 < r["load_ms_min"] <= r["load_ms_median"]
        assert r["peak_mib"] > 0
    # a line repeats at every permutation of its first d - 1 indices of
    # the order-d tensor, the slice index among them; no-repeats repeats
    # none of its 64 lines
    assert [files[name]["distinct_lines"] for name in files] == [
        math.comb(4 + 2, 3), math.comb(4 + 1, 2), math.comb(4 + 2, 3), 4**3]
