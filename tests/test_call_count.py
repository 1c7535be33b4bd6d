"""tools/call_count.py: per-rotation call counts of one run and the bytes
of its index tables, which repeat exactly, and the Lambda calls they
show."""

import functools
import importlib.util
import json
from pathlib import Path

import numpy as np

import jacobidiag
from jacobidiag import symtensor

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "call_count", ROOT / "tools" / "call_count.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_call_count_prints_repeatable_counts_per_rotation(capsys):
    argv = [str(ROOT), "--d", "3", "--n", "4", "--method", "cthresh",
            "--top", "5"]
    assert tool.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["d"], out["n"], out["m"], out["method"]) == (3, 4, 1,
                                                             "cthresh")
    assert out["rotations"] > 0
    assert all(out[kind] > 0 for kind in ("python", "numpy", "builtin"))
    assert len(out["top"]) == 5
    assert list(out["index_bytes"]) == list(tool.INDEX_TABLES)
    assert out["index_bytes"]["_rotation_plan"] == \
        symtensor._rotation_plan(3, 4)[0].nbytes
    assert tool.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == out


def test_index_bytes_count_each_base_once(monkeypatch):
    # views count as their base, once, under the first table holding it;
    # a table the run did not build is left out
    base = np.zeros(100)

    @functools.lru_cache
    def first(d, n):
        return base[:10], (base[5:], base)

    @functools.lru_cache
    def second(d, n):
        return base[::2], np.zeros(3)

    @functools.lru_cache
    def unbuilt(d, n):
        return np.zeros(7)

    first(3, 4)
    second(3, 4)
    for name, table in [("first", first), ("second", second),
                        ("unbuilt", unbuilt)]:
        monkeypatch.setattr(symtensor, name, table, raising=False)
    monkeypatch.setattr(tool, "INDEX_TABLES", ("first", "second", "unbuilt"))
    assert tool.index_bytes(3, 4) == {"first": 800, "second": 24}


def test_lambda_is_computed_once_per_run_and_once_per_rotation():
    # cthresh skips 3 of this problem's visits, and a skip leaves Lambda as
    # it is: one full computation at the start, one row update per rotation
    tensors, _ = jacobidiag.make_test_problem(jacobidiag.ExperimentSpec(
        n=5, order=2, m=2, sigma=1e-4))
    res = jacobidiag.run(tensors, jacobidiag.RunConfig(method="cthresh"))
    assert len(res.records) > res.state.rotation_count
    rotations, calls = tool.count_calls(jacobidiag, 2, 5, 2, "cthresh")
    assert rotations == res.state.rotation_count
    assert calls["python", "geometry.py:lambda_of"] == rotations + 1
    assert calls["python", "symtensor.py:TensorSet.rotate_plane"] == rotations
