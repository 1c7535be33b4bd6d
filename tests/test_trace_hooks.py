"""The benchmark's ``--trace 1`` tracer (perfbench/spans.py) still finds and
times every name it hooks, so a rename or an inlined call fails here instead
of silently dropping a per-layer metric."""

import sys
from pathlib import Path

from jacobidiag.harness import ExperimentSpec, make_test_problem
from jacobidiag.sweeps import RunConfig, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_every_trace_hook_sees_calls(monkeypatch):
    # one layer name per hook target: two targets may share a layer in the
    # benchmark (sweeps.select), and one of them could then lose its calls
    # unnoticed
    hooks = [(f"{mod}:{cls + '.' if cls else ''}{attr}", mod, cls, attr, obs)
             for _, mod, cls, attr, obs in spans.HOOKS]
    monkeypatch.setattr(spans, "HOOKS", hooks)
    # order 3 takes the closed-form angle; only order 4 solves for xi roots
    third, _ = make_test_problem(ExperimentSpec(n=5, order=3, sigma=1e-2))
    fourth, _ = make_test_problem(ExperimentSpec(n=5, order=4, sigma=1e-2))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for method in ("c", "g", "gmax", "pc"):
            run(third, RunConfig(method=method, max_sweeps=2))
        run(fourth, RunConfig(method="c", max_sweeps=2))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    layers = tracer.summary()["layers"]
    assert len({hook[0] for hook in hooks}) == len(hooks)
    for name, *_ in hooks:
        assert layers[name]["calls"] >= 1, name
