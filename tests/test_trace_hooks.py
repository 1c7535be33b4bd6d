"""The benchmark's ``--trace 1`` tracer (perfbench/spans.py) still finds and
times every name it hooks, so a rename or an inlined call fails here instead
of silently dropping a per-layer metric."""

import sys
from pathlib import Path

import pytest

from jacobidiag.harness import ExperimentSpec, make_test_problem
from jacobidiag.sweeps import RunConfig, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_every_trace_hook_sees_calls():
    # order 3 takes the closed-form angle; only order 4 solves for xi roots
    third, _ = make_test_problem(ExperimentSpec(n=5, order=3, sigma=1e-2))
    fourth, _ = make_test_problem(ExperimentSpec(n=5, order=4, sigma=1e-2))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for method in ("c", "gmax"):
            run(third, RunConfig(method=method, max_sweeps=2))
        run(fourth, RunConfig(method="c", max_sweeps=2))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    layers = tracer.summary()["layers"]
    for name in {hook[0] for hook in spans.HOOKS}:
        assert layers[name]["calls"] >= 1, name
