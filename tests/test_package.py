"""The package root exports the solver API only, and the solver does not
load the test oracles."""

import os
import subprocess
import sys

import jacobidiag

SOLVER_API = {
    "TensorSet", "load_tensorset", "save_tensorset", "METHODS", "RunConfig",
    "RunResult", "run", "write_trajectory_csv", "ExperimentSpec",
    "make_test_problem", "verify_invariants", "__version__",
}


def test_root_exports_the_solver_api():
    assert set(jacobidiag.__all__) == SOLVER_API
    for name in SOLVER_API:
        assert hasattr(jacobidiag, name), name


def test_importing_the_solver_does_not_import_the_oracle():
    code = ("import sys, jacobidiag.sweeps; "
            "print('jacobidiag.oracle' in sys.modules)")
    # the fresh interpreter imports the same copy of the package as this one
    src = os.path.dirname(os.path.dirname(jacobidiag.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
