"""Jacobi-rotation algorithms for simultaneous orthogonal diagonalization
of symmetric matrices and 3rd/4th-order symmetric tensors.

The package root exports the solver API; the building blocks live in their
modules, and the reference computations ``verify_invariants`` checks the
solver against in ``jacobidiag.oracle``, which only that call loads."""

from .symtensor import TensorSet, load_tensorset, save_tensorset
from .sweeps import METHODS, RunConfig, RunResult, run, write_trajectory_csv
from .harness import ExperimentSpec, make_test_problem, verify_invariants

__version__ = "0.1.0"

__all__ = [
    "TensorSet",
    "load_tensorset",
    "save_tensorset",
    "METHODS",
    "RunConfig",
    "RunResult",
    "run",
    "write_trajectory_csv",
    "ExperimentSpec",
    "make_test_problem",
    "verify_invariants",
    "__version__",
]
