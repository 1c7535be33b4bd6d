"""Jacobi-rotation algorithms for simultaneous orthogonal diagonalization
of symmetric matrices and 3rd/4th-order symmetric tensors.

The reference computations the tests compare against live in
``jacobidiag.oracle``."""

from .symtensor import (TensorSet, mode_product, multi_mode_product,
                        symmetrize, symmetry_error, save_tensorset,
                        load_tensorset)
from .geometry import (GivensRotation, givens_matrix, givens_generator,
                       random_rotation, lambda_of, RotationState,
                       save_orthomat, load_orthomat)
from .angles import (ConstantObjectiveError, SubproblemView, AngleResult,
                     proximal_gamma, omega_xi_coeffs, solve_xi_roots,
                     xi_to_x_candidates, best_angle)
from .sweeps import (METHODS, RunConfig, IterationRecord, RunResult,
                     upper_pairs, select_pair_gradient, select_pair_max, run,
                     write_trajectory_csv)
from .harness import (ExperimentSpec, make_diag_tensor, make_test_problem,
                      AlgorithmReport, BenchmarkReport, run_benchmark,
                      parse_suite_file, CheckResult, verify_invariants)

__version__ = "0.1.0"
