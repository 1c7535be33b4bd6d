"""The benchmark's generator reproduces ``jacobidiag.make_test_problem``.

Run from the repository root:  python3 -m pytest perfbench/test_problems.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jacobidiag import ExperimentSpec, load_tensorset, make_test_problem  # noqa: E402

from problems import make_problem, write_symtensor  # noqa: E402

# the benchmark workloads' problem shapes (smaller n for order 4)
CASES = [
    dict(n=8, order=4, sigma=1e-4, profile="equal"),
    dict(n=12, order=3, sigma=1e-4, profile="equal"),
    dict(n=12, order=3, sigma=1e-4, profile="linear"),
    dict(n=6, order=4, sigma=1e-4, profile="equal", slice_mode=True),
]


@pytest.mark.parametrize("case", CASES)
def test_matches_package_generator(case, tmp_path):
    stack, q_true = make_problem(seed_rot=11, seed_noise=12, **case)
    ref, ref_q = make_test_problem(ExperimentSpec(seed_rot=11, seed_noise=12,
                                                  **case))
    assert np.array_equal(stack, ref.stack)
    assert np.array_equal(q_true, ref_q)
    path = tmp_path / "p.st"
    write_symtensor(path, stack)
    assert np.array_equal(load_tensorset(path).stack, stack)
