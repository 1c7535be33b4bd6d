"""Seeded test-problem generator for the benchmark (numpy only).

The recipe is the one the README describes: a unit-norm diagonal tensor D
is hidden by a Haar rotation R (A0 = D contracted with R^T on every mode)
and perturbed by the permutation average of i.i.d. N(0, sigma^2) noise.
In slice mode one 4th-order tensor is cut along its last mode into n
3rd-order slices.  The ground truth Q = R^T maps A0 back to D.

The benchmark owns this code so that its inputs do not move when the
package's own generator changes; ``test_problems.py`` checks that both
produce the same arrays.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def diagonal_values(n, profile):
    """Unit-norm diagonal: 'equal' or 'linear' (entries proportional to 1..n)."""
    if profile == "equal":
        return np.full(n, 1.0 / math.sqrt(n))
    if profile == "linear":
        ints = np.arange(1, n + 1, dtype=np.float64)
        return ints / math.sqrt(float(np.sum(ints**2)))
    raise ValueError(f"unknown profile {profile!r}")


def haar_rotation(n, seed):
    """Special-orthogonal matrix from the QR of a PCG64 normal matrix."""
    a = np.random.default_rng(seed).standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def _canonicalize(arr):
    """Overwrite every entry with the one at its sorted multi-index, so the
    tensor is bitwise symmetric."""
    order, n = arr.ndim, arr.shape[0]
    idx = np.indices((n,) * order).reshape(order, -1)
    canon = np.ravel_multi_index(tuple(np.sort(idx, axis=0)), (n,) * order)
    flat = arr.reshape(-1)
    flat[:] = flat[canon]
    return arr


def _contract_all_modes(arr, matrix):
    for axis in range(arr.ndim):
        arr = np.moveaxis(np.tensordot(matrix, arr, axes=([1], [axis])),
                          0, axis)
    return arr


def _sym_noise(rng, shape, sigma):
    raw = sigma * rng.standard_normal(shape)
    acc = np.zeros_like(raw)
    for perm in itertools.permutations(range(raw.ndim)):
        acc += raw.transpose(perm)
    acc /= math.factorial(raw.ndim)
    return _canonicalize(acc)


def make_problem(n, order, sigma, profile, seed_rot, seed_noise,
                 slice_mode=False):
    """Return (stack, q_true): an (m,) + (n,)*d float64 stack (m = 1, or
    m = n slices of order d - 1) and the hidden rotation.  Seeds are
    anything ``np.random.default_rng`` accepts."""
    diag = np.zeros((n,) * order)
    diag[(np.arange(n),) * order] = diagonal_values(n, profile)
    rot = haar_rotation(n, seed_rot)
    base = _contract_all_modes(diag, rot.T)
    noise = _sym_noise(np.random.default_rng(seed_noise), base.shape, sigma)
    arr = _canonicalize(base + noise)
    if slice_mode:
        return np.ascontiguousarray(np.moveaxis(arr, -1, 0)), rot.T
    return arr[None], rot.T


def write_symtensor(path, stack):
    """Write a stack in the package's ``symtensor v1`` text format."""
    m, n, order = stack.shape[0], stack.shape[-1], stack.ndim - 1
    with open(path, "w") as fh:
        fh.write(f"symtensor v1 d={order} n={n} m={m}\n")
        for row in stack.reshape(-1, n):
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")
