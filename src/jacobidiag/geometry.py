"""Orthogonal-group utilities and the projected gradient of the objective.

The objective over Q in SO(n) is f(Q) = sum_l ||diag(W^(l))||^2 with
W^(l) the input tensors contracted with Q^T on every mode.  Its Riemannian
gradient is Q * Lambda(Q) where Lambda is the skew-symmetric matrix with

    Lambda[k, l] = d * (W[k,l..l] W[l..l] - W[k..k] W[k..kl]),   k < l,

summed over the tensor set.  Since ||Q Lambda|| = ||Lambda||, all
stationarity measurements use ||Lambda|| directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .symtensor import TensorSet

__all__ = [
    "GivensRotation",
    "givens_matrix",
    "givens_generator",
    "random_rotation",
    "lambda_of",
    "safe_norm",
    "RotationState",
    "save_orthomat",
    "load_orthomat",
]

QUARTER_PI = math.pi / 4
ORTH_TOL = 1e-8            # re-orthonormalization threshold on ||Q^T Q - I||


@dataclass
class GivensRotation:
    """Plane rotation by theta in the (i, j) coordinate plane, i < j.

    Angles are restricted to [-pi/4, pi/4]: the sweep objective is
    pi/2-periodic, so the optimizer never needs more.
    """

    i: int
    j: int
    theta: float
    c: float = field(init=False)
    s: float = field(init=False)

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"need 0 <= i < j, got ({self.i}, {self.j})")
        if abs(self.theta) > QUARTER_PI * (1 + 1e-12):
            raise ValueError(f"angle {self.theta} outside [-pi/4, pi/4]")
        self.c = math.cos(self.theta)
        self.s = math.sin(self.theta)


def givens_matrix(n, i, j, theta):
    """n x n Givens rotation: identity with the (i, j) plane rotated by theta."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    g = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def givens_generator(n, i, j):
    """d/dtheta of the Givens matrix at theta = 0 (skew generator)."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    g = np.zeros((n, n))
    g[i, j] = -1.0
    g[j, i] = 1.0
    return g


def random_rotation(n, seed):
    """Haar-distributed special-orthogonal matrix, deterministic per seed.

    QR of an i.i.d. standard-normal matrix (PCG64 generator) with the R
    diagonal sign-fixed so the factorization is unique; the last column is
    flipped if det is -1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def lambda_of(tensors):
    """Skew-symmetric gradient matrix Lambda of a (rotated) TensorSet.

    Reads only the diagonal and near-diagonal entries of each tensor
    (O(m n^2) work).
    """
    d = tensors.order
    diags = tensors.diags()                     # (m, n)
    near = tensors.near_diag()                  # (m, n, n)
    s = np.einsum("akl,al->kl", near, diags)
    return d * (s - s.T)


def safe_norm(a):
    """Frobenius norm of an array whose sum of squares may overflow.

    ``np.linalg.norm(a)`` when that is finite, so the result is bitwise
    unchanged on every finite input; otherwise amax * ||a / amax||, with
    amax = max |a|.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if math.isfinite(norm):
        return norm
    amax = float(np.max(np.abs(a)))
    return amax * float(np.linalg.norm(a / amax))


class RotationState:
    """Iterate of a Jacobi sweep: accumulated Q, rotated tensors, cached f,
    and ``row_offdiag``, the (m, n) squared off-diagonal mass of each row
    of axis 1 (``TensorSet.row_offdiag_sq``).

    ``apply`` re-sums rows i and j only.  Every other row keeps its mass
    exactly in exact arithmetic, since the rotation only mixes its
    off-diagonal entries within orthogonal 2x...x2 blocks, so only
    rounding separates a kept mass from a fresh sum; ``recount_offdiag``
    re-reads every row.

    Keeps a reference to the unrotated source set so Q can be
    re-orthonormalized and the working tensors rebuilt if floating-point
    drift ever exceeds ORTH_TOL.  ``apply`` does not check the drift (the
    check is O(n^3)); ``sweeps.run`` checks it once per sweep and then
    calls ``reorthonormalize`` or ``recount_offdiag``.
    """

    def __init__(self, source, q0=None):
        if not isinstance(source, TensorSet):
            source = TensorSet(source)
        self.source = source
        self.total_sq_norm = source.frob_sq()
        if not 0.0 < self.total_sq_norm < math.inf:
            raise ValueError(f"the tensor set's squared norm is "
                             f"{self.total_sq_norm:g}; need 0 < ||T||^2 < inf")
        n = source.dim
        if q0 is None:
            q = np.eye(n)
            self.tensors = source.copy()
        else:
            q = np.array(q0, dtype=np.float64)
            if q.shape != (n, n):
                raise ValueError(f"Q0 shape {q.shape} does not match n={n}")
            err = float(np.linalg.norm(q.T @ q - np.eye(n)))
            if err > ORTH_TOL:
                raise ValueError(
                    f"Q0 is not orthogonal: ||Q^T Q - I|| = {err:.3e}")
            if abs(np.linalg.det(q) - 1.0) > 1e-8:
                raise ValueError("Q0 must have determinant +1")
            self.tensors = source.rotated_by(q)
        self.q = q
        self.f_current = self.tensors.diag_sq_norm()
        self.recount_offdiag()
        self.rotation_count = 0
        self.reorth_count = 0

    @property
    def dim(self):
        return self.source.dim

    @property
    def order(self):
        return self.source.order

    def offdiag_sq(self):
        """Squared off-diagonal mass: the sum of the kept row masses."""
        return float(self.row_offdiag.sum())

    def recount_offdiag(self):
        """Re-read the squared off-diagonal mass of every row."""
        self.row_offdiag = self.tensors.row_offdiag_sq(range(self.dim))

    def lambda_norm(self):
        """||Lambda(Q)||, which equals the projected-gradient norm."""
        return safe_norm(lambda_of(self.tensors))

    def orthogonality_error(self):
        n = self.dim
        return float(np.linalg.norm(self.q.T @ self.q - np.eye(n)))

    def apply(self, rot):
        """Apply a GivensRotation: Q <- Q G, rotate all tensors, refresh f
        and the off-diagonal masses of rows i and j.

        Orthogonality of Q is not checked here; callers applying many
        rotations check ``orthogonality_error`` against ORTH_TOL now and
        then, as ``sweeps.run`` does after every sweep."""
        i, j, c, s = rot.i, rot.j, rot.c, rot.s
        if j >= self.dim:
            raise ValueError(f"pair ({i}, {j}) out of range for n={self.dim}")
        qi = self.q[:, i].copy()
        qj = self.q[:, j]
        self.q[:, i] = c * qi + s * qj
        self.q[:, j] = c * qj - s * qi
        self.tensors.rotate_plane(i, j, rot.theta)
        self.f_current = self.tensors.diag_sq_norm()
        self.row_offdiag[:, [i, j]] = self.tensors.row_offdiag_sq((i, j))
        self.rotation_count += 1
        return self

    def reorthonormalize(self):
        """QR-polish Q (det +1 preserved), rebuild tensors from source and
        re-read every row's off-diagonal mass."""
        q, r = np.linalg.qr(self.q)
        q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
        if np.linalg.det(q) < 0:
            q[:, -1] *= -1.0
        self.q = q
        self.tensors = self.source.rotated_by(q)
        self.f_current = self.tensors.diag_sq_norm()
        self.recount_offdiag()
        self.reorth_count += 1


# ---------------------------------------------------------------------------
# text file format:
#   orthomat v1 n=<n>
#   <n rows of n floats>

def save_orthomat(path, q):
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[0]
    if q.shape != (n, n):
        raise ValueError(f"matrix must be square, got {q.shape}")
    with open(path, "w") as fh:
        fh.write(f"orthomat v1 n={n}\n")
        for row in q:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def load_orthomat(path):
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read().split()
    if len(header) != 3 or header[:2] != ["orthomat", "v1"]:
        raise ValueError(f"bad orthomat header in {path}")
    try:
        n = int(header[2].split("=")[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad orthomat header in {path}") from exc
    if len(body) != n * n:
        raise ValueError(f"expected {n * n} values in {path}, found {len(body)}")
    return np.array(body, dtype=np.float64).reshape(n, n)
