"""Orthogonal-group utilities and the projected gradient of the objective.

The objective over Q in SO(n) is f(Q) = sum_l ||diag(W^(l))||^2 with
W^(l) the input tensors contracted with Q^T on every mode.  Its Riemannian
gradient is Q * Lambda(Q) where Lambda is the skew-symmetric matrix with

    Lambda[k, l] = d * (W[k,l..l] W[l..l] - W[k..k] W[k..kl]),   k < l,

summed over the tensor set.  ``lambda_of`` returns its upper triangle, the
P = n(n-1)/2 entries above, as a vector in the row-major pair order of
``sweeps.upper_pairs``; the matrix itself is never built.  Since
||Q Lambda|| = ||Lambda|| = sqrt(2) ||upper triangle||, all stationarity
measurements use ``lambda_norm`` of that vector.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .symtensor import _lambda_positions

__all__ = [
    "random_rotation",
    "lambda_of",
    "lambda_norm",
    "safe_norm",
    "RotationState",
]

QUARTER_PI = math.pi / 4
ORTH_TOL = 1e-8            # re-orthonormalization threshold on ||Q^T Q - I||
_SQRT_TINY = math.sqrt(sys.float_info.min)    # 2^-511; see safe_norm
_SQRT2 = math.sqrt(2.0)


def _special_orthogonal_factor(a):
    """Q of the QR factorization of a, made unique by a positive R diagonal,
    with its last column flipped if det Q is -1."""
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def random_rotation(n, seed):
    """Haar-distributed special-orthogonal matrix, deterministic per seed:
    the sign-fixed QR factor of an i.i.d. standard-normal matrix drawn
    from the PCG64 generator."""
    rng = np.random.default_rng(seed)
    return _special_orthogonal_factor(rng.standard_normal((n, n)))


def lambda_of(tensors):
    """Upper triangle of the gradient matrix Lambda of a (rotated)
    TensorSet: the (P,) vector of Lambda[i, j], i < j, in the row-major
    order of ``sweeps.upper_pairs``.

    One take at the cached (4, P) table of packed positions of W[i, j..j],
    W[j, i..i], W[j..j] and W[i..i] (``symtensor._lambda_positions``), one
    contraction over the m members, then d * (S_ij - S_ji): O(m n^2) work.
    At m = 1 the take reads the kernel's 1-D view of ``packed``
    (``TensorSet._entries``) and the contraction is a plain product.
    """
    near = tensors._entries.take(
        _lambda_positions(tensors.order, tensors.dim), axis=0)  # (4, P[, m])
    if near.ndim == 2:
        s = near[:2] * near[2:]                         # (2, P)
    else:
        s = np.vecdot(near[:2], near[2:])
    lam = s[0] - s[1]
    lam *= tensors.order
    return lam


def lambda_norm(lam):
    """||Lambda||_F from its upper triangle ``lam`` (``lambda_of``):
    sqrt(2) * ``safe_norm(lam)``.  ``sweeps.run``'s stop test and
    ``RotationState.lambda_norm`` both read it, so they see one number."""
    return _SQRT2 * safe_norm(lam)


def safe_norm(a):
    """Frobenius norm of an array whose sum of squares may over- or
    underflow.

    The square root of the dot product of ``a.ravel("K")`` with itself,
    as ``np.linalg.norm(a)`` computes it for real input, and so bitwise
    equal to it, when that is finite and at least 2^-511, the square root
    of the smallest normal float.  ``np.vdot``, unlike ``dot``, raises no
    floating-point warning on overflow.  A smaller norm means a subnormal
    or zero sum of squares, which has lost part or all of its precision
    (squares below about 1e-324 vanish), and an infinite one an overflowed
    sum; both fall back to amax * ||a / amax||, amax = max |a|, whose
    squares lie in (0, 1].  A zero array has norm 0.
    """
    flat = a.ravel("K")
    norm = math.sqrt(np.vdot(flat, flat))
    if _SQRT_TINY <= norm < math.inf:
        return norm
    amax = float(np.max(np.abs(a)))
    if amax == 0.0:
        return 0.0
    return amax * float(np.linalg.norm(a / amax))


class RotationState:
    """Iterate of a Jacobi sweep: accumulated Q and rotated tensors.  f
    (``f_current``) and ``offdiag_sq`` are read off the rotated set afresh
    on every call (``TensorSet.diag_sq_norm`` and ``offdiag_sq``).

    ``source`` is a TensorSet, already checked when it was built.  Keeps
    a reference to it, the unrotated set, so Q can be
    re-orthonormalized and the working tensors rebuilt if floating-point
    drift ever exceeds ORTH_TOL.  ``apply`` does not check the drift (the
    check is O(n^3)); ``sweeps.run`` checks it once per sweep and then
    calls ``reorthonormalize``.  ``q`` is column-major, so its columns i
    and j are rows i and j of the C-ordered ``q.T``: ``apply`` maps them
    by one 2 x 2 product through a strided view, into buffers the state
    owns.
    """

    def __init__(self, source, q0=None):
        self.source = source
        self.total_sq_norm = source.frob_sq()
        if not 0.0 < self.total_sq_norm < math.inf:
            raise ValueError(f"the tensor set's squared norm is "
                             f"{self.total_sq_norm:g}; need 0 < ||T||^2 < inf")
        n = source.dim
        if q0 is None:
            q = np.eye(n, order="F")
            self.tensors = source.copy()
        else:
            q = np.array(q0, dtype=np.float64, order="F")
            if q.shape != (n, n):
                raise ValueError(f"Q0 shape {q.shape} does not match n={n}")
            # "not <=" also refuses the NaN a non-finite entry leaves
            err = float(np.linalg.norm(q.T @ q - np.eye(n)))
            if not err <= ORTH_TOL:
                raise ValueError(
                    f"Q0 is not orthogonal: ||Q^T Q - I|| = {err:.3e}")
            if not abs(np.linalg.det(q) - 1.0) <= 1e-8:
                raise ValueError("Q0 must have determinant +1")
            self.tensors = source.rotated_by(q)
        self.q = q
        self._g, self._q_rows = np.empty((2, 2)), np.empty((2, n))
        self.rotation_count = 0
        self.reorth_count = 0

    @property
    def dim(self):
        return self.source.dim

    @property
    def f_current(self):
        return self.tensors.diag_sq_norm()

    def offdiag_sq(self):
        """Squared off-diagonal mass of the rotated set, a fresh sum."""
        return self.tensors.offdiag_sq()

    def lambda_norm(self):
        """||Lambda(Q)||, which equals the projected-gradient norm."""
        return lambda_norm(lambda_of(self.tensors))

    def orthogonality_error(self):
        n = self.dim
        return float(np.linalg.norm(self.q.T @ self.q - np.eye(n)))

    def apply(self, i, j, theta):
        """Rotate by theta in the (i, j) plane, 0 <= i < j < n: Q <- Q G,
        rotate all tensors.  Columns i and j of Q become
        c q_i + s q_j and c q_j - s q_i, c = cos(theta), s = sin(theta).

        Refuses, before anything changes, an angle outside [-pi/4, pi/4]
        (to a relative 1e-12) or not finite: the sweep objective is
        pi/2-periodic, so the optimizer never needs more; ``rotate_plane``
        refuses a pair out of range.  Orthogonality of Q is not checked
        here; callers applying many rotations check ``orthogonality_error``
        against ORTH_TOL now and then, as ``sweeps.run`` does after every
        sweep."""
        # "not <=" also refuses NaN, which every comparison fails
        if not abs(theta) <= QUARTER_PI * (1 + 1e-12):
            raise ValueError(f"angle {theta} outside [-pi/4, pi/4]")
        self.tensors.rotate_plane(i, j, theta)
        c, s = math.cos(theta), math.sin(theta)
        g, out = self._g, self._q_rows
        g[0, 0] = g[1, 1] = c
        g[0, 1] = s
        g[1, 0] = -s
        rows = self.q.T[i:j + 1:j - i]          # columns i, j of Q, as rows
        np.dot(g, rows, out=out)
        rows[...] = out
        self.rotation_count += 1
        return self

    def reorthonormalize(self):
        """QR-polish Q (det +1 preserved) and rebuild tensors from source."""
        self.q = np.asfortranarray(_special_orthogonal_factor(self.q))
        self.tensors = self.source.rotated_by(self.q)
        self.reorth_count += 1
