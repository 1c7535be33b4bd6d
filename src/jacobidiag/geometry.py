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

from .symtensor import DOT_PIECE, _lambda_positions, _packing

__all__ = [
    "contracted_start",
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


def contracted_start(tensors):
    """Q0 of ``sweeps.run``'s default start: the eigenvectors of the
    symmetric n x n matrix M = sum_l u_l T_l(., ., w, ..., w), each member
    contracted with w on all modes but two and weighted by u; at d = 2,
    M = sum_l u_l T_l.  w, a unit (n,) vector, and the (m,) weights u are
    fixed per (n, m): standard normal draws of PCG64 with seed 0.  The
    last column of Q0 is flipped if its determinant is -1.

    This is Jennrich's simultaneous diagonalization (Leurgans, Ross and
    Abel, SIAM J. Matrix Anal. Appl. 14(4), 1993): for a set sum_k
    lambda_k q_k^(x d), M = sum_k c_k q_k q_k^T, whose eigenvectors are the
    q_k when the c_k are distinct, so the sweeps only polish.  The members
    are summed on the packed entries, scaled by 2^-e, e the exponent of
    max |T| (``np.ldexp``, exact): sets that differ by a factor 2^k get
    bitwise the same Q0, and no entry of M nears overflow.  The sum is
    then expanded to one dense (n,)*d array and contracted with w: O(m N
    + n^d) work, one n^d array, and one O(n^3) ``eigh``."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal(tensors.dim)
    w /= np.linalg.norm(w)
    u = rng.standard_normal(len(tensors))
    e = math.frexp(float(np.max(np.abs(tensors.packed))))[1]
    summed = np.ldexp(tensors.packed, -e) @ u
    m = summed[_packing(tensors.order, tensors.dim)[1]].reshape(
        (tensors.dim,) * tensors.order)
    for _ in range(tensors.order - 2):
        m = m @ w
    q = np.linalg.eigh(m)[1]
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def random_rotation(n, seed):
    """Haar-distributed special-orthogonal matrix, deterministic per seed:
    the sign-fixed QR factor of an i.i.d. standard-normal matrix drawn
    from the PCG64 generator."""
    rng = np.random.default_rng(seed)
    return _special_orthogonal_factor(rng.standard_normal((n, n)))


def lambda_of(tensors, lam=None, rows=None):
    """Upper triangle of the gradient matrix Lambda of a (rotated)
    TensorSet: the (P,) vector of Lambda[i, j], i < j, in the row-major
    order of ``sweeps.upper_pairs``.

    Given ``lam``, the vector before a rotation in the (i, j) plane, and
    ``rows``, that pair's (rows, positions) of ``symtensor._lambda_rows``,
    it rewrites in place only the 2n - 3 entries in rows i and j, O(m n)
    work, and returns ``lam``: bitwise a full recompute, since no other
    entry reads an entry the rotation touched.  Without them every pair is
    a row of a fresh vector, at the cached (4, P) table
    ``symtensor._lambda_positions``: O(m n^2) work.  Either way one take of
    the packed W[i, j..j], W[j, i..i], W[j..j] and W[i..i] (at m = 1 from
    the kernel's 1-D view ``TensorSet._entries``), one contraction over
    the m members, then d * (S_ij - S_ji).
    """
    if rows is None:
        rows = slice(None), _lambda_positions(tensors.order, tensors.dim)
        lam = np.empty(rows[1].shape[1])
    rows, positions = rows
    near = tensors._entries.take(positions, axis=0)   # (4, P or 2n-3[, m])
    if near.ndim == 2:
        s = near[:2] * near[2:]
    else:
        s = np.vecdot(near[:2], near[2:])
    new = s[0] - s[1]
    new *= tensors.order
    lam[rows] = new
    return lam


def lambda_norm(lam):
    """||Lambda||_F from its upper triangle ``lam`` (``lambda_of``):
    sqrt(2) * ``safe_norm(lam)``.  ``sweeps.run``'s stop test and
    ``RotationState.lambda_norm`` both read it, so they see one number."""
    return _SQRT2 * safe_norm(lam)


def _dot_self(flat):
    """flat . flat of a 1-D array by ``np.vdot``, which, unlike ``dot``,
    raises no floating-point warning on overflow: one call, or above
    DOT_PIECE entries one per piece of that many, summed in order, so the
    bits do not depend on the BLAS thread count."""
    if flat.size <= DOT_PIECE:
        return float(np.vdot(flat, flat))
    return sum(float(np.vdot(p, p)) for p in (
        flat[k:k + DOT_PIECE] for k in range(0, flat.size, DOT_PIECE)))


def safe_norm(a):
    """Frobenius norm of an array whose sum of squares may over- or
    underflow.

    The square root of the dot product of ``a.ravel("K")`` with itself
    (``_dot_self``), as ``np.linalg.norm(a)`` computes it for real input,
    and so bitwise equal to it up to DOT_PIECE entries, when that is
    finite and at least 2^-511, the square root of the smallest normal
    float.  A smaller norm means a subnormal or zero sum of squares, which
    has lost part or all of its precision (squares below about 1e-324
    vanish), and an infinite one an overflowed sum; both fall back to
    amax * ||a / amax||, amax = max |a|, whose squares lie in (0, 1].  A
    zero array has norm 0.
    """
    flat = a.ravel("K")
    norm = math.sqrt(_dot_self(flat))
    if _SQRT_TINY <= norm < math.inf:
        return norm
    amax = float(np.max(np.abs(a)))
    if amax == 0.0:
        return 0.0
    return amax * math.sqrt(_dot_self(flat / amax))


class RotationState:
    """Iterate of a Jacobi sweep: accumulated Q and rotated tensors.  f
    (``f_current``) and ``offdiag_sq`` are read off the rotated set afresh
    on every call (``TensorSet.diag_sq_norm`` and ``offdiag_sq``).

    ``source`` is a TensorSet, already checked when it was built; its
    squared norm ``total_sq_norm``, a packed sum (``frob_sq``), is not:
    ``sweeps.run`` refuses 0 or an overflow (``check_sq_norm``).  Keeps
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
        n = source.dim
        if q0 is None:
            self.q = np.eye(n, order="F")
            self.tensors = source.copy()
        else:
            self.q = q = np.array(q0, dtype=np.float64, order="F")
            if q.shape != (n, n):
                raise ValueError(f"Q0 shape {q.shape} does not match n={n}")
            # "not <=" also refuses the NaN a non-finite entry leaves
            if not (err := self.orthogonality_error()) <= ORTH_TOL:
                raise ValueError(
                    f"Q0 is not orthogonal: ||Q^T Q - I|| = {err:.3e}")
            if not abs(np.linalg.det(q) - 1.0) <= 1e-8:
                raise ValueError("Q0 must have determinant +1")
            self.tensors = source.rotated_by(q)
        self._g, self._q_rows = np.empty((2, 2)), np.empty((2, n))
        self.rotation_count = 0
        self.reorth_count = 0

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
        return float(np.linalg.norm(self.q.T @ self.q - np.eye(len(self.q))))

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
