"""Sets of dense symmetric tensors of order 2-4 and the Givens plane kernel.

There is one container, :class:`TensorSet`: m >= 1 symmetric tensors of a
common order d and dimension n, stored as one ``(m,) + (n,)*d`` float64
array so the rotation and gradient kernels vectorize over the set.  A
single matrix or tensor is the m = 1 case.

Symmetry is an invariant of the values, not of the storage: the validating
constructor and the whole-set contraction re-read each entry from its sorted
(canonical) multi-index, and the plane rotation builds the two rows it
changes once and writes them to every mode, so tensors stay *bitwise*
symmetric under any sequence of rotations.

Index convention: all indices and modes are 0-based.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "TensorSet",
    "mode_product",
    "multi_mode_product",
    "symmetrize",
    "symmetry_error",
    "save_tensorset",
    "load_tensorset",
]

_SUPPORTED_ORDERS = (2, 3, 4)
SYMMETRY_TOL = 1e-9        # accepted deviation from symmetry, relative to ||T||

# einsum specs keyed by order, for a stack with one leading set axis
_STACK_DIAG = {2: "aii->ai", 3: "aiii->ai", 4: "aiiii->ai"}
_STACK_NEAR = {3: "akll->akl", 4: "aklll->akl"}


@functools.lru_cache(maxsize=16)
def _canonical_map(order, dim):
    """Flat-index gather map sending every entry to its sorted multi-index."""
    idx = np.indices((dim,) * order).reshape(order, -1)
    return np.ravel_multi_index(tuple(np.sort(idx, axis=0)), (dim,) * order)


def _canonicalize_stack(stack):
    """Rewrite each entry with the value at its sorted multi-index (in place,
    in any memory layout: the reshape is a copy unless C-contiguous)."""
    order = stack.ndim - 1
    dim = stack.shape[-1]
    flat = stack.reshape(stack.shape[0], -1)
    stack[...] = np.take(flat, _canonical_map(order, dim),
                         axis=1).reshape(stack.shape)


def _bitwise_symmetric(arr):
    flat = arr.reshape(-1)
    return np.array_equal(flat, flat[_canonical_map(arr.ndim, arr.shape[0])])


def _axis_slice(axis, k):
    """Index selecting entry k of the given axis of a stack or row block."""
    return (slice(None),) * axis + (k,)


def _rotate_planes_stack(stack, i, j, c, s):
    """Apply G(i,j,theta)^T on every mode of every tensor in the stack, in
    place, in O(d m n^(d-1)) work.

    Only entries with an index in {i, j} change, and by symmetry each one
    equals an entry of row i or row j of axis 1.  The kernel copies those
    two rows into a ``(m, 2, n, ..., n)`` block, rotates it on axes 1..d,
    makes each row symmetric with the order-(d-1) canonical map, copies
    row i's j-slices into row j's i-slices, and writes both rows into the
    i and j slices of every axis.

    The result is bitwise what rotating all of the stack mode by mode and
    then re-reading every entry from its sorted multi-index gives
    (``oracle.rotate_planes_reference``).  A rotated entry is built by the
    same elementwise ``c*x +- s*y`` steps in axis order from entries of a
    bitwise-symmetric input, so its value depends only on the sequence of
    i/j labels on its hit axes and on the multiset of its other indices.
    The sorted multi-index puts every i before every j, and so does the
    block's representative (row i, rest sorted; row j only when no index
    is i).
    """
    order = stack.ndim - 1
    rows = stack[:, [i, j]]          # a copy; rows i and j at 0 and 1
    for axis in range(1, order + 1):
        a, b = (0, 1) if axis == 1 else (i, j)
        idx_i, idx_j = _axis_slice(axis, a), _axis_slice(axis, b)
        ti = rows[idx_i].copy()
        tj = rows[idx_j]
        rows[idx_i] = c * ti + s * tj
        rows[idx_j] = c * tj - s * ti
    rows = np.take(rows.reshape(2 * stack.shape[0], -1),
                   _canonical_map(order - 1, stack.shape[-1]),
                   axis=1).reshape(rows.shape)
    row_i, row_j = rows[:, 0], rows[:, 1]
    for axis in range(1, order):
        row_j[_axis_slice(axis, i)] = row_i[_axis_slice(axis, j)]
    for axis in range(1, order + 1):
        stack[_axis_slice(axis, i)] = row_i
        stack[_axis_slice(axis, j)] = row_j


def _apply_orthogonal_stack(stack, q):
    """Return the stack with every tensor contracted with q^T on all modes."""
    order = stack.ndim - 1
    qt = np.ascontiguousarray(q.T)
    out = stack
    for axis in range(1, order + 1):
        out = np.moveaxis(np.tensordot(qt, out, axes=([1], [axis])), 0, axis)
    out = np.ascontiguousarray(out)
    _canonicalize_stack(out)
    return out


def symmetrize(tensor):
    """Average a cubical array over all index permutations (new ndarray).

    The result is bitwise symmetric; already bitwise-symmetric input is
    returned as an exact copy.
    """
    arr = np.array(tensor, dtype=np.float64)
    if arr.ndim not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported tensor order {arr.ndim}")
    if len(set(arr.shape)) != 1:
        raise ValueError(f"tensor is not cubical: shape {arr.shape}")
    if _bitwise_symmetric(arr):
        return arr
    acc = np.zeros_like(arr)
    for perm in itertools.permutations(range(arr.ndim)):
        acc += arr.transpose(perm)
    acc /= math.factorial(arr.ndim)
    _canonicalize_stack(acc[None])
    return acc


def symmetry_error(tensor):
    """Max absolute deviation from full symmetry over all index permutations."""
    arr = np.asarray(tensor, dtype=np.float64)
    err = 0.0
    for perm in itertools.permutations(range(arr.ndim)):
        err = max(err, float(np.max(np.abs(arr - arr.transpose(perm)))))
    return err


def _check_members(stack):
    """Raise ValueError unless the stack holds finite cubical tensors of a
    supported order and n >= 2, each symmetric within SYMMETRY_TOL * ||T||.

    Finiteness is checked first: the symmetry deviation of a symmetric pair
    of infinities is NaN, which no threshold comparison rejects.
    """
    order = stack.ndim - 1
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported tensor order {order}")
    if len(set(stack.shape[1:])) != 1 or stack.shape[-1] < 2:
        raise ValueError(f"bad tensor shape {stack.shape[1:]}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("tensor entries must be finite")
    for ell, arr in enumerate(stack):
        err = symmetry_error(arr)
        # ||T|| = amax * ||T / amax||: compared in units of amax, neither
        # side overflows or underflows at extreme scales
        amax = float(np.max(np.abs(arr)))
        if amax > 0.0 and err / amax > SYMMETRY_TOL * float(
                np.linalg.norm(arr / amax)):
            raise ValueError(
                f"tensor {ell} is not symmetric: deviation {err:.3e} exceeds "
                f"{SYMMETRY_TOL:g} * ||T||")


def mode_product(tensor, matrix, mode):
    """k-mode product: contract ``matrix`` with the given mode of ``tensor``.

    ``matrix`` has shape (p, n) with n the size of the contracted mode; the
    result is a plain ndarray with that mode resized to p.  ``mode`` is a
    0-based axis.
    """
    arr = np.asarray(tensor, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not (0 <= mode < arr.ndim):
        raise ValueError(f"mode {mode} out of range for order-{arr.ndim} tensor")
    if matrix.shape[1] != arr.shape[mode]:
        raise ValueError(
            f"dimension mismatch: matrix columns {matrix.shape[1]} != "
            f"mode-{mode} size {arr.shape[mode]}")
    return np.moveaxis(np.tensordot(matrix, arr, axes=([1], [mode])), 0, mode)


def multi_mode_product(tensor, matrix):
    """Contract ``matrix`` with every mode: T x_0 M x_1 M ... (plain ndarray)."""
    arr = np.asarray(tensor, dtype=np.float64)
    for axis in range(arr.ndim):
        arr = mode_product(arr, matrix, axis)
    return arr


class TensorSet:
    """m >= 1 symmetric tensors of common order d in {2, 3, 4} and dimension
    n >= 2, stored as one stacked ``(m,) + (n,)*d`` array.

    ``TensorSet(arrays)`` takes one ``(n,)*d`` array (m = 1) or a list or
    tuple of them.  It copies, checks that every entry is finite and every
    member symmetric within ``SYMMETRY_TOL * ||T||``, and canonicalizes, so
    ``stack`` is bitwise symmetric afterwards.
    """

    __slots__ = ("stack",)

    def __init__(self, arrays):
        # C order, so rows and members are views of the stack, not copies
        if isinstance(arrays, (list, tuple)):
            # np.stack raises ValueError for an empty list or unequal shapes
            stack = np.ascontiguousarray(np.stack(arrays, dtype=np.float64))
        else:
            stack = np.array(arrays, dtype=np.float64, order="C")[None]
        _check_members(stack)
        _canonicalize_stack(stack)
        self.stack = stack

    @classmethod
    def _wrap(cls, stack):
        """Trusted constructor: no copy, no checks (internal use)."""
        obj = cls.__new__(cls)
        obj.stack = stack
        return obj

    @classmethod
    def from_diagonal(cls, values, order):
        """One diagonal tensor (m = 1) with the given n >= 2 finite values."""
        if order not in _SUPPORTED_ORDERS:
            raise ValueError(f"unsupported tensor order {order}")
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        if n < 2 or not np.all(np.isfinite(values)):
            raise ValueError("a diagonal needs n >= 2 finite entries")
        stack = np.zeros((1,) + (n,) * order)
        stack[(0,) + (np.arange(n),) * order] = values
        return cls._wrap(stack)

    @property
    def order(self):
        return self.stack.ndim - 1

    @property
    def dim(self):
        return self.stack.shape[-1]

    def __len__(self):
        return self.stack.shape[0]

    def copy(self):
        return TensorSet._wrap(self.stack.copy())

    def frob_sq(self):
        return float(np.vdot(self.stack, self.stack))

    def diags(self):
        """(m, n) array of diagonal vectors (W[j, j, ..., j])_j."""
        return np.einsum(_STACK_DIAG[self.order], self.stack)

    def diag_sq_norm(self):
        """Sum of squared diagonal entries over the set (the objective f)."""
        d = self.diags()
        return float(np.vdot(d, d))

    def row_offdiag_sq(self, rows):
        """(m, len(rows)) squared off-diagonal mass of the given rows of
        axis 1, row r holding the entries W[r, ...].

        Each row is summed directly over its entries except its diagonal
        entry W[r, ..., r], which sits at flat position
        ``r * (n^(d-1) - 1) / (n - 1)`` of the row; the sum skips it rather
        than subtracting it.  Over all n rows the masses add up to the whole
        off-diagonal mass (``oracle.offdiag_sq_norm``).  O(m n^(d-1)) work
        per row, no copy."""
        n = self.dim
        step = (n ** (self.order - 1) - 1) // (n - 1)
        flat = self.stack.reshape(len(self), n, -1)
        out = np.empty((len(self), len(rows)))
        for k, r in enumerate(rows):
            head = flat[:, r, :r * step]
            tail = flat[:, r, r * step + 1:]
            out[:, k] = np.vecdot(head, head) + np.vecdot(tail, tail)
        return out

    def near_diag(self):
        """(m, n, n) array N with N[l, k, p] = W^(l)[k, p, p, ..., p]."""
        if self.order == 2:
            return self.stack.copy()
        return np.einsum(_STACK_NEAR[self.order], self.stack)

    def rotate_plane(self, i, j, theta):
        """In-place Givens rotation of all modes of every member tensor.

        Rotates rows i and j once and writes them to the i/j slices of
        every mode: O(d m n^(d-1)) work, bitwise symmetric afterwards (see
        ``_rotate_planes_stack``).
        """
        if not (0 <= i < j < self.dim):
            raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, "
                             f"n={self.dim}")
        _rotate_planes_stack(self.stack, i, j, math.cos(theta), math.sin(theta))
        return self

    def rotated_by(self, q):
        """New TensorSet with every tensor contracted with q^T on all modes."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim, self.dim):
            raise ValueError(
                f"matrix shape {q.shape} does not match dim {self.dim}")
        return TensorSet._wrap(_apply_orthogonal_stack(self.stack, q))


# ---------------------------------------------------------------------------
# text file format:
#   symtensor v1 d=<d> n=<n> m=<m>
#   <m blocks of n^d whitespace-separated floats, row-major>

def save_tensorset(path, tensors):
    ts = tensors if isinstance(tensors, TensorSet) else TensorSet(tensors)
    d, n, m = ts.order, ts.dim, len(ts)
    with open(path, "w") as fh:
        fh.write(f"symtensor v1 d={d} n={n} m={m}\n")
        for ell in range(m):
            rows = ts.stack[ell].reshape(-1, n)
            for row in rows:
                fh.write(" ".join(f"{v:.17g}" for v in row))
                fh.write("\n")


def load_tensorset(path):
    """Read a tensor set.

    Each member is checked once (finite entries, symmetric within
    SYMMETRY_TOL * ||T||); members that are not bitwise symmetric are
    replaced by their permutation average.
    """
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read().split()
    if len(header) != 5 or header[0] != "symtensor" or header[1] != "v1":
        raise ValueError(f"bad symtensor header in {path}")
    try:
        fields = dict(kv.split("=") for kv in header[2:])
        d, n, m = int(fields["d"]), int(fields["n"]), int(fields["m"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad symtensor header in {path}") from exc
    if d not in _SUPPORTED_ORDERS or n < 2 or m < 1:
        raise ValueError(f"unsupported symtensor parameters d={d} n={n} m={m}")
    if len(body) != m * n**d:
        raise ValueError(
            f"expected {m * n**d} values in {path}, found {len(body)}")
    stack = np.array(body, dtype=np.float64).reshape((m,) + (n,) * d)
    try:
        _check_members(stack)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for arr in stack:
        if not _bitwise_symmetric(arr):
            arr[...] = symmetrize(arr)
    return TensorSet._wrap(stack)
