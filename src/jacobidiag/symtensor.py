"""Sets of symmetric tensors of order 2-4, stored packed, and the Givens
plane kernel.

There is one container, :class:`TensorSet`: m >= 1 symmetric tensors of a
common order d and dimension n.  A single matrix or tensor is the m = 1
case.  A symmetric tensor has one distinct entry per sorted multi-index
(a_1 <= ... <= a_d), N = C(n+d-1, d) of them, so the set stores exactly
those: an entry-major ``packed`` array of shape (N, m), rows grouped by how
many dense entries each stands for (``_packing``).  Symmetry is a property
of the storage, not of the values: there are no duplicate entries that
could drift apart.  The dense ``(m,) + (n,)*d`` array is built on demand
(``stack``) for I/O, ``rotated_by`` and the reference computations.

Dense input is checked for symmetry once, by one gather per axis
permutation at the sorted multi-indices (``_orbit``).  The constructor and
the loader share one rule (``_symmetrized``): a member that is bitwise
symmetric keeps its sorted entries, any other member is replaced by its
permutation average, each orbit summed in ascending order of value, so one
input gives one set whatever its route or transpose.  ``rotated_by`` is
the one dense-to-packed step that neither checks nor averages: it reads
the sorted entries of its own product.

A plane rotation changes only the K entries with an index in {i, j}
(K = 4,900 of N = 17,550 at d = 4, n = 24).  They fall into blocks of the
t + 1 entries i^a j^(t-a) R with t indices in {i, j}, and the rotation
maps each block by S_t, the t-th symmetric power of the 2 x 2 Givens
matrix.  ``rotate_plane`` reads the K packed positions of its pair from
one row of a table built once per (d, n) (``_rotation_plan``), gathers
the entries into buffers the set plans once, maps them by one matrix
product per t and scatters them back (see ``_rotation_work``), at m = 1
through a 1-D view of ``packed`` made with the set, which
``geometry.lambda_of`` reads too; it agrees with the dense rotation to
rounding only.  The table holds P K = O(n^(d+1)) positions, one row per
pair, 2.58 MiB at (4, 24); no dense index is formed per rotation.

Index convention: all indices and modes are 0-based.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "TensorSet",
    "save_tensorset",
    "load_tensorset",
]

_SUPPORTED_ORDERS = (2, 3, 4)
SYMMETRY_TOL = 1e-9        # accepted deviation from symmetry, relative to ||T||
# entries per dot product in the sums of squares: OpenBLAS splits a ddot
# of more than 10,000 entries over its threads, which changes its bits
# with the thread count and, on a small host, costs a thread wake-up
DOT_PIECE = 8192


def _orbit_index(order, dim, reps):
    """(d!, N) flat indices: row r reads ``T.transpose(p)`` at the sorted
    multi-indices ``reps``, p the r-th of ``itertools.permutations``.
    ``T.transpose(p)[a]`` is ``T[c]`` with ``c[p[k]] = a[k]``, whose flat
    index is the sum over k of ``a[k] * stride[p[k]]``."""
    perms = np.array(list(itertools.permutations(range(order))))
    strides = dim ** np.arange(order - 1, -1, -1)
    return strides[perms] @ np.array(np.unravel_index(reps, (dim,) * order))


@functools.lru_cache(maxsize=16)
def _packing(order, dim):
    """(reps, pos, classes) of the packed layout: reps[e] is the dense flat
    index of the e-th packed sorted multi-index, pos[k] the packed position
    of dense entry k, scattered from every axis permutation of the sorted
    multi-indices, and classes the (lo, hi, copies) row range of each class.
    Rows go in ascending number of copies d! / prod(r!), r the runs of
    equal indices, lex within each: the diagonal in rows [0, n), then 2
    copies at d = 2; 3, 6 at d = 3; 4, 6, 12, 24 at d = 4."""
    combos = np.array(list(itertools.combinations_with_replacement(
        range(dim), order))).T
    run = prod = np.ones(combos.shape[1], dtype=np.intp)   # prod: prod(r!)
    for equal in combos[1:] == combos[:-1]:
        run = run * equal + 1
        prod = prod * run
    by_copies = np.argsort(-prod, kind="stable")
    reps = np.ravel_multi_index(combos, (dim,) * order)[by_copies]
    copies = math.factorial(order) // prod[by_copies]
    edges = np.flatnonzero(np.diff(copies, prepend=0, append=0)).tolist()
    classes = tuple((lo, hi, int(copies[lo]))
                    for lo, hi in zip(edges, edges[1:]))
    del combos, equal, run, prod, by_copies, copies  # before the orbit index
    pos = np.empty(dim ** order, dtype=np.intp)
    pos[_orbit_index(order, dim, reps)] = np.arange(reps.size)
    return reps, pos, classes


@functools.lru_cache(maxsize=16)
def _pair_positions(order, dim):
    """(n, n, d+1) packed positions of the pair views: entry [i, j, w] is
    W[i, ..., i, j, ..., j] with d - w indices i and w indices j."""
    strides = dim ** np.arange(order - 1, -1, -1)
    at_j = np.add.outer(np.arange(order + 1), np.arange(order)) >= order
    k = np.arange(dim)[:, None, None]
    return _packing(order, dim)[1][(strides * ~at_j).sum(axis=1) * k
                                   + (strides * at_j).sum(axis=1) * k[:, 0]]


@functools.lru_cache(maxsize=16)
def _lambda_positions(order, dim):
    """(4, P) packed positions, per pair i < j in row-major order, of
    W[i, j, ..., j], W[j, i, ..., i], W[j, ..., j] and W[i, ..., i]:
    columns d - 1, 1, d and 0 of ``_pair_positions`` at [i, j]."""
    i, j = np.triu_indices(dim, 1)
    return _pair_positions(order, dim)[
        i, j, np.array([[order - 1], [1], [order], [0]])]


@functools.lru_cache(maxsize=16)
def _lambda_rows(order, dim):
    """Per pair i < j in row-major order, (rows, positions): the ascending
    positions of the 2n - 3 pairs that share an index with it, the only
    entries of Lambda a rotation in its plane changes (row i of the (n, n)
    matrix of pair positions less column i, row j less columns i and j),
    and the (4, 2n - 3) columns of ``_lambda_positions`` at them: rows of
    a (P, 2n - 3) and a (P, 4, 2n - 3) array, 40 P (2n - 3) bytes."""
    i, j = np.triu_indices(dim, 1)
    at = np.empty((dim, dim), dtype=np.intp)
    at[i, j] = at[j, i] = np.arange(i.size)
    at = at[~np.eye(dim, dtype=bool)].reshape(dim, dim - 1)   # k without k
    rows = np.sort(np.hstack((at[i], at[j][np.arange(dim - 1) != i[:, None]]
                              .reshape(i.size, dim - 2))), axis=1)
    return tuple(zip(rows, _lambda_positions(order, dim)[
        np.arange(4)[:, None], rows[:, None]]))


@functools.lru_cache(maxsize=16)
def _rotation_plan(order, dim):
    """(table, bounds) of the packed plane rotation, built once per (d, n):
    row p of the (P, K) table holds the packed positions of the K entries
    that a rotation in the plane of pair p, the p-th of ``upper_pairs``'
    row-major order, touches.  Pair (i, j) is row i (2n - i - 3) / 2 + j - 1.

    A touched entry has t >= 1 indices in {i, j} and a rest multiset R of
    d - t indices outside {i, j}; the t + 1 entries i^a j^(t-a) R of one
    (t, R) form a block, which the rotation maps by S_t
    (``_symmetric_power_table``).  The touched entries are ordered by
    (t, a, block): columns [lo, hi) = bounds[t - 1] hold the blocks with t
    hits as t + 1 runs of equal length, one per a, so they read as a
    (t + 1, blocks * m) array.

    The table is built from the entries' dense indices, which split as
    ``row_i[i] + row_j[j]``: rest labels u in [0, n-2) map to
    u + [u >= i] + [u >= j - 1], which skips i and j; the first part
    depends on i alone, the second on j alone.  The rows of one i are
    filled at a time, so no (P, K) intp array is made on the way.

    Its dtype is the smallest unsigned one that holds N - 1, and its size
    grows as P K = O(n^(d+1)): 2,704,800 bytes (2.58 MiB, uint16) at
    (d, n) = (4, 24), 35,672 at (3, 14), 11,348,480 (10.8 MiB) at (4, 32)
    and 6,682,650 (6.4 MiB) at (2, 150).
    """
    strides = dim ** np.arange(order - 1, -1, -1)
    ij = np.arange(dim)[:, None, None]              # i, or j, per table row
    row_i, row_j, bounds, k = [], [], [], 0
    for t in range(1, order + 1):
        r = order - t
        combos = list(itertools.combinations_with_replacement(
            range(dim - 2), r))
        rest = np.array(combos, dtype=np.intp).reshape(len(combos), r)
        part_i = ((rest + (rest >= ij)) * strides[:r]).sum(axis=-1)
        part_j = ((rest >= ij - 1) * strides[:r]).sum(axis=-1)
        for a in range(t + 1):          # a hit axes take i, the rest j
            row_i.append(part_i + ij[:, :, 0] * strides[r:r + a].sum())
            row_j.append(part_j + ij[:, :, 0] * strides[r + a:].sum())
        bounds.append((k, k + (t + 1) * len(combos)))
        k = bounds[-1][1]
    row_i, row_j = np.hstack(row_i), np.hstack(row_j)
    pos = _packing(order, dim)[1]
    table = np.empty((dim * (dim - 1) // 2, k),
                     dtype=np.min_scalar_type(math.comb(dim + order - 1,
                                                        order) - 1))
    lo = 0
    for i in range(dim - 1):
        table[lo:lo + dim - 1 - i] = pos[row_i[i] + row_j[i + 1:]]
        lo += dim - 1 - i
    return table, tuple(bounds)


def _rotation_work(order, dim, row):
    """One set's ``rotate_plane`` buffers: the (P, K) position table of
    ``_rotation_plan``, shared by every set of that (d, n), the (K,) intp
    positions of one rotation, the (K,) + row entries before and after
    (row: the shape of one row of the kernel's entries,
    ``TensorSet._entries``), a flat view of the (d, d+1, d+1) array of
    S_1, ..., S_d and the ((d+1)^2,) monomials it is made from
    (``_symmetric_powers``), and per t the views (S_t, old block, new
    block) of the product for t hits."""
    table, bounds = _rotation_plan(order, dim)
    k = table.shape[1]
    touched = np.empty(k, dtype=np.intp)
    old, new = np.empty((2, k) + row)
    powers = np.empty((order, order + 1, order + 1))
    steps = tuple((powers[t - 1, :t + 1, :t + 1],
                   old[lo:hi].reshape(t + 1, -1),
                   new[lo:hi].reshape(t + 1, -1))
                  for t, (lo, hi) in enumerate(bounds, start=1))
    return (table, touched, old, new, powers.reshape(-1),
            np.empty((order + 1) ** 2), steps)


def _symmetric_power_table(order):
    """Exact integer table whose product with the monomials c^p s^q
    (p, q in 0..d, p-major) is the (d, d+1, d+1) array of S_1, ..., S_d,
    S_t at [t - 1, :t + 1, :t + 1] and zeros elsewhere.

    The rotation takes index i to c i + s j and index j to c j - s i on
    every axis, so S_t, the t-th symmetric power of G = [[c, s], [-s, c]],
    maps the old block entries i^b j^(t-b) R to the new i^a j^(t-a) R: of
    the a axes at i, k stay at i (c^k s^(a-k)); of the t - a at j, b - k
    move to i ((-s)^(b-k) c^(t-a-b+k)).  Hence

        S_t[a, b] = sum_k C(a, k) C(t-a, b-k) (-1)^(b-k)
                          c^(t-a-b+2k) s^(a+b-2k).
    """
    table = np.zeros((order,) + (order + 1,) * 4)     # t - 1, a, b, p, q
    for t in range(1, order + 1):
        for a, b in itertools.product(range(t + 1), repeat=2):
            for k in range(max(0, a + b - t), min(a, b) + 1):
                table[t - 1, a, b, t - a - b + 2 * k, a + b - 2 * k] += (
                    math.comb(a, k) * math.comb(t - a, b - k) * (-1) ** (b - k))
    return table.reshape(order * (order + 1) ** 2, (order + 1) ** 2)


_POWER_TABLE = {d: _symmetric_power_table(d) for d in _SUPPORTED_ORDERS}


def _monomials_2(c, s):
    c2, s2 = c * c, s * s
    return (1.0, s, s2, c, c * s, c * s2, c2, c2 * s, c2 * s2)


def _monomials_3(c, s):
    c2, s2 = c * c, s * s
    c3, s3 = c2 * c, s2 * s
    return (1.0, s, s2, s3, c, c * s, c * s2, c * s3,
            c2, c2 * s, c2 * s2, c2 * s3, c3, c3 * s, c3 * s2, c3 * s3)


def _monomials_4(c, s):
    c2, s2 = c * c, s * s
    c3, s3 = c2 * c, s2 * s
    c4, s4 = c3 * c, s3 * s
    return (1.0, s, s2, s3, s4, c, c * s, c * s2, c * s3, c * s4,
            c2, c2 * s, c2 * s2, c2 * s3, c2 * s4,
            c3, c3 * s, c3 * s2, c3 * s3, c3 * s4,
            c4, c4 * s, c4 * s2, c4 * s3, c4 * s4)


_MONOMIALS = {2: _monomials_2, 3: _monomials_3, 4: _monomials_4}


def _symmetric_powers(order, c, s, out, monomials):
    """Write S_1, ..., S_d at (c, s) into ``out``, the flat view of an array
    laid out by ``_symmetric_power_table``: the monomials c^p s^q,
    p-major, as unrolled products of Python floats (c^p and s^q by
    repeated multiplication), into the ((d+1)^2,) buffer ``monomials``,
    then one product with that table."""
    monomials[...] = _MONOMIALS[order](c, s)
    np.dot(_POWER_TABLE[order], monomials, out=out)


def _orbit(stack):
    """(d!, N, m) orbit values of a dense stack (row 0: the sorted entries)
    and their (N, m) spread, max - min over the rows: bitwise the largest
    |T - T.transpose(p)| within the orbit, since rounding is monotone; 0
    everywhere iff a member is bitwise symmetric, NaN at a NaN.  The orbit
    index is rebuilt per call: cached per (d, n) it lifted the peak RSS of
    a (4, 24) load and solve by 3 MiB (103.0 -> 106.2) to save 1.3 ms."""
    order, dim = stack.ndim - 1, stack.shape[-1]
    flat = _orbit_index(order, dim, _packing(order, dim)[0])
    orbit = np.take(stack.reshape(len(stack), -1).T, flat, axis=0)
    return orbit, orbit.max(axis=0) - orbit.min(axis=0)


def _symmetrized(orbit, spread):
    """(N, m) packed entries: a member's sorted entries where its spread is 0
    everywhere, else the mean of its d! orbit values per entry.  The sum
    runs in ascending order of value, which the values alone fix: every
    transpose of a member averages to the same bits."""
    packed = orbit[0].copy()
    uneven = np.any(spread != 0, axis=0)
    terms = orbit[:, :, uneven]     # a copy: sorted in place
    terms.sort(axis=0)
    packed[:, uneven] = terms.sum(axis=0) / len(orbit)
    return packed


def _check_members(stack):
    """Raise ValueError unless the stack holds finite cubical tensors of a
    supported order and n >= 2, each with its largest orbit spread within
    SYMMETRY_TOL * ||T||; return ``_orbit(stack)``.

    Finiteness is checked first: the spread of a pair of equal infinities
    is NaN, which no threshold comparison rejects.
    """
    order = stack.ndim - 1
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported tensor order {order}")
    if len(set(stack.shape[1:])) != 1 or stack.shape[-1] < 2:
        raise ValueError(f"bad tensor shape {stack.shape[1:]}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("tensor entries must be finite")
    orbit, spread = _orbit(stack)
    for ell, (arr, err) in enumerate(zip(stack, spread.max(axis=0))):
        # ||T|| = amax * ||T / amax||: compared in units of amax, neither
        # side overflows or underflows at extreme scales
        amax = float(np.max(np.abs(arr)))
        if amax > 0.0 and err / amax > SYMMETRY_TOL * float(
                np.linalg.norm(arr / amax)):
            raise ValueError(
                f"tensor {ell} is not symmetric: deviation {err:.3e} exceeds "
                f"{SYMMETRY_TOL:g} * ||T||")
    return orbit, spread


class TensorSet:
    """m >= 1 symmetric tensors of common order d in {2, 3, 4} and dimension
    n >= 2, stored as ``packed``: their entries at the N = C(n+d-1, d)
    sorted multi-indices, diagonal first (``_packing``), as an (N, m) array.

    ``TensorSet(arrays)`` takes one ``(n,)*d`` array (m = 1) or a list or
    tuple of them.  It copies, checks that every entry is finite and every
    member symmetric within ``SYMMETRY_TOL * ||T||``, and then, like
    ``load_tensorset``, keeps a bitwise-symmetric member's sorted entries
    and replaces any other member by its permutation average, so every
    transpose of an input gives the same set.  ``stack`` builds the dense
    ``(m,) + (n,)*d`` array afresh on every read; nothing ``sweeps.run``
    does per rotation reads it.  ``packed`` cannot be rebound; writes into
    it in place are seen by every method.
    """

    __slots__ = ("_packed", "order", "dim", "_entries", "_pieces", "_ndiag",
                 "_work")

    def __init__(self, arrays):
        if isinstance(arrays, (list, tuple)):
            # np.stack raises ValueError for an empty list or unequal shapes
            stack = np.stack(arrays, dtype=np.float64)
        else:
            stack = np.asarray(arrays, dtype=np.float64)[None]
        self._init(_symmetrized(*_check_members(stack)), stack.ndim - 1,
                   stack.shape[-1])

    def _init(self, packed, order, dim):
        """Fix the set's layout: ``packed``, made C-contiguous (a 1-D view
        of any other (N, m > 1) array is a copy), and its views that the
        solver reads.  ``_entries``, which ``rotate_plane`` gathers from and
        scatters to, is ``packed``, or at m = 1 its 1-D view: a 1-D
        scatter costs about 30% less than one of (K, 1) rows at (4, 24).
        ``_pieces``: (copies, 1-D rows) per class of ``_packing``, cut into
        pieces of at most DOT_PIECE entries, the first ``_ndiag`` of them
        the diagonal's, so every sum of squares is one dot per piece."""
        self._packed = packed = np.ascontiguousarray(packed)
        self.order, self.dim = order, dim
        flat, m = packed.reshape(-1), packed.shape[1]
        self._entries = flat if m == 1 else packed
        self._pieces = tuple(
            (c, flat[a:min(a + DOT_PIECE, hi * m)])
            for lo, hi, c in _packing(order, dim)[2]
            for a in range(lo * m, hi * m, DOT_PIECE))
        self._ndiag = -(-dim * m // DOT_PIECE)
        self._work = None

    @classmethod
    def _from_packed(cls, packed, order, dim):
        obj = cls.__new__(cls)
        obj._init(packed, order, dim)
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
        packed = np.zeros((math.comb(n + order - 1, order), 1))
        packed[:n, 0] = values
        return cls._from_packed(packed, order, n)

    @property
    def packed(self):
        """The (N, m) packed entries (read-only attribute)."""
        return self._packed

    @property
    def stack(self):
        """Dense ``(m,) + (n,)*d`` copy of the set, built on every read."""
        dense = np.take(self.packed, _packing(self.order, self.dim)[1], axis=0)
        return np.ascontiguousarray(dense.T).reshape(
            (len(self),) + (self.dim,) * self.order)

    def __len__(self):
        return self.packed.shape[1]

    def copy(self):
        return TensorSet._from_packed(self.packed.copy(), self.order, self.dim)

    __copy__ = copy     # a shallow copy that shared packed would rotate both

    def __reduce__(self):
        # pickle and deepcopy would split the views from the arrays they view
        return TensorSet._from_packed, (self.packed, self.order, self.dim)

    def frob_sq(self):
        """||T||^2 in O(m N): per piece of a class (``_init``), diagonal
        included, copies times the rows' ``vdot``, which, unlike ``dot``,
        overflows to inf silently."""
        return sum(c * float(np.vdot(p, p)) for c, p in self._pieces)

    def diag_sq_norm(self):
        """Sum of squared diagonal entries over the set (the objective f):
        one dot product of the n m diagonal rows per piece, at m n <=
        DOT_PIECE one in all."""
        total = 0.0
        for _, part in self._pieces[:self._ndiag]:
            total += float(part.dot(part))
        return total

    def offdiag_sq(self):
        """Squared off-diagonal mass, a fresh O(m N) sum, no subtraction:
        per piece of an off-diagonal class, its copies times its rows' dot
        product."""
        total = 0.0
        for copies, part in self._pieces[self._ndiag:]:
            total += copies * float(part.dot(part))
        return total

    def rotate_plane(self, i, j, theta):
        """In-place Givens rotation of all modes of every member tensor.

        Copies the packed positions of the K = O(n^(d-1)) entries with an
        index in {i, j} from the pair's row of ``_rotation_plan``'s table
        into an intp buffer, gathers those entries of every member, maps
        the blocks with t hits by the symmetric power S_t in one matrix
        product per t, and scatters them back, as rows or, at m = 1,
        through a 1-D view (``_init``); see ``_rotation_work`` for the
        buffers built on the first call.  It
        agrees with the dense rotation (``oracle.rotate_planes_reference``)
        to rounding, not bitwise: the product sums in another order.
        ``verify_invariants``' "plane-kernel" check compares the two.
        """
        if not (0 <= i < j < self.dim):
            raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, "
                             f"n={self.dim}")
        entries = self._entries
        if self._work is None:
            self._work = _rotation_work(self.order, self.dim,
                                        entries.shape[1:])
        table, touched, old, new, powers, monomials, steps = self._work
        touched[...] = table[i * (2 * self.dim - i - 3) // 2 + j - 1]
        # mode="clip" (no index is out of range) lets take skip a buffer
        entries.take(touched, axis=0, out=old, mode="clip")
        _symmetric_powers(self.order, math.cos(theta), math.sin(theta),
                          powers, monomials)
        for power, old_t, new_t in steps:
            np.dot(power, old_t, out=new_t)
        entries[touched] = new
        return self

    def rotated_by(self, q):
        """New TensorSet with every tensor contracted with q^T on all modes,
        by one ``tensordot`` per mode of the dense stack; ValueError unless
        q is n x n.  The product is symmetric only up to rounding; the set
        keeps its entries at the sorted multi-indices, unchecked and not
        averaged, so a rotation by I reproduces ``packed``."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim, self.dim):
            raise ValueError(
                f"matrix shape {q.shape} does not match dim {self.dim}")
        qt = np.ascontiguousarray(q.T)
        out = self.stack
        for axis in range(1, self.order + 1):
            out = np.moveaxis(np.tensordot(qt, out, axes=([1], [axis])),
                              0, axis)
        reps = _packing(self.order, self.dim)[0]
        return TensorSet._from_packed(out.reshape(len(self), -1).T[reps],
                                      self.order, self.dim)


# ---------------------------------------------------------------------------
# text file format:
#   symtensor v1 d=<d> n=<n> m=<m>
#   <m blocks of n^d whitespace-separated floats, row-major>

def _ranks(strings, first):
    """(k,) intp rank of each of k strings among the distinct ones, in
    order of first occurrence, by one pass over the strings that fills
    ``first``, an empty dict, with string -> rank.  ``map`` reads
    ``len(first)`` before ``setdefault`` sees the string: the rank a new
    string gets."""
    return np.fromiter(map(first.setdefault, strings,
                           map(len, itertools.repeat(first))), dtype=np.intp)


def save_tensorset(path, tensors):
    """Write a set in the v1 format above, 17 significant digits."""
    ts = tensors if isinstance(tensors, TensorSet) else TensorSet(tensors)
    with open(path, "w") as fh:
        fh.write(f"symtensor v1 d={ts.order} n={ts.dim} m={len(ts)}\n")
        np.savetxt(fh, ts.stack.reshape(-1, ts.dim), fmt="%.17g")


def load_tensorset(path):
    """Read a tensor set.

    Each distinct line is split once, and each distinct token parsed once.
    One dict pass over the file's lines, as they are read, ranks each line
    among the distinct ones (``_ranks``); only those are split.  A second
    pass ranks their tokens, NumPy parses the distinct tokens, and one
    gather, indexed from each line's token count, fills the dense stack.
    A line ends after a newline, which is whitespace to ``str.split``, so
    the lines' tokens in file order are the body's, whatever its layout
    (ragged lines, one token per line, the whole body on one line); equal
    lines hold equal tokens, and equal tokens parse to equal floats, so
    the values are bitwise those of parsing every token.  The count is
    checked before any token is parsed, and a non-numeric token is named
    by its first place in the file.

    This pays on a file that repeats lines, as every writer in the package
    and the benchmark's writer do: each writes n values to a line and each
    entry bitwise at its sorted place, so a line repeats at every
    permutation of its first d - 1 indices.  At (d, n, m) = (4, 24, 1) the
    13,824 lines hold 2,600 distinct ones, with 62,400 tokens (17,550
    distinct) to split and hash instead of 331,776: a load takes 34 ms,
    against 89 ms when every token was split and hashed, and its
    ``tracemalloc`` peak is 9.6 MiB against 32.5 MiB (2-vCPU Xeon VM,
    ``tools/load_time.py``, best of 3 runs of 15 loads).  A file symmetric
    only to rounding repeats no line and pays for both dict passes: at
    that size, 244 ms against 234 ms.

    Each member is checked once, from one gather of its orbit values
    (finite entries, largest orbit spread within SYMMETRY_TOL * ||T||).  As
    in the constructor, a member whose spread is 0 everywhere keeps its
    sorted entries; any other member is replaced by its permutation average.
    """
    lines = {}              # line -> its rank among the distinct lines
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            line_at = _ranks(fh, lines)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(header) != 5 or header[0] != "symtensor" or header[1] != "v1":
        raise ValueError(f"bad symtensor header in {path}")
    try:
        fields = dict(kv.split("=") for kv in header[2:])
        d, n, m = int(fields["d"]), int(fields["n"]), int(fields["m"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad symtensor header in {path}") from exc
    if d not in _SUPPORTED_ORDERS or n < 2 or m < 1:
        raise ValueError(f"unsupported symtensor parameters d={d} n={n} m={m}")
    words = list(map(str.split, lines))
    del lines
    counts = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    per_line = counts[line_at]
    total = int(per_line.sum())
    if total != m * n**d:
        raise ValueError(
            f"expected {m * n**d} values in {path}, found {total}")
    try:
        tokens = {}         # token -> its rank among the distinct tokens
        at = _ranks(itertools.chain.from_iterable(words), tokens)
        del words
        # parsed in order of rank, which is file order: the first bad
        # token of the file is the one named
        values = np.array(list(tokens), dtype=np.float64)
        del tokens
        # line k of the file repeats the tokens of its distinct line, which
        # start at starts[line_at[k]] of ``at``
        starts = np.cumsum(counts) - counts
        gather = np.repeat(starts[line_at] - np.cumsum(per_line) + per_line,
                           per_line)
        gather += np.arange(total)
        stack = values[at][gather].reshape((m,) + (n,) * d)
        # each structure goes once read, all before the check allocates:
        # the distinct strings lie scattered over memory that the allocator
        # returns only once they go
        del at, values, gather
        orbit, spread = _check_members(stack)
    except ValueError as exc:     # a non-numeric token, or a bad member
        raise ValueError(f"{path}: {exc}") from None
    return TensorSet._from_packed(_symmetrized(orbit, spread), d, n)
