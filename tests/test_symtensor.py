import copy
import functools
import itertools
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from jacobidiag import symtensor
from jacobidiag.angles import SubproblemView
from jacobidiag.harness import ExperimentSpec, make_test_problem
from jacobidiag.oracle import _canonical_map, rotate_planes_reference
from jacobidiag.symtensor import (TensorSet, _packing,
                                  _symmetric_powers, load_tensorset,
                                  save_tensorset)

from reference import (all_mode_product, dense_symmetrize,
                       dense_symmetry_error, givens_matrix, offdiag_sq_norm,
                       rotated_view)


def random_symtensor(order, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return TensorSet(
        dense_symmetrize(scale * rng.standard_normal((dim,) * order)))


def random_orthogonal(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def naive_rotation(tensor, i, j, theta):
    """Oracle: the Givens matrix applied to every mode by one einsum."""
    g = givens_matrix(tensor.dim, i, j, theta)
    return all_mode_product(tensor.stack[0], g.T)


# ---------------------------------------------------------------------------
# dense contraction with a matrix on every mode

@pytest.mark.parametrize("order", [2, 3, 4])
def test_norm_invariance_under_orthogonal(order):
    t = random_symtensor(order, 5, order)
    q = random_orthogonal(5, 17)
    w = all_mode_product(t.stack[0], q.T)
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(t.stack[0]),
                                              rel=1e-10)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_rotated_by_matches_einsum(order, m):
    # rotated_by(q) contracts q^T with every mode of every member; by I it
    # reproduces packed, and it refuses a q that is not n x n
    rng = np.random.default_rng(20 + 10 * order + m)
    n = 5
    ts = TensorSet([dense_symmetrize(rng.standard_normal((n,) * order))
                    for _ in range(m)])
    q = random_orthogonal(n, 30 + order)
    expected = all_mode_product(ts.stack, q.T, order)
    err = np.max(np.abs(ts.rotated_by(q).stack - expected))
    assert err <= 1e-13 * np.linalg.norm(ts.stack)
    same = ts.rotated_by(np.eye(n))
    assert np.array_equal(same.packed, ts.packed)
    assert not np.shares_memory(same.packed, ts.packed)
    for bad in (np.eye(n + 1), np.eye(n)[:, :-1], np.ones(n)):
        with pytest.raises(ValueError, match="does not match"):
            ts.rotated_by(bad)


# ---------------------------------------------------------------------------
# Givens rotation kernel

def test_rotate_zero_angle_is_bit_identical():
    t = random_symtensor(3, 5, 2)
    before = t.stack[0].copy()
    t.rotate_plane(1, 3, 0.0)
    assert np.array_equal(t.stack[0], before)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_rotate_matches_naive_mode_products(order):
    t = random_symtensor(order, 5, 3 + order)
    expected = naive_rotation(t, 0, 3, 0.37)
    t.rotate_plane(0, 3, 0.37)
    assert np.max(np.abs(t.stack[0] - expected)) <= \
        1e-12 * np.linalg.norm(expected)


def test_rotate_quarter_turn_preserves_diag_objective():
    t = random_symtensor(3, 4, 5)
    base = t.diag_sq_norm()
    rotated = t.copy().rotate_plane(0, 2, math.pi / 2)
    assert rotated.diag_sq_norm() == pytest.approx(base, rel=1e-10)
    # quarter-period of the objective along the geodesic
    for theta in (0.1, -0.31, 0.7):
        a = t.copy().rotate_plane(1, 3, theta).diag_sq_norm()
        b = t.copy().rotate_plane(1, 3, theta + math.pi / 2).diag_sq_norm()
        assert a == pytest.approx(b, rel=1e-10)


def test_rotate_offdiag_invariant_at_quarter_turn():
    t = random_symtensor(3, 4, 11)
    base = offdiag_sq_norm(t)
    t.rotate_plane(0, 1, math.pi / 2)
    assert offdiag_sq_norm(t) == pytest.approx(base, rel=1e-10)


def test_rotate_locality_untouched_entries_bit_identical():
    t = random_symtensor(4, 6, 7)
    before = t.stack[0].copy()
    t.rotate_plane(1, 4, 0.8)
    rest = [k for k in range(6) if k not in (1, 4)]
    sub = np.ix_(rest, rest, rest, rest)
    assert np.array_equal(t.stack[0][sub], before[sub])


def test_rotation_sequence_keeps_exact_symmetry():
    t = random_symtensor(3, 6, 8)
    rng = np.random.default_rng(9)
    for _ in range(500):
        i, j = sorted(rng.choice(6, size=2, replace=False))
        t.rotate_plane(int(i), int(j), float(rng.uniform(-0.7, 0.7)))
    assert dense_symmetry_error(t.stack[0]) == 0.0


def test_rotate_bad_pair_rejected():
    t = random_symtensor(2, 4, 10)
    for i, j in [(2, 2), (3, 1), (0, 4), (-1, 2)]:
        with pytest.raises(ValueError):
            t.rotate_plane(i, j, 0.1)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_row_kernel_matches_reference_bitwise(order, m, n, monkeypatch):
    # where no product rounds, the summation order cannot matter: with c, s
    # read as their signs (quarter turns become signed permutations, the
    # pi/4 turns sqrt(2) G with c = s = 1) on small-integer tensors, every
    # entry stays an integer below 2^53, so the packed kernel must equal the
    # dense reference bit for bit; a slip in the plan's rows, its block
    # order or the S_t table shows
    def exact(v):
        return float(np.sign(round(v, 12)))

    powers = symtensor._symmetric_powers
    monkeypatch.setattr(symtensor, "_symmetric_powers",
                        lambda d, c, s, out: powers(d, exact(c), exact(s),
                                                    out))
    rng = np.random.default_rng(100 * order + 10 * m + n)

    def integer_symtensor():
        return sum(float(w) * functools.reduce(np.multiply.outer, [a] * order)
                   for w, a in zip(rng.integers(-3, 4, size=n),
                                   rng.integers(-3, 4, size=(n, n)) * 1.0))

    ts = TensorSet([integer_symtensor() for _ in range(m)])
    ref = ts.stack.copy()
    fixed = [(0, 1, math.pi / 4), (0, n - 1, -math.pi / 4),
             (n - 2, n - 1, math.pi / 4), (0, 1, -math.pi / 4)]
    randoms = []
    for _ in range(40):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        theta = float(rng.choice([math.pi / 2, -math.pi / 2, math.pi]))
        randoms.append((int(i), int(j), theta))
    for i, j, theta in fixed + randoms:
        ts.rotate_plane(i, j, theta)
        rotate_planes_reference(ref, i, j, exact(math.cos(theta)),
                                exact(math.sin(theta)))
        assert np.array_equal(ts.stack, ref), (i, j, theta)
        for member in ts.stack:
            assert dense_symmetry_error(member) == 0.0
        fresh = offdiag_sq_norm(ts)
        assert abs(ts.offdiag_sq() - fresh) <= 1e-13 * fresh
    assert np.all(ref == np.round(ref)) and np.max(np.abs(ref)) < 2.0 ** 53


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64")
@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_row_kernel_error_within_twice_dense_reference(order, m, n):
    # the same rotations (the same float64 c, s) on a long-double dense
    # stack give the accurate result; the packed kernel may be off from it
    # by at most twice what the float64 dense reference is
    rng = np.random.default_rng(100 * order + 10 * m + n)
    ts = TensorSet([dense_symmetrize(rng.standard_normal((n,) * order))
                    for _ in range(m)])
    ref = ts.stack.copy()
    exact = ref.astype(np.longdouble)
    fixed = [(0, 1, math.pi / 4), (0, n - 1, -math.pi / 4),
             (n - 2, n - 1, math.pi / 4), (0, 1, -math.pi / 4)]
    randoms = []
    for _ in range(40):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        randoms.append((int(i), int(j), float(rng.uniform(-0.8, 0.8))))
    kernel_err = ref_err = 0.0
    for i, j, theta in fixed + randoms:
        c, s = math.cos(theta), math.sin(theta)
        ts.rotate_plane(i, j, theta)
        rotate_planes_reference(ref, i, j, c, s)
        rotate_planes_reference(exact, i, j, c, s)
        scale = np.max(np.abs(exact))
        kernel_err = max(kernel_err, float(np.max(np.abs(ts.stack - exact))
                                           / scale))
        ref_err = max(ref_err, float(np.max(np.abs(ref - exact)) / scale))
        for member in ts.stack:
            assert dense_symmetry_error(member) == 0.0
        fresh = offdiag_sq_norm(ts)
        assert abs(ts.offdiag_sq() - fresh) <= 1e-13 * fresh
    assert 0.0 < ref_err < 1e-14
    assert kernel_err <= 2.0 * ref_err, (kernel_err, ref_err)


def powers_at(order, theta):
    powers = np.empty((order, order + 1, order + 1))
    _symmetric_powers(order, math.cos(theta), math.sin(theta),
                      powers.reshape(-1))
    return [powers[t - 1, :t + 1, :t + 1] for t in range(1, order + 1)]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_symmetric_powers_in_place_match_the_table_product(order):
    # S_t written in place is bitwise the table's product with the list of
    # monomials c^p s^q, p-major, each a product of Python floats
    rng = np.random.default_rng(80 + order)
    out = np.empty(order * (order + 1) ** 2)
    for theta in rng.uniform(-math.pi, math.pi, size=50):
        c, s = math.cos(theta), math.sin(theta)
        cp, sp = [1.0], [1.0]
        for _ in range(order):
            cp.append(cp[-1] * c)
            sp.append(sp[-1] * s)
        expected = symtensor._POWER_TABLE[order].dot(
            [a * b for a in cp for b in sp])
        _symmetric_powers(order, c, s, out)
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_symmetric_powers_at_zero_are_identity(order):
    for t, power in enumerate(powers_at(order, 0.0), start=1):
        assert np.array_equal(power, np.eye(t + 1))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_symmetric_powers_compose(order):
    rng = np.random.default_rng(60 + order)
    for _ in range(20):
        a, b = rng.uniform(-math.pi, math.pi, size=2)
        for sa, sb, sab in zip(powers_at(order, a), powers_at(order, b),
                               powers_at(order, a + b)):
            assert np.max(np.abs(sa @ sb - sab)) <= 1e-14


@pytest.mark.parametrize("order", [2, 3, 4])
def test_symmetric_powers_keep_the_weighted_norm(order):
    # an entry with a indices i stands for C(t, a) dense entries of the
    # block, so S_t^T diag(C(t, a)) S_t = diag(C(t, a)): the block form of
    # f + offdiag = total
    rng = np.random.default_rng(70 + order)
    for theta in rng.uniform(-math.pi, math.pi, size=20):
        for t, power in enumerate(powers_at(order, theta), start=1):
            weights = np.diag([math.comb(t, a) for a in range(t + 1)])
            assert np.max(np.abs(power.T @ weights @ power - weights)) \
                <= 1e-14 * weights.max()


@pytest.mark.parametrize("order,n,m,limit", [(4, 24, 1, 39_200),
                                              (3, 14, 14, 21_952)])
def test_rotate_plane_allocates_no_touched_array(order, n, m, limit):
    # limit: one (K, m) float64 array, K = 4,900 and 196 touched entries;
    # after the first call builds the work area, a call allocates less
    rng = np.random.default_rng(90 + order)
    ts = TensorSet([dense_symmetrize(rng.standard_normal((n,) * order))
                    for _ in range(m)])
    pairs = [sorted(rng.choice(n, size=2, replace=False).tolist())
             for _ in range(50)]
    ts.rotate_plane(0, 1, 0.3)
    tracemalloc.start()
    try:
        for i, j in pairs:
            ts.rotate_plane(i, j, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


@pytest.mark.parametrize("order,n,m", [(4, 24, 1), (3, 14, 14)])
def test_offdiag_sq_allocates_no_packed_sized_array(order, n, m):
    # the sum reads each class of rows in place: a call allocates less
    # than one (N, m) float64 array
    rng = np.random.default_rng(93 + order)
    ts = TensorSet([dense_symmetrize(rng.standard_normal((n,) * order))
                    for _ in range(m)])
    limit = math.comb(n + order - 1, order) * m * 8
    ts.offdiag_sq()          # a first call's one-off costs stay untraced
    tracemalloc.start()
    try:
        for _ in range(5):
            ts.offdiag_sq()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


@pytest.mark.parametrize("order", [2, 3, 4])
def test_rotation_work_areas_are_private(order):
    # two sets of one (d, n, m) rotated in alternation end bitwise where
    # each ends rotated alone, and a rotated copy leaves its original as
    # is; at m = 1 the kernel writes through a 1-D view of packed
    rng = np.random.default_rng(95 + order)
    for m in (1, 2):
        a, b = (TensorSet([dense_symmetrize(rng.standard_normal((6,) * order))
                           for _ in range(m)]) for _ in range(2))
        alone_a, alone_b = a.copy(), b.copy()

        def steps():
            return [(*sorted(rng.choice(6, size=2, replace=False).tolist()),
                     float(rng.uniform(-0.8, 0.8))) for _ in range(30)]

        steps_a, steps_b = steps(), steps()
        for (i, j, theta), (k, p, phi) in zip(steps_a, steps_b):
            a.rotate_plane(i, j, theta)
            b.rotate_plane(k, p, phi)
        for i, j, theta in steps_a:
            alone_a.rotate_plane(i, j, theta)
        for k, p, phi in steps_b:
            alone_b.rotate_plane(k, p, phi)
        assert np.array_equal(a.packed, alone_a.packed)
        assert np.array_equal(b.packed, alone_b.packed)
        before = a.packed.copy()
        twin = a.copy()
        assert twin._work is None
        twin.rotate_plane(0, 1, 0.4)
        assert np.array_equal(a.packed, before)
        assert not np.array_equal(twin.packed, before)
        buffers = [np.asarray(x) for ts in (a, b, twin)
                   for x in ts._work[3:8]]
        assert not any(np.shares_memory(x, y)
                       for x, y in itertools.combinations(buffers, 2))
        # pickled, deep- and shallow-copied sets rotate like copy(): a
        # work area's views would not survive either, and a shallow copy
        # that shared packed would rotate a with it
        for clone in (copy.deepcopy(a), pickle.loads(pickle.dumps(a)),
                      copy.copy(a)):
            assert clone._work is None
            clone.rotate_plane(0, 1, 0.4)
            assert np.array_equal(clone.packed, twin.packed)
        assert np.array_equal(a.packed, before)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("touch_first", [False, True])
def test_flat_kernel_writes_the_live_array(order, touch_first):
    # at m = 1 the kernel gathers and scatters through a 1-D view of
    # packed; a 1-D copy instead (of an input that is not C-contiguous,
    # say) would take the scatter without an error and lose it.  Start
    # from a column of a wider array, which the set copies once, when made
    ref = random_symtensor(order, 5, 61 + order)
    wide = np.zeros((len(ref.packed), 2))
    wide[:, 0] = ref.packed[:, 0]
    loose = TensorSet._from_packed(wide[:, :1], order, 5)
    assert loose.packed.flags.c_contiguous
    assert not np.shares_memory(loose.packed, wide)
    if touch_first:
        assert loose.diag_sq_norm() == ref.diag_sq_norm()
    for i, j, theta in ((0, 1, 0.3), (2, 4, -0.7), (1, 3, 0.5), (0, 4, 0.2)):
        loose.rotate_plane(i, j, theta)
        ref.rotate_plane(i, j, theta)
        assert np.array_equal(loose.packed, ref.packed)
    assert loose.diag_sq_norm() == ref.diag_sq_norm()
    assert loose.offdiag_sq() == ref.offdiag_sq()


@pytest.mark.parametrize("m", [1, 3])
def test_every_constructor_fixes_the_layout(m, tmp_path):
    # packed is C-contiguous after every constructor, the views the solver
    # reads are views of it, and it cannot be rebound
    rng = np.random.default_rng(70 + m)
    ts = TensorSet([dense_symmetrize(rng.standard_normal((4, 4, 4)))
                    for _ in range(m)])
    path = tmp_path / "set.st"
    save_tensorset(path, ts)
    strided = np.repeat(ts.packed, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous
    # one averaged input: each member carries 1e-13 of asymmetric noise
    uneven = [a + 1e-13 * rng.standard_normal(a.shape) for a in ts.stack]
    made = [ts, TensorSet(list(ts.stack)), TensorSet(uneven),
            TensorSet._from_packed(strided, 3, 4), ts.copy(),
            ts.rotated_by(random_orthogonal(4, 72)), load_tensorset(path),
            pickle.loads(pickle.dumps(ts)), copy.deepcopy(ts), copy.copy(ts)]
    if m == 1:
        made.append(TensorSet.from_diagonal([1.0, 2.0, 3.0, 4.0], 3))
    for t in made:
        assert t.packed.flags.c_contiguous
        classes = [rows for _, rows in t._by_class]
        assert all(np.shares_memory(v, t.packed)
                   for v in [t._entries] + classes)
        assert sum(rows.size for rows in classes) == t.packed.size
        with pytest.raises(AttributeError):
            t.packed = t.packed.copy()


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_rotated_full_block_is_the_rotated_view(order, m):
    # the t = d block (empty rest) holds the pair's view nu
    rng = np.random.default_rng(80 + 10 * order + m)
    ts = TensorSet([dense_symmetrize(rng.standard_normal((6,) * order))
                    for _ in range(m)])
    for i, j, theta in [(0, 1, 0.3), (2, 5, -0.7), (1, 4, math.pi / 4)]:
        view = SubproblemView.from_tensors(ts, i, j)
        ts.rotate_plane(i, j, theta)
        nu = SubproblemView.from_tensors(ts, i, j).nu
        expect = rotated_view(view, theta).nu
        assert np.max(np.abs(nu - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_packed_storage_holds_one_entry_per_sorted_index(order, m):
    rng = np.random.default_rng(90 + 10 * order + m)
    n = 5
    ts = TensorSet([dense_symmetrize(rng.standard_normal((n,) * order))
                    for _ in range(m)])
    assert ts.packed.shape == (math.comb(n + order - 1, order), m)


# ---------------------------------------------------------------------------
# diagonal / off-diagonal metrics

def test_diag_sq_norm_zero_tensor():
    assert TensorSet(np.zeros((4, 4, 4))).diag_sq_norm() == 0.0


def test_diag_sq_norm_equal_diagonal_is_one():
    t = TensorSet.from_diagonal(np.full(10, 1.0 / math.sqrt(10)), 3)
    assert t.diag_sq_norm() == pytest.approx(1.0, rel=1e-14)


def test_offdiag_examples():
    for order in (2, 3, 4):
        t = TensorSet.from_diagonal([1.0, -2.0, 0.5], order)
        assert offdiag_sq_norm(t) == 0.0
    m = TensorSet(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert offdiag_sq_norm(m) == pytest.approx(2.0)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_partition_diag_plus_offdiag(order):
    t = random_symtensor(order, 5, 20 + order)
    assert t.diag_sq_norm() + offdiag_sq_norm(t) == pytest.approx(
        t.frob_sq(), rel=1e-12)


def zeroed_diagonal_sq(ts):
    """The off-diagonal sum the long way: copy, zero the diagonal, sum."""
    tmp = ts.stack.copy()
    idx = np.arange(ts.dim)
    tmp[(slice(None),) + (idx,) * ts.order] = 0.0
    return float(np.vdot(tmp, tmp))


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_offdiag_matches_zeroed_copy(order, m):
    rng = np.random.default_rng(70 + 10 * order + m)
    for n in (2, 3, 7):
        ts = TensorSet([dense_symmetrize(rng.standard_normal((n,) * order))
                        for _ in range(m)])
        assert offdiag_sq_norm(ts) == pytest.approx(
            zeroed_diagonal_sq(ts), rel=1e-14)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_offdiag_keeps_mass_far_below_rounding(order):
    rng = np.random.default_rng(80 + order)
    n = 5
    noise = 1e-15 * dense_symmetrize(rng.standard_normal((n,) * order))
    base = TensorSet.from_diagonal(np.linspace(1.0, 2.0, n), order).stack[0]
    ts = TensorSet(base + noise)
    mass = offdiag_sq_norm(ts)
    assert 1e-31 * ts.frob_sq() < mass < 1e-28 * ts.frob_sq()
    assert mass == pytest.approx(zeroed_diagonal_sq(ts), rel=1e-14)


# ---------------------------------------------------------------------------
# construction and validation

def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        TensorSet(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        TensorSet(np.zeros(5))
    with pytest.raises(ValueError):
        TensorSet(np.full((3, 3), np.nan))
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        TensorSet(asym)


@pytest.mark.parametrize("scale", [1e160, 1e-310])
def test_constructor_rejects_asymmetry_at_extreme_scale(scale):
    asym = scale * np.array([[1.0, 2.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not symmetric"):
            TensorSet(asym)


def test_constructor_canonicalizes_tiny_asymmetry():
    arr = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
    t = TensorSet(arr)
    assert dense_symmetry_error(t.stack[0]) == 0.0


def test_from_diagonal_layout():
    t = TensorSet.from_diagonal([1.0, 2.0, 3.0], 4)
    assert np.array_equal(t.packed[:t.dim].T[0], [1.0, 2.0, 3.0])
    assert offdiag_sq_norm(t) == 0.0


def test_sums_read_the_current_packed_array():
    # the sums read views made when the set is made: they follow in-place
    # rotations and in-place writes alike
    ts = random_symtensor(3, 4, 34)
    f, off = ts.diag_sq_norm(), ts.offdiag_sq()
    ts.rotate_plane(0, 2, 0.4)
    assert ts.diag_sq_norm() != f and ts.offdiag_sq() != off
    assert ts.offdiag_sq() == pytest.approx(offdiag_sq_norm(ts), rel=1e-13)
    ts.packed[...] = 0.0
    assert ts.diag_sq_norm() == 0.0 and ts.offdiag_sq() == 0.0
    pair = TensorSet([np.diag([1.0, 2.0, 3.0])] * 2)
    f = pair.diag_sq_norm()
    pair.rotate_plane(0, 1, 0.3)
    assert pair.diag_sq_norm() != f
    pair.packed[:2] = 0.0
    assert pair.diag_sq_norm() == 2 * 3.0 ** 2


@pytest.mark.parametrize("values", [[np.nan, 1.0], [1.0]])
def test_from_diagonal_rejects_bad_input(values):
    with pytest.raises(ValueError):
        TensorSet.from_diagonal(values, 3)


def test_tensorset_validation():
    with pytest.raises(ValueError):
        TensorSet([])
    a = random_symtensor(3, 4, 40)
    b = random_symtensor(3, 5, 41)
    with pytest.raises(ValueError):
        TensorSet([a.stack[0], b.stack[0]])
    c = random_symtensor(2, 4, 42)
    with pytest.raises(ValueError):
        TensorSet([a.stack[0], c.stack[0]])


def test_set_diag_sq_norm_sums_members():
    a = random_symtensor(3, 4, 50)
    b = random_symtensor(3, 4, 51)
    ts = TensorSet([a.stack[0], b.stack[0]])
    assert ts.diag_sq_norm() == pytest.approx(
        a.diag_sq_norm() + b.diag_sq_norm(), rel=1e-14)


def test_tensorset_rotate_matches_members():
    a = random_symtensor(3, 4, 52)
    b = random_symtensor(3, 4, 53)
    ts = TensorSet([a.stack[0], b.stack[0]])
    ts.rotate_plane(0, 2, 0.4)
    assert np.allclose(ts.stack[0],
                       a.copy().rotate_plane(0, 2, 0.4).stack[0],
                       rtol=0, atol=1e-15)
    assert np.allclose(ts.stack[1],
                       b.copy().rotate_plane(0, 2, 0.4).stack[0],
                       rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# file format

def test_file_roundtrip_is_exact(tmp_path):
    ts = TensorSet([random_symtensor(3, 4, 60).stack[0],
                    random_symtensor(3, 4, 61).stack[0]])
    path = tmp_path / "set.st"
    save_tensorset(path, ts)
    back = load_tensorset(path)
    assert len(back) == 2 and back.order == 3 and back.dim == 4
    assert np.array_equal(back.stack, ts.stack)
    header = path.read_text().splitlines()[0]
    assert header == "symtensor v1 d=3 n=4 m=2"


def test_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.st"
    p.write_text("not a header\n1 2 3\n")
    with pytest.raises(ValueError):
        load_tensorset(p)
    p.write_text("symtensor v1 d=2 n=2 m=1\n1 2 3\n")
    with pytest.raises(ValueError):
        load_tensorset(p)
    # asymmetric beyond 1e-9 * ||T||
    p.write_text("symtensor v1 d=2 n=2 m=1\n1 2\n2.1 3\n")
    with pytest.raises(ValueError):
        load_tensorset(p)


def test_load_symmetrizes_tiny_asymmetry(tmp_path):
    p = tmp_path / "tiny.st"
    p.write_text("symtensor v1 d=2 n=2 m=1\n1 2\n2.0000000001 3\n")
    ts = load_tensorset(p)
    assert dense_symmetry_error(ts.stack[0]) == 0.0
    assert ts.stack[0, 0, 1] == pytest.approx(2.00000000005)


@pytest.mark.parametrize("body", ["1 inf\ninf 3\n", "1 2\nnan 3\n"])
def test_load_rejects_non_finite_entries(tmp_path, body):
    p = tmp_path / "nonfinite.st"
    p.write_text("symtensor v1 d=2 n=2 m=1\n" + body)
    with pytest.raises(ValueError, match="finite"):
        load_tensorset(p)


# ---------------------------------------------------------------------------
# symmetry from the packed layout, against dense references

def write_v1(path, stack):
    """A dense stack in the ``symtensor v1`` text format, unchecked."""
    m, n, order = stack.shape[0], stack.shape[-1], stack.ndim - 1
    rows = [" ".join(f"{v:.17g}" for v in row) for row in stack.reshape(-1, n)]
    path.write_text(f"symtensor v1 d={order} n={n} m={m}\n"
                    + "\n".join(rows) + "\n")


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_save_writes_the_bytes_of_the_reference_writer(order, m, tmp_path):
    # 17 significant digits of every entry, signed zero, subnormal and
    # largest finite values included, n to a line
    n = 3
    rng = np.random.default_rng(640 + order)
    packed = rng.standard_normal((math.comb(n + order - 1, order), m))
    packed[:4, 0] = [-0.0, 5e-324, -1.7976931348623157e308, 1.0 / 3.0]
    ts = TensorSet._from_packed(packed, order, n)
    save_tensorset(tmp_path / "saved.st", ts)
    write_v1(tmp_path / "reference.st", ts.stack)
    assert ((tmp_path / "saved.st").read_bytes()
            == (tmp_path / "reference.st").read_bytes())


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_packing_matches_sort_based_canonical_map(order, n):
    reps, pos, classes = _packing(order, n)
    assert reps.size == math.comb(n + order - 1, order)
    assert np.array_equal(reps[pos], _canonical_map(order, n))
    assert np.array_equal(pos[reps], np.arange(reps.size))
    # rows [0, n): the diagonal in index order, the first class; then the
    # off-diagonal classes, contiguous, in ascending number of copies, lex
    # within each
    diagonal = np.arange(n) * ((n ** order - 1) // (n - 1))
    assert np.array_equal(reps[:n], diagonal)
    assert classes[0] == (0, n, 1)
    edges = [lo for lo, _, _ in classes] + [reps.size]
    assert [hi for _, hi, _ in classes] == edges[1:]
    copies = [c for _, _, c in classes]
    assert copies == sorted(set(copies))
    row_copies = np.ones(reps.size, dtype=np.intp)
    for lo, hi, c in classes:
        assert np.all(np.diff(reps[lo:hi]) > 0)
        row_copies[lo:hi] = c
    assert np.all(np.diff(reps[:n]) > 0)
    assert np.array_equal(row_copies, np.bincount(pos))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_load_averages_like_dense_reference_bitwise(order, tmp_path):
    # member 0 is bitwise symmetric and kept, member 1 is averaged
    rng = np.random.default_rng(410 + order)
    n = 4
    base = dense_symmetrize(rng.standard_normal((n,) * order))
    tiny = base + 1e-12 * rng.standard_normal(base.shape)
    path = tmp_path / "pair.st"
    write_v1(path, np.stack([base, tiny]))
    expected = np.stack([base, dense_symmetrize(tiny, by_value=True)])
    assert load_tensorset(path).stack.tobytes() == expected.tobytes()


@pytest.mark.parametrize("order", [2, 3, 4])
def test_one_input_gives_one_set(order, tmp_path):
    # the constructor and the loader keep or average by one rule, and the
    # average sums each orbit in value order: every transpose of an input
    # and its file give the same packed entries
    rng = np.random.default_rng(430 + order)
    n = 5
    for trial in range(3):
        base = dense_symmetrize(rng.standard_normal((n,) * order))
        a = base + 1e-12 * rng.standard_normal(base.shape)
        assert dense_symmetry_error(a) > 0.0
        path = tmp_path / f"a{trial}.st"
        write_v1(path, a[None])
        made = [TensorSet(a), load_tensorset(path)] + [
            TensorSet(a.transpose(p))
            for p in itertools.permutations(range(order))]
        expected = dense_symmetrize(a, by_value=True)
        for ts in made:
            assert ts.packed.tobytes() == made[0].packed.tobytes()
            assert ts.stack[0].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# the loader parses each distinct token once: bitwise the in-memory route

def assert_loads_like_memory(path):
    """Assert that ``load_tensorset(path)`` is bitwise the set built in
    memory from every token of the file, each parsed on its own; return
    the tokens."""
    header, body = path.read_text().split("\n", 1)
    fields = dict(kv.split("=") for kv in header.split()[2:])
    d, n, m = int(fields["d"]), int(fields["n"]), int(fields["m"])
    tokens = body.split()
    dense = np.array(tokens, dtype=float).reshape((m,) + (n,) * d)
    assert (load_tensorset(path).packed.tobytes()
            == TensorSet(list(dense)).packed.tobytes())
    return tokens


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_load_of_generated_file_matches_in_memory_route(order, m, tmp_path):
    # gen's files repeat each value at every place of its orbit
    spec = ExperimentSpec(n=5, order=order, m=m, sigma=1e-3, seed_rot=order,
                          seed_noise=m)
    path = tmp_path / "gen.st"
    save_tensorset(path, make_test_problem(spec)[0])
    tokens = assert_loads_like_memory(path)
    assert len(set(tokens)) <= m * math.comb(5 + order - 1, order)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_load_of_file_without_repeated_tokens(order, tmp_path):
    # symmetric only to rounding: every token distinct, and each member is
    # averaged, as in memory
    rng = np.random.default_rng(450 + order)
    base = dense_symmetrize(rng.standard_normal((4,) * order))
    path = tmp_path / "round.st"
    write_v1(path, (base * (1 + 1e-13 * rng.standard_normal(base.shape)))[None])
    tokens = assert_loads_like_memory(path)
    assert len(set(tokens)) == len(tokens)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_load_of_values_spelled_differently(order, tmp_path):
    # twin places hold one value in different spellings ("2", "2.0", "2e0";
    # "-0" beside "0"): each spelling is its own token and parses to the
    # same bits, and the spread of 0 and -0 is 0, so the member is kept.
    # Zeros go by row-major order of place, and an orbit's sorted place
    # comes first in it: W[0, ..., 0] reads "0", the last row's orbit "-0"
    # at its sorted place; a loader that merged tokens by value would make
    # that -0 a +0
    rng = np.random.default_rng(460 + order)
    packed = rng.integers(1, 4, (math.comb(3 + order - 1, order), 1))
    packed[[0, -1]] = 0     # the last row has copies: twin zeros
    ints = TensorSet._from_packed(packed.astype(float), order, 3).stack[0]
    zeros = itertools.cycle(["0", "-0", "0.0", "-0e0"])
    others = itertools.cycle(["{:g}", "{:.1f}", "{:g}e0"])
    words = [next(zeros) if v == 0 else next(others).format(v)
             for v in ints.reshape(-1)]
    path = tmp_path / "spelled.st"
    path.write_text(f"symtensor v1 d={order} n=3 m=1\n" + " ".join(words)
                    + "\n")
    tokens = assert_loads_like_memory(path)
    assert len(set(tokens)) > len(set(np.array(tokens, dtype=float)))
    assert {"0", "-0"} <= set(tokens)
    assert np.signbit(load_tensorset(path).packed[[0, -1], 0]).tolist() == [
        False, True]


def test_load_of_token_repeated_across_members(tmp_path):
    # one dict spans the members: a token shared by all three maps to one
    # value in each
    rng = np.random.default_rng(470)
    a = dense_symmetrize(rng.standard_normal((4,) * 3))
    path = tmp_path / "shared.st"
    write_v1(path, np.stack([a, -a, a]))
    tokens = assert_loads_like_memory(path)
    assert len(set(tokens)) == 2 * math.comb(4 + 2, 3)
