import math

import numpy as np
import pytest

from jacobidiag.symtensor import (TensorSet, load_tensorset, mode_product,
                                  multi_mode_product, save_tensorset,
                                  symmetrize, symmetry_error)


def random_symtensor(order, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return TensorSet(symmetrize(scale * rng.standard_normal((dim,) * order)))


def random_orthogonal(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def naive_rotation(tensor, i, j, theta):
    """Oracle: full mode-product composition with the Givens matrix."""
    n = tensor.dim
    g = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return multi_mode_product(tensor.stack[0], g.T)


# ---------------------------------------------------------------------------
# mode products

def test_mode_product_identity_is_noop():
    t = random_symtensor(3, 4, 0)
    for mode in range(3):
        assert np.array_equal(mode_product(t.stack[0], np.eye(4), mode),
                              t.stack[0])


def test_mode_product_hand_example():
    t = np.array([[1.0, 2.0], [2.0, 3.0]])
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = mode_product(t, m, 0)
    assert np.array_equal(out, [[2.0, 3.0], [1.0, 2.0]])


@pytest.mark.parametrize("order", [2, 3, 4])
def test_norm_invariance_under_orthogonal(order):
    t = random_symtensor(order, 5, order)
    q = random_orthogonal(5, 17)
    w = multi_mode_product(t.stack[0], q.T)
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(t.stack[0]),
                                              rel=1e-10)


def test_mode_product_dimension_mismatch():
    t = random_symtensor(2, 3, 1).stack[0]
    with pytest.raises(ValueError):
        mode_product(t, np.eye(4), 0)
    with pytest.raises(ValueError):
        mode_product(t, np.eye(3), 5)


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
    base = t.offdiag_sq_norm()
    t.rotate_plane(0, 1, math.pi / 2)
    assert t.offdiag_sq_norm() == pytest.approx(base, rel=1e-10)


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
    assert symmetry_error(t.stack[0]) == 0.0
    assert symmetry_error(t.stack[0]) <= 1e-12 * np.linalg.norm(t.stack[0])


def test_rotate_bad_pair_rejected():
    t = random_symtensor(2, 4, 10)
    for i, j in [(2, 2), (3, 1), (0, 4), (-1, 2)]:
        with pytest.raises(ValueError):
            t.rotate_plane(i, j, 0.1)


# ---------------------------------------------------------------------------
# diagonal / off-diagonal metrics

def test_diag_sq_norm_zero_tensor():
    assert TensorSet(np.zeros((4, 4, 4))).diag_sq_norm() == 0.0


def test_diag_sq_norm_equal_diagonal_is_one():
    t = TensorSet.from_diagonal(np.full(10, 1.0 / math.sqrt(10)), 3)
    assert t.diag_sq_norm() == pytest.approx(1.0, rel=1e-14)


def test_offdiag_examples():
    t = TensorSet.from_diagonal([1.0, -2.0, 0.5], 3)
    assert t.offdiag_sq_norm() == 0.0
    m = TensorSet(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert m.offdiag_sq_norm() == pytest.approx(2.0)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_partition_diag_plus_offdiag(order):
    t = random_symtensor(order, 5, 20 + order)
    assert t.diag_sq_norm() + t.offdiag_sq_norm() == pytest.approx(
        t.frob_sq(), rel=1e-12)


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


def test_constructor_canonicalizes_tiny_asymmetry():
    arr = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
    t = TensorSet(arr)
    assert symmetry_error(t.stack[0]) == 0.0


def test_symmetrize_examples():
    e = np.array([[0.0, 2.0], [0.0, 0.0]])
    s = symmetrize(e)
    assert np.array_equal(s, [[0.0, 1.0], [1.0, 0.0]])
    t = random_symtensor(3, 4, 30)
    again = symmetrize(t.stack[0])
    assert np.array_equal(again, t.stack[0])
    rng = np.random.default_rng(31)
    raw = rng.standard_normal((3, 3, 3))
    once = symmetrize(raw)
    twice = symmetrize(once)
    assert np.allclose(once, twice, rtol=0, atol=1e-15)


def test_from_diagonal_layout():
    t = TensorSet.from_diagonal([1.0, 2.0, 3.0], 4)
    assert np.array_equal(t.diags()[0], [1.0, 2.0, 3.0])
    assert t.offdiag_sq_norm() == 0.0


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


def test_getitem_is_one_member_view():
    ts = TensorSet([random_symtensor(2, 3, 54).stack[0],
                    random_symtensor(2, 3, 55).stack[0]])
    second = ts[1]
    assert len(second) == 1 and second.order == 2 and second.dim == 3
    assert np.shares_memory(second.stack, ts.stack)
    assert np.array_equal(ts[-1].stack[0], ts.stack[1])
    with pytest.raises(IndexError):
        ts[2]


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
    assert symmetry_error(ts.stack[0]) == 0.0
    assert ts.stack[0, 0, 1] == pytest.approx(2.00000000005)


@pytest.mark.parametrize("body", ["1 inf\ninf 3\n", "1 2\nnan 3\n"])
def test_load_rejects_non_finite_entries(tmp_path, body):
    p = tmp_path / "nonfinite.st"
    p.write_text("symtensor v1 d=2 n=2 m=1\n" + body)
    with pytest.raises(ValueError, match="finite"):
        load_tensorset(p)
