import math

import numpy as np
import pytest

from jacobidiag.angles import SubproblemView, best_angle
from jacobidiag.geometry import (QUARTER_PI, RotationState, lambda_of,
                                 random_rotation, safe_norm)
from jacobidiag.harness import ExperimentSpec, make_test_problem
from jacobidiag.sweeps import RunConfig, run, upper_pairs
from jacobidiag.oracle import finite_difference_h_prime
from jacobidiag.symtensor import TensorSet, _lambda_positions, _lambda_rows

from reference import (dense_symmetrize, givens_generator, givens_matrix,
                       lambda_reference, offdiag_sq_norm)

SQ2 = math.sqrt(2.0) / 2.0


def random_set(order, dim, seed, m=1):
    rng = np.random.default_rng(seed)
    return TensorSet([dense_symmetrize(rng.standard_normal((dim,) * order))
                      for _ in range(m)])


def test_givens_matrix_cases():
    assert np.array_equal(givens_matrix(4, 1, 3, 0.0), np.eye(4))
    g = givens_matrix(2, 0, 1, math.pi / 4)
    assert np.allclose(g, [[SQ2, -SQ2], [SQ2, SQ2]], atol=1e-15)
    with pytest.raises(ValueError):
        givens_matrix(3, 2, 1, 0.1)
    with pytest.raises(ValueError):
        givens_matrix(3, 0, 3, 0.1)


def test_givens_quarter_turn_block_identity():
    # G(theta + pi/2) = G(theta) @ (pi/2 rotation in the same plane)
    n, i, j, theta = 5, 1, 3, 0.42
    r90 = givens_matrix(n, i, j, math.pi / 2)
    lhs = givens_matrix(n, i, j, theta + math.pi / 2)
    rhs = givens_matrix(n, i, j, theta) @ r90
    assert np.allclose(lhs, rhs, atol=1e-15)


def test_givens_generator_is_angle_derivative():
    n, i, j = 4, 0, 2
    h = 1e-7
    fd = (givens_matrix(n, i, j, h) - givens_matrix(n, i, j, -h)) / (2 * h)
    assert np.allclose(fd, givens_generator(n, i, j), atol=1e-9)


def assert_refused_unchanged(i, j, theta):
    # a refused apply leaves Q, the packed entries and f bitwise as they were
    state = RotationState(random_set(3, 5, 50), random_rotation(5, 3))
    state.apply(1, 3, 0.3)
    q, packed, f = state.q.copy(), state.tensors.packed.copy(), state.f_current
    with pytest.raises(ValueError):
        state.apply(i, j, theta)
    assert np.array_equal(state.q, q)
    assert np.array_equal(state.tensors.packed, packed)
    assert state.f_current == f


def test_apply_refuses_a_bad_pair_or_angle():
    for i, j in [(2, 1), (1, 1), (0, 5), (3, 7), (-1, 2)]:
        assert_refused_unchanged(i, j, 0.1)
    for theta in [1.0, -1.0, QUARTER_PI * (1 + 3e-12),
                  -QUARTER_PI * (1 + 3e-12)]:
        assert_refused_unchanged(0, 1, theta)
    # the quarter turn itself, and a hair beyond it, are accepted
    state = RotationState(random_set(3, 5, 50), np.eye(5))
    state.apply(0, 4, QUARTER_PI)
    state.apply(0, 4, -QUARTER_PI * (1 + 1e-13))
    assert state.rotation_count == 2


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_apply_rejects_a_non_finite_angle(theta):
    assert_refused_unchanged(0, 1, theta)


def test_random_rotation_orthogonal_and_special():
    for seed in range(100):
        q = random_rotation(7, seed)
        assert np.linalg.norm(q.T @ q - np.eye(7)) <= 1e-12
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(random_rotation(5, 3), random_rotation(5, 3))
    assert not np.array_equal(random_rotation(5, 3), random_rotation(5, 4))


def test_random_rotation_first_entry_uniform_on_sphere():
    # at n = 3 the first coordinate of a Haar column is uniform on [-1, 1]
    samples = np.array([random_rotation(3, seed)[0, 0]
                        for seed in range(10_000)])
    assert abs(samples.mean()) < 0.02
    assert np.mean(samples**2) == pytest.approx(1.0 / 3.0, abs=0.02)
    ecdf = np.searchsorted(np.sort(samples), np.linspace(-1, 1, 201),
                           side="right") / samples.size
    assert np.max(np.abs(ecdf - np.linspace(0, 1, 201))) < 0.025


def test_lambda_zero_at_diagonal():
    for order in (2, 3, 4):
        ts = TensorSet.from_diagonal([1.0, -0.5, 2.0], order)
        lam = lambda_of(ts)
        assert lam.shape == (3,) and np.all(lam == 0.0)


def test_lambda_matches_explicit_3x3_form():
    # explicit 3rd-order, n=3 gradient matrix, written out independently
    ts = random_set(3, 3, 123)
    w = ts.stack[0]
    # upper triangle per Lambda[k,l] = d (W[k,l..l] W[l..l] - W[k..k] W[k..kl])
    expected = 3.0 * np.array([
        [0.0,
         w[0, 1, 1] * w[1, 1, 1] - w[0, 0, 0] * w[0, 0, 1],
         w[0, 2, 2] * w[2, 2, 2] - w[0, 0, 0] * w[0, 0, 2]],
        [0.0, 0.0,
         w[1, 2, 2] * w[2, 2, 2] - w[1, 1, 1] * w[1, 1, 2]],
        [0.0, 0.0, 0.0]])
    lam = lambda_of(ts)
    assert lam.shape == (3,)
    assert np.allclose(lam, expected[np.triu_indices(3, 1)], rtol=1e-12,
                       atol=0)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 10])
def test_lambda_matches_the_dense_gather_formula(order, m):
    # lambda_of is the reference's upper triangle in row-major order.  One
    # member: one product per entry, so bitwise; more: the members are
    # summed in another order, within rounding of ||T||^2 (Lambda cancels)
    for seed in range(10):
        ts = random_set(order, 2 + seed % 7, 300 + seed, m=m)
        ref = lambda_reference(ts)
        lam, ref_upper = lambda_of(ts), ref[np.triu_indices(ts.dim, 1)]
        if m == 1:
            assert np.array_equal(lam, ref_upper)
        else:
            err = np.linalg.norm(lam - ref_upper)
            assert err <= 1e-13 * ts.frob_sq()
            assert err <= 1e-15 * np.linalg.norm(ref_upper)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 3])
def test_lambda_row_update_is_bitwise_a_full_recompute(order, m):
    # after every rotation, rewriting rows i and j of Lambda gives the bits
    # of a fresh lambda_of, and leaves every other entry as it was
    n = 6
    state = RotationState(random_set(order, n, 400 + order, m=m),
                          np.eye(n))
    pairs, tables = upper_pairs(n), _lambda_rows(order, n)
    rng = np.random.default_rng(order * 10 + m)
    lam = lambda_of(state.tensors)
    for _ in range(40):
        k = int(rng.integers(len(pairs)))
        i, j = pairs[k]
        before = lam.copy()
        state.apply(i, j, float(rng.uniform(-QUARTER_PI, QUARTER_PI)))
        assert lambda_of(state.tensors, lam, tables[k]) is lam
        assert np.array_equal(lam, lambda_of(state.tensors))
        rows = tables[k][0]
        assert rows.tolist() == [p for p, (a, b) in enumerate(pairs)
                                 if {a, b} & {i, j}]
        kept = np.ones(len(pairs), dtype=bool)
        kept[rows] = False
        assert np.array_equal(lam[kept], before[kept])


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_lambda_rows_are_the_per_pair_scan(order, n):
    # entry p is what a scan over all P pairs for those sharing an index
    # with pair p gives, with the columns of _lambda_positions at them,
    # and views into one (P, 2n - 3) and one (P, 4, 2n - 3) array
    i, j = np.triu_indices(n, 1)
    full, tables = _lambda_positions(order, n), _lambda_rows(order, n)
    assert len(tables) == i.size
    for (rows, positions), a, b in zip(tables, i, j):
        scan = np.flatnonzero((i == a) | (i == b) | (j == a) | (j == b))
        assert rows.dtype == scan.dtype and np.array_equal(rows, scan)
        assert positions.dtype == full.dtype
        assert np.array_equal(positions, full[:, scan])
        assert rows.base.shape == (i.size, 2 * n - 3)
        assert positions.base.shape == (i.size, 4, 2 * n - 3)
        assert rows.base is tables[0][0].base
        assert positions.base is tables[0][1].base


def test_safe_norm_is_bitwise_numpy_norm_in_normal_range():
    rng = np.random.default_rng(77)
    for k in range(200):
        shape = tuple(rng.integers(1, 12, size=1 + k % 3))
        a = 10.0 ** rng.uniform(-100, 100) * rng.standard_normal(shape)
        if k % 4 == 1:
            a = a.T                     # not C-contiguous
        elif k % 4 == 2:
            a = a[..., ::2]             # strided
        assert safe_norm(a) == float(np.linalg.norm(a))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_gradient_against_finite_differences(order):
    ts = random_set(order, 5, 40 + order, m=2)
    state = RotationState(ts, random_rotation(5, 11))
    n = 5
    lam = np.zeros((n, n))
    lam[np.triu_indices(n, 1)] = lambda_of(state.tensors)
    lam -= lam.T
    for (i, j) in [(0, 1), (1, 3), (2, 4)]:
        fd = finite_difference_h_prime(state.tensors, i, j)
        analytic = -2.0 * lam[i, j]
        assert fd == pytest.approx(analytic, abs=1e-6 * (1 + abs(analytic)))
        # inner-product form <Q Lambda, Q delta_ij> = -2 Lambda[i, j]
        dq = state.q @ givens_generator(n, i, j)
        inner = float(np.sum((state.q @ lam) * dq))
        assert inner == pytest.approx(analytic, rel=1e-12)


def test_state_construction_and_conservation():
    ts = random_set(3, 5, 50, m=3)
    state = RotationState(ts, random_rotation(5, 2))
    assert state.f_current == pytest.approx(state.tensors.diag_sq_norm(),
                                            rel=1e-14)
    assert state.f_current + state.offdiag_sq() == pytest.approx(
        state.total_sq_norm, rel=1e-9)


def test_state_rejects_bad_q0():
    ts = random_set(2, 4, 51)
    with pytest.raises(TypeError):
        RotationState(ts)                  # the caller chooses the start
    with pytest.raises(ValueError):
        RotationState(ts, np.eye(3))
    with pytest.raises(ValueError):
        RotationState(ts, 1.1 * np.eye(4))
    flip = np.eye(4)
    flip[0, 0] = -1.0                      # orthogonal but det = -1
    with pytest.raises(ValueError):
        RotationState(ts, flip)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_state_rejects_a_non_finite_q0(bad):
    ts = random_set(2, 4, 51)
    q0 = random_rotation(4, 3)
    q0[1, 2] = bad
    with pytest.raises(ValueError):
        RotationState(ts, q0)


def test_apply_zero_rotation_is_identity():
    ts = random_set(3, 4, 52)
    state = RotationState(ts, np.eye(4))
    q0 = state.q.copy()
    w0 = state.tensors.stack.copy()
    f0 = state.f_current
    state.apply(0, 2, 0.0)
    assert np.array_equal(state.q, q0)
    assert np.array_equal(state.tensors.stack, w0)
    assert state.f_current == f0


def test_rotation_composition():
    ts = random_set(3, 5, 53)
    a, b = 0.3, 0.4
    one = RotationState(ts, np.eye(5))
    one.apply(1, 3, a)
    one.apply(1, 3, b)
    two = RotationState(ts, np.eye(5))
    two.apply(1, 3, a + b)
    assert np.max(np.abs(one.tensors.stack - two.tensors.stack)) <= 1e-12
    assert np.max(np.abs(one.q - two.q)) <= 1e-14


def test_f_plus_offdiag_is_total_after_each_apply():
    ts = random_set(4, 4, 54)
    state = RotationState(ts, np.eye(4))
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = sorted(rng.choice(4, size=2, replace=False))
        state.apply(int(i), int(j), float(rng.uniform(-0.7, 0.7)))
        assert state.offdiag_sq() + state.f_current == pytest.approx(
            state.total_sq_norm, rel=1e-9)


def test_f_current_follows_an_in_place_write_to_the_set():
    # f is read off the tensors, not kept beside them: a write to the
    # packed entries (rows [0, n) are the diagonal) shows at once
    state = RotationState(random_set(3, 4, 58), np.eye(4))
    state.tensors.packed[0] += 1.0
    assert state.f_current == state.tensors.diag_sq_norm()
    state.tensors.packed[:4] = 0.0
    assert state.f_current == 0.0


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 3])
def test_offdiag_sq_matches_a_fresh_oracle_sum_after_each_apply(order, m):
    # after every rotation offdiag_sq equals the dense oracle sum
    ts = random_set(order, 5, 57 + order, m=m)
    state = RotationState(ts, random_rotation(5, order))
    rng = np.random.default_rng(10 * order + m)
    for _ in range(40):
        i, j = sorted(rng.choice(5, size=2, replace=False))
        state.apply(int(i), int(j), float(rng.uniform(-0.78, 0.78)))
        fresh = offdiag_sq_norm(state.tensors)
        assert abs(state.offdiag_sq() - fresh) <= 1e-13 * fresh


@pytest.mark.parametrize("order", [2, 3, 4])
def test_offdiag_sq_matches_a_fresh_oracle_sum_when_tiny(order):
    # on a solved sigma = 0 problem the off-diagonal mass is 1e-20 of the
    # total or less; through one more sweep of Jacobi steps offdiag_sq
    # stays within rounding of the dense oracle sum
    spec = ExperimentSpec(n=6, order=order, m=2 if order == 2 else 1,
                          sigma=0.0, seed_rot=4)
    ts, _ = make_test_problem(spec)
    state = run(ts, RunConfig(method="c")).state
    assert state.offdiag_sq() <= 1e-20 * state.total_sq_norm
    for i, j in upper_pairs(state.tensors.dim):
        view = SubproblemView.from_tensors(state.tensors, i, j)
        state.apply(i, j, best_angle(view).theta)
        fresh = offdiag_sq_norm(state.tensors)
        assert abs(state.offdiag_sq() - fresh) <= 1e-13 * fresh


def test_orthogonality_drift_stays_tiny():
    ts = random_set(2, 10, 55)
    state = RotationState(ts, np.eye(10))
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        i, j = sorted(rng.choice(10, size=2, replace=False))
        state.apply(int(i), int(j), float(rng.uniform(-0.7, 0.7)))
    assert state.reorth_count == 0          # never needed the rebuild
    assert state.orthogonality_error() <= 1e-8
    assert np.linalg.det(state.q) == pytest.approx(1.0, abs=1e-8)


def test_reorthonormalize_rebuilds_from_source():
    ts = random_set(3, 4, 56)
    state = RotationState(ts, random_rotation(4, 9))
    state.q[:, 0] *= 1.0 + 5e-7            # inject drift past the threshold
    assert state.orthogonality_error() > 1e-8
    state.reorthonormalize()
    assert state.orthogonality_error() <= 1e-12
    rebuilt = ts.rotated_by(state.q)
    assert np.array_equal(state.tensors.stack, rebuilt.stack)
    # next apply() keeps the state consistent again
    state.apply(0, 1, 0.2)
    assert state.f_current == pytest.approx(state.tensors.diag_sq_norm())


def test_q_stays_column_major():
    # apply updates two columns of Q; held column-major, both are contiguous
    ts = random_set(3, 5, 57)
    for q0 in (np.eye(5), random_rotation(5, 10)):
        state = RotationState(ts, q0)
        assert state.q.flags.f_contiguous
        for i, j in [(1, 3), (0, 1), (3, 4), (0, 4)]:
            state.apply(i, j, 0.3)
            assert state.q.flags.f_contiguous
        state.reorthonormalize()
        assert state.q.flags.f_contiguous
        state.apply(0, 4, -0.2)
        assert state.q.flags.f_contiguous


@pytest.mark.parametrize("pairs", ["first", "adjacent", "ends", "any"])
def test_apply_updates_q_by_the_column_formula(pairs):
    # the row-pair view of Q^T steps by j - i: pairs next to each other,
    # at the ends and anywhere all go through it; the reference is the
    # column update c q_i + s q_j, c q_j - s q_i
    n = 7
    state = RotationState(random_set(2, n, 58), random_rotation(n, 11))
    ref = state.q.copy()
    rng = np.random.default_rng(12)
    for _ in range(200):
        if pairs == "first":
            i, j = 0, 1
        elif pairs == "adjacent":
            i = int(rng.integers(n - 1))
            j = i + 1
        elif pairs == "ends":
            i, j = 0, n - 1
        else:
            i, j = map(int, sorted(rng.choice(n, size=2, replace=False)))
        theta = float(rng.uniform(-QUARTER_PI, QUARTER_PI))
        state.apply(i, j, theta)
        c, s = math.cos(theta), math.sin(theta)
        qi, qj = ref[:, i].copy(), ref[:, j].copy()
        ref[:, i] = c * qi + s * qj
        ref[:, j] = c * qj - s * qi
    assert np.max(np.abs(state.q - ref)) <= 1e-14
