import math

import numpy as np
import pytest

from jacobidiag.geometry import (GivensRotation, RotationState,
                                 givens_generator, givens_matrix, lambda_of,
                                 load_orthomat, random_rotation,
                                 save_orthomat)
from jacobidiag.oracle import finite_difference_h_prime
from jacobidiag.symtensor import TensorSet, symmetrize

SQ2 = math.sqrt(2.0) / 2.0


def random_set(order, dim, seed, m=1):
    rng = np.random.default_rng(seed)
    return TensorSet([symmetrize(rng.standard_normal((dim,) * order))
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


def test_givens_rotation_type_invariants():
    rot = GivensRotation(0, 2, 0.3)
    assert rot.c**2 + rot.s**2 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        GivensRotation(2, 1, 0.1)
    with pytest.raises(ValueError):
        GivensRotation(0, 1, 1.0)


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
        assert np.all(lambda_of(ts) == 0.0)


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
    expected = expected - expected.T
    lam = lambda_of(ts)
    assert np.allclose(lam, expected, rtol=1e-12, atol=0)
    assert np.array_equal(lam, -lam.T)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_gradient_against_finite_differences(order):
    ts = random_set(order, 5, 40 + order, m=2)
    state = RotationState(ts, random_rotation(5, 11))
    lam = lambda_of(state.tensors)
    n = 5
    for (i, j) in [(0, 1), (1, 3), (2, 4)]:
        fd = finite_difference_h_prime(state, i, j)
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
    with pytest.raises(ValueError):
        RotationState(ts, np.eye(3))
    with pytest.raises(ValueError):
        RotationState(ts, 1.1 * np.eye(4))
    flip = np.eye(4)
    flip[0, 0] = -1.0                      # orthogonal but det = -1
    with pytest.raises(ValueError):
        RotationState(ts, flip)


def test_apply_zero_rotation_is_identity():
    ts = random_set(3, 4, 52)
    state = RotationState(ts)
    q0 = state.q.copy()
    w0 = state.tensors.stack.copy()
    f0 = state.f_current
    state.apply(GivensRotation(0, 2, 0.0))
    assert np.array_equal(state.q, q0)
    assert np.array_equal(state.tensors.stack, w0)
    assert state.f_current == f0


def test_rotation_composition():
    ts = random_set(3, 5, 53)
    a, b = 0.3, 0.4
    one = RotationState(ts)
    one.apply(GivensRotation(1, 3, a))
    one.apply(GivensRotation(1, 3, b))
    two = RotationState(ts)
    two.apply(GivensRotation(1, 3, a + b))
    assert np.max(np.abs(one.tensors.stack - two.tensors.stack)) <= 1e-12
    assert np.max(np.abs(one.q - two.q)) <= 1e-14


def test_apply_refreshes_f_cache():
    ts = random_set(4, 4, 54)
    state = RotationState(ts)
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = sorted(rng.choice(4, size=2, replace=False))
        state.apply(GivensRotation(int(i), int(j), float(rng.uniform(-0.7, 0.7))))
        assert state.f_current == pytest.approx(
            state.tensors.diag_sq_norm(), rel=1e-10)
        assert state.offdiag_sq() + state.f_current == pytest.approx(
            state.total_sq_norm, rel=1e-9)


def test_orthogonality_drift_stays_tiny():
    ts = random_set(2, 10, 55)
    state = RotationState(ts)
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        i, j = sorted(rng.choice(10, size=2, replace=False))
        state.apply(GivensRotation(int(i), int(j),
                                   float(rng.uniform(-0.7, 0.7))))
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
    state.apply(GivensRotation(0, 1, 0.2))
    assert state.f_current == pytest.approx(state.tensors.diag_sq_norm())


def test_orthomat_roundtrip(tmp_path):
    q = random_rotation(6, 77)
    path = tmp_path / "q.om"
    save_orthomat(path, q)
    back = load_orthomat(path)
    assert np.array_equal(back, q)
    assert path.read_text().splitlines()[0] == "orthomat v1 n=6"
    path.write_text("orthomat v2 n=6\n")
    with pytest.raises(ValueError):
        load_orthomat(path)
