import math

import numpy as np
import pytest

from jacobidiag.angles import (ConstantObjectiveError, SubproblemView,
                               best_angle, h_derivatives_at_zero,
                               h_prime_at_zero, omega_xi_coeffs,
                               proximal_gamma, solve_xi_roots,
                               xi_to_x_candidates)
from jacobidiag.geometry import RotationState, lambda_of, random_rotation
from jacobidiag.oracle import brute_force_angle, tau_identity_check
from jacobidiag.symtensor import TensorSet, symmetrize

QP = math.pi / 4


def random_view(order, seed, m=1, delta0=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    return SubproblemView(scale * rng.standard_normal((m, order + 1)), delta0)


def random_set(order, dim, seed, m=1):
    rng = np.random.default_rng(seed)
    return TensorSet([symmetrize(rng.standard_normal((dim,) * order))
                      for _ in range(m)])


def fd_derivatives(view, step=1e-5):
    hp = (view.h(step) - view.h(-step)) / (2 * step)
    hpp = (view.h(step) - 2 * view.h(0.0) + view.h(-step)) / step**2
    return hp, hpp


# ---------------------------------------------------------------------------
# derivatives

def test_derivatives_diagonal_third_order():
    a, b = 0.8, -1.3
    view = SubproblemView([[a, 0.0, 0.0, b]])
    h1, h2 = h_derivatives_at_zero(view)
    assert h1 == 0.0
    assert h2 == pytest.approx(-6.0 * (a * a + b * b), rel=1e-14)
    fd1, fd2 = fd_derivatives(view)
    assert fd1 == pytest.approx(h1, abs=1e-8)
    assert fd2 == pytest.approx(h2, rel=1e-5)


def test_derivatives_swap_matrix():
    view = SubproblemView([[0.0, 1.0, 0.0]])
    h1, h2 = h_derivatives_at_zero(view)
    assert h1 == 0.0
    assert h2 == pytest.approx(16.0)
    fd1, fd2 = fd_derivatives(view)
    assert fd1 == pytest.approx(0.0, abs=1e-8)
    assert fd2 == pytest.approx(16.0, rel=1e-5)


@pytest.mark.parametrize("order", [2, 3])
def test_derivatives_match_finite_differences(order):
    for seed in range(20):
        view = random_view(order, seed, m=2)
        h1, h2 = h_derivatives_at_zero(view)
        fd1, fd2 = fd_derivatives(view)
        assert fd1 == pytest.approx(h1, abs=1e-6 * (1 + abs(h1)))
        assert fd2 == pytest.approx(h2, abs=1e-4 * (1 + abs(h2)))


def test_derivatives_unsupported_order():
    with pytest.raises(ValueError):
        h_derivatives_at_zero(random_view(4, 0))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_h_prime_equals_minus_two_lambda(order):
    ts = random_set(order, 5, 60 + order, m=2)
    state = RotationState(ts, random_rotation(5, 3))
    lam = lambda_of(state.tensors)
    for (i, j) in [(0, 2), (1, 4), (3, 4)]:
        view = SubproblemView.from_tensors(state.tensors, i, j)
        assert h_prime_at_zero(view) == pytest.approx(
            -2.0 * lam[i, j], rel=1e-10, abs=1e-12)


def test_view_differs_from_ambient_f_by_constant():
    ts = random_set(3, 5, 70, m=2)
    state = RotationState(ts, random_rotation(5, 8))
    i, j = 1, 3
    view = SubproblemView.from_tensors(state.tensors, i, j)
    consts = []
    for theta in (-0.6, -0.2, 0.0, 0.3, 0.7):
        rotated = state.tensors.copy().rotate_plane(i, j, theta)
        consts.append(rotated.diag_sq_norm() - view.h(theta))
    scale = state.total_sq_norm
    assert max(consts) - min(consts) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Omega coefficients

def test_omega_third_order_diagonal_example():
    view = SubproblemView([[1.0, 0.0, 0.0, 0.0]])
    poly = omega_xi_coeffs(view)
    assert np.allclose(poly, [0.0, 6.0, 0.0], atol=0)
    roots = solve_xi_roots(poly)
    assert roots == [0.0]
    assert xi_to_x_candidates(0.0) == [-1.0, 1.0]


@pytest.mark.parametrize("order", [2, 3])
def test_omega_delta0_shifts_linear_coeff_only(order):
    base = random_view(order, 5)
    shifted = SubproblemView(base.nu, delta0=0.25)
    c0 = omega_xi_coeffs(base)
    c1 = omega_xi_coeffs(shifted)
    assert c1[0] == c0[0]
    assert c1[1] == pytest.approx(c0[1] + 4 * 0.25, rel=1e-14)
    assert c1[2] == c0[2]


def test_omega_delta0_shift_fourth_order():
    base = random_view(4, 6)
    shifted = SubproblemView(base.nu, delta0=0.5)
    c0 = omega_xi_coeffs(base)
    c1 = omega_xi_coeffs(shifted)
    # b and d both gain 4*delta0; Omega coeffs are [a, b, 4a+c, 3b+d, ...]
    assert c1[0] == c0[0]
    assert c1[1] == pytest.approx(c0[1] + 2.0, rel=1e-14)
    assert c1[2] == c0[2]
    assert c1[3] == pytest.approx(c0[3] + 8.0, rel=1e-14)
    assert c1[4] == c0[4]


def test_omega_degrees():
    assert len(omega_xi_coeffs(random_view(2, 1))) - 1 == 2
    assert len(omega_xi_coeffs(random_view(3, 1))) - 1 == 2
    assert len(omega_xi_coeffs(random_view(4, 1))) - 1 == 4


def test_omega_multi_tensor_additivity():
    va = random_view(3, 11)
    vb = random_view(3, 12)
    both = SubproblemView(np.vstack([va.nu, vb.nu]), delta0=0.125)
    expect = (omega_xi_coeffs(va) + omega_xi_coeffs(vb)
              + np.array([0.0, 0.5, 0.0]))
    assert np.allclose(omega_xi_coeffs(both), expect, rtol=1e-14)


def _numeric_omega_coeffs(view):
    """Reconstruct omega(x) from values of the penalized objective alone."""
    d = view.order
    deg = 2 * d
    xs = np.cos(np.linspace(0.1, math.pi - 0.1, deg + 1))   # distinct nodes
    rho = view.tau_tilde(xs) * (1.0 + xs**2) ** d
    rho_c = np.linalg.solve(np.vander(xs, deg + 1, increasing=True), rho)
    drho = np.polynomial.polynomial.polyder(rho_c)
    one = np.array([1.0, 0.0, 1.0])
    omega = (np.polynomial.polynomial.polymul(drho, one)
             - 2 * d * np.polynomial.polynomial.polymul([0.0, 1.0], rho_c))
    return omega  # low-order first


@pytest.mark.parametrize("order,delta0", [(2, 0.0), (2, 0.3), (3, 0.0),
                                          (3, 0.2), (4, 0.0), (4, 0.1)])
def test_candidates_are_roots_of_reconstructed_omega(order, delta0):
    for seed in range(10):
        view = random_view(order, 100 + seed, delta0=delta0)
        omega = _numeric_omega_coeffs(view)
        scale = np.max(np.abs(omega))
        xs = []
        for xi in solve_xi_roots(omega_xi_coeffs(view)):
            xs.extend(xi_to_x_candidates(xi))
        # every mapped candidate solves omega(x) = 0
        for x in xs:
            val = np.polynomial.polynomial.polyval(x, omega)
            assert abs(val) <= 1e-7 * scale
        # every omega root in [-1, 1] away from the origin is covered
        roots = np.roots(omega[::-1])
        for r in roots:
            if abs(r.imag) < 1e-8 and 1e-6 < abs(r.real) <= 1.0:
                assert min(abs(r.real - x) for x in xs) <= 1e-6


# ---------------------------------------------------------------------------
# root solving and the xi -> x map

def test_solve_xi_roots_basic():
    assert solve_xi_roots([6.0, 0.0]) == [0.0]
    assert solve_xi_roots([1.0, 0.0, -1.0]) == [-1.0, 1.0]
    with pytest.raises(ConstantObjectiveError):
        solve_xi_roots([0.0, 0.0, 0.0])


def test_solve_xi_roots_planted_quartic():
    target = [-2.0, 0.5, 1.0, 3.0]
    coeffs = np.array([1.0])
    for r in target:
        coeffs = np.convolve(coeffs, [1.0, -r])
    roots = solve_xi_roots(coeffs)
    assert len(roots) == 4
    for got, want in zip(roots, sorted(target)):
        assert got == pytest.approx(want, abs=1e-10)


def test_solve_xi_roots_degree_reduction():
    # leading coefficient far below the cutoff: treated as the linear poly
    roots = solve_xi_roots([1e-16, 2.0, -3.0])
    assert roots == [pytest.approx(1.5)]


def test_xi_to_x_examples():
    assert xi_to_x_candidates(0.0) == [-1.0, 1.0]
    (x,) = xi_to_x_candidates(1.5)
    assert x == pytest.approx(-0.5, rel=1e-14)
    rng = np.random.default_rng(4)
    for xi in rng.uniform(-50, 50, size=50):
        for x in xi_to_x_candidates(float(xi)):
            assert abs(x) <= 1.0
            assert x * x - xi * x - 1.0 == pytest.approx(
                0.0, abs=1e-12 * (1 + xi * xi))


# ---------------------------------------------------------------------------
# best_angle

def test_best_angle_diagonal_view_stays_put():
    for delta0 in (0.0, 0.2):
        view = SubproblemView([[1.0, 0.0, 0.0, 0.0]], delta0)
        res = best_angle(view)
        assert res.theta == 0.0
        assert res.gain == 0.0
        assert view.h(0.0) == pytest.approx(1.0)
        assert view.h(QP) == pytest.approx(0.25)
        grid = view.h_tilde(np.linspace(-QP, QP, 2001))
        assert np.max(grid) <= view.h_tilde(0.0) + 1e-12


def test_best_angle_swap_matrix_tie_breaks_positive():
    view = SubproblemView([[0.0, 1.0, 0.0]])
    res = best_angle(view)
    assert res.theta == pytest.approx(QP)
    assert res.gain == pytest.approx(2.0)


def test_best_angle_constant_objective():
    view = SubproblemView([[0.0, 0.0, 0.0]])
    res = best_angle(view)
    assert res.theta == 0.0 and res.gain == 0.0


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("delta0", [0.0, 0.1])
def test_best_angle_agrees_with_oracle(order, delta0):
    for seed in range(60):
        view = random_view(order, 1000 + seed, m=1 + seed % 2, delta0=delta0)
        alg = best_angle(view)
        orc = brute_force_angle(view, 1024)
        va = view.h_tilde(alg.theta)
        vo = view.h_tilde(orc.theta)
        assert abs(va - vo) <= 1e-10 * (1 + abs(vo))
        assert alg.gain >= -1e-12
        assert abs(alg.theta) <= QP + 1e-12


def test_best_angle_gain_resolves_below_value_epsilon():
    # near-diagonal view: the true gain is ~1e-24, far below eps * h(0);
    # the solver must still take the step instead of returning theta = 0
    r = 1e-12
    view = SubproblemView([[0.7, r, -r, 0.5]])
    res = best_angle(view)
    assert res.theta != 0.0
    assert res.gain > 0.0
    h1, h2 = h_derivatives_at_zero(view)
    assert res.theta == pytest.approx(-h1 / h2, rel=1e-6)


def test_proximal_gain_bound():
    for seed in range(40):
        delta0 = (1e-3, 1e-1)[seed % 2]
        view = random_view(3, 2000 + seed, delta0=delta0)
        res = best_angle(view)
        lhs = view.h(res.theta) - view.h(0.0)
        assert lhs >= delta0 * proximal_gamma(res.theta) - 1e-10


def test_gamma_lower_bound_on_grid():
    theta = np.linspace(-QP, QP, 10_000)
    assert np.all(proximal_gamma(theta) >= 8 * theta**2 / math.pi**2 - 1e-12)


def test_oracle_finds_local_maxima_near_candidates():
    for seed in range(30):
        order = 2 + seed % 3
        view = random_view(order, 3000 + seed)
        orc = brute_force_angle(view, 2048)
        cand = [t for t, _ in best_angle(view).candidates]
        for t_oracle, _ in orc.candidates:
            assert min(abs(t_oracle - t) for t in cand) <= 1e-8


def test_brute_force_requires_dense_grid():
    with pytest.raises(ValueError):
        brute_force_angle(random_view(3, 1), 100)


def test_brute_force_basics():
    view = SubproblemView([[1.0, 0.0, 0.0, 0.0]])
    res = brute_force_angle(view)
    assert abs(res.theta) <= 1e-9          # oracle resolution around theta=0
    view2 = random_view(3, 9)
    res2 = brute_force_angle(view2)
    assert view2.h_tilde(res2.theta) >= view2.h_tilde(0.0) - 1e-12


# ---------------------------------------------------------------------------
# rational identities

def test_tau_identity_exact_at_origin():
    view = random_view(3, 8)
    r1, r2 = tau_identity_check(view, 0.0)
    assert r1 == 0.0 and r2 == 0.0


@pytest.mark.parametrize("order", [2, 3])
def test_tau_identities_random(order):
    rng = np.random.default_rng(17)
    for seed in range(60):
        view = random_view(order, 4000 + seed, m=1 + seed % 2)
        x = float(rng.uniform(-1, 1))
        r1, r2 = tau_identity_check(view, x)
        scale = 1.0 + abs(view.tau(x))
        assert r1 <= 1e-10 * scale
        assert r2 <= 1e-10 * scale


@pytest.mark.parametrize("order", [2, 3, 4])
def test_tau_inversion_symmetry(order):
    rng = np.random.default_rng(23)
    for seed in range(30):
        view = random_view(order, 5000 + seed)
        x = float(rng.uniform(0.05, 1.0)) * (1 if seed % 2 else -1)
        tv = view.tau(x)
        assert view.tau(-1.0 / x) == pytest.approx(tv, rel=1e-10, abs=1e-12)


def test_tau_identity_preconditions():
    with pytest.raises(ValueError):
        tau_identity_check(random_view(4, 0), 0.3)
    with pytest.raises(ValueError):
        tau_identity_check(random_view(3, 0, delta0=0.1), 0.3)


def test_view_validation():
    with pytest.raises(ValueError):
        SubproblemView(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        SubproblemView([[np.inf, 0.0, 0.0]])
    with pytest.raises(ValueError):
        SubproblemView([[0.0, 1.0, 0.0]], delta0=-1.0)
