import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobidiag import angles, sweeps
from jacobidiag.angles import (MAX_SQ_NORM, SubproblemView, _certified_max,
                               _quartic_roots, _trig_form, best_angle,
                               check_sq_norm, omega_xi_coeffs, solve_xi_roots)
from jacobidiag.geometry import RotationState, lambda_of, random_rotation
from jacobidiag.harness import ExperimentSpec, make_test_problem
from jacobidiag.oracle import (brute_force_angle, h, h_prime_at_zero,
                               h_tilde, local_maxima, proximal_gamma)
from jacobidiag.sweeps import RunConfig, run, upper_pairs
from jacobidiag.symtensor import TensorSet

from reference import (best_angle_xi, dense_symmetrize, h_derivatives_at_zero,
                       omega_xi_coeffs_expanded, tau, tau_identity_check,
                       tau_tilde, xi_roots, xi_to_x_candidates)

QP = math.pi / 4


def random_view(order, seed, m=1, delta0=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    return SubproblemView(scale * rng.standard_normal((m, order + 1)), delta0)


def random_set(order, dim, seed, m=1):
    rng = np.random.default_rng(seed)
    return TensorSet([dense_symmetrize(rng.standard_normal((dim,) * order))
                      for _ in range(m)])


def exact_gain(view, x):
    """h~(arctan x) - h~(0) in exact rational arithmetic."""
    x = Fraction(x)
    d = view.order
    one = 1 + x * x
    total = -Fraction(view.delta0) * 2 * x * x / one**2
    for row in view.nu.tolist():
        p = [math.comb(d, w) * Fraction(v) for w, v in enumerate(row)]
        t1 = sum(pw * x**w for w, pw in enumerate(p))
        t2 = sum(pw * (-x)**(d - w) for w, pw in enumerate(p))
        total += (t1 * t1 + t2 * t2) / one**d - p[0]**2 - p[d]**2
    return total


def trig_form(omega):
    """_trig_form for every order: for d <= 3, g = [4 A0 sin(phi)
    + A1 (cos(phi) - 1)] / 16, the form best_angle's atan2 maximizes."""
    if len(omega) == 3:
        e0, f0 = 0.25 * omega[0], 0.0625 * omega[1]
        return e0, f0, e0, f0, 0.0, 0.0
    return _trig_form(omega)


def critical_phis(view):
    return solve_xi_roots(trig_form(omega_xi_coeffs(view)))


def trig_with_critical_tangents(roots, scale=1.0):
    """_trig_form-style tuple whose g' has its critical points at
    phi = 2 atan(t), t the given roots: the quartic scale * prod(t - root)
    read back through its frame-0 coefficients.  g' quartics have
    c2 = -3 (c0 + c4), so the roots must satisfy e2 = -3 (1 + e4)."""
    c = np.array([1.0])
    for root in roots:
        c = np.convolve(c, [1.0, -root])
    c4, c3, c2, c1, c0 = scale * c
    assert abs(c2 + 3.0 * (c0 + c4)) <= 1e-12 * np.max(np.abs(scale * c))
    a1, b1 = 0.5 * (c0 - c4), -0.25 * (c3 + c1)
    a2, b2 = (c0 + c4) / 4.0, (c3 - c1) / 16.0
    return c0, -0.5 * c1, a1, b1, a2, b2


def fd_derivatives(view, step=1e-5):
    hp = (h(view, step) - h(view, -step)) / (2 * step)
    hpp = (h(view, step) - 2 * h(view, 0.0) + h(view, -step)) / step**2
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
            -2.0 * lam[upper_pairs(5).index((i, j))], rel=1e-10, abs=1e-12)


def test_view_differs_from_ambient_f_by_constant():
    ts = random_set(3, 5, 70, m=2)
    state = RotationState(ts, random_rotation(5, 8))
    i, j = 1, 3
    view = SubproblemView.from_tensors(state.tensors, i, j)
    consts = []
    for theta in (-0.6, -0.2, 0.0, 0.3, 0.7):
        rotated = state.tensors.copy().rotate_plane(i, j, theta)
        consts.append(rotated.diag_sq_norm() - h(view, theta))
    scale = state.total_sq_norm
    assert max(consts) - min(consts) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Omega coefficients

def test_omega_third_order_diagonal_example():
    view = SubproblemView([[1.0, 0.0, 0.0, 0.0]])
    poly = omega_xi_coeffs(view)
    assert np.allclose(poly, [0.0, 6.0, 0.0], atol=0)
    # g = (3/8) (cos(phi) - 1): critical at phi = 0 and pi
    assert sorted(critical_phis(view)) == [0.0, math.pi]
    assert best_angle(view) == best_angle_xi(view)


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


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 3, 14])
@pytest.mark.parametrize("delta0", [0.0, 0.3])
def test_omega_gram_product_matches_expanded_forms(order, m, delta0):
    # one Gram product against the hand-expanded per-term sums, on plain
    # views and on views scaled by 10^U(-3, 3)
    rng = np.random.default_rng(7000 + 10 * order + m)
    for scaled in (False, True):
        for _ in range(10):
            nu = rng.standard_normal((m, order + 1))
            if scaled:
                nu *= 10.0 ** rng.uniform(-3.0, 3.0)
            view = SubproblemView(nu, delta0)
            want = omega_xi_coeffs_expanded(view)
            got = omega_xi_coeffs(view)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) \
                <= 1e-14 * np.max(np.abs(want))


def _numeric_omega_coeffs(view):
    """Reconstruct omega(x) from values of the penalized objective alone."""
    d = view.order
    deg = 2 * d
    xs = np.cos(np.linspace(0.1, math.pi - 0.1, deg + 1))   # distinct nodes
    rho = tau_tilde(view, xs) * (1.0 + xs**2) ** d
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
        xs = [math.tan(0.25 * phi) for phi in critical_phis(view)]
        # every critical point solves omega(x) = 0
        for x in xs:
            val = np.polynomial.polynomial.polyval(x, omega)
            assert abs(val) <= 1e-7 * scale
        # every omega root in [-1, 1] away from the origin is covered
        roots = np.roots(omega[::-1])
        for r in roots:
            if abs(r.imag) < 1e-8 and 1e-6 < abs(r.real) <= 1.0:
                assert min(abs(r.real - x) for x in xs) <= 1e-6


# ---------------------------------------------------------------------------
# the critical points of g, and the xi route kept in tests/reference.py

def test_solve_xi_roots_basic():
    # g = b1 (cos(phi) - 1): critical at 0 and pi
    assert sorted(solve_xi_roots((0.0, 1.5, 0.0, 1.5, 0.0, 0.0))) \
        == [0.0, math.pi]
    # g = a1 sin(phi): critical at +-pi/2
    got = sorted(solve_xi_roots((2.0, 0.0, 2.0, 0.0, 0.0, 0.0)))
    assert got == pytest.approx([-math.pi / 2, math.pi / 2], abs=1e-15)
    # g = b2 (cos(2 phi) - 1): g' vanishes at all four quarter points,
    # which is why the frames include the eighth turns
    got = sorted(solve_xi_roots((0.0, 4.0, 0.0, 0.0, 0.0, 1.0)))
    assert got == pytest.approx([-math.pi / 2, 0.0, math.pi / 2, math.pi],
                                abs=1e-15)
    assert solve_xi_roots((0.0,) * 6) == []


def test_solve_xi_roots_planted_quartic():
    # roots 1e-12 and 1e12 in one quartic: phi = 2e-12 keeps its relative
    # accuracy, phi = pi - 2e-12 its absolute one
    planted = [1e-12, 1e12, 1.0, -1.0]
    for scale in (1.0, -3.0, 2.0**-40):
        got = sorted(solve_xi_roots(trig_with_critical_tangents(planted,
                                                                scale)))
        want = sorted(2.0 * math.atan(t) for t in planted)
        assert len(got) == 4
        assert got[1] == pytest.approx(want[1], rel=1e-10, abs=0.0)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-10)


def test_solve_xi_roots_leading_zero_is_a_critical_point_at_pi():
    # g'(pi) = 2 a2 - a1 = 0, the frame-0 quartic's leading coefficient;
    # another frame is solved and phi = pi comes out as a plain root
    for a2 in (0.5, -0.25):
        for b1, b2 in ((0.3, 0.7), (-1.0, 0.1)):
            a1 = 2.0 * a2
            trig = (a1 + 2.0 * a2, b1 + 4.0 * b2, a1, b1, a2, b2)
            assert min(abs(phi - math.pi) for phi in solve_xi_roots(trig)) \
                <= 1e-14


def _g_prime(trig, phi):
    _, _, a1, b1, a2, b2 = trig
    return (a1 * np.cos(phi) - b1 * np.sin(phi) + 2 * a2 * np.cos(2 * phi)
            - 2 * b2 * np.sin(2 * phi))


@pytest.mark.parametrize("frame", range(8))
def test_solve_xi_roots_in_each_frame(frame):
    # frame phi0 = k pi/4 solves where |g'(phi0 + pi)| is largest of the
    # eight; every sign change of g' on a dense grid has a root within the
    # grid step, and every root is a zero of g'
    rng = np.random.default_rng(90 + frame)
    grid = np.linspace(-math.pi, math.pi, 200_001)
    leads = np.array([f[0] for f in angles._FRAMES]) + math.pi
    done = 0
    while done < 10:
        a1, b1, a2, b2 = rng.standard_normal(4)
        trig = (a1 + 2 * a2, b1 + 4 * b2, a1, b1, a2, b2)
        samples = np.abs(_g_prime(trig, leads))
        if np.argmax(samples) != frame:
            continue
        done += 1
        roots = solve_xi_roots(trig)
        scale = np.max(samples)
        for phi in roots:
            assert -math.pi < phi <= math.pi
            assert abs(_g_prime(trig, phi)) <= 1e-13 * scale
        vals = _g_prime(trig, grid)
        for k in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])):
            assert min(abs(math.remainder(grid[k] - phi, 2 * math.pi))
                       for phi in roots) <= 1e-4


def test_solve_xi_roots_keeps_a_tiny_root():
    # g'(0) = e0 far below the other coefficients (a near-diagonal pair):
    # the root near phi = e0 / f0 keeps full relative accuracy
    for e0 in (1e-16, -3e-20, 2e-200):
        f0, a2, b2 = 2.0, 0.3, -0.4
        trig = (e0, f0, e0 - 2 * a2, f0 - 4 * b2, a2, b2)
        tiny = min(solve_xi_roots(trig), key=abs)
        assert tiny == pytest.approx(e0 / f0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("nu,delta0,want", [
    # two critical points 2e-12 apart: one of Ferrari's quadratic factors
    # has a discriminant below zero by rounding only, a double root
    ([2.0, 1.0, 0.0, -2.0, -1.0], 30.2813718062942,
     [-0.1247298386420, -0.1247298386420, 0.0, 3.058487403319033]),
    # Omega = 32 (-1, -11, -36, -16, 64): a triple critical point at
    # tan(phi/2) = 1/2, where the resolvent cubic, depressed, is z^3 = 0
    ([-1.0, 0.0, 2.0, 4.0, 1.0], 36.0,
     [2.0 * math.atan(-2.0)] + [2.0 * math.atan(0.5)] * 3),
    # Omega = (0, 0, -96, 0, 128): g = sin(phi) (cos(phi) - 1) has
    # g' = g'' = 0 at phi = 0, where a Newton step would divide 0 by 0
    ([-2.0, 0.0, -1.0, -1.0, 0.0], 12.0,
     [-2.0 * math.pi / 3, 0.0, 0.0, 2.0 * math.pi / 3]),
], ids=["double", "triple", "inflection-at-0"])
def test_degenerate_critical_points_are_kept(nu, delta0, want):
    # exact fourth-order views whose g' has a repeated root: each root is
    # returned as often as it repeats, and the best angle is the oracle's
    view = SubproblemView([nu], delta0)
    assert sorted(critical_phis(view)) == pytest.approx(want, abs=1e-9)
    va = h_tilde(view, best_angle(view).theta)
    vo = h_tilde(view, brute_force_angle(view).theta)
    assert abs(va - vo) <= 1e-10 * (1 + abs(vo))


def test_quartic_roots_planted():
    def monic(roots):
        c = np.array([1.0])
        for root in roots:
            c = np.convolve(c, [1.0, -root])
        return _quartic_roots(*c[1:])

    got = sorted(monic([-2.0, 0.5, 1.0, 3.0]))
    assert got == pytest.approx([-2.0, 0.5, 1.0, 3.0], abs=1e-10)
    # biquadratic: the depressed quartic has no odd terms
    assert sorted(_quartic_roots(0.0, -5.0, 0.0, 4.0)) == pytest.approx(
        [-2.0, -1.0, 1.0, 2.0], abs=1e-14)
    assert _quartic_roots(0.0, 5.0, 0.0, 4.0) == []
    # a double root is kept, to the accuracy a double root allows
    got = sorted(monic([0.5, 0.5, -2.0, 3.0]))
    assert len(got) == 4
    assert got[0] == pytest.approx(-2.0, abs=1e-10)
    assert got[1:3] == pytest.approx([0.5, 0.5], abs=1e-7)
    assert got[3] == pytest.approx(3.0, abs=1e-10)
    # two real roots and a complex pair
    c = np.convolve(np.convolve([1.0, -1.0], [1.0, 2.0]), [1.0, 0.0, 1.0])
    assert sorted(_quartic_roots(*c[1:])) == pytest.approx([-2.0, 1.0],
                                                           abs=1e-12)


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


def test_xi_roots_reference():
    assert xi_roots([6.0, 0.0]) == [0.0]
    assert xi_roots([1.0, 0.0, -1.0]) == [-1.0, 1.0]
    assert xi_roots([0.0, 0.0, 0.0]) is None
    # a leading coefficient far below the others still has its huge root
    assert xi_roots([1e-16, 2.0, -3.0]) == [pytest.approx(-2e16, rel=1e-12),
                                           pytest.approx(1.5)]


# ---------------------------------------------------------------------------
# best_angle

def test_best_angle_diagonal_view_stays_put():
    for delta0 in (0.0, 0.2):
        view = SubproblemView([[1.0, 0.0, 0.0, 0.0]], delta0)
        res = best_angle(view)
        assert res.theta == 0.0
        assert res.gain == 0.0
        assert h(view, 0.0) == pytest.approx(1.0)
        assert h(view, QP) == pytest.approx(0.25)
        grid = h_tilde(view, np.linspace(-QP, QP, 2001))
        assert np.max(grid) <= h_tilde(view, 0.0) + 1e-12


def test_best_angle_swap_matrix_tie_breaks_positive(monkeypatch):
    # h~ peaks at both +-pi/4; the view's Omega has A0 = h'(0) = +0.0, and
    # the same Omega with A0 = -0.0 must pick the same end
    view = SubproblemView([[0.0, 1.0, 0.0]])
    omega = omega_xi_coeffs(view)
    for a0 in (0.0, -0.0):
        omega[0] = a0
        monkeypatch.setattr(angles, "omega_xi_coeffs", lambda v: omega)
        res = best_angle(view)
        assert res.theta == pytest.approx(QP)
        assert res.gain == pytest.approx(2.0)


def test_best_angle_fourth_order_quarter_tie_breaks_positive():
    # T[i,i,i,j] = T[i,j,j,j] = 1: h~ peaks at both +-pi/4, and g'(pi) = 0
    # is the frame-0 quartic's leading coefficient
    view = SubproblemView([[0.0, 1.0, 0.0, 1.0, 0.0]])
    res = best_angle(view)
    assert res.theta == QP
    assert res.gain == 8.0
    assert h_tilde(view, QP) - h_tilde(view, 0.0) == pytest.approx(8.0)


def is_plus_zero(x):
    # == 0.0 holds for -0.0 too
    return x == 0.0 and math.copysign(1.0, x) == 1.0


def test_best_angle_constant_objective(monkeypatch):
    # nu = 0: h is constant, and with delta0 > 0, h~ = -delta0 gamma peaks
    # at theta = 0
    for order in (2, 3, 4):
        for delta0 in (0.0, 0.5):
            res = best_angle(SubproblemView(np.zeros((2, order + 1)), delta0))
            assert is_plus_zero(res.theta) and is_plus_zero(res.gain)
    # at d <= 3 a constant h~ is A0 = A1 = 0, of either sign, and the one
    # atan2 must give (+0.0, +0.0) for all four
    for order in (2, 3):
        view = SubproblemView(np.zeros((1, order + 1)))
        for a0 in (0.0, -0.0):
            for a1 in (0.0, -0.0):
                omega = np.array([a0, a1, 0.0])
                monkeypatch.setattr(angles, "omega_xi_coeffs",
                                    lambda v: omega)
                res = best_angle(view)
                assert is_plus_zero(res.theta) and is_plus_zero(res.gain)


def overflowing_view(order, kind):
    """A view whose Omega overflows: entries of 1e160, or pair (0, 1) of a
    test problem scaled by 2^520 (its entries are finite, their squares
    are not)."""
    if kind == "full":
        return SubproblemView(np.full((1, order + 1), 1e160))
    ts, _ = make_test_problem(ExperimentSpec(n=4, order=order, sigma=1e-2))
    return SubproblemView.from_tensors(
        TensorSet(list(2.0**520 * ts.stack)), 0, 1)


@pytest.mark.parametrize("kind", ["full", "scaled-set"])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_best_angle_refuses_an_overflowing_omega_at_every_order(order, kind):
    # run and verify refuse such a set before the first rotation
    # (check_sq_norm); a direct caller gets the same refusal at every order,
    # not a NaN angle
    with np.errstate(over="ignore", invalid="ignore"):
        view = overflowing_view(order, kind)
        with pytest.raises(ValueError,
                           match="Omega's coefficients must be finite"):
            best_angle(view)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("delta0", [0.0, 0.1])
def test_best_angle_agrees_with_oracle(order, delta0):
    for seed in range(60):
        view = random_view(order, 1000 + seed, m=1 + seed % 2, delta0=delta0)
        alg = best_angle(view)
        orc = brute_force_angle(view)
        va = h_tilde(view, alg.theta)
        vo = h_tilde(view, orc.theta)
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
        lhs = h(view, res.theta) - h(view, 0.0)
        assert lhs >= delta0 * proximal_gamma(res.theta) - 1e-10


def test_gamma_lower_bound_on_grid():
    theta = np.linspace(-QP, QP, 10_000)
    assert np.all(proximal_gamma(theta) >= 8 * theta**2 / math.pi**2 - 1e-12)


def test_oracle_finds_local_maxima_near_candidates():
    for seed in range(30):
        order = 2 + seed % 3
        view = random_view(order, 3000 + seed)
        cand = [0.0, QP, -QP] + [0.25 * phi for phi in critical_phis(view)]
        for t_oracle, _ in local_maxima(view):
            assert min(abs(t_oracle - t) for t in cand) <= 1e-8


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 3, 14])
@pytest.mark.parametrize("delta0", [0.0, 0.1])
def test_gain_is_h_tilde_difference(order, m, delta0):
    for seed in range(10):
        view = random_view(order, 4000 + seed, m=m, delta0=delta0)
        res = best_angle(view)
        v0 = h_tilde(view, 0.0)
        assert abs(res.gain - (h_tilde(view, res.theta) - v0)) \
            <= 1e-10 * (1.0 + abs(v0))


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 3, 14])
@pytest.mark.parametrize("delta0", [0.0, 0.3])
def test_gain_is_exact_on_near_diagonal_views(order, m, delta0):
    # gains down to ~1e-24, which a tolerance relative to h~(0) cannot see
    rng = np.random.default_rng(5000 + 10 * order + m)
    for scale in (1e-4, 1e-8, 1e-12):
        for _ in range(4):
            nu = rng.standard_normal((m, order + 1))
            nu[:, 1:-1] *= scale
            view = SubproblemView(nu, delta0)
            res = best_angle(view)
            if h_prime_at_zero(view) != 0.0:
                assert res.theta != 0.0
            exact = exact_gain(view, math.tan(res.theta))
            assert abs(float(Fraction(res.gain) - exact)) \
                <= 1e-10 * float(exact)


@pytest.mark.parametrize("nu", [[0.2004, 6.09e-15, -0.0780],
                                [0.2004, 3e-15, 1e-15, -2e-15, -0.0780]])
def test_best_angle_moves_when_h_prime_is_tiny(nu):
    # h'(0) is ~1e-14 of Omega's largest coefficient; the step is tiny but
    # exact, not theta = 0
    view = SubproblemView([nu])
    res = best_angle(view)
    assert res.theta != 0.0
    assert res.gain > 0.0
    exact = exact_gain(view, math.tan(res.theta))
    assert abs(float(Fraction(res.gain) - exact)) <= 1e-10 * float(exact)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("delta0", [0.0, 0.3])
def test_gain_numerator_on_grid(order, delta0):
    # h~ - h~(0) = a1 sin(phi) + b1 (cos(phi) - 1) + a2 sin(2 phi)
    # + b2 (cos(2 phi) - 1) with phi = 4 theta: _trig_form for d = 4, and
    # [4 A0 sin(phi) + A1 (cos(phi) - 1)] / 16 for d <= 3; the exact
    # g'(0) = e0 and -g''(0) = f0 are a1 + 2 a2 and b1 + 4 b2
    xs = np.linspace(-1.0, 1.0, 101)
    phi = 4.0 * np.arctan(xs)
    for seed in range(10):
        view = random_view(order, 6000 + seed, m=3, delta0=delta0)
        omega = omega_xi_coeffs(view)
        e0, f0, a1, b1, a2, b2 = trig_form(omega)
        got = (a1 * np.sin(phi) + b1 * (np.cos(phi) - 1.0)
               + a2 * np.sin(2 * phi) + b2 * (np.cos(2 * phi) - 1.0))
        v0 = h_tilde(view, 0.0)
        want = h_tilde(view, np.arctan(xs)) - v0
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + abs(v0))
        assert e0 == pytest.approx(a1 + 2 * a2, rel=1e-12, abs=1e-15)
        assert f0 == pytest.approx(b1 + 4 * b2, rel=1e-12, abs=1e-15)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(order=st.sampled_from([2, 3, 4]), m=st.sampled_from([1, 3, 14]),
       delta0=st.sampled_from([0.0, 1e-3, 0.3]),
       seed=st.integers(0, 2**32 - 1), k=st.integers(-200, 200))
def test_best_angle_is_exactly_scale_covariant(order, m, delta0, seed, k):
    # scaling nu by 2^k and delta0 by 4^k scales Omega and q by 4^k exactly
    base = random_view(order, seed, m=m, delta0=delta0)
    scaled = SubproblemView(2.0**k * base.nu, 4.0**k * delta0)
    a, b = best_angle(base), best_angle(scaled)
    assert b.theta == a.theta
    assert b.gain == 4.0**k * a.gain


def test_best_angle_is_scale_covariant_up_to_overflow():
    # x 2^509: Omega is finite but 4 A1 + A3 is not, so b1 and b2 must be
    # scaled before they are summed; x 2^511: Omega itself overflows
    base = SubproblemView([[1.0, 0.02, 0.0, 0.01, 1.0]])
    a = best_angle(base)
    assert a.theta != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        big = SubproblemView(2.0**509 * base.nu)
        omega = omega_xi_coeffs(big)
        assert np.all(np.isfinite(omega))
        assert math.isinf(4.0 * omega[1] + omega[3])
        b = best_angle(big)
        assert b.theta == a.theta and b.gain == 4.0**509 * a.gain
        with pytest.raises(ValueError, match="must be finite"):
            best_angle(SubproblemView(2.0**511 * base.nu))


def scaled_off_diagonal_views(m, delta0_rel, seed, exponents, count=40):
    """Fourth-order views whose off-diagonal entries are scaled by
    10^U(exponents), delta0 = delta0_rel ||nu||^2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nu = rng.standard_normal((m, 5))
        nu[:, 1:-1] *= 10.0 ** rng.uniform(*exponents)
        yield SubproblemView(nu, delta0_rel * float(np.sum(nu * nu)))


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("delta0_rel", [0.0, 1e-3, 1e-1])
def test_certified_step_matches_the_quartic(m, delta0_rel, monkeypatch):
    # near-diagonal: off-diagonal entries 1e-12 to 1e-1 of the others
    views = [v for v in scaled_off_diagonal_views(m, delta0_rel, 7100 + m,
                                                  (-12.0, -1.0))
             if _certified_max(_trig_form(omega_xi_coeffs(v))) is not None]
    assert len(views) >= 30
    fast = [best_angle(v) for v in views]
    monkeypatch.setattr(angles, "_certified_max", lambda trig: None)
    for a, b in zip(fast, map(best_angle, views)):
        assert a.gain == pytest.approx(b.gain, rel=1e-12, abs=0.0)
        assert a.theta == pytest.approx(b.theta, rel=1e-12, abs=0.0)


def test_certificate_bounds_g_where_it_holds():
    # g < 0 outside |phi| <= phi_max and g'' < 0 inside, on grids; the
    # maximizer is a root of g' inside the interval.  The trig forms come
    # from views with off-diagonal entries 1e-3 to 1 of the others (phi_max
    # up to about 0.6), and from random coefficients, where |a2| and |b2|
    # can be large against f0 and a looser bound would fail
    trigs = [_trig_form(omega_xi_coeffs(v)) for m in (1, 3)
             for delta0_rel in (0.0, 1e-1)
             for v in scaled_off_diagonal_views(m, delta0_rel, 7200 + m,
                                                (-3.0, 0.0))]
    rng = np.random.default_rng(7400)
    for _ in range(400):
        a2, b2 = rng.standard_normal(2)
        f0 = abs(rng.standard_normal()) * 10.0 ** rng.uniform(0.0, 1.5)
        e0 = rng.standard_normal() * 10.0 ** rng.uniform(-3.0, 0.5)
        trigs.append((e0, f0, e0 - 2.0 * a2, f0 - 4.0 * b2, a2, b2))
    certified = 0
    for trig in trigs:
        phi = _certified_max(trig)
        if phi is None:
            continue
        certified += 1
        e0, f0, a1, b1, a2, b2 = trig
        phi_max = 2.0 * math.asin(
            2.0 * abs(e0) / (2.0 * f0 - 4.0 * abs(a2) - 8.0 * max(b2, 0.0)))
        grid = np.linspace(-math.pi, math.pi, 2049)
        out = grid[np.abs(grid) > phi_max]
        hh = np.sin(0.5 * out) ** 2
        g = np.sin(out) * (e0 - 4.0 * a2 * hh) - 2.0 * hh * (f0 - 4.0 * b2 * hh)
        assert np.all(g < 0.0)
        inside = np.linspace(-phi_max, phi_max, 2049)
        gpp = (-a1 * np.sin(inside) - b1 * np.cos(inside)
               - 4.0 * a2 * np.sin(2.0 * inside)
               - 4.0 * b2 * np.cos(2.0 * inside))
        assert np.all(gpp < 0.0)
        assert abs(phi) <= phi_max
        assert abs(_g_prime(trig, phi)) <= 1e-12 * (abs(e0) + f0 * abs(phi))
    assert 250 <= certified < len(trigs)


def test_quarter_tie_view_falls_back_to_the_quartic(monkeypatch):
    # h~ peaks at both +-pi/4, far outside any interval around 0 that the
    # certificate could give
    calls = []
    solve = angles.solve_xi_roots
    monkeypatch.setattr(angles, "solve_xi_roots",
                        lambda trig: calls.append(trig) or solve(trig))
    view = SubproblemView([[0.0, 1.0, 0.0, 1.0, 0.0]])
    assert _certified_max(_trig_form(omega_xi_coeffs(view))) is None
    assert best_angle(view).theta == QP
    assert len(calls) == 1


def test_most_angle_steps_of_a_run_skip_the_quartic(monkeypatch):
    # a guard against a certificate that never holds: the run would still
    # be right, only slower
    steps, quartics = [], []
    pick, solve = sweeps.best_angle, angles.solve_xi_roots
    monkeypatch.setattr(sweeps, "best_angle",
                        lambda view: steps.append(1) or pick(view))
    monkeypatch.setattr(angles, "solve_xi_roots",
                        lambda trig: quartics.append(1) or solve(trig))
    tensors, _ = make_test_problem(ExperimentSpec(n=8, order=4, sigma=1e-4))
    run(tensors, RunConfig(method="c"))
    assert len(steps) > 50
    assert len(quartics) <= len(steps) // 2


def test_brute_force_basics():
    view = SubproblemView([[1.0, 0.0, 0.0, 0.0]])
    res = brute_force_angle(view)
    assert abs(res.theta) <= 1e-9          # oracle resolution around theta=0
    view2 = random_view(3, 9)
    res2 = brute_force_angle(view2)
    assert h_tilde(view2, res2.theta) >= h_tilde(view2, 0.0) - 1e-12


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
        scale = 1.0 + abs(tau(view, x))
        assert r1 <= 1e-10 * scale
        assert r2 <= 1e-10 * scale


@pytest.mark.parametrize("order", [2, 3, 4])
def test_tau_inversion_symmetry(order):
    rng = np.random.default_rng(23)
    for seed in range(30):
        view = random_view(order, 5000 + seed)
        x = float(rng.uniform(0.05, 1.0)) * (1 if seed % 2 else -1)
        tv = tau(view, x)
        assert tau(view, -1.0 / x) == pytest.approx(tv, rel=1e-10, abs=1e-12)


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


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("delta0", [math.nan, math.inf, -math.inf])
def test_view_rejects_a_non_finite_delta0(order, delta0):
    # NaN passes a plain `delta0 < 0` test, and +inf is not negative
    with pytest.raises(ValueError, match="delta0 must be finite"):
        SubproblemView(random_view(order, 1).nu, delta0)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_omega_stays_within_the_squared_norm_bound(order):
    # |A_j| <= c_d ||T||^2, c_d = DBL_MAX / MAX_SQ_NORM; a view's own
    # entries weigh sum_w C(d, w) nu_w^2 in ||T||^2, a lower bound for it
    rng = np.random.default_rng(40 + order)
    c_d = sys.float_info.max / MAX_SQ_NORM[order]
    weights = np.array([math.comb(order, w) for w in range(order + 1)])
    worst = 0.0
    for _ in range(2000):
        nu = rng.standard_normal((int(rng.integers(1, 4)), order + 1))
        nu *= rng.uniform(0.0, 1.0, size=order + 1) ** 3
        omega = omega_xi_coeffs(SubproblemView(nu))
        worst = max(worst, float(np.max(np.abs(omega)))
                    / (c_d * float(np.sum(weights * nu * nu))))
    assert 0.1 < worst <= 1.0
    assert MAX_SQ_NORM[4] == pytest.approx(8.710e305, rel=1e-3)
    assert MAX_SQ_NORM[3] == pytest.approx(4.749e306, rel=1e-3)


@pytest.mark.parametrize("sq_norm,shown", [(0.0, "0"), (math.inf, "inf")])
def test_check_sq_norm_refuses_zero_and_inf(sq_norm, shown):
    # run and verify refuse an all-zero, underflowing or overflowing set
    # through this one function, before any rotation
    with pytest.raises(ValueError, match=rf"squared norm is {shown}; "
                       r"need 0 < \|\|T\|\|\^2 < inf"):
        check_sq_norm(sq_norm, 3)
