"""Reference computations the solver is checked against, used by
``harness.verify_invariants`` and the tests.  Each takes a route independent
of the closed forms it checks: grid search for the angle, explicit 2x...x2
block rotations for the rational identities, rotated copies of the whole
tensor set for the gradient."""

from __future__ import annotations

import math

import numpy as np

from .angles import (QUARTER_PI, _BINOM, AngleResult, SubproblemView,
                     h_derivatives_at_zero, h_prime_at_zero)
from .symtensor import multi_mode_product

__all__ = [
    "rotated_view",
    "brute_force_angle",
    "tau_identity_check",
    "finite_difference_h_prime",
]


def rotated_view(view, theta):
    """View of the same pair after rotating the plane by theta."""
    c, s = math.cos(theta), math.sin(theta)
    g = np.array([[c, -s], [s, c]])
    d = view.order
    out = np.empty_like(view.nu)
    for ell in range(view.size):
        block = np.empty((2,) * d)
        for idx in np.ndindex(*block.shape):
            block[idx] = view.nu[ell, sum(idx)]
        rot = multi_mode_product(block, g.T)
        for w in range(d + 1):
            out[ell, w] = rot[(0,) * (d - w) + (1,) * w]
    return SubproblemView(out, view.delta0)


def _scalar_fn(view):
    """Fast pure-python evaluator of h_tilde for scalar theta."""
    d = view.order
    binom = _BINOM[d]
    rows = [[binom[w] * float(view.nu[ell, w]) for w in range(d + 1)]
            for ell in range(view.size)]
    delta0 = view.delta0

    def fn(theta):
        c = math.cos(theta)
        s = math.sin(theta)
        total = 0.0
        for row in rows:
            t1 = 0.0
            t2 = 0.0
            for w, coef in enumerate(row):
                t1 += coef * c ** (d - w) * s ** w
                t2 += coef * (-s) ** (d - w) * c ** w
            total += t1 * t1 + t2 * t2
        return total - delta0 * 2.0 * (s * c) ** 2

    return fn


def _golden_max(fn, lo, hi, tol=1e-12):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def _parabolic_polish(fn, theta, lo, hi, step=1e-5):
    """One quadratic-fit step with a wide stencil.

    Golden section stalls anywhere inside the plateau where the objective
    is flat to machine precision (width ~sqrt(eps/|h''|)); the parabola
    vertex through points step apart locates a clean maximum to ~1e-10.
    """
    t = min(max(theta, lo + step), hi - step)
    vm, v0, vp = fn(t - step), fn(t), fn(t + step)
    denom = vp - 2.0 * v0 + vm
    if not (denom < 0.0 and math.isfinite(denom)):
        return theta, fn(theta)
    shift = -0.5 * step * (vp - vm) / denom
    if abs(shift) > step:
        return theta, fn(theta)
    cand = min(max(t + shift, lo), hi)
    vc = fn(cand)
    if vc >= v0:
        return cand, vc
    return theta, fn(theta)


def brute_force_angle(view, grid_points=2049):
    """Reference maximizer: dense grid plus golden-section refinement.

    Every grid-local maximum is refined to a 1e-12 bracket and polished
    with a parabolic step; the best refined point wins, with the same tie
    rules as best_angle.  Independent of the polynomial machinery.
    """
    if grid_points < 1000:
        raise ValueError("grid_points must be at least 1000")
    if grid_points % 2 == 0:
        grid_points += 1                 # keep theta = 0 on the grid
    thetas = np.linspace(-QUARTER_PI, QUARTER_PI, grid_points)
    values = view.h_tilde(thetas)
    v0 = float(view.h_tilde(0.0))
    if float(np.max(values) - np.min(values)) <= 1e-15 * (1.0 + abs(v0)):
        return AngleResult(0.0, 0.0, [(0.0, v0)])
    fn = _scalar_fn(view)
    cands = []
    for k in range(grid_points):
        left = values[k - 1] if k > 0 else -math.inf
        right = values[k + 1] if k < grid_points - 1 else -math.inf
        if values[k] >= left and values[k] >= right:
            lo = thetas[max(k - 1, 0)]
            hi = thetas[min(k + 1, grid_points - 1)]
            t, _ = _golden_max(fn, lo, hi)
            cands.append(_parabolic_polish(fn, t, -QUARTER_PI, QUARTER_PI))
    vmax = max(v for _, v in cands)
    tie_tol = 1e-13 * (1.0 + abs(vmax))
    theta = min((t for t, v in cands if v >= vmax - tie_tol),
                key=lambda t: (abs(t), t < 0))
    value = dict(cands)[theta]
    return AngleResult(float(theta), float(value - v0), cands)


def tau_identity_check(view, x):
    """Residuals of the two rational identities for tau (d in {2, 3}).

        tau(x) - tau(0) = [h'(0)(x - x^3) + h''(0) x^2 / 2] / (1+x^2)^2
        tau'(x) = [h'(0)(1 - 6x^2 + x^4) + h''(0)(x - x^3)] / (1+x^2)^3

    The left sides are evaluated directly (tau' via the rotated view), so
    the residuals genuinely test the closed forms.  Requires delta0 = 0.
    """
    if view.delta0 != 0.0:
        raise ValueError("identities hold for the unpenalized objective only")
    h1, h2 = h_derivatives_at_zero(view)
    x = float(x)
    one = 1.0 + x * x
    lhs1 = view.tau(x) - view.tau(0.0)
    rhs1 = (h1 * (x - x**3) + 0.5 * h2 * x * x) / one**2
    hp = h_prime_at_zero(rotated_view(view, math.atan(x)))
    lhs2 = hp / one
    rhs2 = (h1 * (1.0 - 6.0 * x * x + x**4) + h2 * (x - x**3)) / one**3
    return abs(lhs1 - rhs1), abs(lhs2 - rhs2)


def finite_difference_h_prime(state, i, j, step=1e-5):
    """Central finite difference of theta -> f(Q G(i,j,theta)) at 0.

    Rotates copies of the full tensor set (the real objective path), so it
    is independent of the closed-form gradient formulas it is used to check.
    """
    plus = state.tensors.copy().rotate_plane(i, j, step)
    minus = state.tensors.copy().rotate_plane(i, j, -step)
    return (plus.diag_sq_norm() - minus.diag_sq_norm()) / (2 * step)
