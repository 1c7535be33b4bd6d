"""Reference computations that ``harness.verify_invariants`` checks the
solver against, each by a route independent of the code it checks: direct
evaluation of the restricted objective h and a grid search for the angle,
a central finite difference of f on rotated copies of a tensor set for the
gradient, and a dense whole-stack rotation and symmetry gather for the
packed plane-rotation kernel.  ``verify_invariants`` imports this module
when it is called, so importing the solver does not load it.  The
references that only the tests use are in ``tests/reference.py``."""

from __future__ import annotations

import functools
import math

import numpy as np

from .angles import _BINOM, AngleResult
from .geometry import QUARTER_PI

__all__ = [
    "proximal_gamma",
    "h",
    "h_tilde",
    "h_prime_at_zero",
    "rotate_planes_reference",
    "local_maxima",
    "brute_force_angle",
    "finite_difference_h_prime",
]


def proximal_gamma(theta):
    """Proximal penalty gamma(theta) = 2 sin^2(theta) cos^2(theta)."""
    s = np.sin(theta)
    c = np.cos(theta)
    return 2.0 * s * s * c * c


def _t12(view, theta):
    """Rotated diagonal entries T1, T2, each of shape (m,) + theta.shape."""
    theta = np.asarray(theta, dtype=np.float64)
    c, s = np.cos(theta), np.sin(theta)
    d = view.order
    binom = _BINOM[d]
    t1 = np.zeros((view.nu.shape[0],) + theta.shape)
    t2 = np.zeros_like(t1)
    for w in range(d + 1):
        col = (binom[w] * view.nu[:, w]).reshape((-1,) + (1,) * theta.ndim)
        t1 = t1 + col * c ** (d - w) * s ** w
        t2 = t2 + col * (-s) ** (d - w) * c ** w
    return t1, t2


def h(view, theta):
    """Unpenalized restricted objective (sum over the set)."""
    t1, t2 = _t12(view, theta)
    out = (t1 * t1 + t2 * t2).sum(axis=0)
    return float(out) if out.ndim == 0 else out


def h_tilde(view, theta):
    """Penalized objective h(theta) - delta0 * gamma(theta)."""
    return h(view, theta) - view.delta0 * proximal_gamma(theta)


def h_prime_at_zero(view):
    """h'(0) = 2 d sum_l (nu0 nu1 - nu_{d-1} nu_d); equals -2 Lambda[i, j]."""
    d = view.order
    nu = view.nu
    return 2.0 * d * float(np.sum(nu[:, 0] * nu[:, 1] - nu[:, d - 1] * nu[:, d]))


@functools.cache
def _canonical_map(order, dim):
    """Dense flat index of every entry's sorted multi-index, by sorting;
    read-only, built once per shape (``verify`` samples many rotations)."""
    idx = np.indices((dim,) * order).reshape(order, -1)
    out = np.ravel_multi_index(tuple(np.sort(idx, axis=0)), (dim,) * order)
    out.setflags(write=False)
    return out


def rotate_planes_reference(stack, i, j, c, s):
    """Apply G(i,j,theta)^T on every mode of every tensor in a dense,
    bitwise-symmetric stack, in place, by updating the i/j slices of each
    mode over the whole stack and then re-reading every entry from its
    sorted multi-index (O(m n^d)).  Any float dtype works.  In float64 it
    is what the "plane-kernel" check holds ``TensorSet.rotate_plane``, which
    updates only the packed entries with an index in {i, j} and sums in
    another order, to; on a long-double stack it is the accurate result the
    tests measure that kernel's error against (at most twice that of this
    rotation in float64)."""
    order = stack.ndim - 1
    for axis in range(1, order + 1):
        sl = [slice(None)] * (order + 1)
        sl[axis] = i
        idx_i = tuple(sl)
        sl[axis] = j
        idx_j = tuple(sl)
        ti = stack[idx_i].copy()
        tj = stack[idx_j]
        stack[idx_i] = c * ti + s * tj
        stack[idx_j] = c * tj - s * ti
    canon = _canonical_map(order, stack.shape[-1])
    stack[...] = stack.reshape(len(stack), -1)[:, canon].reshape(stack.shape)


def _scalar_fn(view):
    """Fast pure-python evaluator of h_tilde for scalar theta."""
    d = view.order
    binom = _BINOM[d]
    rows = [[binom[w] * float(view.nu[ell, w]) for w in range(d + 1)]
            for ell in range(view.nu.shape[0])]
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


def _golden_max(fn, lo, hi):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > 1e-12:
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


def _parabolic_polish(fn, theta, lo, hi):
    """One quadratic-fit step with a wide stencil.

    Golden section stalls anywhere inside the plateau where the objective
    is flat to machine precision (width ~sqrt(eps/|h''|)); the parabola
    vertex through points step apart locates a clean maximum to ~1e-10.
    """
    step = 1e-5
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


def local_maxima(view):
    """(theta, h~(theta)) at every local maximum of a 2049-point grid on
    [-pi/4, pi/4] (odd, so theta = 0 is on it), refined to a 1e-12 bracket
    and polished with a parabolic step; empty when h~ is flat on the grid,
    its spread within 1e-15 of its largest |h~| there, a bound that scales
    with the view.  Independent of the polynomial machinery."""
    thetas = np.linspace(-QUARTER_PI, QUARTER_PI, 2049)
    values = h_tilde(view, thetas)
    if float(np.max(values) - np.min(values)) <= 1e-15 * float(
            np.max(np.abs(values))):
        return []
    fn = _scalar_fn(view)
    padded = np.concatenate(([-math.inf], values, [-math.inf]))
    cands = []
    for k in np.flatnonzero((values >= padded[:-2]) & (values >= padded[2:])):
        lo = thetas[max(k - 1, 0)]
        hi = thetas[min(k + 1, len(thetas) - 1)]
        t, _ = _golden_max(fn, lo, hi)
        cands.append(_parabolic_polish(fn, t, -QUARTER_PI, QUARTER_PI))
    return cands


def brute_force_angle(view):
    """Reference maximizer: the best local maximum, best_angle's tie rules,
    with maxima within 1e-13 |best| of the best tied."""
    cands = local_maxima(view)
    if not cands:
        return AngleResult(0.0, 0.0)
    vmax = max(v for _, v in cands)
    tie_tol = 1e-13 * abs(vmax)
    theta = min((t for t, v in cands if v >= vmax - tie_tol),
                key=lambda t: (abs(t), t < 0))
    value = dict(cands)[theta]
    return AngleResult(float(theta), float(value - float(h_tilde(view, 0.0))))


def finite_difference_h_prime(tensors, i, j):
    """Central finite difference, step 1e-5, of theta -> f of the TensorSet
    ``tensors`` rotated by G(i, j, theta), at theta = 0.

    Rotates copies of the full tensor set (the real objective path), so it
    is independent of the closed-form gradient formulas it is used to check.
    """
    step = 1e-5
    plus = tensors.copy().rotate_plane(i, j, step)
    minus = tensors.copy().rotate_plane(i, j, -step)
    return (plus.diag_sq_norm() - minus.diag_sq_norm()) / (2 * step)
