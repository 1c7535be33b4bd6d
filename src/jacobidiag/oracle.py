"""Reference computations the solver is checked against, used by
``harness.verify_invariants`` and the tests.  Each takes a route independent
of the closed forms it checks: direct evaluation of the restricted objective
h and grid search for the angle, explicit 2x...x2 block rotations for the
rational identities, rotated copies of the whole tensor set for the
gradient, a dense whole-stack rotation and symmetry gather for the packed
plane rotation kernel, hand-expanded per-term sums for Omega's Gram
product, the xi route (companion-matrix roots of Omega mapped back to
tangents) for the d = 4 angle, explicit Givens matrices, and a dense sum of
the off-diagonal mass."""

from __future__ import annotations

import math

import numpy as np

from .angles import (_BINOM, AngleResult, SubproblemView, best_angle,
                     omega_xi_coeffs)
from .geometry import QUARTER_PI
from .symtensor import multi_mode_product

__all__ = [
    "proximal_gamma",
    "h",
    "h_tilde",
    "tau",
    "tau_tilde",
    "givens_matrix",
    "givens_generator",
    "offdiag_sq_norm",
    "h_prime_at_zero",
    "h_derivatives_at_zero",
    "omega_xi_coeffs_expanded",
    "xi_roots",
    "xi_to_x_candidates",
    "xi_gain_numerator",
    "best_angle_xi",
    "rotate_planes_reference",
    "rotated_view",
    "local_maxima",
    "brute_force_angle",
    "tau_identity_check",
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


def tau(view, x):
    """h after the tangent substitution x = tan(theta)."""
    return h(view, np.arctan(x))


def tau_tilde(view, x):
    return h_tilde(view, np.arctan(x))


def givens_matrix(n, i, j, theta):
    """n x n Givens rotation: identity with the (i, j) plane rotated by theta."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    g = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def givens_generator(n, i, j):
    """d/dtheta of the Givens matrix at theta = 0 (skew generator)."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    g = np.zeros((n, n))
    g[i, j] = -1.0
    g[j, i] = 1.0
    return g


def offdiag_sq_norm(tensors):
    """Total squared off-diagonal mass of a TensorSet, equal to ||T||^2
    minus the squared diagonal norm, summed over its dense expansion
    (``TensorSet.stack``): the reference for ``TensorSet.offdiag_sq``, which
    sums the packed entries weighted by their multiplicities.

    Summed directly over the off-diagonal entries: the subtraction form
    carries an eps*||T||^2 noise floor that would mask convergence far
    below it.  In a flattened member the diagonal entries sit every
    ``step = (n^d - 1) / (n - 1)`` places from 0, so the entries after
    position 0, cut into rows of ``step``, hold the diagonal in their last
    column; the sum reads the other columns as a strided view of the dense
    expansion."""
    n, m = tensors.dim, len(tensors)
    step = (n ** tensors.order - 1) // (n - 1)
    off = tensors.stack.reshape(m, -1)[:, 1:].reshape(m, n - 1, step)[:, :, :-1]
    return float(np.einsum("abc,abc->", off, off))


def h_prime_at_zero(view):
    """h'(0) = 2 d sum_l (nu0 nu1 - nu_{d-1} nu_d); equals -2 Lambda[i, j]."""
    d = view.order
    nu = view.nu
    return 2.0 * d * float(np.sum(nu[:, 0] * nu[:, 1] - nu[:, d - 1] * nu[:, d]))


def h_derivatives_at_zero(view):
    """(h'(0), h''(0)) of the unpenalized objective, d in {2, 3} only.

    For d = 4 the curvature information comes out of the Omega coefficients
    instead (h''(0) is minus the xi^3 coefficient at delta0 = 0).
    """
    d = view.order
    nu = view.nu
    if d == 2:
        h2 = -4.0 * np.sum(nu[:, 0]**2 + nu[:, 2]**2
                           - 2 * nu[:, 0] * nu[:, 2] - 4 * nu[:, 1]**2)
    elif d == 3:
        h2 = -6.0 * np.sum(nu[:, 0]**2 + nu[:, 3]**2 - 3 * nu[:, 1]**2
                           - 3 * nu[:, 2]**2 - 2 * nu[:, 0] * nu[:, 2]
                           - 2 * nu[:, 1] * nu[:, 3])
    else:
        raise ValueError(f"closed-form derivatives only for d in (2, 3), "
                         f"got d={d}")
    return h_prime_at_zero(view), float(h2)


def omega_xi_coeffs_expanded(view):
    """Omega's coefficients (highest degree first) from hand-expanded
    per-term sums, the reference for ``angles.omega_xi_coeffs``'s Gram
    product.

    Per-tensor coefficients are summed (the subproblem objectives share the
    denominator (1+x^2)^d, so they add); delta0 adds 4 delta0 to A1, and
    for d = 4 also 16 delta0 to A3.
    """
    d = view.order
    nu = view.nu
    d0 = view.delta0
    if d in (2, 3):
        h1, h2 = h_derivatives_at_zero(view)
        return np.array([h1, -h2 + 4.0 * d0, -4.0 * h1])
    v0, v1, v2, v3, v4 = (nu[:, w] for w in range(5))
    a = h_prime_at_zero(view)
    b = 8.0 * np.sum(v0**2 - 3 * v2 * v0 - 4 * v1**2 - 4 * v3**2
                     + v4**2 - 3 * v2 * v4) + 4.0 * d0
    c = 8.0 * np.sum(18 * v1 * v2 - 7 * v0 * v1 + 3 * v0 * v3
                     - 18 * v2 * v3 - 3 * v1 * v4 + 7 * v3 * v4)
    dd = 8.0 * np.sum(9 * v0 * v2 - 32 * v1 * v3 - 2 * v0 * v4
                      + 9 * v2 * v4 + 12 * v1**2 - 36 * v2**2
                      + 12 * v3**2) + 4.0 * d0
    e = 80.0 * np.sum(6 * v2 * v3 - v0 * v3 - 6 * v1 * v2 + v1 * v4)
    return np.array([a, b, 4 * a + c, 3 * b + dd, 2 * a + 2 * c + e])


def xi_roots(coeffs):
    """All real roots of Omega (coefficients highest degree first),
    multiplicities collapsed; None when Omega vanishes identically.

    Eigenvalues of the companion matrix, built as ``np.roots`` builds it
    after stripping exact leading zeros only: a tiny leading coefficient
    keeps its huge root, which ``xi_to_x_candidates`` maps to the small
    tangent x ~ -1/xi.  A root counts as real if its imaginary part is at
    most 1e-10 (1 + |real part|).
    """
    c = [float(v) for v in coeffs]
    lead = next((k for k, v in enumerate(c) if v != 0.0), None)
    if lead is None:
        return None
    c = c[lead:]
    if len(c) < 2:
        return []
    companion = np.eye(len(c) - 1, k=-1)
    companion[0] = [-v / c[0] for v in c[1:]]
    roots = sorted(r.real for r in np.linalg.eigvals(companion).tolist()
                   if abs(r.imag) <= 1e-10 * (1.0 + abs(r.real)))
    out = roots[:1]
    for r in roots[1:]:
        if abs(r - out[-1]) > 1e-12 * (1.0 + abs(r)):
            out.append(r)
    return out


def xi_to_x_candidates(xi):
    """Tangents in [-1, 1] that a xi root of Omega maps back to.

    The two roots of x^2 - xi x - 1 multiply to -1; the in-range one is
    returned (both, for xi = 0).
    """
    if xi == 0.0:
        return [-1.0, 1.0]
    sq = math.hypot(xi, 2.0)
    big = 0.5 * (xi + sq) if xi > 0 else 0.5 * (xi - sq)
    return [-1.0 / big]


def xi_gain_numerator(omega):
    """Coefficients (highest degree first) of the polynomial q with
    h~(arctan x) - h~(0) = q(x) / (1 + x^2)^4, from the quartic Omega's
    coefficients A0, ..., A4 (d = 4):

        q = A0 (x - x^7) + (A0 + A2/3)(x^3 - x^5)
            - (A1/2)(x^2 + x^6) - (A3/4) x^4

    With x = tan(theta), dh~/dtheta = x^4 Omega(x - 1/x) / (1 + x^2)^4, so
    Omega fixes q through (1 + x^2) q' - 8 x q = x^4 Omega(x - 1/x) and
    q(0) = 0; the form above solves that given 3 A4 = -48 A0 - 4 A2.  q has
    no constant term, so it keeps full relative accuracy for tiny x.
    """
    a0, a1, a2, a3 = (float(v) for v in omega[:4])
    c2, c3 = -0.5 * a1, a0 + a2 / 3.0
    return [-a0, c2, -c3, -0.25 * a3, c3, c2, a0, 0.0]


def best_angle_xi(view):
    """The d = 4 angle by the xi route, the reference for
    ``angles.best_angle``'s trig form (d <= 3 is passed through to it).

    Candidate tangents {0, +-1} plus the mapped real xi roots, each scored
    by Horner's rule on ``xi_gain_numerator`` in plain floats, with
    ``best_angle``'s tie rules: gains within 1e-12 relative of the best
    tie, and ties go to smaller |theta|, then to +.
    """
    if view.order < 4:
        return best_angle(view)
    omega = omega_xi_coeffs(view)
    xis = xi_roots(omega)
    if xis is None:
        return AngleResult(0.0, 0.0)
    xs = [0.0, 1.0, -1.0]
    for xi in xis:
        xs.extend(xi_to_x_candidates(xi))
    q = xi_gain_numerator(omega)
    scored = []
    for x in xs:
        y = 0.0
        for coef in q:
            y = y * x + coef
        scored.append((y / (1.0 + x * x) ** 4, x))
    floor = max(scored)[0]
    floor -= 1e-12 * abs(floor)
    gain, x = min((p for p in scored if p[0] >= floor),
                  key=lambda p: (abs(p[1]), p[1] < 0))
    return AngleResult(math.atan(x), gain)


def _canonical_map(order, dim):
    """Dense flat index of every entry's sorted multi-index, by sorting."""
    idx = np.indices((dim,) * order).reshape(order, -1)
    return np.ravel_multi_index(tuple(np.sort(idx, axis=0)), (dim,) * order)


def rotate_planes_reference(stack, i, j, c, s):
    """Apply G(i,j,theta)^T on every mode of every tensor in a dense,
    bitwise-symmetric stack, in place, by updating the i/j slices of each
    mode over the whole stack and then re-reading every entry from its
    sorted multi-index (O(m n^d)).  Any float dtype works; on a long-double
    stack it is the accurate result that ``TensorSet.rotate_plane``, which
    updates only the packed entries with an index in {i, j} and sums in
    another order, is measured against: its error is held to at most twice
    that of this rotation in float64."""
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


def rotated_view(view, theta):
    """View of the same pair after rotating the plane by theta."""
    c, s = math.cos(theta), math.sin(theta)
    g = np.array([[c, -s], [s, c]])
    d = view.order
    out = np.empty_like(view.nu)
    for ell in range(view.nu.shape[0]):
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


def local_maxima(view, grid_points=2049):
    """(theta, h~(theta)) at every grid-local maximum on [-pi/4, pi/4],
    refined to a 1e-12 bracket and polished with a parabolic step; empty
    when h~ is flat on the grid.  Independent of the polynomial machinery."""
    if grid_points < 1000:
        raise ValueError("grid_points must be at least 1000")
    if grid_points % 2 == 0:
        grid_points += 1                 # keep theta = 0 on the grid
    thetas = np.linspace(-QUARTER_PI, QUARTER_PI, grid_points)
    values = h_tilde(view, thetas)
    v0 = float(h_tilde(view, 0.0))
    if float(np.max(values) - np.min(values)) <= 1e-15 * (1.0 + abs(v0)):
        return []
    fn = _scalar_fn(view)
    padded = np.concatenate(([-math.inf], values, [-math.inf]))
    cands = []
    for k in np.flatnonzero((values >= padded[:-2]) & (values >= padded[2:])):
        lo = thetas[max(k - 1, 0)]
        hi = thetas[min(k + 1, grid_points - 1)]
        t, _ = _golden_max(fn, lo, hi)
        cands.append(_parabolic_polish(fn, t, -QUARTER_PI, QUARTER_PI))
    return cands


def brute_force_angle(view, grid_points=2049):
    """Reference maximizer: the best local maximum, best_angle's tie rules."""
    cands = local_maxima(view, grid_points)
    if not cands:
        return AngleResult(0.0, 0.0)
    vmax = max(v for _, v in cands)
    tie_tol = 1e-13 * (1.0 + abs(vmax))
    theta = min((t for t, v in cands if v >= vmax - tie_tol),
                key=lambda t: (abs(t), t < 0))
    value = dict(cands)[theta]
    return AngleResult(float(theta), float(value - float(h_tilde(view, 0.0))))


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
    lhs1 = tau(view, x) - tau(view, 0.0)
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
