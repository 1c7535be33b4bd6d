"""Closed-form solution of the per-rotation angle subproblem.

For a pair (i, j) the objective restricted to the Givens geodesic is

    h(theta) = sum_l [ T1_l(theta)^2 + T2_l(theta)^2 ] + const,

where T1/T2 are the two diagonal entries of the rotated 2x...x2 restriction
of each tensor to indices {i, j}.  With the proximal penalty the solver
maximizes  h~(theta) = h(theta) - delta0 * gamma(theta),
gamma(theta) = 2 sin^2 cos^2 theta, over theta in [-pi/4, pi/4].

Under x = tan(theta) the stationarity condition is a polynomial omega(x) of
degree 2d; the substitution xi = x - 1/x (valid because h~ is pi/2-periodic)
halves it to Omega(xi), a quadratic for d in {2, 3} and a quartic for d = 4,
whose coefficients are closed forms in the restricted entries.  Real xi
roots map back through x^2 - xi x - 1 = 0; arctangents of the |x| <= 1
roots, together with {0, +-pi/4}, form a complete candidate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConstantObjectiveError",
    "SubproblemView",
    "AngleResult",
    "proximal_gamma",
    "h_prime_at_zero",
    "h_derivatives_at_zero",
    "omega_xi_coeffs",
    "solve_xi_roots",
    "xi_to_x_candidates",
    "best_angle",
]

QUARTER_PI = math.pi / 4

_BINOM = {2: (1.0, 2.0, 1.0), 3: (1.0, 3.0, 3.0, 1.0),
          4: (1.0, 4.0, 6.0, 4.0, 1.0)}

# imaginary-part cutoff for accepting a polynomial root as real, and
# leading-coefficient cutoff for degree reduction
REAL_ROOT_IMAG_TOL = 1e-10
LEADING_COEFF_TOL = 1e-13


class ConstantObjectiveError(Exception):
    """The restricted objective is constant in theta (Omega vanishes)."""


def proximal_gamma(theta):
    """Proximal penalty gamma(theta) = 2 sin^2(theta) cos^2(theta)."""
    s = np.sin(theta)
    c = np.cos(theta)
    return 2.0 * s * s * c * c


class SubproblemView:
    """Restriction of a tensor set to one index pair, plus proximal weight.

    ``nu`` has shape (m, d+1); nu[l, w] is the entry of tensor l whose index
    contains the pair's first index (d - w) times and its second index w
    times (well defined by symmetry).  Only these entries enter h up to a
    theta-independent constant.
    """

    __slots__ = ("nu", "delta0")

    def __init__(self, nu, delta0=0.0):
        nu = np.atleast_2d(np.asarray(nu, dtype=np.float64))
        if nu.shape[1] - 1 not in _BINOM or nu.shape[0] < 1:
            raise ValueError(f"bad view shape {nu.shape}")
        if not np.all(np.isfinite(nu)):
            raise ValueError("view entries must be finite")
        if delta0 < 0:
            raise ValueError("delta0 must be nonnegative")
        self.nu = nu
        self.delta0 = float(delta0)

    @classmethod
    def from_tensors(cls, tensors, i, j, delta0=0.0):
        d = tensors.order
        stack = tensors.stack
        cols = [stack[(slice(None),) + (i,) * (d - w) + (j,) * w]
                for w in range(d + 1)]
        return cls(np.stack(cols, axis=1), delta0)

    @property
    def order(self):
        return self.nu.shape[1] - 1

    @property
    def size(self):
        return self.nu.shape[0]

    def _t12(self, theta):
        """Rotated diagonal entries T1, T2, each of shape (m,) + theta.shape."""
        theta = np.asarray(theta, dtype=np.float64)
        c, s = np.cos(theta), np.sin(theta)
        d = self.order
        binom = _BINOM[d]
        t1 = np.zeros((self.size,) + theta.shape)
        t2 = np.zeros_like(t1)
        for w in range(d + 1):
            col = (binom[w] * self.nu[:, w]).reshape((-1,) + (1,) * theta.ndim)
            t1 = t1 + col * c ** (d - w) * s ** w
            t2 = t2 + col * (-s) ** (d - w) * c ** w
        return t1, t2

    def h(self, theta):
        """Unpenalized restricted objective (sum over the set)."""
        t1, t2 = self._t12(theta)
        out = (t1 * t1 + t2 * t2).sum(axis=0)
        return float(out) if out.ndim == 0 else out

    def h_tilde(self, theta):
        """Penalized objective h(theta) - delta0 * gamma(theta)."""
        return self.h(theta) - self.delta0 * proximal_gamma(theta)

    def tau(self, x):
        """h after the tangent substitution x = tan(theta)."""
        return self.h(np.arctan(x))

    def tau_tilde(self, x):
        return self.h_tilde(np.arctan(x))


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
        h1 = 4.0 * np.sum(nu[:, 0] * nu[:, 1] - nu[:, 1] * nu[:, 2])
        h2 = -4.0 * np.sum(nu[:, 0]**2 + nu[:, 2]**2
                           - 2 * nu[:, 0] * nu[:, 2] - 4 * nu[:, 1]**2)
    elif d == 3:
        h1 = 6.0 * np.sum(nu[:, 0] * nu[:, 1] - nu[:, 2] * nu[:, 3])
        h2 = -6.0 * np.sum(nu[:, 0]**2 + nu[:, 3]**2 - 3 * nu[:, 1]**2
                           - 3 * nu[:, 2]**2 - 2 * nu[:, 0] * nu[:, 2]
                           - 2 * nu[:, 1] * nu[:, 3])
    else:
        raise ValueError(f"closed-form derivatives only for d in (2, 3), "
                         f"got d={d}")
    return float(h1), float(h2)


def omega_xi_coeffs(view):
    """Coefficients of Omega(xi) for the view, proximal term included,
    highest degree first: a quadratic for d in {2, 3}, a quartic for d = 4.

    Per-tensor coefficients are summed (the subproblem objectives share the
    denominator (1+x^2)^d, so they add), and 4*delta0 enters once: in the
    xi coefficient for d in {2, 3}, in the xi^3 and xi coefficients for
    d = 4.
    """
    d = view.order
    nu = view.nu
    d0 = view.delta0
    if d in (2, 3):
        h1, h2 = h_derivatives_at_zero(view)
        a = h1
        b = -h2 + 4.0 * d0
        return np.array([a, b, -4.0 * a])
    v0, v1, v2, v3, v4 = (nu[:, w] for w in range(5))
    a = 8.0 * np.sum(v0 * v1 - v3 * v4)
    b = 8.0 * np.sum(v0**2 - 3 * v2 * v0 - 4 * v1**2 - 4 * v3**2
                     + v4**2 - 3 * v2 * v4) + 4.0 * d0
    c = 8.0 * np.sum(18 * v1 * v2 - 7 * v0 * v1 + 3 * v0 * v3
                     - 18 * v2 * v3 - 3 * v1 * v4 + 7 * v3 * v4)
    dd = 8.0 * np.sum(9 * v0 * v2 - 32 * v1 * v3 - 2 * v0 * v4
                      + 9 * v2 * v4 + 12 * v1**2 - 36 * v2**2
                      + 12 * v3**2) + 4.0 * d0
    e = 80.0 * np.sum(6 * v2 * v3 - v0 * v3 - 6 * v1 * v2 + v1 * v4)
    return np.array([a, b, 4 * a + c, 3 * b + dd, 2 * a + 2 * c + e])


def _collapse(roots):
    if not roots:
        return roots
    roots = sorted(roots)
    out = [roots[0]]
    for r in roots[1:]:
        if abs(r - out[-1]) > 1e-12 * (1.0 + abs(r)):
            out.append(r)
    return out


def solve_xi_roots(coeffs):
    """All real roots of Omega (coefficients highest degree first),
    multiplicities collapsed.

    Quadratics go through the stable discriminant formula, higher degrees
    through companion-matrix eigenvalues of the monicized polynomial.
    Raises ConstantObjectiveError when Omega vanishes identically.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if not np.all(np.isfinite(c)):
        raise ValueError("polynomial coefficients must be finite")
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    if scale == 0.0:
        raise ConstantObjectiveError("Omega is identically zero")
    k = 0
    while k < len(c) - 1 and abs(c[k]) <= LEADING_COEFF_TOL * scale:
        k += 1
    c = c[k:]
    if len(c) == 1:
        return []
    if len(c) == 2:
        return [float(-c[1] / c[0])]
    if len(c) == 3:
        a, b, cc = (float(v) for v in c)
        disc = b * b - 4.0 * a * cc
        if disc >= 0.0:
            sq = math.sqrt(disc)
            q = -0.5 * (b + math.copysign(sq, b))
            if q == 0.0:
                return [0.0]
            return _collapse([q / a, cc / q])
        re = -b / (2.0 * a)
        im = math.sqrt(-disc) / (2.0 * abs(a))
        if im <= REAL_ROOT_IMAG_TOL * (1.0 + abs(re)):
            return [re]
        return []
    roots = np.roots(c)
    real = [float(r.real) for r in roots
            if abs(r.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + abs(r.real))]
    return _collapse(real)


def xi_to_x_candidates(xi):
    """Tangent candidates in [-1, 1] from a xi root of Omega.

    The two roots of x^2 - xi x - 1 multiply to -1; the in-range one is
    returned (both, for xi = 0).
    """
    if xi == 0.0:
        return [-1.0, 1.0]
    sq = math.hypot(xi, 2.0)
    big = 0.5 * (xi + sq) if xi > 0 else 0.5 * (xi - sq)
    return [-1.0 / big]


@dataclass
class AngleResult:
    """Chosen angle, its objective gain over theta = 0, and the candidates
    (theta, penalized value) that were evaluated."""

    theta: float
    gain: float
    candidates: list = field(default_factory=list)


# low-order-first coefficients of (1 + x^2)^k
_ONE_PLUS_XSQ_POW = {
    0: np.array([1.0]),
    1: np.array([1.0, 0.0, 1.0]),
    2: np.array([1.0, 0.0, 2.0, 0.0, 1.0]),
    3: np.array([1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0]),
    4: np.array([1.0, 0.0, 4.0, 0.0, 6.0, 0.0, 4.0, 0.0, 1.0]),
}


def _gain_numerator(view):
    """Low-order-first coefficients of the degree-2d polynomial q with

        h~(arctan x) - h~(0) = q(x) / (1 + x^2)^d.

    q is assembled coefficient-wise from the restricted entries, so
    evaluating it keeps full relative accuracy for tiny x, where forming
    h~(theta) - h~(0) by subtraction would lose everything to cancellation.
    """
    d = view.order
    binom = _BINOM[d]
    q = np.zeros(2 * d + 1)
    rho0 = 0.0
    for ell in range(view.size):
        p1 = np.array([binom[w] * view.nu[ell, w] for w in range(d + 1)])
        p2 = np.array([binom[d - k] * view.nu[ell, d - k] * (-1.0) ** k
                       for k in range(d + 1)])
        q += np.convolve(p1, p1) + np.convolve(p2, p2)
        rho0 += p1[0] ** 2 + p2[0] ** 2
    q -= rho0 * _ONE_PLUS_XSQ_POW[d]
    if view.delta0:
        pen = 2.0 * view.delta0 * _ONE_PLUS_XSQ_POW[d - 2]
        q[2:2 + pen.size] -= pen
    q[0] = 0.0
    return q


def _eval_gain(q, order, x):
    num = 0.0
    for c in q[::-1]:
        num = num * x + c
    return num / (1.0 + x * x) ** order


def best_angle(view):
    """Maximize h~ over [-pi/4, pi/4] via the Omega(xi) reduction.

    Candidate tangents are {0, +-1} plus the mapped real xi roots; the
    winner maximizes the cancellation-free gain h~(theta) - h~(0), so the
    solver stays exact down to gains far below floating-point resolution
    of h~ itself.  Ties are broken by smaller |theta|, then positive sign.
    """
    v0 = float(view.h_tilde(0.0))
    try:
        xis = solve_xi_roots(omega_xi_coeffs(view))
    except ConstantObjectiveError:
        return AngleResult(0.0, 0.0, [(0.0, v0)])
    xs = [0.0, 1.0, -1.0]
    for xi in xis:
        xs.extend(xi_to_x_candidates(xi))
    q = _gain_numerator(view)
    gains = [_eval_gain(q, view.order, x) for x in xs]
    gmax = max(gains)
    tie_tol = 1e-12 * abs(gmax)
    best_x = min((x for x, g in zip(xs, gains) if g >= gmax - tie_tol),
                 key=lambda x: (abs(x), x < 0))
    gain = gains[xs.index(best_x)]
    candidates = [(math.atan(x), v0 + g) for x, g in zip(xs, gains)]
    return AngleResult(math.atan(best_x), float(gain), candidates)
