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
whose coefficients A0, A1, ... are quadratic forms in the restricted
entries, read off one Gram product (``omega_xi_coeffs``).

For d in {2, 3}, h~ is a trig polynomial of degree 1 in phi = 4 theta,

    h~(theta) - h~(0) = [4 A0 sin(phi) + A1 (cos(phi) - 1)] / 16,

so its maximizer is theta = atan2(4 A0, A1) / 4.  For d = 4 the real xi
roots (companion-matrix eigenvalues) map back through x^2 - xi x - 1 = 0;
arctangents of the |x| <= 1 roots, together with {0, +-pi/4}, form a
complete candidate set, scored by the closed-form gain ``_gain_numerator``
builds from Omega's coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstantObjectiveError",
    "SubproblemView",
    "AngleResult",
    "omega_xi_coeffs",
    "solve_xi_roots",
    "xi_to_x_candidates",
    "best_angle",
]

_BINOM = {2: (1.0, 2.0, 1.0), 3: (1.0, 3.0, 3.0, 1.0),
          4: (1.0, 4.0, 6.0, 4.0, 1.0)}

# imaginary-part cutoff for accepting a polynomial root as real
REAL_ROOT_IMAG_TOL = 1e-10


class ConstantObjectiveError(Exception):
    """The restricted objective is constant in theta (Omega vanishes)."""


@functools.lru_cache(maxsize=16)
def _nu_offsets(order, dim):
    """Flat-index offsets (A, B) of the view entries in one dense member:
    nu[l, w] of pair (i, j) is entry i * A[w] + j * B[w] of member l,
    whose first order - w axes take index i and whose last w take j."""
    strides = dim ** np.arange(order - 1, -1, -1)
    at_j = np.add.outer(np.arange(order + 1), np.arange(order)) >= order
    return (strides * ~at_j).sum(axis=1), (strides * at_j).sum(axis=1)


class SubproblemView:
    """Restriction of a tensor set to one index pair, plus proximal weight.

    ``nu`` has shape (m, d+1); nu[l, w] is the entry of tensor l whose index
    contains the pair's first index (d - w) times and its second index w
    times (well defined by symmetry).  Only these entries enter h up to a
    theta-independent constant; ``oracle`` evaluates h and its relatives.
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
        """View of pair (i, j) of a TensorSet, one gather from its packed
        entries.

        Not re-checked: the set's entries were checked finite when it was
        built, and a rotation of a set with finite ||T||^2 stays finite.
        """
        a, b = _nu_offsets(tensors.order, tensors.dim)
        view = cls.__new__(cls)
        view.nu = tensors.entries(i * a + j * b)
        view.delta0 = float(delta0)
        return view

    @property
    def order(self):
        return self.nu.shape[1] - 1


def _omega_matrix(d):
    """Exact integer matrix M_d with Omega's coefficients (delta0 = 0,
    highest degree first) = M_d @ vec(nu^T nu).

    Under x = tan(theta), h = rho(x) / (1 + x^2)^d where entry (w, v) of
    G = nu^T nu enters rho = P1^2 + P2^2 as b_w b_v (x^s + (-1)^s x^(2d-s)),
    s = w + v, b the binomials.  Then dh/dtheta = omega(x) / (1 + x^2)^d
    with omega = (1 + x^2) rho' - 2 d x rho, and Omega is defined by

        omega(x) = (1 + x^2)^(d-k) sum_j A_j x^j (x^2 - 1)^(k-j),  k = deg Omega;

    the basis polynomial of A_j has degree 2d - j and leading coefficient 1,
    so the A_j peel off one by one.  Polynomials are coefficient arrays,
    highest degree first; integers far below 2^53 keep every step exact.
    """
    k = 4 if d == 4 else 2
    x2p1, x2m1 = [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]
    basis = []
    for j in range(k + 1):
        b = np.ones(1)
        for f in [[1.0, 0.0]] * j + [x2m1] * (k - j) + [x2p1] * (d - k):
            b = np.convolve(b, f)
        basis.append(b)
    table = np.zeros((k + 1, 2 * d + 1))
    for s in range(2 * d + 1):
        rho = np.zeros(2 * d + 1)
        rho[2 * d - s] += 1.0
        rho[s] += (-1.0) ** s
        drho = rho[:-1] * np.arange(2 * d, 0, -1)
        # the x^(2d+1) terms cancel: drop them
        omega = (np.convolve(x2p1, drho) - 2 * d * np.append(rho, 0.0))[1:]
        for j in range(k + 1):
            table[j, s] = omega[j]
            omega[j:] -= table[j, s] * basis[j]
        assert not omega.any()
    binom = np.array(_BINOM[d])
    w = np.arange(d + 1)
    return (np.outer(binom, binom) * table[:, w[:, None] + w]).reshape(k + 1, -1)


_OMEGA_MATRIX = {d: _omega_matrix(d) for d in _BINOM}
_OMEGA_DELTA0 = {2: np.array([0.0, 4.0, 0.0]), 3: np.array([0.0, 4.0, 0.0]),
                 4: np.array([0.0, 4.0, 0.0, 16.0, 0.0])}


def omega_xi_coeffs(view):
    """Coefficients of Omega(xi) for the view, proximal term included,
    highest degree first: a quadratic for d in {2, 3}, a quartic for d = 4.

    Each coefficient is a quadratic form in nu, so Omega is one Gram product
    G = nu^T nu (the m members add through it) and one product with the
    fixed integer matrix M_d (``_omega_matrix``).  The proximal term adds
    4 delta0 to A1, and for d = 4 also 16 delta0 to A3.
    ``oracle.omega_xi_coeffs_expanded`` keeps the hand-expanded forms as
    the reference.
    """
    nu = view.nu
    d = view.order
    return (_OMEGA_MATRIX[d] @ (nu.T @ nu).ravel()
            + view.delta0 * _OMEGA_DELTA0[d])


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

    Eigenvalues of the companion matrix, built as ``np.roots`` builds it
    after stripping exact leading zeros only: a tiny leading coefficient
    keeps its huge root, which ``xi_to_x_candidates`` maps to the small
    tangent x ~ -1/xi.  Raises ConstantObjectiveError when Omega vanishes
    identically.
    """
    c = [float(v) for v in coeffs]
    if not all(map(math.isfinite, c)):
        raise ValueError("polynomial coefficients must be finite")
    lead = next((k for k, v in enumerate(c) if v != 0.0), None)
    if lead is None:
        raise ConstantObjectiveError("Omega is identically zero")
    c = c[lead:]
    if len(c) < 2:
        return []
    companion = np.eye(len(c) - 1, k=-1)
    companion[0] = [-v / c[0] for v in c[1:]]
    real = [r.real for r in np.linalg.eigvals(companion).tolist()
            if abs(r.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + abs(r.real))]
    return _collapse(real)


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


@dataclass
class AngleResult:
    """Chosen angle and its penalized objective gain over theta = 0."""

    theta: float
    gain: float


def _gain_numerator(omega):
    """Coefficients (highest degree first) of the polynomial q with
    h~(arctan x) - h~(0) = q(x) / (1 + x^2)^4, from the quartic Omega's
    coefficients A0, ..., A4 (d = 4):

        q = A0 (x - x^7) + (A0 + A2/3)(x^3 - x^5)
            - (A1/2)(x^2 + x^6) - (A3/4) x^4

    With x = tan(theta), dh~/dtheta = x^4 Omega(x - 1/x) / (1 + x^2)^4, so
    Omega fixes q through (1 + x^2) q' - 8 x q = x^4 Omega(x - 1/x) and
    q(0) = 0; the form above solves that given 3 A4 = -48 A0 - 4 A2.  q has
    no constant term, so it keeps full relative accuracy for tiny x, where
    forming h~(theta) - h~(0) by subtraction would lose everything to
    cancellation.
    """
    a0, a1, a2, a3 = (float(v) for v in omega[:4])
    c2, c3 = -0.5 * a1, a0 + a2 / 3.0
    return [-a0, c2, -c3, -0.25 * a3, c3, c2, a0, 0.0]


def best_angle(view):
    """Maximize h~ over [-pi/4, pi/4]; return theta and h~(theta) - h~(0).

    d in {2, 3}: theta = atan2(4 A0, A1) / 4 with the cancellation-free gain
    A0^2 / (r + A1) if A1 > 0, else (r - A1) / 16, r = hypot(4 A0, A1); the
    tie at A0 = 0 > A1 goes to +pi/4, and a constant h~ gives (0, 0).
    d = 4: the candidate tangents {0, +-1} plus the mapped real xi roots
    (at most 7), each scored by Horner's rule on ``_gain_numerator`` in
    plain floats; gains within 1e-12 relative of the best tie, and ties go
    to smaller |theta|, then to +.
    Both gains stay exact down to far below the resolution of h~ itself.
    """
    omega = omega_xi_coeffs(view)
    if len(omega) == 3:
        a0, a1 = float(omega[0]), float(omega[1])
        if a0 == 0.0 and a1 == 0.0:
            return AngleResult(0.0, 0.0)
        r = math.hypot(4.0 * a0, a1)
        gain = a0 * (a0 / (r + a1)) if a1 > 0.0 else (r - a1) / 16.0
        # + 0.0 turns A0 = -0.0 into +0.0, so the A0 = 0 > A1 tie gets
        # atan2 = +pi (theta = +pi/4), not -pi
        return AngleResult(0.25 * math.atan2(4.0 * a0 + 0.0, a1), gain)
    try:
        xis = solve_xi_roots(omega)
    except ConstantObjectiveError:
        return AngleResult(0.0, 0.0)
    xs = [0.0, 1.0, -1.0]
    for xi in xis:
        xs.extend(xi_to_x_candidates(xi))
    q = _gain_numerator(omega)
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
