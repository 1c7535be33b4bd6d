"""References that only the tests check the solver against; those that
``jacobidiag verify`` also uses are in ``jacobidiag.oracle``.  Each takes a
route independent of the closed forms it checks: explicit 2x...x2 block
rotations for the rational identities of tau, the restricted objective in
the tangent x = tan(theta), hand-expanded per-term sums for the
stationarity polynomial Omega mapped to g's coefficients for their Gram
product, the xi route (companion-matrix roots of Omega mapped back to
tangents) for the d = 4 angle, explicit Givens matrices, one ``einsum``
for a matrix applied to every mode, the d! transposes for symmetry, a
dense sum of the off-diagonal mass, and Lambda from dense near-diagonal
entries."""

from __future__ import annotations

import itertools
import math

import numpy as np

from jacobidiag.angles import AngleResult, SubproblemView, best_angle
from jacobidiag.oracle import _canonical_map, h, h_prime_at_zero, h_tilde


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


def all_mode_product(dense, matrix, order=None):
    """The last ``order`` axes (default: all) of ``dense`` each contracted
    with ``matrix``: out[..., a_1, ..., a_d] = sum over b of
    M[a_1, b_1] ... M[a_d, b_d] dense[..., b_1, ..., b_d], by one
    ``einsum``; the reference for ``TensorSet.rotated_by``, which passes
    q^T."""
    order = dense.ndim if order is None else order
    src, dst = "abcd"[:order], "efgh"[:order]
    spec = ",".join(o + i for o, i in zip(dst, src))
    return np.einsum(f"{spec},...{src}->...{dst}", *[matrix] * order, dense)


def dense_symmetrize(arr, by_value=False):
    """The d! transposes added one by one, in ``itertools.permutations``
    order (the generators' noise recipe: ``harness.make_test_problem`` and
    ``perfbench/problems.py``'s ``_sym_noise``) or, ``by_value``, per entry
    in ascending order of value (the constructor's and the loader's
    average), divided by d!; then every entry read at its sorted
    multi-index through the oracle's sort-based map."""
    terms = np.stack([arr.transpose(perm)
                      for perm in itertools.permutations(range(arr.ndim))])
    if by_value:
        terms.sort(axis=0)
    acc = np.zeros_like(arr)
    for term in terms:
        acc += term
    acc /= math.factorial(arr.ndim)
    return acc.reshape(-1)[_canonical_map(arr.ndim, arr.shape[0])].reshape(
        arr.shape)


def dense_symmetry_error(arr):
    """Largest |T - T.transpose(p)| over all entries and permutations."""
    return max(float(np.max(np.abs(arr - arr.transpose(perm))))
               for perm in itertools.permutations(range(arr.ndim)))


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
    per-term sums; through ``trig_from_omega``, the reference for
    ``angles.omega_xi_coeffs``'s Gram product.

    Omega is the stationarity polynomial in xi = x - 1/x, x = tan(theta):
    dh~/dtheta = x^k Omega(x - 1/x) / (1 + x^2)^k, k = deg Omega (2 for
    d in {2, 3}, 4 for d = 4).  Per-tensor coefficients are summed (the
    subproblem objectives share the denominator (1+x^2)^d, so they add);
    delta0 adds 4 delta0 to A1, and for d = 4 also 16 delta0 to A3.
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


def trig_from_omega(omega):
    """g's coefficients, as ``angles.omega_xi_coeffs`` returns them, from
    Omega's A0, A1, ... (highest degree first): (e0, f0) = (A0/4, A1/16)
    for d in {2, 3}, and for d = 4

        e0 = A0/4,  f0 = A1/16,  a1 = A0/4 + A2/96,  b1 = A1/32 + A3/128,
        a2 = -A2/192,  b2 = A1/128 - A3/512,

    with g(phi) = h~(phi/4) - h~(0) = a1 sin(phi) + b1 (cos(phi) - 1)
    + a2 sin(2 phi) + b2 (cos(2 phi) - 1), e0 = g'(0) and f0 = -g''(0).
    A4 is not needed: 3 A4 = -48 A0 - 4 A2.
    """
    a0, a1, *rest = (float(v) for v in omega)
    if len(rest) == 1:
        return [a0 / 4.0, a1 / 16.0]
    a2, a3, _ = rest
    return [a0 / 4.0, a1 / 16.0, a0 / 4.0 + a2 / 96.0, a1 / 32.0 + a3 / 128.0,
            -a2 / 192.0, a1 / 128.0 - a3 / 512.0]


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
    """The d = 4 angle by the xi route from the hand-expanded Omega, the
    reference for ``angles.best_angle``'s trig form (d <= 3 is passed
    through to it).

    Candidate tangents {0, +-1} plus the mapped real xi roots, each scored
    by Horner's rule on ``xi_gain_numerator`` in plain floats, with
    ``best_angle``'s tie rules: gains within 1e-12 relative of the best
    tie, and ties go to smaller |theta|, then to +.
    """
    if view.order < 4:
        return best_angle(view)
    omega = omega_xi_coeffs_expanded(view)
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
        rot = all_mode_product(block, g.T)
        for w in range(d + 1):
            out[ell, w] = rot[(0,) * (d - w) + (1,) * w]
    return SubproblemView(out, view.delta0)


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


def lambda_reference(tensors):
    """Lambda of a TensorSet from its dense expansion: the (m, n, n)
    near-diagonal entries W[k, p, ..., p] gathered member-major as one
    contiguous array, then the member sum of W[k, p, ..., p] W[p, ..., p]
    and d (S - S^T); the reference for ``geometry.lambda_of``, which
    returns its upper triangle from the packed entries and sums the
    members in another order."""
    d, n = tensors.order, tensors.dim
    k, p = np.ogrid[:n, :n]
    near = np.ascontiguousarray(
        tensors.stack[(slice(None), k) + (p,) * (d - 1)])   # (m, n, n)
    s = np.einsum("akl,al->kl", near, near.diagonal(axis1=1, axis2=2))
    return d * (s - s.T)
