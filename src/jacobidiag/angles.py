"""Closed-form solution of the per-rotation angle subproblem.

For a pair (i, j) the objective restricted to the Givens geodesic is

    h(theta) = sum_l [ T1_l(theta)^2 + T2_l(theta)^2 ] + const,

where T1/T2 are the two diagonal entries of the rotated 2x...x2 restriction
of each tensor to indices {i, j}.  With the proximal penalty the solver
maximizes  h~(theta) = h(theta) - delta0 * gamma(theta),
gamma(theta) = 2 sin^2 cos^2 theta, over theta in [-pi/4, pi/4].

h~ is pi/2-periodic and of degree 2d in (cos theta, sin theta), so in
phi = 4 theta in [-pi, pi] it is a trig polynomial of degree 2 at most:

    g(phi) = h~(phi/4) - h~(0)
           = a1 sin(phi) + b1 (cos(phi) - 1)
             + a2 sin(2 phi) + b2 (cos(2 phi) - 1),

with a2 = b2 = 0 for d in {2, 3}.  The coefficients are an exact linear map
(``_trig_form``) of the coefficients A0, A1, ... of Omega, the stationarity
polynomial in xi = x - 1/x, x = tan(theta), from whose real roots the
d = 4 angle was once found (``best_angle_xi`` in ``tests/reference.py``).
They are quadratic forms in the restricted entries, read off one Gram
product (``omega_xi_coeffs``).

For d in {2, 3} the maximizer is theta = atan2(4 A0, A1) / 4.  For d = 4
a certificate (``_certified_max``) first tries to show that g < 0 outside
an interval around 0 on which g is strictly concave; the maximizer is
then the one root of g' there, found by Newton's method from 0.  The
certificate holds on most steps of a run near its limit, where pairs are
nearly diagonal.  Where it fails, the critical points are the real roots
of a quartic in tan(phi/2), solved in closed form and polished by Newton's
method on g' (``solve_xi_roots``); together with phi in {0, pi} they are
scored by a form of g without cancellation near phi = 0 (``_gain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import QUARTER_PI
from .symtensor import _pair_positions

__all__ = [
    "MAX_SQ_NORM",
    "check_sq_norm",
    "SubproblemView",
    "AngleResult",
    "omega_xi_coeffs",
    "solve_xi_roots",
    "best_angle",
]

_BINOM = {2: (1.0, 2.0, 1.0), 3: (1.0, 3.0, 3.0, 1.0),
          4: (1.0, 4.0, 6.0, 4.0, 1.0)}


class SubproblemView:
    """Restriction of a tensor set to one index pair, plus proximal weight.

    ``nu`` has shape (m, d+1); nu[l, w] is the entry of tensor l whose index
    contains the pair's first index (d - w) times and its second index w
    times (well defined by symmetry).  Only these entries enter h up to a
    theta-independent constant; ``oracle`` evaluates h and h~, and
    ``tests/reference.py`` their relatives in x = tan(theta).
    """

    __slots__ = ("nu", "delta0")

    def __init__(self, nu, delta0=0.0):
        nu = np.atleast_2d(np.asarray(nu, dtype=np.float64))
        if nu.shape[1] - 1 not in _BINOM or nu.shape[0] < 1:
            raise ValueError(f"bad view shape {nu.shape}")
        if not np.all(np.isfinite(nu)):
            raise ValueError("view entries must be finite")
        # written so that NaN fails it too
        if not 0.0 <= delta0 < math.inf:
            raise ValueError("delta0 must be finite and nonnegative")
        self.nu = nu
        self.delta0 = float(delta0)

    @classmethod
    def from_tensors(cls, tensors, i, j, delta0=0.0):
        """View of pair (i, j) of a TensorSet: one take of its packed
        rows at the pair's row of ``_pair_positions``, read transposed
        (a row take costs far less than a column take of ``packed.T``).

        Not re-checked: the set's entries were checked finite when it was
        built, and a rotation of a set with finite ||T||^2 stays finite.
        """
        view = cls.__new__(cls)
        view.nu = tensors.packed.take(
            _pair_positions(tensors.order, tensors.dim)[i, j], axis=0).T
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
# Largest ||T||^2 at which no coefficient of Omega (delta0 = 0) can overflow:
# a member holds nu[l, w] at C(d, w) dense places, so |G_wv| <= ||T||^2 /
# sqrt(C(d, w) C(d, v)) (Cauchy-Schwarz), and |A_j| <= c_d ||T||^2, c_d the
# largest row sum of |M_d| weighted so (206 at d = 4, 38 at d = 3, 24 at d = 2)
MAX_SQ_NORM = {d: float(np.finfo(np.float64).max / np.max(
    np.abs(_OMEGA_MATRIX[d]) @ (1.0 / np.sqrt(np.outer(b, b))).ravel()))
    for d, b in _BINOM.items()}


def check_sq_norm(sq_norm, order, delta0=0.0):
    """Refuse a set whose ||T||^2 is 0 or inf (it under- or overflows) or
    exceeds ``MAX_SQ_NORM[order]``, or a proximal weight delta0 that can
    overflow Omega's coefficients with it: |A_j| <= DBL_MAX (||T||^2 /
    MAX_SQ_NORM + delta0 max(_OMEGA_DELTA0) / DBL_MAX), each term divided
    before the sum, since the product itself can overflow.  ``sweeps.run``
    and ``harness.verify_invariants`` both refuse a set through it, before
    any rotation."""
    if not 0.0 < sq_norm < math.inf:
        raise ValueError(f"the tensor set's squared norm is {sq_norm:g}; "
                         f"need 0 < ||T||^2 < inf")
    if sq_norm > (bound := MAX_SQ_NORM[order]):
        raise ValueError(f"||T||^2 = {sq_norm:.3e} exceeds {bound:.3e}, "
                         f"where the angle step can overflow; rescale the "
                         f"input")
    if sq_norm / bound + delta0 / (
            np.finfo(np.float64).max / _OMEGA_DELTA0[order].max()) > 1.0:
        raise ValueError(f"delta0 = {delta0:.3e} with ||T||^2 = "
                         f"{sq_norm:.3e} can overflow the angle step; "
                         f"lower delta0")


def omega_xi_coeffs(view):
    """Coefficients of Omega(xi) for the view, proximal term included,
    highest degree first: a quadratic for d in {2, 3}, a quartic for d = 4.

    Each coefficient is a quadratic form in nu, so Omega is one Gram product
    G = nu^T nu (the m members add through it) and one product with the
    fixed integer matrix M_d (``_omega_matrix``).  The proximal term adds
    4 delta0 to A1, and for d = 4 also 16 delta0 to A3; at delta0 = 0 it
    is skipped.  ``omega_xi_coeffs_expanded`` in ``tests/reference.py``
    keeps the hand-expanded forms as the reference.
    """
    nu = view.nu
    d = view.order
    omega = _OMEGA_MATRIX[d] @ (nu.T @ nu).ravel()
    if view.delta0:
        omega += view.delta0 * _OMEGA_DELTA0[d]
    return omega


def _trig_form(omega):
    """(e0, f0, a1, b1, a2, b2) of g(phi) = h~(phi/4) - h~(0) from Omega's
    coefficients A0, A1, ... (highest degree first):

        g = a1 sin(phi) + b1 (cos(phi) - 1)
            + a2 sin(2 phi) + b2 (cos(2 phi) - 1)

    for d = 4: a1 = (16 A0 - A4)/128, b1 = (4 A1 + A3)/128,
    a2 = (16 A0 - 4 A2 + A4)/1024, b2 = (4 A1 - A3)/512.  Under
    3 A4 = -48 A0 - 4 A2 they read a1 = A0/4 + A2/96 and a2 = -A2/192, so
    A4 is not needed.  The proximal term enters b1 only, as delta0/4.
    (For d in {2, 3}, a1 = A0/4, b1 = A1/16 and a2 = b2 = 0.)

    e0 = a1 + 2 a2 = g'(0) = A0/4 and f0 = b1 + 4 b2 = -g''(0) = A1/16 are
    kept as such: near-diagonal pairs have A0 tiny, and forming e0 from a1
    and a2 would leave only their rounding.
    """
    a0, a1, a2, a3, _ = omega.tolist()
    if not all(map(math.isfinite, (a0, a1, a2, a3))):
        raise ValueError("Omega's coefficients must be finite")
    e0 = 0.25 * a0
    # b1 and b2 scaled before the sum, which then cannot overflow
    return (e0, 0.0625 * a1, e0 + a2 / 96.0, a1 / 32.0 + a3 / 128.0,
            -a2 / 192.0, a1 / 128.0 - a3 / 512.0)


def _slopes(phi, e0, f0, a1, b1, a2, b2):
    """(g'(phi), g''(phi)).  g' is written in h = sin(phi/2) and
    s = sin(phi) around the exact g'(0) = e0 and g''(0) = -f0,

        g' = e0 - 2 a1 h^2 - 4 a2 s^2 - s (f0 - 8 b2 h^2),

    so it keeps full relative accuracy at tiny phi."""
    h = math.sin(0.5 * phi)
    hh = h * h
    s = 2.0 * h * math.cos(0.5 * phi)
    ss = s * s
    c = 1.0 - 2.0 * hh
    return (e0 - 2.0 * a1 * hh - 4.0 * a2 * ss - s * (f0 - 8.0 * b2 * hh),
            -s * (a1 + 8.0 * a2 * c) - b1 * c - 4.0 * b2 * (1.0 - 2.0 * ss))


def _quadratic_roots(b, c):
    """Real roots of y^2 + b y + c.  A discriminant below zero by no more
    than rounding counts as zero, so a double root is kept."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        if disc < -1e-10 * (b * b + 4.0 * abs(c)):
            return []
        disc = 0.0
    big = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [big, c / big] if big != 0.0 else [0.0]


def _largest_cubic_root(b, c, d):
    """Largest real root of m^3 + b m^2 + c m + d, by Cardano's formula or,
    with three real roots, the trigonometric one; then one Newton step."""
    third = b / 3.0
    p3 = (c - b * third) / 3.0
    half = 0.5 * d + third * (third * third - 0.5 * c)
    disc = half * half + p3 * p3 * p3
    if disc > 0.0:
        u = -math.copysign((abs(half) + math.sqrt(disc)) ** (1.0 / 3.0),
                           half)
        z = u - p3 / u
    elif p3 < 0.0:
        rho = math.sqrt(-p3)
        # -half / rho^3, without forming rho^3, which can underflow
        cos3 = max(-1.0, min(1.0, half / p3 / rho))
        z = 2.0 * rho * math.cos(math.acos(cos3) / 3.0)
    else:
        z = 0.0
    m = z - third
    slope = (3.0 * m + 2.0 * b) * m + c
    if slope != 0.0:
        m -= (((m + b) * m + c) * m + d) / slope
    return m


def _quartic_roots(a, b, c, d):
    """Real roots of t^4 + a t^3 + b t^2 + c t + d by Ferrari's method.

    With t = y - a/4 the quartic is y^4 + p y^2 + q y + r.  For the largest
    root m > 0 of the resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8 it is
    (y^2 + p/2 + m)^2 - (w y - q/(2w))^2, w = sqrt(2 m), a product of two
    quadratics; for q = 0 it is biquadratic.  Roots come with absolute, not
    relative, accuracy: the caller polishes them.
    """
    aa = a * a
    p = b - 0.375 * aa
    q = c + a * (0.125 * aa - 0.5 * b)
    r = d + a * (0.0625 * a * b - 0.25 * c) - 0.01171875 * aa * aa
    m = _largest_cubic_root(p, 0.25 * p * p - r, -0.125 * q * q) \
        if q != 0.0 else 0.0
    if m > 0.0:
        w = math.sqrt(2.0 * m)
        v = q / (2.0 * w)
        ys = (_quadratic_roots(-w, 0.5 * p + m + v)
              + _quadratic_roots(w, 0.5 * p + m - v))
    else:
        ys = []
        for y2 in _quadratic_roots(p, r):
            if y2 >= 0.0:
                y = math.sqrt(y2)
                ys += [y, -y]
    return [y - 0.25 * a for y in ys]


_R = math.sqrt(0.5)
# (phi0, cos(phi0), sin(phi0), cos(2 phi0), sin(2 phi0)) at the eight
# multiples of pi/4, exact up to the rounding of sqrt(1/2)
_FRAMES = ((0.0, 1.0, 0.0, 1.0, 0.0), (QUARTER_PI, _R, _R, 0.0, 1.0),
           (2 * QUARTER_PI, 0.0, 1.0, -1.0, 0.0),
           (3 * QUARTER_PI, -_R, _R, 0.0, -1.0),
           (math.pi, -1.0, 0.0, 1.0, 0.0),
           (-3 * QUARTER_PI, -_R, -_R, 0.0, 1.0),
           (-2 * QUARTER_PI, 0.0, -1.0, -1.0, 0.0),
           (-QUARTER_PI, _R, -_R, 0.0, -1.0))
# -pi and pi are one critical point; a root this close above -pi is that
# point, rounded, and is reported as pi (theta = +pi/4)
_MINUS_PI_SNAP = -math.pi + 1e-14


def solve_xi_roots(trig):
    """Critical points of g (from ``_trig_form``) in (-pi, pi], each
    polished by Newton's method on g'.  ``best_angle`` calls it only where
    ``_certified_max`` fails.  The name is the one the xi route had, which
    the benchmark's tracer hooks; the rename waits for ROADMAP item 1.

    In a frame phi = phi0 + psi, g'(phi0 + psi) = p cos(psi) - q sin(psi)
    + 2 r cos(2 psi) - 2 s sin(2 psi), with p = a1 cos(phi0) - b1 sin(phi0),
    q = a1 sin(phi0) + b1 cos(phi0), r = a2 cos(2 phi0) - b2 sin(2 phi0) and
    s = a2 sin(2 phi0) + b2 cos(2 phi0); (1 + t^2)^2 g' with t = tan(psi/2)
    is the quartic

        (2r - p) t^4 + (8s - 2q) t^3 - 12 r t^2 - (2q + 8s) t + (p + 2r).

    It is solved (``_quartic_roots``) in the frame phi0, a multiple of
    pi/4, whose leading coefficient g'(phi0 + pi) is largest in magnitude.
    g' is a trig polynomial of degree 2, so |g''| <= 2 max |g'| and
    |g'''| <= 4 max |g'| (Bernstein); its peak lies within pi/8 of one of
    the eight samples, which is then at least 0.69 max |g'|, and no root
    lies within 0.34 of psi = pi: every |t| < 6, and Ferrari's method
    gives each root to an absolute accuracy near rounding.  Quarter turns
    alone would not do: g' = -2 b2 sin(2 phi) has roots at t = 0 and
    t = infinity in each of them.  Newton's method on ``_slopes`` then
    makes the roots near phi = 0, where near-diagonal pairs have theirs,
    accurate relative to themselves; it works on the unrotated
    coefficients, so the rounding of a frame's (p, q, r, s) does not reach
    the result.  If all eight leading coefficients vanish, so does g'.
    """
    e0, f0, a1, b1, a2, b2 = trig
    phi0, c1, s1, c2, s2 = max(_FRAMES, key=lambda f: abs(
        2.0 * (a2 * f[3] - b2 * f[4]) - (a1 * f[1] - b1 * f[2])))
    p, q = a1 * c1 - b1 * s1, a1 * s1 + b1 * c1
    r, s = a2 * c2 - b2 * s2, a2 * s2 + b2 * c2
    lead = 2.0 * r - p
    if lead == 0.0:
        return []
    phis = []
    for t in _quartic_roots((8.0 * s - 2.0 * q) / lead, -12.0 * r / lead,
                            -(2.0 * q + 8.0 * s) / lead, (p + 2.0 * r) / lead):
        phi = phi0 + 2.0 * math.atan(t)
        gp, gpp = _slopes(phi, *trig)
        for _ in range(4):
            if gpp == 0.0:
                break
            nxt = phi - gp / gpp
            ngp, ngpp = _slopes(nxt, *trig)
            if not abs(ngp) < abs(gp):
                break
            phi, gp, gpp = nxt, ngp, ngpp
        if phi > math.pi:
            phi -= 2.0 * math.pi
        elif phi < -math.pi:
            phi += 2.0 * math.pi
        phis.append(math.pi if phi < _MINUS_PI_SNAP else phi)
    return phis


@dataclass(slots=True)
class AngleResult:
    """Chosen angle and its penalized objective gain over theta = 0."""

    theta: float
    gain: float


def _gain(phi, e0, f0, a1, b1, a2, b2):
    """g(phi) = s (e0 - 4 a2 h^2) - 2 h^2 (f0 - 4 b2 h^2), h = sin(phi/2),
    s = sin(phi): the trig form rewritten around g'(0) = e0 and
    g''(0) = -f0, with no cancellation at tiny phi."""
    hh = math.sin(0.5 * phi) ** 2
    return (math.sin(phi) * (e0 - 4.0 * a2 * hh)
            - 2.0 * hh * (f0 - 4.0 * b2 * hh))


# Newton's method stops once a step is this small relative to phi: the point
# it steps to is then off by about the step squared, far below rounding
_STEP_RTOL = 2.0 ** -40
_MAX_STEPS = 64


def _certified_max(trig):
    """The global maximizer phi of g (from ``_trig_form``) when a
    certificate shows that it is the one root of g' on an interval where g
    is strictly concave; None when the certificate fails.

    With h = sin(phi/2) and s = sin(phi), g = s (e0 - 4 a2 h^2)
    - 2 h^2 (f0 - 4 b2 h^2) (``_gain``).  Bound s e0 by 2 |e0| |h|
    (|s| <= 2 |h|), -4 a2 s h^2 by 4 |a2| h^2 (|s| <= 1) and 8 b2 h^4 by
    8 max(b2, 0) h^2 (h^2 <= 1):

        g <= 2 |e0| |h| - c h^2,   c = 2 f0 - 4 |a2| - 8 max(b2, 0).

    If 2 |e0| < c, every phi with |h| > 2 |e0| / c has g < 0 = g(0), so the
    global maximum lies in |phi| <= phi_max = 2 asin(2 |e0| / c).  Next,
    g''' = -a1 cos(phi) + b1 sin(phi) - 8 a2 cos(2 phi) + 8 b2 sin(2 phi),
    so |g'''| <= L = |a1| + |b1| + 8 |a2| + 8 |b2|, and g'' <= -f0 + L |phi|.
    If also phi_max L < f0, g'' < 0 on the interval: g' falls strictly
    there, from g'(0) = e0 toward the side of 0 that e0's sign picks, and
    its one root there is the maximizer (g is at most 0 at the interval's
    ends, and g(0) = 0).  Both bounds are strict for phi != 0, which
    leaves slack for the rounding of the two tests.

    The root is found by Newton's method on ``_slopes`` from phi = 0, each
    step kept inside the bracket that the signs of g' have shrunk so far,
    and replaced by bisection where it would leave it.  A run that does not
    converge in ``_MAX_STEPS`` steps returns None too.
    """
    e0, f0, a1, b1, a2, b2 = trig
    c = 2.0 * f0 - 4.0 * abs(a2) - 8.0 * max(b2, 0.0)
    if not 2.0 * abs(e0) < c:
        return None
    phi_max = 2.0 * math.asin(2.0 * abs(e0) / c)
    if not phi_max * (abs(a1) + abs(b1) + 8.0 * (abs(a2) + abs(b2))) < f0:
        return None
    lo, hi = (0.0, phi_max) if e0 > 0.0 else (-phi_max, 0.0)
    phi, gp, gpp = 0.0, e0, -f0
    for _ in range(_MAX_STEPS):
        if gp == 0.0:
            return phi
        nxt = phi - gp / gpp if gpp < 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        elif abs(nxt - phi) <= _STEP_RTOL * abs(nxt):
            return nxt
        phi = nxt
        gp, gpp = _slopes(phi, *trig)
        if gp > 0.0:
            lo = phi
        else:
            hi = phi
    return None


def best_angle(view):
    """Maximize h~ over [-pi/4, pi/4]; return theta and h~(theta) - h~(0).

    d in {2, 3}: theta = atan2(4 A0, A1) / 4 with the cancellation-free gain
    A0^2 / (r + A1) if A1 > 0, else (r - A1) / 16, r = hypot(4 A0, A1); the
    tie at A0 = 0 > A1 goes to +pi/4, and a constant h~ (A0 = A1 = 0) gets
    (0, 0) from the same atan2.  At every order a non-finite coefficient of
    Omega that the step reads raises ValueError.
    d = 4: where ``_certified_max`` certifies that g has one maximizer in
    an interval around 0, outside which g < 0, that maximizer, found by
    Newton's method, and its gain (``_gain``); (0, 0) if that gain is not
    positive (at e0 = 0, or by rounding).  Otherwise the critical points
    phi of g (``solve_xi_roots``) and phi in {0, pi}, each scored by
    ``_gain``, which has no cancellation at tiny phi; gains within 1e-12
    relative of the best tie, and ties go to smaller |theta|, then to +,
    so a constant h~ gives (0, 0).  The certificate holds on most steps of
    a run near its limit, where pairs are nearly diagonal; it fails on
    pairs far from diagonal and where a tie is possible.
    Both gains stay exact down to far below the resolution of h~ itself.
    """
    omega = omega_xi_coeffs(view)
    if len(omega) == 3:
        a0, a1, _ = omega.tolist()
        if not (math.isfinite(a0) and math.isfinite(a1)):
            raise ValueError("Omega's coefficients must be finite")
        r = math.hypot(4.0 * a0, a1)
        gain = a0 * (a0 / (r + a1)) if a1 > 0.0 else (r - a1) / 16.0
        # + 0.0 turns a -0.0 into +0.0: the A0 = 0 > A1 tie gets atan2 = +pi
        # (theta = +pi/4), not -pi, and a constant h~ (A0 = A1 = 0) gets
        # atan2(+0.0, +0.0) = +0.0, not -0.0 or pi
        return AngleResult(0.25 * math.atan2(4.0 * a0 + 0.0, a1 + 0.0), gain)
    trig = _trig_form(omega)
    phi = _certified_max(trig)
    if phi is not None:
        gain = _gain(phi, *trig)
        return AngleResult(0.25 * phi, gain) if gain > 0.0 \
            else AngleResult(0.0, 0.0)
    # g(pi) = -2 b1
    scored = [(0.0, 0.0), (-2.0 * trig[3], QUARTER_PI)]
    scored += [(_gain(phi, *trig), 0.25 * phi) for phi in solve_xi_roots(trig)]
    floor = max(scored)[0]
    floor -= 1e-12 * abs(floor)
    gain, theta = min((p for p in scored if p[0] >= floor),
                      key=lambda p: (abs(p[1]), p[1] < 0))
    return AngleResult(theta, gain)
