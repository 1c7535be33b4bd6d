"""Experiment generation, batch benchmarking, and invariant verification.

Test problems follow one recipe: a unit-norm diagonal tensor D is hidden by
a random rotation R (giving A0 = D x_k R^T on every mode) and perturbed by
the symmetrization of i.i.d. N(0, sigma^2) noise (sigma is the entrywise
standard deviation *before* symmetrization).  The returned ground-truth
matrix is the rotation that maps A0 back to D.

In slice mode the 4th-order test tensor A is cut along its last mode into
n third-order slices B[i][k,l,s] = A[k,l,s,i], which are then diagonalized
simultaneously.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .angles import SubproblemView, best_angle, check_sq_norm
from .geometry import RotationState, lambda_of, random_rotation
from .sweeps import RunConfig, run, upper_pairs, write_trajectory_csv
from .symtensor import TensorSet, multi_mode_product, symmetrize

__all__ = [
    "ExperimentSpec",
    "make_diag_tensor",
    "make_test_problem",
    "run_benchmark",
    "parse_suite_file",
    "CheckResult",
    "verify_invariants",
]

@dataclass
class ExperimentSpec:
    """Parameters of one synthetic diagonalization problem."""

    n: int
    order: int
    m: int = 1
    profile: object = "equal"      # "equal" | "linear" | explicit diagonal
    sigma: float = 0.0
    seed_rot: int = 0
    seed_noise: int = 1
    slice_mode: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.order not in (2, 3, 4):
            raise ValueError("order must be 2, 3 or 4")
        if self.m < 1:
            raise ValueError("need m >= 1")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        if self.slice_mode and (self.order, self.m) != (4, 1):
            raise ValueError(f"slice mode needs order 4 and m = 1, got "
                             f"order {self.order} and m = {self.m}")


def make_diag_tensor(spec):
    """Diagonal tensor (a TensorSet with m = 1) for the spec's profile.

    Built-in profiles have unit Frobenius norm: 'equal' puts 1/sqrt(n) on
    the diagonal, 'linear' puts (i+1)/sqrt(sum of squares).  A custom
    profile is any length-n vector with nonzero norm (used as given).
    """
    n = spec.n
    if isinstance(spec.profile, str):
        if spec.profile == "equal":
            values = np.full(n, 1.0 / math.sqrt(n))
        elif spec.profile == "linear":
            ints = np.arange(1, n + 1, dtype=np.float64)
            values = ints / math.sqrt(float(np.sum(ints**2)))
        else:
            raise ValueError(f"unknown profile {spec.profile!r}")
    else:
        values = np.asarray(spec.profile, dtype=np.float64)
        if values.shape != (n,):
            raise ValueError(f"custom profile must have length {n}")
        if float(np.dot(values, values)) == 0:
            raise ValueError("custom profile must have nonzero norm")
    return TensorSet.from_diagonal(values, spec.order)


def make_test_problem(spec):
    """Build (TensorSet, ground-truth Q) for the spec, deterministically.

    The ground-truth Q satisfies  A0 x_k Q^T (all modes) = D,  so with
    sigma = 0 the rotated set is exactly diagonal at Q.
    """
    rot = random_rotation(spec.n, spec.seed_rot)
    base = multi_mode_product(make_diag_tensor(spec).stack[0], rot.T)
    q_true = rot.T
    rng = np.random.default_rng(spec.seed_noise)

    def member():
        if spec.sigma > 0:
            return base + symmetrize(
                spec.sigma * rng.standard_normal(base.shape))
        return base

    if spec.slice_mode:
        # slice i is parent[..., i]; slices of a bitwise-symmetric tensor
        # are bitwise symmetric, so the stack needs no second check
        parent = TensorSet(member()).stack[0]
        return TensorSet._wrap(
            np.ascontiguousarray(np.moveaxis(parent, -1, 0))), q_true
    return TensorSet([member() for _ in range(spec.m)]), q_true


def run_benchmark(tensors, configs, outdir=None):
    """Run each config on the same problem from the identity; return one
    row per config, in order.

    A row is the run's ``RunResult.summary()`` plus ``csv_path``, its
    trajectory CSV under outdir (None without outdir).  A run that raised
    gives {"label", "method", "error"}, and the other configs still run.
    ValueError before any run if two CSV names clash.
    """
    by_file = {}
    for cfg in configs:
        fname = "".join(ch if ch.isalnum() or ch in "-_." else "_"
                        for ch in cfg.label) + ".csv"
        if fname in by_file:
            raise ValueError(f"configs {by_file[fname].label!r} and "
                             f"{cfg.label!r} share the file name {fname!r}")
        by_file[fname] = cfg
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
    rows = []
    for fname, cfg in by_file.items():
        try:
            res = run(tensors, cfg)
        except Exception as exc:  # keep the other configs running
            rows.append({"label": cfg.label, "method": cfg.method,
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        row = res.summary()
        row["csv_path"] = None
        if outdir is not None:
            row["csv_path"] = os.path.join(outdir, fname)
            write_trajectory_csv(row["csv_path"], res)
        rows.append(row)
    return rows


_SUITE_KEYS = {
    "algo": ("method", str),
    "eps": ("eps", float),
    "delta0": ("delta0", float),
    "thresh": ("thresh", float),
    "max-sweeps": ("max_sweeps", int),
    "max_sweeps": ("max_sweeps", int),
    "tol": ("stationarity_tol", float),
    "record-every": ("record_every", int),
    "record_every": ("record_every", int),
    "name": ("name", str),
}


def parse_suite_file(path):
    """Parse a benchmark suite: one config per line of key=value tokens.

    Example line:  algo=pc delta0=1e-2 max-sweeps=100 name=pc-strong
    Blank lines and lines starting with '#' are skipped.
    """
    configs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            kwargs = {}
            try:      # any error on this line names the file and line
                for token in line.split():
                    if "=" not in token:
                        raise ValueError(f"expected key=value, got {token!r}")
                    key, value = token.split("=", 1)
                    if key not in _SUITE_KEYS:
                        raise ValueError(f"unknown key {key!r}")
                    attr, cast = _SUITE_KEYS[key]
                    kwargs[attr] = cast(value)
                if "method" not in kwargs:
                    raise ValueError("missing algo=")
                configs.append(RunConfig(**kwargs))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not configs:
        raise ValueError(f"suite file {path} defines no configurations")
    return configs


# ---------------------------------------------------------------------------
# invariant verification (CLI `verify`)

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_states(tensors, count, seed):
    for t in range(count):
        q = random_rotation(tensors.dim, seed + 7919 * t)
        yield RotationState(tensors, q)


def verify_invariants(tensors, seed=0, samples=40):
    """Run the built-in invariant suite against a tensor set.

    Covers: analytic gradient vs central finite differences, the rational
    identities of the restricted objective (orders 2 and 3), algebraic vs
    brute-force angle maximization, and the f + offdiag = total partition.
    Residuals are relative to ||T||^2.  ValueError, before any check:
    samples < 1 (nothing checked), a squared norm above
    ``angles.MAX_SQ_NORM``, inf included, or one at which the largest
    proximal weight sampled, 0.1 ||T||^2, can overflow the angle step
    (``check_sq_norm``, as in ``sweeps.run``), or one that is 0
    (RotationState).
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    # imported here, so that importing the solver does not load the oracle
    from .oracle import (brute_force_angle, finite_difference_h_prime,
                         h_prime_at_zero, h_tilde, tau, tau_identity_check)

    if not isinstance(tensors, TensorSet):
        tensors = TensorSet(tensors)
    d, n = tensors.order, tensors.dim
    total = tensors.frob_sq()
    check_sq_norm(total, d, 0.1 * total)
    rng = np.random.default_rng(seed)
    checks = []

    # gradient: h'(0) = -2 Lambda[i,j] and both match finite differences
    worst_fd = 0.0
    worst_match = 0.0
    for state in _random_states(tensors, samples, seed):
        lam = lambda_of(state.tensors)
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        view = SubproblemView.from_tensors(state.tensors, i, j)
        analytic = h_prime_at_zero(view)
        lam_ij = lam[upper_pairs(n).index((i, j))]
        worst_match = max(worst_match,
                          abs(analytic + 2.0 * lam_ij) / (1.0 + abs(analytic)))
        fd = finite_difference_h_prime(state, i, j)
        worst_fd = max(worst_fd, abs(fd - analytic) / (1.0 + abs(analytic)))
    checks.append(CheckResult(
        "gradient-fd", worst_fd <= 1e-6 and worst_match <= 1e-10,
        f"max FD deviation {worst_fd:.3e} (tol 1e-6), "
        f"max Lambda mismatch {worst_match:.3e} (tol 1e-10)"))

    # rational identities (orders 2 and 3 only)
    if d in (2, 3):
        worst = 0.0
        worst_period = 0.0
        for state in _random_states(tensors, samples, seed + 1):
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            view = SubproblemView.from_tensors(state.tensors, i, j)
            x = float(rng.uniform(-1.0, 1.0))
            r1, r2 = tau_identity_check(view, x)
            worst = max(worst, r1 / total, r2 / total)
            if abs(x) > 1e-3:
                tv = tau(view, x)
                worst_period = max(worst_period,
                                   abs(tv - tau(view, -1.0 / x))
                                   / (1.0 + abs(tv)))
        checks.append(CheckResult(
            "tau-identities", worst <= 1e-10 and worst_period <= 1e-10,
            f"max identity residual {worst:.3e}, "
            f"max periodicity residual {worst_period:.3e} (tol 1e-10)"))

    # algebraic angle vs brute-force oracle
    worst = 0.0
    for t, state in enumerate(_random_states(tensors, samples, seed + 2)):
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        delta0 = (0.0, 1e-3 * total, 1e-1 * total)[t % 3]
        view = SubproblemView.from_tensors(state.tensors, i, j, delta0)
        alg = best_angle(view)
        orc = brute_force_angle(view)
        va = h_tilde(view, alg.theta)
        vo = h_tilde(view, orc.theta)
        worst = max(worst, abs(va - vo) / (1.0 + abs(vo)))
    checks.append(CheckResult(
        "angle-oracle", worst <= 1e-10,
        f"max oracle value gap {worst:.3e} (tol 1e-10)"))

    # conservation: f + offdiag == total at random states
    worst = 0.0
    for state in _random_states(tensors, max(samples // 4, 5), seed + 3):
        worst = max(worst, abs(state.f_current + state.offdiag_sq() - total)
                    / total)
    checks.append(CheckResult(
        "conservation", worst <= 1e-9,
        f"max |f + offdiag - total| / total = {worst:.3e} (tol 1e-9)"))

    return checks
