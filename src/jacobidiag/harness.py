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
from .geometry import QUARTER_PI, lambda_of, random_rotation
from .sweeps import (RunConfig, _check_integer, _check_nonnegative, run,
                     upper_pairs, write_trajectory_csv)
from .symtensor import TensorSet, _lambda_rows, _orbit

__all__ = [
    "ExperimentSpec",
    "make_diag_tensor",
    "make_test_problem",
    "run_benchmark",
    "parse_suite_file",
    "CheckResult",
    "verify_invariants",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One synthetic problem's parameters, each checked when it is made.
    Frozen, with a named profile: every value read later is one checked."""

    n: int
    order: int
    m: int = 1
    profile: str = "equal"         # "equal" | "linear"
    sigma: float = 0.0
    seed_rot: int = 0
    seed_noise: int = 1
    slice_mode: bool = False

    def __post_init__(self):
        for attr, minimum in (("n", 2), ("order", 2), ("m", 1),
                              ("seed_rot", 0), ("seed_noise", 0)):
            _check_integer(attr, getattr(self, attr), minimum)
        if self.order > 4:
            raise ValueError("order must be 2, 3 or 4")
        _check_nonnegative("sigma", self.sigma)
        if self.slice_mode and (self.order, self.m) != (4, 1):
            raise ValueError(f"slice mode needs order 4 and m = 1, got "
                             f"order {self.order} and m = {self.m}")
        if not (isinstance(self.profile, str)
                and self.profile in ("equal", "linear")):
            raise ValueError(f"profile must be 'equal' or 'linear', "
                             f"got {self.profile!r}")


def make_diag_tensor(spec):
    """Diagonal TensorSet (m = 1) of unit Frobenius norm: 'equal' puts
    1/sqrt(n) on the diagonal, 'linear' (i+1)/sqrt(sum of squares)."""
    weights = (np.arange(1, spec.n + 1, dtype=np.float64)
               if spec.profile == "linear" else np.ones(spec.n))
    return TensorSet.from_diagonal(
        weights / math.sqrt(float(np.sum(weights**2))), spec.order)


def make_test_problem(spec):
    """Build (TensorSet, ground-truth Q) for the spec, deterministically.

    The ground-truth Q satisfies  A0 x_k Q^T (all modes) = D,  so with
    sigma = 0 the rotated set is exactly diagonal at Q.  The noise is added
    to A0's packed entries, and a sigma at which they overflow is refused.
    """
    rot = random_rotation(spec.n, spec.seed_rot)
    packed = np.repeat(make_diag_tensor(spec).rotated_by(rot).packed,
                       spec.m, 1)
    if spec.sigma != 0:
        rng = np.random.default_rng(spec.seed_noise)
        with np.errstate(over="ignore", invalid="ignore"):
            # overflow is refused below, by name; the m draws in one call
            # (m separate draws' stream), each summed over its d! transposes
            # in itertools.permutations order, over d!: bitwise
            # perfbench/problems.py's _sym_noise (perfbench/test_problems.py)
            orbit, _ = _orbit(spec.sigma * rng.standard_normal(
                (spec.m,) + (spec.n,) * spec.order))
            packed += orbit.sum(axis=0) / len(orbit)
        if not np.isfinite(packed).all():
            raise ValueError(f"sigma = {spec.sigma:g} overflows the entries")
    tensors = TensorSet._from_packed(packed, spec.order, spec.n)
    if spec.slice_mode:
        # slice i is parent[..., i]; slices of a bitwise-symmetric tensor
        # are bitwise symmetric, so the constructor keeps them as cut
        return TensorSet(list(np.moveaxis(tensors.stack[0], -1, 0))), rot.T
    return tensors, rot.T


def run_benchmark(tensors, configs, outdir):
    """Run each config on the same problem from the identity; return one
    row per config, in order.

    A row is the run's ``RunResult.summary()`` plus ``csv_path``, its
    trajectory CSV, written under outdir.  A run that raised gives
    {"label", "method", "error"}, and the other configs still run.
    ValueError before any run, and before outdir is made, if two CSV
    names clash.
    """
    by_file = {}
    for cfg in configs:
        fname = "".join(ch if ch.isalnum() or ch in "-_." else "_"
                        for ch in cfg.label) + ".csv"
        if fname in by_file:
            raise ValueError(f"configs {by_file[fname].label!r} and "
                             f"{cfg.label!r} share the file name {fname!r}")
        by_file[fname] = cfg
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
    Blank lines and lines starting with '#' are skipped.  A line that sets
    one field twice (``max-sweeps`` and ``max_sweeps`` name one field) is
    refused.
    """
    try:      # a text read decodes whole chunks, so name the file only
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    configs = []
    for lineno, raw in enumerate(lines, 1):
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
                if attr in kwargs:
                    raise ValueError(f"{attr} is set twice (by {key!r})")
                try:
                    kwargs[attr] = cast(value)
                except ValueError as exc:
                    raise ValueError(f"{key}={value}: {exc}") from None
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


def verify_invariants(tensors, seed=0, samples=40):
    """Run the built-in invariant suite against a tensor set.

    One pass over ``samples`` rotated copies of the set, the t-th rotated
    by ``geometry.random_rotation(n, seed + 7919 t)``; each copy is checked
    five ways at one random pair: the analytic gradient vs central finite
    differences ("gradient-fd"), the packed plane rotation
    ``TensorSet.rotate_plane`` vs the dense
    ``oracle.rotate_planes_reference`` at an angle in [-pi/4, pi/4]
    ("plane-kernel", relative to ||T||_F), Lambda of the copy updated in
    rows i and j after that rotation, as ``sweeps.run`` updates it, vs a
    full ``lambda_of`` of the rotated copy, bitwise ("lambda-rows"),
    algebraic vs brute-force angle maximization with delta0 cycling
    through (0, 1e-3, 1e-1) ||T||^2 ("angle-oracle"), and the f + offdiag
    = total partition ("conservation").  Every gap but the kernel's is
    relative to ||T||^2 and the kernel's to ||T||_F, so each check reads
    the same at any scale.
    Returns one CheckResult per check, in that order.
    ValueError, before any check: samples not an integer >= 1 (nothing
    checked), seed not a non-negative integer, or a squared norm that
    ``angles.check_sq_norm`` refuses, as ``sweeps.run`` does: 0, inf, above
    ``angles.MAX_SQ_NORM``, or one at which the largest proximal weight
    sampled, 0.1 ||T||^2, can overflow the angle step.
    """
    _check_integer("samples", samples, 1)
    _check_integer("seed", seed, 0)
    # imported here, so that importing the solver does not load the oracle
    from .oracle import (brute_force_angle, finite_difference_h_prime,
                         h_prime_at_zero, h_tilde, rotate_planes_reference)

    if not isinstance(tensors, TensorSet):
        tensors = TensorSet(tensors)
    n = tensors.dim
    total = tensors.frob_sq()
    check_sq_norm(total, tensors.order, 0.1 * total)
    rng = np.random.default_rng(seed)
    worst_fd = worst_match = worst_kernel = worst_angle = worst_sum = 0.0
    rows_off = 0
    for t in range(samples):
        ts = tensors.rotated_by(random_rotation(n, seed + 7919 * t))
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        theta = float(rng.uniform(-QUARTER_PI, QUARTER_PI))
        delta0 = (0.0, 1e-3 * total, 1e-1 * total)[t % 3]
        view = SubproblemView.from_tensors(ts, i, j, delta0)

        # gradient: h'(0) = -2 Lambda[i,j] and both match finite differences
        analytic = h_prime_at_zero(view)
        k = upper_pairs(n).index((i, j))
        lam = lambda_of(ts)
        worst_match = max(worst_match,
                          abs(analytic + 2.0 * lam[k]) / total)
        fd = finite_difference_h_prime(ts, i, j)
        worst_fd = max(worst_fd, abs(fd - analytic) / total)

        # plane kernel: the packed rotation vs the dense whole-stack rotation
        dense = ts.stack
        rotate_planes_reference(dense, i, j, math.cos(theta), math.sin(theta))
        rotated = ts.copy().rotate_plane(i, j, theta)
        worst_kernel = max(worst_kernel,
                           float(np.linalg.norm(rotated.stack - dense)))

        # Lambda rows: run's update after the rotation vs a fresh lambda_of
        lam = lambda_of(rotated, lam, _lambda_rows(ts.order, n)[k])
        rows_off += not np.array_equal(lam, lambda_of(rotated))

        # algebraic angle vs brute-force oracle
        vo = h_tilde(view, brute_force_angle(view).theta)
        va = h_tilde(view, best_angle(view).theta)
        worst_angle = max(worst_angle, abs(va - vo) / total)

        # conservation: f + offdiag == total
        worst_sum = max(worst_sum, abs(ts.diag_sq_norm() + ts.offdiag_sq()
                                       - total) / total)
    worst_kernel /= math.sqrt(total)

    return [
        CheckResult(
            "gradient-fd", bool(worst_fd <= 1e-6 and worst_match <= 1e-10),
            f"max FD deviation {worst_fd:.3e} (tol 1e-6), "
            f"max Lambda mismatch {worst_match:.3e} (tol 1e-10)"),
        CheckResult(
            "plane-kernel", bool(worst_kernel <= 1e-12),
            f"max ||packed - dense||_F / ||T||_F = {worst_kernel:.3e} "
            f"(tol 1e-12)"),
        CheckResult(
            "lambda-rows", rows_off == 0,
            f"{rows_off} of {samples} row-updated Lambda differ from a "
            f"full recompute (bitwise)"),
        CheckResult(
            "angle-oracle", bool(worst_angle <= 1e-10),
            f"max oracle value gap {worst_angle:.3e} (tol 1e-10)"),
        CheckResult(
            "conservation", bool(worst_sum <= 1e-9),
            f"max |f + offdiag - total| / total = {worst_sum:.3e} "
            f"(tol 1e-9)"),
    ]
