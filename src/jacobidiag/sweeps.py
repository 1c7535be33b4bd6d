"""Sweep drivers for the Jacobi diagonalization family.

Variants (method codes used throughout the package and the CLI):

    c        cyclic pair order
    g        gradient-ordered: first pair in cyclic order with
             2 |Lambda[i,j]| >= eps ||Lambda||
    gmax     pair maximizing |Lambda[i,j]|
    cthresh  cyclic order, rotating only when |Lambda[i,j]| > thresh / n,
             stopping when a full sweep makes no progress
    pc       cyclic order with proximal penalty delta0 * gamma(theta)

Every variant stops at max_sweeps or when ||Lambda|| falls to the
stationarity tolerance; cthresh additionally stops on a progress-free sweep.
A run is strictly sequential; records carry the pre-rotation ||Lambda|| and
the post-rotation objective.  After every sweep, a stationary stop included,
Q is re-orthonormalized if its drift ||Q^T Q - I|| exceeds ORTH_TOL.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .angles import SubproblemView, best_angle
from .geometry import (ORTH_TOL, GivensRotation, RotationState, lambda_of,
                       safe_norm)
from .symtensor import TensorSet

__all__ = [
    "METHODS",
    "RunConfig",
    "IterationRecord",
    "RunResult",
    "upper_pairs",
    "select_pair_gradient",
    "select_pair_max",
    "run",
    "write_trajectory_csv",
]

METHODS = ("c", "g", "gmax", "cthresh", "pc")

CSV_HEADER = "k,sweep,i,j,theta,f,offdiag_sq,lambda_norm,skipped,wall_ms"


@functools.lru_cache(maxsize=64)
def upper_pairs(n):
    """Row-major upper-triangle pair order (0,1), (0,2), ..., (n-2,n-1)."""
    return tuple((i, j) for i in range(n - 1) for j in range(i + 1, n))


def select_pair_max(lam):
    """Pair maximizing |Lambda[i,j]| (ties: smallest i, then j).

    Returns None when Lambda vanishes (stationary point)."""
    n = lam.shape[0]
    iu = np.triu_indices(n, 1)
    vals = np.abs(lam[iu])
    k = int(np.argmax(vals))
    if vals[k] == 0.0:
        return None
    return int(iu[0][k]), int(iu[1][k])


def select_pair_gradient(lam, eps):
    """First pair in cyclic order with 2 |Lambda[i,j]| >= eps ||Lambda||.

    Guaranteed to exist for 0 < eps <= 2/n (the maximal entry satisfies
    2 |Lambda[i,j]| >= (2/n) ||Lambda||); the argmax pair is the roundoff
    fallback.  Returns None when Lambda vanishes.
    """
    norm = safe_norm(lam)
    if norm == 0.0:
        return None
    bound = eps * norm
    for i, j in upper_pairs(lam.shape[0]):
        if 2.0 * abs(lam[i, j]) >= bound:
            return i, j
    return select_pair_max(lam)


@dataclass
class RunConfig:
    """Driver knobs; None fields resolve to scale-aware defaults at run time.

    Defaults: eps = 0.1 * (2/n); delta0 = 1e-3 * total_sq_norm (pc only,
    otherwise 0); stationarity_tol and thresh = 1e-10 * sqrt(total_sq_norm).
    """

    method: str = "c"
    eps: float | None = None
    delta0: float | None = None
    thresh: float | None = None
    max_sweeps: int = 100
    stationarity_tol: float | None = None
    record_every: int = 1
    name: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"expected one of {METHODS}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        for attr in ("eps", "delta0", "thresh", "stationarity_tol"):
            v = getattr(self, attr)
            if v is not None and not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{attr} must be finite and nonnegative")

    @property
    def label(self):
        if self.name:
            return self.name
        parts = [self.method]
        if self.method == "g" and self.eps is not None:
            parts.append(f"eps={self.eps:g}")
        if self.method == "pc" and self.delta0 is not None:
            parts.append(f"delta0={self.delta0:g}")
        if self.method == "cthresh" and self.thresh is not None:
            parts.append(f"thresh={self.thresh:g}")
        return "-".join(parts)


@dataclass
class IterationRecord:
    """Telemetry for one rotation (or one skipped threshold visit).

    f and offdiag_sq are post-rotation; lambda_norm is the pre-rotation
    gradient norm (the one the pair selection saw).  offdiag_sq is a fresh
    sum over the off-diagonal entries (``TensorSet.offdiag_sq``), accurate
    relative to itself however small it gets."""

    k: int
    sweep: int
    i: int
    j: int
    theta: float
    f: float
    offdiag_sq: float
    lambda_norm: float
    skipped: bool
    wall_ms: float


@dataclass
class RunResult:
    """Outcome of ``run``.  stationarity_tol, thresh, delta0 and eps are the
    values the run used: the config's where given, else the defaults it
    resolved (see ``RunConfig``)."""

    state: RotationState
    records: list
    config: RunConfig
    f_initial: float
    converged: bool
    stop_reason: str
    stationarity_tol: float
    thresh: float
    delta0: float
    eps: float

    @property
    def sweeps_used(self):
        return self.records[-1].sweep + 1 if self.records else 0

    @property
    def f_final(self):
        return self.state.f_current


def run(tensors, config=None, q0=None):
    """Run one Jacobi variant on a tensor set from Q0 (default identity)."""
    cfg = config or RunConfig()
    if not isinstance(tensors, TensorSet):
        tensors = TensorSet(tensors)
    state = RotationState(tensors, q0)
    n = state.dim
    total = state.total_sq_norm
    scale = math.sqrt(total)

    eps = cfg.eps if cfg.eps is not None else 0.1 * (2.0 / n)
    if cfg.method == "g" and not 0.0 < eps <= 2.0 / n:
        raise ValueError(f"eps must lie in (0, 2/n] = (0, {2.0 / n:g}], "
                         f"got {eps:g}")
    if cfg.delta0 is not None:
        delta0 = cfg.delta0
    else:
        delta0 = 1e-3 * total if cfg.method == "pc" else 0.0
    tol = cfg.stationarity_tol if cfg.stationarity_tol is not None \
        else 1e-10 * scale
    thresh = cfg.thresh if cfg.thresh is not None else 1e-10 * scale
    if cfg.method == "cthresh" and thresh <= 0:
        raise ValueError("cthresh needs a positive threshold")

    pairs = upper_pairs(n)
    records = []
    f_initial = state.f_current
    t0 = time.perf_counter()
    k = 0
    converged = False
    reason = "max_sweeps"

    for sweep in range(cfg.max_sweeps):
        progress = False
        for pos in range(len(pairs)):
            lam = lambda_of(state.tensors)
            lam_norm = safe_norm(lam)
            if lam_norm <= tol:
                converged = True
                reason = "stationary"
                break
            # Lambda != 0 here, so neither selector returns None
            if cfg.method == "g":
                i, j = select_pair_gradient(lam, eps)
            elif cfg.method == "gmax":
                i, j = select_pair_max(lam)
            else:
                i, j = pairs[pos]
                if cfg.method == "cthresh" and abs(lam[i, j]) <= thresh / n:
                    records.append(IterationRecord(
                        k=k, sweep=sweep, i=i, j=j, theta=0.0,
                        f=state.f_current, offdiag_sq=state.offdiag_sq(),
                        lambda_norm=lam_norm, skipped=True,
                        wall_ms=(time.perf_counter() - t0) * 1e3))
                    continue
            view = SubproblemView.from_tensors(state.tensors, i, j, delta0)
            result = best_angle(view)
            state.apply(GivensRotation(i, j, result.theta))
            k += 1
            progress = True
            records.append(IterationRecord(
                k=k, sweep=sweep, i=i, j=j, theta=result.theta,
                f=state.f_current, offdiag_sq=state.offdiag_sq(),
                lambda_norm=lam_norm, skipped=False,
                wall_ms=(time.perf_counter() - t0) * 1e3))
        if state.orthogonality_error() > ORTH_TOL:
            state.reorthonormalize()
        if converged:
            break
        if cfg.method == "cthresh" and not progress:
            converged = True
            reason = "no_progress"
            break

    return RunResult(state=state, records=records, config=cfg,
                     f_initial=f_initial, converged=converged,
                     stop_reason=reason, stationarity_tol=tol, thresh=thresh,
                     delta0=delta0, eps=eps)


def _fmt(x):
    return f"{x:.17g}"


def write_trajectory_csv(path, result):
    """Write the trajectory as CSV: with the run's record_every > 1, only
    every record_every-th rotation (no skipped visits) plus the last record."""
    every = result.config.record_every
    recs = result.records
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for idx, r in enumerate(recs):
            last = idx == len(recs) - 1
            if not last and every > 1 and (r.skipped or r.k % every != 0):
                continue
            fh.write(",".join([
                str(r.k), str(r.sweep), str(r.i), str(r.j),
                _fmt(r.theta), _fmt(r.f), _fmt(r.offdiag_sq),
                _fmt(r.lambda_norm), "1" if r.skipped else "0",
                _fmt(r.wall_ms)]) + "\n")
