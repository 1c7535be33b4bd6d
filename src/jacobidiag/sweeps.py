"""Sweep drivers for the Jacobi diagonalization family.

Variants (method codes used throughout the package and the CLI):

    c        cyclic pair order
    g        gradient-ordered: first pair in cyclic order with
             2 |Lambda[i,j]| >= eps ||Lambda||
    gmax     pair maximizing |Lambda[i,j]|
    cthresh  cyclic order, rotating only when |Lambda[i,j]| > thresh / n,
             stopping when a full sweep makes no progress
    pc       cyclic order with proximal penalty delta0 * gamma(theta)

Lambda is read as its upper triangle (``geometry.lambda_of``), a vector in
the cyclic order ``upper_pairs``.  Each visit picks a position in it (the
selectors' for g and gmax, the visit's own for the others), and ``run``
takes the pair and cthresh's skip test from that position.  Every variant
stops at max_sweeps or when ||Lambda|| (``geometry.lambda_norm``) falls to
the stationarity tolerance; cthresh additionally stops on a sweep without
a rotation.
A run is strictly sequential, one path per visit: pick the pair, skip it
(cthresh, theta 0) or solve its angle, rotate and rewrite Lambda's rows i
and j, append one record.  Lambda is computed in full only at the start
and after a re-orthonormalization, which follows any sweep, a stationary
stop included, whose drift ||Q^T Q - I|| exceeds ORTH_TOL.
Without a given Q0, ``run`` starts from ``geometry.contracted_start``;
the start changes only Q0, not the iteration the paper analyses.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, fields

import numpy as np

from .angles import SubproblemView, best_angle, check_sq_norm
from .geometry import (ORTH_TOL, RotationState, contracted_start,
                       lambda_norm, lambda_of)
from .symtensor import TensorSet, _lambda_rows

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


@functools.lru_cache(maxsize=64)
def upper_pairs(n):
    """Row-major upper-triangle pair order (0,1), (0,2), ..., (n-2,n-1)."""
    return tuple((i, j) for i in range(n - 1) for j in range(i + 1, n))


def select_pair_max(lam):
    """Position in ``upper_pairs`` order of the pair maximizing
    |Lambda[i,j]| (ties: the first), from the upper triangle ``lam``
    (``geometry.lambda_of``).

    Returns None when Lambda vanishes (stationary point)."""
    vals = np.abs(lam)
    k = int(vals.argmax())
    return None if vals[k] == 0.0 else k


def select_pair_gradient(lam, eps, norm):
    """Position in ``upper_pairs`` order of the first pair with
    2 |Lambda[i,j]| >= eps ||Lambda||, from the upper triangle ``lam``
    (``geometry.lambda_of``) and its ``norm`` (``geometry.lambda_norm``).

    Guaranteed to exist for 0 < eps <= 2/n (the maximal entry satisfies
    2 |Lambda[i,j]| >= (2/n) ||Lambda||); the argmax pair is the roundoff
    fallback.  Returns None when Lambda vanishes.
    """
    if norm == 0.0:
        return None
    bound = eps * norm
    for k, x in enumerate(lam.tolist()):
        if 2.0 * abs(x) >= bound:
            return k
    return select_pair_max(lam)


def _check_integer(name, value, minimum):
    """ValueError naming ``name`` unless ``value`` is an integer (a NumPy
    integer too: ``operator.index``) of at least ``minimum``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if value < minimum:
        raise ValueError(f"{name} must be a non-negative integer"
                         if minimum == 0 else f"{name} must be >= {minimum}")


def _check_nonnegative(name, value):
    """ValueError naming ``name`` unless ``value`` is a finite real >= 0;
    a non-number (a string, None) is refused the same way."""
    try:
        if math.isfinite(value) and value >= 0:
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Driver knobs; None fields resolve to scale-aware defaults at run time.
    Frozen: the fields are checked once, when the config is made.

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
        _check_integer("max_sweeps", self.max_sweeps, 1)
        _check_integer("record_every", self.record_every, 1)
        for attr in ("eps", "delta0", "thresh", "stationarity_tol"):
            if getattr(self, attr) is not None:
                _check_nonnegative(attr, getattr(self, attr))
        if self.method == "cthresh" and self.thresh == 0:
            raise ValueError("thresh must be positive for cthresh")

    @property
    def label(self):
        if self.name:
            return self.name
        parts = [self.method]
        if self.method == "g" and self.eps is not None:
            parts.append(f"eps={self.eps:g}")
        if self.delta0 is not None:     # every method applies a delta0
            parts.append(f"delta0={self.delta0:g}")
        if self.method == "cthresh" and self.thresh is not None:
            parts.append(f"thresh={self.thresh:g}")
        return "-".join(parts)


@dataclass(slots=True)
class IterationRecord:
    """Telemetry for one rotation (or one skipped threshold visit).

    k (the rotation count), f and offdiag_sq are post-rotation;
    lambda_norm is the pre-rotation gradient norm (the one the pair
    selection saw).  offdiag_sq is a fresh sum over the off-diagonal
    entries (``TensorSet.offdiag_sq``), accurate relative to itself however
    small it gets.  wall_ms counts from before ``run`` builds its start."""

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


_CSV_FIELDS = tuple(f.name for f in fields(IterationRecord))
CSV_HEADER = ",".join(_CSV_FIELDS)


@dataclass
class RunResult:
    """Outcome of ``run``.  stationarity_tol, thresh, delta0 and eps are the
    values the run used: the config's where given, else the defaults it
    resolved (see ``RunConfig``).  stop_reason is the only stop state:
    ``converged`` is read off it.  start is "contracted" when ``run`` chose
    Q0 (``geometry.contracted_start``), "given" when the caller did."""

    state: RotationState
    records: list
    config: RunConfig
    f_initial: float
    stop_reason: str
    stationarity_tol: float
    thresh: float
    delta0: float
    eps: float
    start: str

    @property
    def sweeps_used(self):
        return self.records[-1].sweep + 1 if self.records else 0

    @property
    def converged(self):
        return self.stop_reason != "max_sweeps"

    def summary(self):
        """The finished run as a dict: f, offdiag_sq and ||Lambda|| of the
        final state (after any end-of-sweep re-orthonormalization), and
        the run's counts, last recorded wall time (0.0 without records),
        stop and start."""
        st = self.state
        return {"label": self.config.label, "method": self.config.method,
                "final_f": st.f_current, "offdiag_sq": st.offdiag_sq(),
                "lambda_norm": st.lambda_norm(), "sweeps": self.sweeps_used,
                "rotations": st.rotation_count,
                "wall_ms": self.records[-1].wall_ms if self.records else 0.0,
                "converged": self.converged, "stop_reason": self.stop_reason,
                "start": self.start}


def run(tensors, config=None, q0=None):
    """Run one Jacobi variant on a tensor set from Q0; refuse, before any
    rotation, one whose ||T||^2 is 0 or inf or exceeds
    ``angles.MAX_SQ_NORM`` for its order, or whose delta0 can overflow the
    angle step with it (``angles.check_sq_norm``).

    Without ``q0`` the run starts from ``geometry.contracted_start``, the
    eigenvectors of one contraction of the set (start "contracted");
    ``q0=np.eye(n)`` reproduces the identity-start runs of the paper."""
    cfg = config or RunConfig()
    if not isinstance(tensors, TensorSet):
        tensors = TensorSet(tensors)
    n = tensors.dim
    total = tensors.frob_sq()
    if cfg.delta0 is not None:
        delta0 = cfg.delta0
    else:
        delta0 = 1e-3 * total if cfg.method == "pc" else 0.0
    check_sq_norm(total, tensors.order, delta0)
    scale = math.sqrt(total)

    eps = cfg.eps if cfg.eps is not None else 0.1 * (2.0 / n)
    if cfg.method == "g" and not 0.0 < eps <= 2.0 / n:
        raise ValueError(f"eps must lie in (0, 2/n] = (0, {2.0 / n:g}], "
                         f"got {eps:g}")
    t0 = time.perf_counter()
    start = "given"
    if q0 is None:
        start, q0 = "contracted", contracted_start(tensors)
    state = RotationState(tensors, q0)
    tol = cfg.stationarity_tol if cfg.stationarity_tol is not None \
        else 1e-10 * scale
    thresh = cfg.thresh if cfg.thresh is not None else 1e-10 * scale

    pairs = upper_pairs(n)
    rows = _lambda_rows(tensors.order, n)
    records = []
    f_initial = state.f_current
    reason = "max_sweeps"
    lam = lambda_of(state.tensors)

    for sweep in range(cfg.max_sweeps):
        count_at_start = state.rotation_count
        for pos in range(len(pairs)):
            lam_norm = lambda_norm(lam)
            if lam_norm <= tol:
                reason = "stationary"
                break
            # Lambda != 0 here, so neither selector returns None
            if cfg.method == "g":
                pick = select_pair_gradient(lam, eps, lam_norm)
            elif cfg.method == "gmax":
                pick = select_pair_max(lam)
            else:
                pick = pos
            i, j = pairs[pick]
            theta = 0.0
            skipped = cfg.method == "cthresh" and bool(
                abs(lam[pick]) <= thresh / n)
            if not skipped:
                view = SubproblemView.from_tensors(state.tensors, i, j, delta0)
                theta = best_angle(view).theta
                state.apply(i, j, theta)
                lambda_of(state.tensors, lam, rows[pick])
            records.append(IterationRecord(
                state.rotation_count, sweep, i, j, theta, state.f_current,
                state.offdiag_sq(), lam_norm, skipped,
                (time.perf_counter() - t0) * 1e3))
        if state.orthogonality_error() > ORTH_TOL:
            state.reorthonormalize()
            lam = lambda_of(state.tensors)
        if reason == "stationary":
            break
        if cfg.method == "cthresh" and state.rotation_count == count_at_start:
            reason = "no_progress"
            break

    return RunResult(state=state, records=records, config=cfg,
                     f_initial=f_initial, stop_reason=reason,
                     stationarity_tol=tol, thresh=thresh, delta0=delta0,
                     eps=eps, start=start)


def _csv_cell(x):
    """A record field as CSV text: bool 1/0, int as is, float to 17 digits."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return f"{x:.17g}"


def write_trajectory_csv(path, result):
    """Write the trajectory as CSV, one column per IterationRecord field:
    with the run's record_every > 1, only every record_every-th rotation
    (no skipped visits) plus the last record."""
    every = result.config.record_every
    recs = result.records
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for idx, r in enumerate(recs):
            last = idx == len(recs) - 1
            if not last and every > 1 and (r.skipped or r.k % every != 0):
                continue
            fh.write(",".join(_csv_cell(getattr(r, name))
                              for name in _CSV_FIELDS) + "\n")
