"""Per-solve correctness checks, with the slack the acceptance tests use.

``check_solve`` returns the list of failed checks (empty when the solve is
correct).  Every benchmark solve goes through it; a non-empty list makes
the solve count as failed.
"""

from __future__ import annotations

import math

import numpy as np

ORTH_TOL = 1e-8          # ||Q^T Q - I|| and |det Q - 1|
PARTITION_TOL = 1e-9     # |f + offdiag - total| / total
# 1 - max_i |(Q_true^T Q)[i, j]| per column; about 1e-7..1e-6 at sigma=1e-4,
# order 0.1 when the sweep settles on a wrong basis
RECOVERY_TOL = 1e-4


def check_solve(result, q_true):
    state, cfg = result.state, result.config
    total = state.total_sq_norm
    failures = []

    prev = result.f_initial
    delta0 = cfg.delta0 if cfg.delta0 is not None else 1e-3 * total
    for rec in result.records:
        if rec.f < prev - 1e-12 * total:
            failures.append(f"f decreased at k={rec.k}")
            break
        if cfg.method == "pc" and not rec.skipped:
            gamma = 2.0 * (math.sin(rec.theta) * math.cos(rec.theta)) ** 2
            if rec.f - prev < delta0 * gamma - 1e-10 * total:
                failures.append(f"proximal gain below bound at k={rec.k}")
                break
        prev = rec.f

    q = state.q
    n = q.shape[0]
    if np.linalg.norm(q.T @ q - np.eye(n)) > ORTH_TOL \
            or abs(np.linalg.det(q) - 1.0) > ORTH_TOL:
        failures.append("Q is not special orthogonal")

    if abs(state.f_current + state.offdiag_sq() - total) > PARTITION_TOL * total:
        failures.append("f + offdiag_sq != total")

    if result.stop_reason == "stationary":
        tol = cfg.stationarity_tol if cfg.stationarity_tol is not None \
            else 1e-10 * math.sqrt(total)
        if state.lambda_norm() > tol:
            failures.append("stationary stop with ||Lambda|| above tol")
    elif result.stop_reason != "no_progress":
        failures.append(f"stop reason {result.stop_reason}")

    overlap = np.abs(q_true.T @ q)
    rows = np.argmax(overlap, axis=0)
    if len(set(rows.tolist())) != n:
        failures.append("Q is not a signed permutation of the hidden rotation")
    elif float(np.max(1.0 - overlap.max(axis=0))) > RECOVERY_TOL:
        failures.append("hidden rotation not recovered within tolerance")
    return failures
