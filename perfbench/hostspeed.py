"""Host-speed probe for the benchmark's time metrics.

On a shared host the same solve loop can run 1.6x slower for minutes at a
time (CPU time grows with wall time, so it is contention, not waiting).  To
keep run-to-run spread below the regression bounds, the benchmark runs a
fixed probe between solves for about a tenth of the time just measured, and
reports times scaled by ``ref_s / mean probe time``: seconds on a host where
one probe takes ``ref_s``.

The probe does, without the package, what a rotation of the workload spends
its time on: a Givens rotation of every mode of an array shaped like the
workload's tensor stack, the gather that restores symmetry and a squared
norm (the kernel), then a few small NumPy calls like the angle solve's.  The
kernel part grows with the stack, as the solver's does.  The probe tracks
the solver only if it has the solver's mix: on a 2-vCPU Xeon VM, over 30 s
blocks within 5 minutes, raw us/rotation spread 0.11-0.21 (IQR/median) and
the scaled one 0.01-0.04 on the three workloads, while a 512 KiB gather or
a pure interpreter loop alone left 0.08-0.28 on some workload.  Probe times
are averaged, not taken as a median: a solve adds up every stall over its
length, and so must the probe.  The probe does not touch the package, so a
change to the package moves scaled and raw times in the same proportion.
"""

from __future__ import annotations

import math
import time

import numpy as np

SMALL_CALLS = 10     # rounds of small NumPy calls per probe


class HostSpeed:
    def __init__(self, stack_shape, ref_s):
        rng = np.random.default_rng(0)
        self._stack = rng.standard_normal(stack_shape)
        self._work = np.empty_like(self._stack)
        order, n = len(stack_shape) - 1, stack_shape[-1]
        idx = np.indices((n,) * order).reshape(order, -1)
        self._canon = np.ravel_multi_index(tuple(np.sort(idx, axis=0)),
                                           (n,) * order)
        self._coeffs = rng.standard_normal(5).tolist()
        self._ref_s = ref_s
        self._unit()      # page in the arrays before timing
        self.total_s = 0.0
        self.units = 0

    def _unit(self):
        work = self._work
        np.copyto(work, self._stack)
        for axis in range(1, work.ndim):
            at_i = (slice(None),) * axis + (0,)
            at_j = (slice(None),) * axis + (1,)
            ti = work[at_i].copy()
            tj = work[at_j]
            work[at_i] = 0.8 * ti + 0.6 * tj
            work[at_j] = 0.8 * tj - 0.6 * ti
        flat = work.reshape(work.shape[0], -1)
        flat[:] = flat[:, self._canon]
        acc = float(np.vdot(work, work))
        for _ in range(SMALL_CALLS):
            roots = np.roots(np.array(self._coeffs))
            acc += float(np.linalg.norm(roots)) + math.atan2(acc, 1.0)
        return acc

    def sample(self, seconds):
        """Run probes for about the given time (at least one)."""
        t_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self._unit()
            t1 = time.perf_counter()
            self.total_s += t1 - t0
            self.units += 1
            if t1 >= t_end:
                return

    def mean_unit_s(self):
        return self.total_s / self.units

    def scale(self):
        """Factor that converts raw seconds to reference-host seconds."""
        return self._ref_s / self.mean_unit_s()
