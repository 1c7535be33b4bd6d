"""In-memory span tracer that times calls into the package from outside it.

Each hook replaces one public name that ``jacobidiag.sweeps.run`` calls
through (a module global or a class attribute) with a wrapper recording a
span: layer name, start, end and the enclosing span.  Spans live in flat
arrays until ``summary()`` turns them into calls, inclusive and self time
per layer.  Self time is a span's duration minus its children's, so the
self times of all spans add up to the root spans' wall time.

A hook whose target does not exist is listed in ``missing`` and skipped;
it never stops a run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

QUARTER_PI = np.pi / 4


def _count_roots(counts, roots):
    counts["angles.real_xi_roots"] += len(roots)


def _count_picks(counts, result):
    if result.theta == 0.0:
        counts["angles.zero_angle_picks"] += 1
    elif abs(result.theta) >= QUARTER_PI * (1 - 1e-12):
        counts["angles.quarter_pi_picks"] += 1


# (layer, module, class or None, attribute, observer of the return value)
HOOKS = [
    ("geometry.lambda_of", "jacobidiag.sweeps", None, "lambda_of", None),
    ("sweeps.select", "jacobidiag.sweeps", None, "select_pair_max", None),
    ("sweeps.select", "jacobidiag.sweeps", None, "select_pair_gradient", None),
    ("angles.from_tensors", "jacobidiag.sweeps", "SubproblemView",
     "from_tensors", None),
    ("angles.best_angle", "jacobidiag.sweeps", None, "best_angle",
     _count_picks),
    ("angles.omega_xi_coeffs", "jacobidiag.angles", None, "omega_xi_coeffs",
     None),
    ("angles.solve_xi_roots", "jacobidiag.angles", None, "solve_xi_roots",
     _count_roots),
    ("geometry.apply", "jacobidiag.sweeps", "RotationState", "apply", None),
    ("geometry.orthogonality_error", "jacobidiag.sweeps", "RotationState",
     "orthogonality_error", None),
    ("symtensor.offdiag_sq", "jacobidiag.sweeps", "RotationState",
     "offdiag_sq", None),
    ("symtensor.rotate_plane", "jacobidiag.sweeps", "TensorSet",
     "rotate_plane", None),
]


class Tracer:
    def __init__(self):
        self._ids = {}            # layer name -> id, in first-wrap order
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.layer = array("q")
        self._open = []           # indices of the spans now running
        self.counts = Counter()   # observer counts and exceptions raised
        self.missing = []
        self._restore = []

    def wrap(self, name, fn, observe=None):
        """Return fn wrapped so every call records a span named name."""
        lid = self._ids.setdefault(name, len(self._ids))
        start, end, parent, layer = self.start, self.end, self.parent, \
            self.layer
        open_spans, counts, clock = self._open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(open_spans[-1] if open_spans else -1)
            layer.append(lid)
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end[idx] = clock()
                open_spans.pop()
            if observe is not None:
                observe(counts, out)
            return out

        return traced

    def install(self):
        """Patch every hook target that exists; list the others as missing."""
        for name, modname, clsname, attr, observe in HOOKS:
            label = f"{modname}:{clsname + '.' if clsname else ''}{attr}"
            try:
                owner = importlib.import_module(modname)
                if clsname:
                    owner = getattr(owner, clsname)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                if label not in self.missing:
                    self.missing.append(label)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(name, raw.__func__, observe))
            else:
                patched = self.wrap(name, raw, observe)
            self._restore.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, patched)

    def uninstall(self):
        for owner, attr, raw, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def summary(self):
        """Per layer: calls, inclusive and self seconds; plus root wall and
        the sum of all self times (equal to it up to rounding)."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.frombuffer(self.layer, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        own = dur - child
        k = len(self._ids)
        calls = np.bincount(layer, minlength=k)
        incl = np.bincount(layer, weights=dur, minlength=k)
        selft = np.bincount(layer, weights=own, minlength=k)
        per_layer = {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                            "self_s": float(selft[i])}
                     for name, i in self._ids.items()}
        return {"layers": per_layer,
                "root_wall_s": float(dur[~nested].sum()),
                "self_sum_s": float(own.sum())}
