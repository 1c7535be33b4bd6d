"""Trajectory gate: dump the solver's trajectories on a fixed grid from one
checkout, and compare two dumps.

    python tools/trajectory_gate.py dump <checkout> <out.json>
    python tools/trajectory_gate.py compare [--identity] <a.json> <b.json>

``dump`` imports ``jacobidiag`` from ``<checkout>/src`` and runs the grid
``GRID`` of 188 runs at n = 6 and at most 30 sweeps.  128 of them start
from the identity, passed as ``q0=np.eye(6)``, which every version of
``run`` accepts, so their dumps compare across a change of the default
start:

* every method at d in {2, 3, 4}, m in {1, 2, 10} and the two problems of
  ``PROBLEMS`` (90 runs);
* its 30 runs at m = 2 again, with ``sweeps.ORTH_TOL`` patched to
  ``TIGHT_ORTH_TOL`` (and restored), so that Q drifts past it and the
  run re-orthonormalizes;
* c and gmax with ``delta0 = DELTA0`` at d in {3, 4}, m = 2 and both
  problems (8 runs), the proximal term outside pc.

The other 60 run every method at d in {2, 3, 4}, m in {1, 2} and both
problems from ``run``'s default start (no ``q0``).

cthresh skips below ``THRESH``, so its runs stop on a sweep without a
rotation; the other methods stop stationary or at 30 sweeps.  A run's key
names its method, d, m and problem, then its delta0 and ORTH_TOL where
they are not the defaults, and " start=default" for a default start.  Per run it writes every record field but
``wall_ms``, the stop reason, ``converged``, the rotation and
re-orthonormalization counts, and the final Q and packed entries.  JSON writes a float as its shortest repr,
which reads back bitwise.

``compare`` prints the runs whose pairs, skips or stops differ (a stop is
the stop reason, ``converged`` and both counts) and, per float field, the
largest relative change over all runs.  A record field's change is
|a - b| / max(|a|, |b|) per value; Q's and the packed entries' is
max |a - b| / max |a| per run.  It also prints the largest absolute theta
change in radians, and how many theta values moved by more than
``FLOAT_RTOL`` relative, with the largest |theta| among them: late in a
run theta is tiny, and a change at the rounding of the larger angles
reads there as a large relative one.

It then prints "same path within rounding: yes" or "no".  It reads "yes"
when every run has the same pairs, skips, stop reason and rotation count;
the same reorth count, except on the runs with ORTH_TOL patched to
``TIGHT_ORTH_TOL``, whose drift test sits at rounding by design; and every
float field within ``FLOAT_RTOL`` of the run's largest value of that
field (the rule ``q`` and ``packed`` have above, applied to every field).
A change that re-associates a sum moves tiny late angles by far more than
``FLOAT_RTOL`` of themselves, and still reads "yes".

The exit code reads none of these three lines.  It exits 0 when the
trajectories match: the same pairs, skips and stops, and every float
within ``FLOAT_RTOL`` (bitwise where the arithmetic allows); otherwise 1.
With ``--identity`` it compares only the identity-start runs of both
dumps, the check for a change meant to move the default start alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

N = 6
MAX_SWEEPS = 30
THRESH = 1e-7              # cthresh's threshold; the other methods ignore it
# (profile, sigma, seed_rot, seed_noise)
PROBLEMS = (("equal", 1e-2, 1, 2), ("linear", 1e-4, 3, 4))
TIGHT_ORTH_TOL = 1e-15
DELTA0 = 1e-3
METHODS = ("c", "g", "gmax", "cthresh", "pc")
# (method, d, m, problem, delta0, ORTH_TOL patch, start); None keeps the
# default delta0 and ORTH_TOL, and start is "identity" or "default"
GRID = (tuple((method, d, m, p, None, None, "identity") for method in METHODS
              for d in (2, 3, 4) for m in (1, 2, 10)
              for p in range(len(PROBLEMS)))
        + tuple((method, d, 2, p, None, TIGHT_ORTH_TOL, "identity")
                for method in METHODS for d in (2, 3, 4)
                for p in range(len(PROBLEMS)))
        + tuple((method, d, 2, p, DELTA0, None, "identity")
                for method in ("c", "gmax") for d in (3, 4)
                for p in range(len(PROBLEMS)))
        + tuple((method, d, m, p, None, None, "default") for method in METHODS
                for d in (2, 3, 4) for m in (1, 2)
                for p in range(len(PROBLEMS))))
DEFAULT_START = " start=default"
RECORD_FIELDS = ("k", "sweep", "i", "j", "theta", "f", "offdiag_sq",
                 "lambda_norm", "skipped")
FLOAT_FIELDS = ("theta", "f", "offdiag_sq", "lambda_norm", "q", "packed")
STOP_FIELDS = ("stop_reason", "converged", "rotations", "reorths")
FLOAT_RTOL = 1e-12


def _import_package(checkout):
    """``jacobidiag`` from ``<checkout>/src``; refuse one imported from
    anywhere else."""
    src = os.path.realpath(os.path.join(checkout, "src"))
    sys.path.insert(0, src)
    try:
        import jacobidiag
    finally:
        sys.path.remove(src)
    found = os.path.dirname(os.path.dirname(
        os.path.realpath(jacobidiag.__file__)))
    if found != src:
        raise SystemExit(f"jacobidiag was imported from {found}, not {src}")
    return jacobidiag


def _key(method, d, m, p, delta0, orth_tol, start):
    key = f"{method} d={d} m={m} p={p}"
    if delta0 is not None:
        key += f" delta0={delta0:g}"
    if orth_tol is not None:
        key += f" orth_tol={orth_tol:g}"
    if start == "default":
        key += DEFAULT_START
    return key


def _run(jd, tensors, config, orth_tol, start):
    """``jd.run`` from the identity or the default start, with
    ``sweeps.ORTH_TOL`` patched to orth_tol (kept if None) for the run's
    length."""
    saved = jd.sweeps.ORTH_TOL
    jd.sweeps.ORTH_TOL = saved if orth_tol is None else orth_tol
    try:
        if start == "default":
            return jd.run(tensors, config)
        return jd.run(tensors, config, q0=np.eye(N))
    finally:
        jd.sweeps.ORTH_TOL = saved


def dump(checkout, out, grid=GRID):
    """Run ``grid`` against ``checkout``'s package and write the dump."""
    jd = _import_package(checkout)
    runs = {}
    for method, d, m, p, delta0, orth_tol, start in grid:
        profile, sigma, seed_rot, seed_noise = PROBLEMS[p]
        tensors, _ = jd.make_test_problem(jd.ExperimentSpec(
            n=N, order=d, m=m, profile=profile, sigma=sigma,
            seed_rot=seed_rot, seed_noise=seed_noise))
        res = _run(jd, tensors, jd.RunConfig(
            method=method, thresh=THRESH, delta0=delta0,
            max_sweeps=MAX_SWEEPS), orth_tol, start)
        st = res.state
        entry = {f: [getattr(r, f) for r in res.records]
                 for f in RECORD_FIELDS}
        entry.update(stop_reason=res.stop_reason, converged=res.converged,
                     rotations=st.rotation_count, reorths=st.reorth_count,
                     q=st.q.ravel().tolist(),
                     packed=st.tensors.packed.ravel().tolist())
        runs[_key(method, d, m, p, delta0, orth_tol, start)] = entry
    with open(out, "w") as fh:
        json.dump(runs, fh)


def _visits(run):
    return list(zip(run["sweep"], run["i"], run["j"], run["k"]))


def _rel_values(xs, ys):
    return max((abs(x - y) / max(abs(x), abs(y))
                for x, y in zip(xs, ys) if x != y), default=0.0)


def _rel_array(xs, ys):
    worst = max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)
    return worst / max(map(abs, xs + ys)) if worst else 0.0


def compare(a, b):
    """Report lines on how dump ``b`` differs from dump ``a``, and whether
    their trajectories match."""
    lines, match = [], True
    for name, only in (("a", a.keys() - b.keys()), ("b", b.keys() - a.keys())):
        if only:
            lines.append(f"only in {name}: {', '.join(sorted(only))}")
            match = False
    same_path = match
    tight = {_key(*run) for run in GRID if run[5] is not None}
    worst = {f: (0.0, None) for f in FLOAT_FIELDS}
    theta_abs, theta_moves = (0.0, None), []
    for key in (k for k in a if k in b):
        ra, rb = a[key], b[key]
        va, vb = _visits(ra), _visits(rb)
        count = min(len(va), len(vb))
        diffs = []
        if len(va) != len(vb):
            diffs.append(f"records {len(va)} != {len(vb)}")
        first = next((r for r in range(count) if va[r] != vb[r]), None)
        if first is not None:
            diffs.append(f"pair (sweep, i, j, k) at record {first}: "
                         f"{va[first]} != {vb[first]}")
        skips = sum(x != y for x, y in zip(ra["skipped"], rb["skipped"]))
        if skips:
            diffs.append(f"skipped differs at {skips} records")
        same_path = same_path and not diffs
        for f in STOP_FIELDS:
            if ra[f] != rb[f]:
                diffs.append(f"{f} {ra[f]!r} != {rb[f]!r}")
                same_path = same_path and f == "reorths" and key in tight
        if diffs:
            lines.append(f"{key}: " + "; ".join(diffs))
            match = False
        for f in FLOAT_FIELDS:
            whole = f in ("q", "packed")
            xs, ys = (ra[f], rb[f]) if whole else (ra[f][:count], rb[f][:count])
            per_run = _rel_array(xs, ys) if len(xs) == len(ys) \
                else float("inf")
            same_path = same_path and per_run <= FLOAT_RTOL
            rel = per_run if whole else _rel_values(xs, ys)
            if rel > worst[f][0]:
                worst[f] = (rel, key)
        thetas = list(zip(ra["theta"], rb["theta"]))
        moved = max((abs(x - y) for x, y in thetas), default=0.0)
        if moved > theta_abs[0]:
            theta_abs = (moved, key)
        theta_moves += [max(abs(x), abs(y)) for x, y in thetas if x != y
                        and abs(x - y) / max(abs(x), abs(y)) > FLOAT_RTOL]
    lines.append("largest relative change per float field:")
    for f, (rel, key) in worst.items():
        lines.append(f"  {f}: {rel:.3g}" + (f" ({key})" if key else ""))
        match = match and rel <= FLOAT_RTOL
    moved, key = theta_abs
    lines.append(f"largest absolute theta change: {moved:.3g} rad"
                 + (f" ({key})" if key else ""))
    lines.append(f"theta values moved by more than {FLOAT_RTOL:g} relative: "
                 f"{len(theta_moves)}" + (
                     f", largest |theta| among them {max(theta_moves):.3g} "
                     f"rad" if theta_moves else ""))
    lines.append("same path within rounding: "
                 + ("yes" if same_path else "no"))
    bitwise = match and all(rel == 0.0 for rel, _ in worst.values())
    lines.append(f"{len(a)} runs in a, {len(b)} in b: " + (
        "bitwise identical" if bitwise else
        f"trajectories match within {FLOAT_RTOL:g}" if match else
        "trajectories differ"))
    return lines, match


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run the grid against a checkout")
    d.add_argument("checkout")
    d.add_argument("out")
    c = sub.add_parser("compare", help="compare two dumps")
    c.add_argument("--identity", action="store_true",
                   help="compare the identity-start runs only")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.checkout, args.out)
        return 0
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    if args.identity:
        a, b = ({k: v for k, v in runs.items()
                 if not k.endswith(DEFAULT_START)} for runs in (a, b))
    lines, match = compare(a, b)
    print("\n".join(lines))
    return 0 if match else 1


if __name__ == "__main__":
    sys.exit(main())
