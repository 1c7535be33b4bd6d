"""jacobidiag benchmark: time to stationarity and microseconds per rotation.

    python3 perfbench/run.py --workload order3-mixed --seed 1 --seconds 30 --trace 0

Each workload is a closed loop in one process: one solve at a time, each on
a fresh problem from the benchmark's own generator (seeded by --seed and
the solve index), written as a ``symtensor v1`` file and read back with
``load_tensorset``, as a ``jacobidiag run`` user would.  Solves start until
--seconds have passed; every solve is checked (checks.py).  End-to-end
times are scaled by a host-speed probe run between solves (hostspeed.py);
the raw times are reported too.

--trace 0 prints the end-to-end metrics.  --trace 1 solves every problem
twice, untraced and traced (alternating which goes first), and prints the
per-layer metrics from spans recorded around calls into the package
(spans.py), plus the tracing overhead.  The last stdout line is the result
object; the line before it carries machine info and sample counts.

The package is imported from ``src/`` next to this directory; the run
fails (exit status other than 0, no result line) if it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread: the kernels are elementwise or tiny, and extra threads
# only add run-to-run noise
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import problems  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SIGMA = 1e-4

# n, order, slice mode, the method / profile cycles over solve index k, and
# the host-speed probe's mean time on the reference host (a 2-vCPU 2.1 GHz
# Xeon VM) for the workload's stack shape
WORKLOADS = {
    "order4-kernel": dict(n=24, order=4, slice_mode=False, methods=("c",),
                          profiles=("equal",), probe_ref_s=2.8e-3),
    "order3-mixed": dict(n=12, order=3, slice_mode=False,
                         methods=("c", "g", "gmax", "cthresh", "pc"),
                         profiles=("equal", "linear"), probe_ref_s=0.58e-3),
    "slices-simultaneous": dict(n=14, order=4, slice_mode=True,
                                methods=("c",), profiles=("equal",),
                                probe_ref_s=0.80e-3),
}

# setup_s: load the first problem file this many times before the loop;
# the loop adds one load per further problem (median of all reported)
SETUP_MIN_LOADS, SETUP_MAX_LOADS, SETUP_SECONDS = 5, 51, 1.0
# host-speed probe after each timed call, as a share of its time
HOST_SAMPLE_SHARE = 0.1
P90_MIN_SAMPLES = 100     # at least 10 solves beyond the 90th percentile

TIMED_LAYERS = ("symtensor.rotate_plane", "symtensor.offdiag_sq",
                "geometry.lambda_of", "geometry.orthogonality_error",
                "geometry.apply", "angles.from_tensors",
                "angles.omega_xi_coeffs", "angles.solve_xi_roots",
                "angles.best_angle")


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import jacobidiag
    from jacobidiag import sweeps
    if not Path(jacobidiag.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"jacobidiag imported from {jacobidiag.__file__}, "
                          f"not from {ROOT / 'src'}")
    return jacobidiag, sweeps


def machine_info():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def write_problem(spec, seed, k, workdir):
    """Generate problem k of a run, write it to a file; return (path, Q_true)."""
    profile = spec["profiles"][k % len(spec["profiles"])]
    stack, q_true = problems.make_problem(
        spec["n"], spec["order"], SIGMA, profile, seed_rot=(seed, k, 0),
        seed_noise=(seed, k, 1), slice_mode=spec["slice_mode"])
    path = workdir / f"problem{k}.st"
    problems.write_symtensor(path, stack)
    return path, q_true


def stack_shape(spec):
    n, order = spec["n"], spec["order"]
    if spec["slice_mode"]:
        return (n,) + (n,) * (order - 1)
    return (1,) + (n,) * order


def timed_load(jd, path, loads, host):
    t0 = time.perf_counter()
    tensors = jd.load_tensorset(path)
    loads.append(time.perf_counter() - t0)
    host.sample(HOST_SAMPLE_SHARE * loads[-1])
    return tensors


def measure_setup(jd, path, host):
    loads = []
    t_end = time.perf_counter() + SETUP_SECONDS
    while len(loads) < SETUP_MIN_LOADS or (
            len(loads) < SETUP_MAX_LOADS and time.perf_counter() < t_end):
        tensors = timed_load(jd, path, loads, host)
    return loads, tensors


class CheckFailed(Exception):
    """A solve finished but failed a correctness check."""


def solve_once(sweeps, tensors, cfg, q_true, tracer=None):
    """One timed and checked solve; returns its record."""
    solve = sweeps.run
    if tracer is not None:
        tracer.install()
        solve = tracer.wrap("sweeps.run", sweeps.run)
    try:
        t0 = time.perf_counter()
        result = solve(tensors, cfg)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    bad = checks.check_solve(result, q_true)
    if bad:
        raise CheckFailed("; ".join(bad))
    state = result.state
    return {"wall": wall, "rotations": state.rotation_count,
            "offdiag_rel": state.offdiag_sq() / state.total_sq_norm,
            "skipped": sum(r.skipped for r in result.records),
            "reorths": state.reorth_count}


def run_workload(jd, sweeps, spec, seed, seconds, trace, workdir, host):
    path, q_true = write_problem(spec, seed, 0, workdir)
    loads, tensors = measure_setup(jd, path, host)
    tracer = spans.Tracer() if trace else None

    solves = {False: [], True: []}     # keyed by traced
    failures = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        if k:
            tensors = None      # free the last problem: peak RSS is per problem
            path, q_true = write_problem(spec, seed, k, workdir)
            tensors = timed_load(jd, path, loads, host)
        cfg = jd.RunConfig(method=spec["methods"][k % len(spec["methods"])])
        if not trace:
            modes = (False,)
        else:
            modes = (False, True) if k % 2 == 0 else (True, False)
        for traced in modes:
            attempted += 1
            t0 = time.perf_counter()
            try:
                solves[traced].append(solve_once(
                    sweeps, tensors, cfg, q_true, tracer if traced else None))
            except Exception as exc:   # a failed solve is counted, not fatal
                failures.append(f"problem {k} ({cfg.method}): "
                                f"{type(exc).__name__}: {exc}")
            host.sample(HOST_SAMPLE_SHARE * (time.perf_counter() - t0))
        k += 1
    return loads, solves, attempted, failures, tracer


def us_per_rotation(solves):
    return 1e6 * sum(s["wall"] for s in solves) \
        / max(sum(s["rotations"] for s in solves), 1)


def end_to_end_metrics(loads, solves, attempted, failed, scale):
    """Times are scaled to the reference host (hostspeed.py)."""
    walls = [s["wall"] for s in solves]
    return {
        "solve_s_p50": (scale * statistics.median(walls), "s"),
        "us_per_rotation": (scale * us_per_rotation(solves), "us"),
        "rotations_per_solve": (
            statistics.mean(s["rotations"] for s in solves), "count"),
        "offdiag_rel_final": (
            statistics.median(s["offdiag_rel"] for s in solves), "ratio"),
        "pass_rate": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (scale * statistics.median(loads), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer_metrics(spec, loads, untraced, traced, tracer):
    summary = tracer.summary()
    wall = summary["root_wall_s"]
    rotations = max(sum(s["rotations"] for s in traced), 1)
    nsolves = len(traced)
    table = {}
    for name in TIMED_LAYERS + ("sweeps.select", "sweeps.run"):
        row = summary["layers"].get(
            name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        calls = max(row["calls"], 1)
        table[name] = {"calls": row["calls"],
                       "self_us_per_call": 1e6 * row["self_s"] / calls,
                       "incl_us_per_call": 1e6 * row["incl_s"] / calls,
                       "self_share": row["self_s"] / wall}

    out = {}
    for name in TIMED_LAYERS:
        row = table[name]
        out[f"{name}.calls_per_rotation"] = (row["calls"] / rotations, "count")
        out[f"{name}.self_us_per_call"] = (row["self_us_per_call"], "us")
        out[f"{name}.self_share"] = (row["self_share"], "ratio")
    out["sweeps.select.calls_per_rotation"] = (
        table["sweeps.select"]["calls"] / rotations, "count")
    out["sweeps.select.self_share"] = (table["sweeps.select"]["self_share"],
                                       "ratio")
    run = table["sweeps.run"]
    out["sweeps.run.self_us_per_rotation"] = (
        run["self_us_per_call"] * run["calls"] / rotations, "us")
    out["sweeps.run.self_share"] = (run["self_share"], "ratio")

    # minimal traffic of one plane rotation, computed rather than measured:
    # read and write the i/j slices of every mode, 2*d*m*n^(d-1) float64s
    n = spec["n"]
    m, d = (n, spec["order"] - 1) if spec["slice_mode"] else (1, spec["order"])
    kernel = table["symtensor.rotate_plane"]
    out["symtensor.rotate_plane.min_bytes_per_s"] = (
        2 * d * m * n ** (d - 1) * 8 / (kernel["self_us_per_call"] * 1e-6),
        "B/s")
    out["symtensor.load_tensorset.s"] = (statistics.median(loads), "s")

    counts = tracer.counts
    for key, total in (
            ("geometry.reorths_per_solve",
             sum(s["reorths"] for s in traced)),
            ("angles.real_xi_roots_per_solve",
             counts["angles.real_xi_roots"]),
            ("angles.constant_objective_per_solve",
             counts["angles.solve_xi_roots.raised.ConstantObjectiveError"]),
            ("angles.quarter_pi_picks_per_solve",
             counts["angles.quarter_pi_picks"]),
            ("angles.zero_angle_picks_per_solve",
             counts["angles.zero_angle_picks"]),
            ("sweeps.skipped_visits_per_solve",
             sum(s["skipped"] for s in traced))):
        out[key] = (total / nsolves, "count")
    out["trace.overhead"] = (
        us_per_rotation(traced) / us_per_rotation(untraced) - 1.0, "ratio")

    info = {"layers": table, "missing_hooks": tracer.missing,
            "traced_wall_s": wall, "self_time_sum_s": summary["self_sum_s"],
            "exceptions": {k: v for k, v in counts.items() if ".raised." in k}}
    return out, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")

    try:
        jd, sweeps = import_package()
    except ImportError as exc:
        print(f"error: cannot import jacobidiag from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    host = hostspeed.HostSpeed(stack_shape(spec), spec["probe_ref_s"])
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        loads, solves, attempted, failures, tracer = run_workload(
            jd, sweeps, spec, args.seed, args.seconds, args.trace,
            Path(workdir), host)
    untraced, traced = solves[False], solves[True]
    if not untraced or (args.trace and not traced):
        print("no solve succeeded: " + "; ".join(failures[:5]),
              file=sys.stderr)
        return 1

    scale = host.scale()
    walls = [s["wall"] for s in untraced]
    info = {"workload": args.workload, "seed": args.seed,
            "params": {**spec, "sigma": SIGMA},
            "machine": machine_info(), "loop": "closed, one solve at a time",
            "samples": {"setup_loads": len(loads),
                        "solves_untraced": len(untraced),
                        "solves_traced": len(traced)},
            "failures": failures[:5],
            "host_speed": {"scale": scale, "probes": host.units,
                           "mean_probe_s": host.mean_unit_s()},
            "raw": {"solve_s_p50": statistics.median(walls),
                    "us_per_rotation": us_per_rotation(untraced),
                    "setup_s": statistics.median(loads)}}
    if len(walls) >= P90_MIN_SAMPLES:
        info["solve_s_p90"] = scale * statistics.quantiles(walls, n=10)[-1]
    if args.trace:
        metrics, info["trace"] = per_layer_metrics(spec, loads, untraced,
                                                   traced, tracer)
    else:
        metrics = end_to_end_metrics(loads, untraced, attempted,
                                     len(failures), scale)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
