"""Time ``load_tensorset`` on the benchmark's input files.

    python tools/load_time.py [<checkout>] [--k 7] [--n N]

Imports ``jacobidiag`` from ``<checkout>/src`` (default: this checkout), as
``tools/call_count.py`` does, so one script times two versions of the
loader on the same files.  The files are written into a temporary
directory by this checkout's ``perfbench/run.py``:

* problem 0 of each of its workloads, as ``write_problem`` writes it at
  seed 0: every entry bitwise at its sorted place, so each line of n
  values repeats at every permutation of the first d - 1 indices;
* ``no-repeats``: ``order4-kernel``'s problem 0 with each dense entry
  scaled by 1 + 1e-13 z, z standard normal, which leaves the tensor
  symmetric to rounding but repeats neither a token nor a line.

``--n`` writes every file at dimension N instead of its workload's (a
quick check; a slice-mode file has m = N).  For each file it prints one
JSON line: its (d, n, m), tokens, distinct lines, distinct tokens, the
minimum and median load time over k loads in ms, and the ``tracemalloc``
peak of one more load in MiB.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from call_count import _import_package

ROOT = Path(__file__).resolve().parents[1]


def write_files(workdir, n=None):
    """{name: path} of the files described above, written into workdir."""
    import numpy as np
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    workdir, files = Path(workdir), {}
    for name, spec in run.WORKLOADS.items():
        files[name] = workdir / name
        run.write_problem(dict(spec, n=n or spec["n"]), 0, 0,
                          workdir)[0].rename(files[name])
    kernel = files["order4-kernel"]
    d, n, m = (describe(kernel)[key] for key in "dnm")
    stack = np.loadtxt(kernel, skiprows=1).reshape((m,) + (n,) * d)
    rng = np.random.default_rng((0, 0, 2))
    files["no-repeats"] = workdir / "no-repeats"
    run.problems.write_symtensor(
        files["no-repeats"],
        stack * (1 + 1e-13 * rng.standard_normal(stack.shape)))
    return files


def describe(path):
    """(d, n, m), tokens, distinct lines and distinct tokens of a file."""
    header, body = Path(path).read_text().split("\n", 1)
    fields = dict(kv.split("=") for kv in header.split()[2:])
    tokens = body.split()
    return {"d": int(fields["d"]), "n": int(fields["n"]),
            "m": int(fields["m"]), "tokens": len(tokens),
            "distinct_lines": len(set(body.splitlines())),
            "distinct_tokens": len(set(tokens))}


def time_loads(load, path, k):
    """(min ms, median ms) of k loads and the MiB peak of one more."""
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        load(path)
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (round(1e3 * min(times), 3), round(1e3 * statistics.median(times), 3),
            round(peak / 2**20, 2))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("checkout", nargs="?", default=str(ROOT))
    parser.add_argument("--k", type=int, default=7)
    parser.add_argument("--n", type=int, default=None)
    args = parser.parse_args(argv)
    if args.k < 1 or (args.n is not None and args.n < 2):
        parser.error("need --k >= 1 and --n >= 2")
    jd = _import_package(args.checkout)
    with tempfile.TemporaryDirectory() as workdir:
        for name, path in write_files(workdir, args.n).items():
            ms_min, ms_median, peak = time_loads(jd.load_tensorset, path,
                                                 args.k)
            print(json.dumps({"file": name, **describe(path),
                              "load_ms_min": ms_min,
                              "load_ms_median": ms_median,
                              "peak_mib": peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
