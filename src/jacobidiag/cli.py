"""Command-line interface: gen | run | bench | verify.

Exit codes: 0 success, 2 invalid input, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (ExperimentSpec, make_test_problem, parse_suite_file,
                      run_benchmark, verify_invariants)
from .sweeps import METHODS, RunConfig, run, write_trajectory_csv
from .symtensor import load_tensorset, save_tensorset

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INVARIANT = 3


def _build_parser():
    # options only as written in full: a prefix could later name two
    parser = argparse.ArgumentParser(
        prog="jacobidiag", allow_abbrev=False,
        description="Jacobi-rotation simultaneous diagonalization of "
                    "symmetric matrices and 3rd/4th-order symmetric tensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic test problem",
                         allow_abbrev=False)
    gen.add_argument("--n", type=int, required=True, help="dimension")
    gen.add_argument("--d", type=int, required=True, help="tensor order (2-4)")
    gen.add_argument("--m", type=int, default=1, help="number of tensors")
    gen.add_argument("--profile", choices=["equal", "linear"], default="equal")
    gen.add_argument("--sigma", type=float, default=0.0,
                     help="noise std dev before symmetrization")
    gen.add_argument("--seed-rot", type=int, default=0)
    gen.add_argument("--seed-noise", type=int, default=1)
    gen.add_argument("--slice-mode", action="store_true",
                     help="cut the 4th-order tensor into n 3rd-order slices")
    gen.add_argument("--out", required=True, help="output tensor file")

    runp = sub.add_parser("run", help="run one algorithm on a tensor file",
                          allow_abbrev=False)
    runp.add_argument("--in", dest="infile", required=True)
    runp.add_argument("--algo", choices=list(METHODS), required=True)
    runp.add_argument("--eps", type=float, default=None)
    runp.add_argument("--delta0", type=float, default=None)
    runp.add_argument("--thresh", type=float, default=None)
    runp.add_argument("--max-sweeps", type=int, required=True)
    runp.add_argument("--tol", type=float, required=True,
                      help="stationarity tolerance on ||Lambda||")
    runp.add_argument("--csv", required=True, help="trajectory output path")

    bench = sub.add_parser("bench", help="run a suite of configurations",
                           allow_abbrev=False)
    bench.add_argument("--in", dest="infile", required=True)
    bench.add_argument("--suite", required=True,
                       help="config file, one algorithm per line")
    bench.add_argument("--outdir", required=True)

    ver = sub.add_parser("verify", help="run the invariant suite on a file",
                         allow_abbrev=False)
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=40)
    return parser


def _line(row):
    """One finished run, a ``RunResult.summary()`` or failed bench row."""
    if "error" in row:
        return f"{row['label']}: FAILED: {row['error']}"
    return (f"{row['label']}: f={row['final_f']:.12g} "
            f"offdiag_sq={row['offdiag_sq']:.6g} "
            f"lambda={row['lambda_norm']:.6g} sweeps={row['sweeps']} "
            f"rotations={row['rotations']} stop={row['stop_reason']}")


def _cmd_gen(args):
    spec = ExperimentSpec(n=args.n, order=args.d, m=args.m,
                          profile=args.profile, sigma=args.sigma,
                          seed_rot=args.seed_rot, seed_noise=args.seed_noise,
                          slice_mode=args.slice_mode)
    tensors, _ = make_test_problem(spec)
    save_tensorset(args.out, tensors)
    print(f"wrote {args.out}: m={len(tensors)} d={tensors.order} "
          f"n={tensors.dim}")
    return EXIT_OK


def _cmd_run(args):
    tensors = load_tensorset(args.infile)
    cfg = RunConfig(method=args.algo, eps=args.eps, delta0=args.delta0,
                    thresh=args.thresh, max_sweeps=args.max_sweeps,
                    stationarity_tol=args.tol)
    result = run(tensors, cfg)
    write_trajectory_csv(args.csv, result)
    print(_line(result.summary()))
    print(f"trajectory written to {args.csv}")
    return EXIT_OK


def _cmd_bench(args):
    tensors = load_tensorset(args.infile)
    configs = parse_suite_file(args.suite)
    rows = run_benchmark(tensors, configs, outdir=args.outdir)
    json_path = os.path.join(args.outdir, "report.json")
    with open(json_path, "w") as fh:
        json.dump(rows, fh, indent=2, allow_nan=False)
    for row in rows:
        print(_line(row))
    print(f"report written to {json_path}")
    return EXIT_OK


def _cmd_verify(args):
    tensors = load_tensorset(args.infile)
    checks = verify_invariants(tensors, seed=args.seed, samples=args.samples)
    failed = False
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: {c.detail}")
        failed = failed or not c.passed
    return EXIT_INVARIANT if failed else EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"gen": _cmd_gen, "run": _cmd_run,
               "bench": _cmd_bench, "verify": _cmd_verify}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
