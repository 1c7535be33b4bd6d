"""Count the calls one solver run makes per rotation.

    python tools/call_count.py [<checkout>] [--d 3] [--n 12] [--m 1]
                               [--method c] [--top K]

Imports ``jacobidiag`` from ``<checkout>/src`` (default: this checkout),
builds ``harness.make_test_problem`` at (d, n, m) with sigma = 1e-4 and
the default seeds, and runs ``sweeps.run`` with ``method`` once to fill
the package's index caches.  It then runs it again under
``sys.setprofile`` and prints, as one JSON object, the calls that second
run made divided by its rotations, set-up included:

* ``python``: calls of functions written in Python, NumPy's own included;
* ``numpy``: calls of NumPy's built-in functions and of ndarray methods
  (``take``, ``dot``, ``tolist``, ...);
* ``builtin``: every other built-in (``math.cos``, ``len``, ...).

The profile hook does not see ufuncs (``np.add``, ``np.vecdot``) or
operators (``a * b``), so they are not counted.  ``--top K`` adds the K
most called functions with their calls per rotation.  Counts repeat
exactly from run to run; they compare two versions of the program and say
nothing about time.

``index_bytes`` gives, per lru-cached index table of ``symtensor``
(``INDEX_TABLES``) that the runs built at (d, n), the ``nbytes`` of the
arrays it holds.  An array that views another counts as its base, and
each base counts once, under the first table that holds it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

INDEX_TABLES = ("_packing", "_pair_positions", "_lambda_positions",
                "_lambda_rows", "_rotation_plan")


def _import_package(checkout):
    """``jacobidiag`` from ``<checkout>/src``; refuse one from elsewhere."""
    src = os.path.realpath(os.path.join(checkout, "src"))
    sys.path.insert(0, src)
    import jacobidiag
    found = os.path.dirname(os.path.dirname(
        os.path.realpath(jacobidiag.__file__)))
    if found != src:
        raise SystemExit(f"jacobidiag was imported from {found}, not {src}")
    return jacobidiag


def _kind(event, fn, ndarray):
    if event == "call":
        return "python"
    owner = getattr(fn, "__self__", None)
    module = getattr(fn, "__module__", None) or ""
    if module.startswith("numpy") or isinstance(owner, ndarray):
        return "numpy"
    return "builtin"


def _name(event, frame, fn):
    if event == "call":
        code = frame.f_code
        return (f"{os.path.basename(code.co_filename)}:"
                f"{getattr(code, 'co_qualname', code.co_name)}")
    owner = getattr(fn, "__self__", None)
    prefix = type(owner).__name__ + "." if owner is not None \
        and not isinstance(owner, type(sys)) else ""
    return prefix + fn.__name__


def count_calls(jd, d, n, m, method):
    """(rotations, Counter of (kind, name) -> calls) of one profiled run
    after a warm-up run on the same problem."""
    import numpy as np

    tensors, _ = jd.make_test_problem(jd.ExperimentSpec(
        n=n, order=d, m=m, sigma=1e-4))
    config = jd.RunConfig(method=method)
    jd.run(tensors, config)
    calls = Counter()

    def hook(frame, event, arg):
        if event in ("call", "c_call"):
            calls[_kind(event, arg, np.ndarray),
                  _name(event, frame, arg)] += 1

    sys.setprofile(hook)
    try:
        res = jd.run(tensors, config)
    finally:
        sys.setprofile(None)
    # the hook also saw the call that switched it off
    calls["builtin", "setprofile"] -= 1
    return res.state.rotation_count, +calls


def index_bytes(d, n):
    """{table name: bytes} of the ``INDEX_TABLES`` cached at (d, n); a
    table that was not cached there is left out (the lookup builds it)."""
    import numpy as np
    from jacobidiag import symtensor

    def arrays(value):          # through the nested tuples of a table
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                yield from arrays(item)

    seen, out = set(), {}
    for name in INDEX_TABLES:
        table = getattr(symtensor, name)
        misses = table.cache_info().misses
        value = table(d, n)
        if table.cache_info().misses != misses:
            continue
        out[name] = 0
        for arr in arrays(value):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            if id(arr) not in seen:
                seen.add(id(arr))
                out[name] += arr.nbytes
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("checkout", nargs="?",
                        default=os.path.join(os.path.dirname(__file__), ".."))
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--method", default="c")
    parser.add_argument("--top", type=int, default=0)
    args = parser.parse_args(argv)
    jd = _import_package(args.checkout)
    rotations, calls = count_calls(jd, args.d, args.n, args.m, args.method)
    if rotations == 0:
        raise SystemExit("the run made no rotation")
    out = {"d": args.d, "n": args.n, "m": args.m, "method": args.method,
           "rotations": rotations}
    for kind in ("python", "numpy", "builtin"):
        out[kind] = round(sum(c for (k, _), c in calls.items() if k == kind)
                          / rotations, 3)
    out["index_bytes"] = index_bytes(args.d, args.n)
    if args.top:
        out["top"] = [[f"{kind} {name}", round(c / rotations, 3)]
                      for (kind, name), c in calls.most_common(args.top)]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
