"""The README's `## Command line` block runs as written, each command in a
fresh interpreter: the ``python -m jacobidiag.cli`` entry, the exit code
that passes through ``sys.exit(main())`` and ``-W error::RuntimeWarning``
set for each process.  The in-process CLI tests check everything else."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jacobidiag
from jacobidiag.sweeps import CSV_HEADER

README = Path(__file__).resolve().parents[1] / "README.md"
# the fresh interpreters import the same copy of the package as this one
SRC = os.path.dirname(os.path.dirname(jacobidiag.__file__))
PRELUDE = ('jacobidiag() { "$PY" -W error::RuntimeWarning'
           ' -m jacobidiag.cli "$@"; }\n')


def command_line_block():
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Command line\n\n```sh\n(.*?)^```$", text,
                      re.MULTILINE | re.DOTALL)
    assert found, "README.md has no ```sh block under '## Command line'"
    return found.group(1)


def bash(script, cwd):
    """Run the script under bash -e, so the first command that fails ends
    it with that command's exit code."""
    env = dict(os.environ, PY=sys.executable, PYTHONPATH=SRC)
    return subprocess.run(["bash", "-e", "-o", "pipefail", "-c",
                           PRELUDE + script], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_readme_command_line_block_runs_as_written(tmp_path):
    done = bash(command_line_block(), tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "trace.csv").read_text().startswith(CSV_HEADER + "\n")

    def refuse(name):
        raise ValueError(f"report.json holds {name}")

    report = (tmp_path / "results" / "report.json").read_text()
    rows = json.loads(report, parse_constant=refuse)
    assert len(rows) == 3 and not any("error" in row for row in rows)
    for row in rows:
        assert (tmp_path / row["csv_path"]).exists()
    passed = [ln for ln in done.stdout.splitlines() if ln.startswith("PASS ")]
    assert len(passed) == 5, done.stdout

    # a refusal exits 2 through the interpreter, naming the field
    done = bash("jacobidiag gen --n 4 --d 3 --seed-rot -1 --out bad.st",
                tmp_path)
    assert done.returncode == 2
    assert "seed_rot" in done.stderr
