"""Golden CSV digests: exit code and CSV sha256 of a fixed matrix of CLI runs.

A change that keeps behaviour leaves every entry of golden_csv.json as it
is.  A changed entry is a behaviour change, to be declared with its reason;
regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from treemg.cli import main

GOLDEN = Path(__file__).with_name("golden_csv.json")

SETUPS = ("poisson", "half-jump", "needle", "skew")
FLAVORS = ("geometric", "boxmg")
ADDITIVE = ("additive", "additive-exp", "bpx", "afacc", "adafac-pi", "adafac-jac")
PIPELINED = ("additive", "adafac-pi", "adafac-jac")
MESHES = ("--lmax 3", "--lmax 4 --amr on")


def golden_runs() -> list[str]:
    """The command lines of the matrix, all at --k 3 --max-cycles 60."""
    runs = []
    for setup in SETUPS:
        for flavor in FLAVORS:
            base = f"--setup {setup} --flavor {flavor}"
            runs += [f"{base} --variant {v} {mesh}" for v in ADDITIVE for mesh in MESHES]
            runs.append(f"{base} --variant multiplicative-v10 --lmin 2 --lmax 3")
    for flavor in FLAVORS:
        runs += [f"--setup half-jump --flavor {flavor} --engine pipelined --variant {v} {mesh}"
                 for v in PIPELINED for mesh in MESHES]
    return [f"{run} --k 3 --max-cycles 60" for run in runs]


def digest(argv: str) -> list:
    """[exit code, sha256 of the CSV] of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv.split())
    return [rc, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_golden_csv_digests():
    want = json.loads(GOLDEN.read_text())
    runs = golden_runs()
    assert list(want) == runs
    changed = [argv for argv in runs if digest(argv) != want[argv]]
    assert not changed, f"{len(changed)} of {len(runs)} runs changed: {changed}"


if __name__ == "__main__":
    lines = [f"{json.dumps(argv)}: {json.dumps(digest(argv))}" for argv in golden_runs()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)
