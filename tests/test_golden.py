"""Golden digests of behaviour.

golden_csv.json holds, per run of a fixed matrix of CLI runs, the exit
code, last cycle, final DoF count, final res_l2h as printed and the CSV
sha256; golden_tables.json the sha256 of every prolongation, smoothed
restriction, stencil table and diagonal that the reference engine builds
on a fixed corpus of meshes.  A change that keeps behaviour leaves every
entry of both files as it is.  A changed entry is a behaviour change, to be
declared with its reason; regenerate both files with

    PYTHONPATH=src python tests/test_golden.py

which prints what moved against the files it overwrites: per changed run
the exit code, last cycle and DoF before -> after and the relative change
of the final residual, and per mesh the number of changed tables.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import treemg.operators
from treemg.bench import make_field
from treemg.cli import main
from treemg.operators import TableOperator, boxmg_prolongation, smoothed_restriction_table
from treemg.solvers import ReferenceEngine, SolverConfig
from treemg.spacetree import VertexKind, build_regular

GOLDEN = Path(__file__).with_name("golden_csv.json")
GOLDEN_TABLES = Path(__file__).with_name("golden_tables.json")

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
    """[exit code, last cycle, final DoF, final res_l2h as printed, sha256
    of the CSV] of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv.split())
    csv = out.getvalue()
    cycle, res, _, dofs = csv.splitlines()[-1].split(",")[:4]
    return [rc, int(cycle), int(dofs), res, hashlib.sha256(csv.encode()).hexdigest()]


# regular boxmg meshes at lmax 3-5, and (setup, k, seed) of the random
# graded lmax-4 meshes, built for both flavours
TABLE_FIELDS = (("poisson", 1), ("half-jump", 3), ("half-jump", 5), ("needle", 3), ("skew", 5))
GRADED = (("poisson", 1, 1), ("half-jump", 3, 2), ("needle", 3, 3), ("skew", 5, 4))


def graded_tree(setup: str, k: int, seed: int):
    """A random graded lmax-4 tree: a regular level 1, then each of levels
    1-3 refined on a random 60% of its cells, so that levels 2-4 carry
    hanging vertices."""
    tree = build_regular(1, lmax=4, field=make_field(setup, k))
    rng = np.random.default_rng(seed)
    for l in range(1, 4):
        marks = [np.zeros_like(r) for r in tree.refined[:l]]
        tree.refine_many(marks + [tree.cells_exist(l) & (rng.random(tree.refined[l].shape) < 0.6)])
    assert tree.depth == 4
    assert all((tree.vertex_kinds(l) == VertexKind.HANGING).any() for l in (2, 3, 4))
    return tree


def table_corpus():
    """(name, tree, flavor) of the corpus, each tree built when reached."""
    for setup, k in TABLE_FIELDS:
        for lmax in (3, 4, 5):
            yield (f"{setup} k={k} lmax {lmax} boxmg",
                   build_regular(lmax, field=make_field(setup, k)), "boxmg")
    for setup, k, seed in GRADED:
        for flavor in ("geometric", "boxmg"):
            yield (f"{setup} k={k} graded seed {seed} {flavor}", graded_tree(setup, k, seed), flavor)


def array_digest(arr: np.ndarray) -> str:
    """sha256 of an array's shape, dtype and values in index order."""
    h = hashlib.sha256(f"{arr.shape} {arr.dtype}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def table_digests(tree, flavor: str) -> dict[str, str]:
    """Digests of the tables an adafac-jac engine builds on tree, once it
    has built every level: per level its stencil table and diagonal, and
    per coarse level its P (boxmg only) and R~, which boxmg levels do not
    store and which is composed from P here."""
    eng = ReferenceEngine(tree, SolverConfig(variant="adafac-jac", flavor=flavor))
    while eng.build_stale_level():
        pass
    out = {}
    for l in range(tree.lmin, eng.ltop + 1):
        out[f"A{l}"] = array_digest(eng.ops[l].table())
        out[f"diag{l}"] = array_digest(eng.diag[l])
        if l < eng.ltop:
            tr = eng.transfers[l]
            if tr.p_planes is None:
                out[f"Rt{l}"] = array_digest(tr.rtilde)
            else:
                out[f"P{l}"] = array_digest(tr.p_planes)
                out[f"Rt{l}"] = array_digest(smoothed_restriction_table(tr.p_planes, tr.omega))
    return out


def all_table_digests() -> dict[str, dict[str, str]]:
    return {name: table_digests(tree, flavor) for name, tree, flavor in table_corpus()}


def test_boxmg_prolongation_reads_the_operator_rows_bit_for_bit():
    """On every boxmg mesh of the corpus and at every level, P built from
    the fine ElementOperator's rows equals P built from its assembled
    table bit for bit (as int64 views), and P has no weight towards a fine
    vertex outside the grid: none below offset 0 from the first coarse row
    or column, none above it from the last.  TransferOps.restrict_smoothed
    equals the composed R~ table only because of the latter."""
    for name, tree, flavor in table_corpus():
        if flavor != "boxmg":
            continue
        eng = ReferenceEngine(tree, SolverConfig(flavor="boxmg"))  # no level built yet
        for l in range(tree.lmin, eng.ltop):
            fine, hanging = eng.ops[l + 1], eng.masks[l + 1]["hanging"]
            refined = tree.refined[l] & tree.cells_exist(l)
            got = boxmg_prolongation(fine, refined, hanging)
            want = boxmg_prolongation(TableOperator(fine.table()), refined, hanging)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, l)
            outside = (got[:2, :, 0], got[3:, :, -1], got[:, :2, :, 0], got[:, 3:, :, -1])
            assert not any(w.any() for w in outside), (name, l)


@pytest.mark.parametrize("block", [1, 7])
def test_boxmg_interior_solves_do_not_depend_on_the_chunk(monkeypatch, block):
    """P of the finest coarse level of a graded mesh, built with the
    interior solves in chunks of 1 or 7 cells, equals P built in the
    default chunks bit for bit."""
    tree = graded_tree("half-jump", 3, 2)
    eng = ReferenceEngine(tree, SolverConfig(flavor="boxmg"))
    l = eng.ltop - 1
    args = (eng.ops[l + 1], tree.refined[l] & tree.cells_exist(l), eng.masks[l + 1]["hanging"])
    want = boxmg_prolongation(*args)
    monkeypatch.setattr(treemg.operators, "_INTERIOR_BLOCK", block)
    got = boxmg_prolongation(*args)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_golden_table_digests():
    want = json.loads(GOLDEN_TABLES.read_text())
    got = all_table_digests()
    assert list(want) == list(got)
    changed = [f"{name}: {key}" for name in want for key in want[name].keys() | got[name].keys()
               if got[name].get(key) != want[name].get(key)]
    assert not changed, f"{len(changed)} tables changed: {sorted(changed)}"


def test_golden_csv_digests():
    want = json.loads(GOLDEN.read_text())
    runs = golden_runs()
    assert list(want) == runs
    changed = [argv for argv in runs if digest(argv) != want[argv]]
    assert not changed, f"{len(changed)} of {len(runs)} runs changed: {changed}"


def report(old_csv: dict, new_csv: dict, old_tables: dict, new_tables: dict) -> None:
    """Print what moved between two generations of the golden files."""
    changed = [argv for argv in new_csv if old_csv.get(argv) != new_csv[argv]]
    print(f"{len(changed)} of {len(new_csv)} runs changed")
    if changed:
        print("| run | exit code | last cycle | final DoF | final res_l2h, rel. change |")
        print("| --- | --- | --- | --- | --- |")
    for argv in changed:
        if argv not in old_csv:
            print(f"| {argv} | new | | | |")
            continue
        (rc0, c0, d0, r0, _), (rc1, c1, d1, r1, _) = old_csv[argv], new_csv[argv]
        rel = abs(float(r1) - float(r0)) / abs(float(r0))
        print(f"| {argv} | {rc0} → {rc1} | {c0} → {c1} | {d0} → {d1} | {rel:.1e} |")
    total = 0
    for name, got in new_tables.items():
        want = old_tables.get(name, {})
        moved = sum(want.get(key) != value for key, value in got.items())
        total += moved
        if moved:
            print(f"{name}: {moved} of {len(got)} tables changed")
    print(f"{total} of {sum(map(len, new_tables.values()))} table digests changed")


if __name__ == "__main__":
    old_csv, old_tables = json.loads(GOLDEN.read_text()), json.loads(GOLDEN_TABLES.read_text())
    new_csv = {argv: digest(argv) for argv in golden_runs()}
    lines = [f"{json.dumps(argv)}: {json.dumps(record)}" for argv, record in new_csv.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)
    new_tables = all_table_digests()
    GOLDEN_TABLES.write_text(json.dumps(new_tables, indent=1) + "\n")
    print(f"wrote {sum(map(len, new_tables.values()))} digests to {GOLDEN_TABLES}", file=sys.stderr)
    report(old_csv, new_csv, old_tables, new_tables)
