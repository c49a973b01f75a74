"""Time-to-1e-8 benchmark of treemg on four fixed solver workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seconds S] [--trace 0|1] [--seed N]
    python3 perfbench/run.py                  # every workload in turn
    python3 perfbench/run.py --quick          # every workload at small size

A run's solves go to one fresh process (perfbench/worker.py) with the
checkout's src/ on PYTHONPATH.  Untraced, it repeats solves while the
next one is expected to end within --seconds (at least one) and reports
the time per solve averaged over the solves after the first (a warm-up),
which evens out part of the host's speed drift, and the median set-up
sample.  Traced, a run makes one untraced and one traced solve, each in
its own process, and reports the per-layer spans, their coverage of
bench.run and the tracing overhead.  The workloads are deterministic:
--seed is accepted and recorded, but no input depends on it.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Wall-clock guards: a run's solves stop within this many seconds, and its
# worker process is stopped after the second, inside three minutes.
RUN_LIMIT_S = 140.0
WORKER_TIMEOUT_S = 170.0

COMMON = {"variant": "adafac-jac", "target": 1e-8, "max_cycles": 200}

WORKLOADS = {
    "poisson-geo-l5": {"setup": "poisson", "flavor": "geometric", "lmax": 5},
    "jump-boxmg-l5": {"setup": "half-jump", "k": 3, "flavor": "boxmg", "lmax": 5},
    "jump-amr-l5": {"setup": "half-jump", "k": 3, "flavor": "geometric", "lmax": 5,
                    "amr": True},
    "jump-pipelined-l3": {"setup": "half-jump", "k": 3, "lmax": 3, "engine": "pipelined"},
}
QUICK_LMAX = {"poisson-geo-l5": 3, "jump-boxmg-l5": 3, "jump-amr-l5": 4,
              "jump-pipelined-l3": 2}

# Checks each workload must have passed: (a) residual, (b) maximum principle,
# (c) update count (regular meshes), (d) AMR against direct solves,
# (e) pipelined against a direct solve.  (a) and (c) run on the AMR mesh
# only while it ends regular.
REQUIRED_CHECKS = {
    "poisson-geo-l5": {"a_residual", "b_max_principle", "c_updates_per_cycle"},
    "jump-boxmg-l5": {"a_residual", "b_max_principle", "c_updates_per_cycle"},
    "jump-amr-l5": {"b_max_principle", "d_amr_vs_direct"},
    "jump-pipelined-l3": {"a_residual", "b_max_principle", "c_updates_per_cycle",
                          "e_pipelined_vs_direct"},
}

_REFERENCE = {"bench.run", "bench.write_csv", "spacetree.build_regular",
              "discretization.epsilon_cells", "solvers.rebuild", "solvers.advance",
              "solvers.update_fas_state", "operators.element_apply", "operators.restrict",
              "operators.prolong", "operators.restrict_smoothed"}
# Spans that must record calls; a rename in src/ must not read as a speed-up.
EXPECTED_SPANS = {
    "poisson-geo-l5": _REFERENCE,
    "jump-boxmg-l5": _REFERENCE | {
        "operators.table_apply", "operators.ritz_galerkin_coarse",
        "operators.boxmg_prolongation", "operators.smoothed_restriction_table",
        "operators.assemble_stencil_table"},
    "jump-amr-l5": _REFERENCE | {
        "amr.mark_boundary", "amr.mark_curvature", "amr.cells_for_vertices",
        "amr.apply_refinement", "spacetree.refine_many"},
    "jump-pipelined-l3": {"bench.run", "bench.write_csv", "spacetree.build_regular",
                          "discretization.epsilon_cells", "solvers.rebuild",
                          "pipeline.advance", "spacetree.traverse"},
}

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "solve_s": "s", "cycles": "count",
                    "updates": "count", "ns_per_update": "ns", "peak_rss_mb": "MB"}
SPAN_UNITS = {"calls": "count", "total_s": "s", "self_s": "s",
              "ns_per_dof": "ns", "ns_per_dof_p90": "ns"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def worker(workload: str, quick: bool, trace: bool, seconds: float) -> dict:
    """The solves of one run in a fresh process; returns its report."""
    config = dict(COMMON, **WORKLOADS[workload])
    if quick:
        config["lmax"] = QUICK_LMAX[workload]
    spec = {"config": config, "trace": trace, "seconds": seconds,
            "trace_out": str(RESULTS / f"trace-{workload}.json")}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker timed out after {WORKER_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(workload: str, report: dict) -> list[bool]:
    """Whether each solve of a worker is converged and correct.  The last
    solve must pass every required check; every solve must end on exactly
    the same iterate, CSV counts included (the workloads are
    deterministic), which carries the checks over."""
    for c in report["checks"]:
        verdict = "ok" if c["ok"] else "FAILED"
        print(f"{workload}: check {c['name']} {c['value']:.3e} (limit {c['limit']:.3e}) "
              f"{verdict}", file=sys.stderr)
    missing = REQUIRED_CHECKS[workload] - {c["name"] for c in report["checks"]}
    if missing:
        print(f"{workload}: checks not run: {sorted(missing)}", file=sys.stderr)
    checked = all(c["ok"] for c in report["checks"]) and not missing
    last = report["solves"][-1]
    same = [all(s[k] == last[k] for k in ("digest", "cycles", "updates"))
            for s in report["solves"]]
    if not all(same):
        print(f"{workload}: solves end on different iterates", file=sys.stderr)
    return [checked and ok and s["status"] == 0 for ok, s in zip(same, report["solves"])]


def end_to_end(report: dict, ok: list[bool]) -> dict:
    """Time per solve averaged over the run's correct solves (the run's
    solving time over its solve count), the median set-up sample, the CSV
    counts and the peak resident size.  The first solve warms the process
    up and is left out of the average when later solves follow."""
    pairs = list(zip(report["solves"], ok))
    solves = ([s for s, good in pairs[1:] if good]
              or [s for s, good in pairs if good])
    solve_s = statistics.fmean(s["solve_s"] for s in solves)
    return {
        "total_s": statistics.fmean(s["total_s"] for s in solves),
        "setup_s": statistics.median(report["setups"]),
        "solve_s": solve_s,
        "cycles": solves[0]["cycles"],
        "updates": solves[0]["updates"],
        "ns_per_update": solve_s * 1e9 / solves[0]["updates"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(workload: str, traced: dict, untraced: dict) -> dict:
    spans = traced["spans"]
    silent = sorted(s for s in EXPECTED_SPANS[workload] if spans[s]["calls"] == 0)
    if silent:
        raise BenchError(f"{workload}: spans recorded no calls: {', '.join(silent)}")
    metrics = {}
    for span, fields in spans.items():
        for field, value in fields.items():
            metrics[f"{span}.{field}"] = (value, SPAN_UNITS[field])
    run = spans["bench.run"]
    metrics["trace.coverage"] = (100.0 * (1.0 - run["self_s"] / run["total_s"]), "%")
    metrics["trace.overhead_s"] = (traced["solves"][0]["total_s"]
                                   - untraced["solves"][0]["total_s"], "s")
    return metrics


def run_workload(workload: str, seconds: float, trace: bool, quick: bool) -> dict:
    """Solves counted as attempted and failed.  A solve fails when the
    solver does not finish converged or when it is not correct; an
    incorrect solve also makes the run incorrect."""
    attempted = failed = 0
    correct = True

    def one(traced: bool, seconds: float) -> tuple[dict, list[bool]]:
        nonlocal attempted, failed, correct
        report = worker(workload, quick, traced, seconds)
        ok = judge(workload, report)
        attempted += len(ok)
        failed += ok.count(False)
        correct = correct and all(good or s["status"] != 0
                                  for good, s in zip(ok, report["solves"]))
        for n, s in enumerate(report["solves"], 1):
            print(f"{workload}: solve {n}: setup_s {s['setup_s']:.6g} s, "
                  f"solve_s {s['solve_s']:.6g} s", file=sys.stderr)
        if not any(ok):
            raise BenchError(f"{workload}: no solve succeeded")
        return report, ok

    if trace:
        RESULTS.mkdir(exist_ok=True)
        untraced, _ = one(False, 0.0)
        traced, _ = one(True, 0.0)
        metrics = per_layer(workload, traced, untraced)
    else:
        report, ok = one(False, min(seconds, RUN_LIMIT_S))
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(report, ok).items()}
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name} = {value:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the workloads take no random input")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload at small size, one solve each")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treemg" / "__init__.py").is_file():
        print(f"no treemg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" or args.quick else [args.workload]
    seconds = 0.0 if args.quick else args.seconds
    try:
        results = [run_workload(n, seconds, bool(args.trace), args.quick) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[0]))
        return 0
    for name, result in zip(names, results):
        print(name, json.dumps(result))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}.{key}": m for name, r in zip(names, results)
                    for key, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
