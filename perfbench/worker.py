"""The solves of one benchmark run in a fresh process, then the checks.

Usage: python3 perfbench/worker.py '<json spec>'   (run.py builds the spec)

The spec holds the treemg.bench.ExperimentConfig fields of the workload,
the run's seconds, whether to trace, and where to write the trace.  treemg
must be importable (run.py puts the checkout's src/ on PYTHONPATH).
Untraced, solves follow each other while the next one is expected to end
within the run's seconds, each followed by one set-up sample; traced, the
process makes one solve.  The correctness checks run once, on the last
solve.  The last line of standard output is one JSON object with every
solve's timings, CSV counts and digest of the final iterate, the set-up
samples, the peak resident size after the first solve and the outcome of
every check that ran.

Timing is taken from outside the program: bench.run is entered at t0, the
engine's constructor returning marks the end of set-up (the run loop only
builds a RefinePolicy between it and the first cycle), and bench.run
returning ends the solve.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time

import numpy as np


class SetupDone(Exception):
    """Raised by the engine constructor wrapper to stop a set-up sample."""


def capture(bench, seen: dict) -> None:
    """Wrap the names bench.run looks up for the tree and the engine."""
    build_regular = bench.build_regular

    def build_and_keep(*args, **kwargs):
        seen["tree"] = build_regular(*args, **kwargs)
        return seen["tree"]

    bench.build_regular = build_and_keep
    for name in ("ReferenceEngine", "PipelineEngine"):
        def construct(*args, _cls=getattr(bench, name), **kwargs):
            engine = _cls(*args, **kwargs)
            seen["setup_end"] = time.perf_counter()
            seen["engine"] = engine
            if seen.get("setup_only"):
                raise SetupDone
            return engine

        setattr(bench, name, construct)


def parse_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def check(name: str, value: float, limit: float, ok: bool) -> dict:
    return {"name": name, "value": value, "limit": limit, "ok": bool(ok)}


def run_checks(cfg, rows: list[dict], tree, levels) -> list[dict]:
    """Checks (a)-(e) of the README against the benchmark's own sparse
    assembly and direct solves.  levels maps each level to the final
    iterate's vertex values."""
    import checks as C

    refined = tree.refined
    depth = max((l + 1 for l in range(len(refined)) if refined[l].any()), default=0)
    regular = C.regular_depth(refined, depth)
    comp = C.composite_values(refined, levels, cfg.lmin, depth)
    out = []

    if regular:  # (a) finest-level residual of the Q1 system
        r, _ = C.residual_norms(C.assemble(cfg.setup, cfg.k, depth), levels[depth], depth)
        # the run's target is relative to the h-weighted residual of its
        # first iterate, on the mesh it started from: AMR runs start from
        # the regular two-level mesh and keep that denominator as they grow
        start = min(2, cfg.lmax) if cfg.amr else depth
        u0 = C.boundary_data(start)
        _, r0 = C.residual_norms(C.assemble(cfg.setup, cfg.k, start), u0, start)
        rel = (r * 3.0**-depth) / (r0 * 3.0**-start)
        out.append(check("a_residual", rel, cfg.target, rel <= cfg.target))

    # (b) discrete maximum principle on every composite value
    vals = np.concatenate([u[own] for own, u in comp.values()])
    spill = max(0.0, -float(vals.min()), float(vals.max()) - 1.0)
    out.append(check("b_max_principle", spill, 1e-6, spill <= 1e-6))

    if regular:  # (c) adafac-jac updates per cycle on the final mesh
        last_regrid = max((n for n, row in enumerate(rows) if row["regridded"] == "1"),
                          default=0)
        cum = [int(row["updates_cumulative"]) for row in rows[last_regrid:]]
        steps = set(np.diff(cum).tolist())
        want = C.updates_per_cycle(cfg.lmin, depth)
        out.append(check("c_updates_per_cycle", len(steps), 1,
                         len(cum) > 1 and steps == {want}))

    if cfg.amr:  # (d) against direct solves one and two levels below lmax
        fine = C.direct_solve(cfg.setup, cfg.k, cfg.lmax - 1)
        coarse = C.direct_solve(cfg.setup, cfg.k, cfg.lmax - 2)
        tol = C.rms(fine[::3, ::3] - coarse)
        err = C.rms(C.composite_minus_level(comp, fine, cfg.lmax - 1))
        out.append(check("d_amr_vs_direct", err, tol, err <= tol))

    if cfg.engine == "pipelined":  # (e) against the direct solve of its own system
        exact = C.direct_solve(cfg.setup, cfg.k, depth)
        inner = C.interior_mask(depth)
        err = float(np.linalg.norm((levels[depth] - exact)[inner]))
        _, r0 = C.residual_norms(C.assemble(cfg.setup, cfg.k, depth), exact, depth)
        # a residual at the target bounds the error by ||A^-1|| * target * ||r0||
        tol = C.inverse_norm(cfg.setup, cfg.k, depth) * cfg.target * r0
        out.append(check("e_pipelined_vs_direct", err, tol, err <= tol))
    return out


def one_solve(bench, cfg, seen: dict, tracer) -> dict:
    """bench.run once, timed from outside, with the CSV counts and a digest
    of the final iterate.  Leaves the CSV rows, the final tree and its
    iterate in seen for the checks."""
    if tracer:
        tracer.enabled = True
    t0 = time.perf_counter()
    result = bench.run(cfg)
    t1 = time.perf_counter()
    csv = io.StringIO()
    bench.write_csv(result, csv)
    if tracer:
        tracer.enabled = False
    seen.setdefault("peak_rss_mb",
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    rows = parse_csv(csv.getvalue())
    if cfg.engine == "pipelined":
        # the last cycle's corrections are still bookmarked; one more sweep
        # makes its iterate readable
        seen["engine"].advance(capture_iterate=True)
        levels = seen["engine"].last_snapshot
    else:
        levels = {l: seen["tree"].u[l] for l in range(cfg.lmin, len(seen["tree"].u))}
    digest = hashlib.sha256()
    for l in sorted(levels):
        digest.update(levels[l].tobytes())
    seen["rows"], seen["levels"], seen["final_tree"] = rows, levels, seen["tree"]
    return {
        "status": result.status,
        "cycles": int(rows[-1]["cycle"]),
        "updates": int(rows[-1]["updates_cumulative"]),
        "setup_s": seen["setup_end"] - t0,
        "solve_s": t1 - seen["setup_end"],
        "total_s": t1 - t0,
        "digest": digest.hexdigest(),
    }


def setup_sample(bench, cfg, seen: dict) -> float:
    """Time bench.run up to the end of engine construction."""
    seen["setup_only"] = True
    t0 = time.perf_counter()
    try:
        bench.run(cfg)
    except SetupDone:
        pass
    seen["setup_only"] = False
    return seen["setup_end"] - t0


def main() -> int:
    spec = json.loads(sys.argv[1])
    import treemg.bench as bench

    seen: dict = {}
    capture(bench, seen)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = bench.ExperimentConfig(**spec["config"])

    # Solves follow each other while the next one is expected to end within
    # the run's seconds (at least one); each is followed by one set-up sample.
    solves: list[dict] = []
    setups: list[float] = []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        solves.append(one_solve(bench, cfg, seen, tracer))
        setups.append(solves[-1]["setup_s"])
        if not tracer:
            setups.append(setup_sample(bench, cfg, seen))
        now = time.perf_counter()
        if tracer or now - started + (now - t) > spec["seconds"]:
            break

    out = {"solves": solves, "setups": setups, "peak_rss_mb": seen["peak_rss_mb"],
           "checks": run_checks(cfg, seen["rows"], seen["final_tree"], seen["levels"])}
    if tracer:
        out["spans"] = tracer.summary()
        with open(spec["trace_out"], "w") as fh:
            json.dump({"spans": out["spans"], "events": tracer.events}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
