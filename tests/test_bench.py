import importlib.util
import io
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import treemg.bench as bench
from treemg.bench import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    count_updates,
    make_field,
    normalized_residuals,
    regular_level_dofs,
    run,
    write_csv,
)
from treemg.cli import config_from_sources, main, parse_args


def test_normalized_residuals_basics():
    assert normalized_residuals(2.0, 3.0, (2.0, 3.0)) == (1.0, 1.0)
    assert normalized_residuals(1.0, 1.5, (2.0, 3.0)) == (0.5, 0.5)
    assert normalized_residuals(0.0, 0.0, (0.0, 0.0)) == (0.0, 0.0)


def test_count_updates_formula():
    dofs = regular_level_dofs(1, 8)
    assert dofs[8] == (3**8 - 1) ** 2 == 43033600
    fine_only = count_updates({8: dofs[8]} | {l: 0 for l in range(1, 8)}, "additive", 1, 8)
    assert fine_only == 43033600
    # forty cycles counting the coarse levels exceed 1e9 updates
    per_cycle = count_updates(dofs, "additive", 1, 8)
    assert 40 * per_cycle > 1e9
    # tiny mesh: lone level-1 grid has 4 updates per cycle
    assert count_updates({1: 4}, "additive", 1, 1) == 4
    # damping equations: one per coarse level (jac), one per damped level (pi)
    d = regular_level_dofs(1, 3)
    assert count_updates(d, "adafac-jac", 1, 3) == sum(d.values()) + d[1] + d[2]
    assert count_updates(d, "adafac-pi", 1, 3) == sum(d.values()) + d[2] + d[3]


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="setup"):
        ExperimentConfig(setup="cube").validate()
    with pytest.raises(ConfigError, match="k must"):
        ExperimentConfig(setup="half-jump", k=9).validate()
    with pytest.raises(ConfigError, match="variant"):
        ExperimentConfig(variant="gauss-seidel").validate()
    with pytest.raises(ConfigError, match="engine"):
        ExperimentConfig(engine="gpu").validate()
    with pytest.raises(ConfigError, match="pipelined"):
        ExperimentConfig(engine="pipelined", variant="bpx").validate()
    with pytest.raises(ConfigError, match="omega"):
        ExperimentConfig(omega=1.5).validate()


def test_run_converges_and_reports():
    cfg = ExperimentConfig(setup="poisson", variant="adafac-jac", lmax=3, target=1e-8)
    res = run(cfg)
    assert res.converged
    first, last = res.reports[0], res.reports[-1]
    assert first.cycle == 0 and first.res_l2h == 1.0 and first.res_linf == 1.0
    assert last.res_l2h <= 1e-8
    assert first.updates_cumulative == 0
    ups = [r.updates_cumulative for r in res.reports]
    assert all(b > a for a, b in zip(ups, ups[1:]))
    assert first.dofs == (3**3 - 1) ** 2


def test_run_hits_cycle_budget():
    cfg = ExperimentConfig(setup="poisson", variant="additive", lmax=2, target=1e-30,
                           max_cycles=5)
    res = run(cfg)
    assert res.status == 2
    assert len(res.reports) == 6


def test_csv_schema_golden():
    cfg = ExperimentConfig(setup="poisson", variant="additive", lmax=2, max_cycles=2,
                           target=1e-30)
    res = run(cfg)
    buf = io.StringIO()
    write_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER == "cycle,res_l2h,res_linf,dofs,updates_cumulative,regridded"
    assert lines[1].startswith("0,1.000000000000e+00,1.000000000000e+00,64,0,0")
    assert len(lines) == 4


def test_run_is_reproducible():
    cfg = ExperimentConfig(setup="half-jump", k=2, variant="adafac-pi", lmax=3,
                           max_cycles=12, target=1e-30)
    a = run(cfg)
    b = run(cfg)
    for ra, rb in zip(a.reports, b.reports):
        assert ra.res_l2h == rb.res_l2h
        assert ra.res_linf == rb.res_linf


def test_engines_report_identical_residual_columns():
    common = dict(setup="poisson", variant="adafac-jac", lmax=2, max_cycles=8,
                  target=1e-30)
    ref = run(ExperimentConfig(engine="reference", **common))
    pipe = run(ExperimentConfig(engine="pipelined", **common))
    for a, b in zip(ref.reports, pipe.reports):
        assert a.res_l2h == pytest.approx(b.res_l2h, rel=1e-10, abs=1e-12)
        assert a.res_linf == pytest.approx(b.res_linf, rel=1e-10, abs=1e-12)


def test_amr_run_grows_mesh_and_tolerates_bumps():
    cfg = ExperimentConfig(setup="poisson", variant="adafac-jac", lmax=4, amr=True,
                           max_cycles=60, target=1e-7)
    res = run(cfg)
    assert res.converged
    dofs = [r.dofs for r in res.reports]
    assert dofs[-1] > dofs[0]
    assert any(r.regridded for r in res.reports)
    # the mesh grew mid-run and the harness carried residual curves through
    # without treating any transient growth as failure
    assert res.reports[-1].res_l2h <= 1e-7


def test_eventual_monotonicity_on_static_mesh():
    cfg = ExperimentConfig(setup="poisson", variant="adafac-pi", lmax=3,
                           max_cycles=40, target=1e-30)
    res = run(cfg)
    l2 = [r.res_l2h for r in res.reports]
    assert all(b <= a for a, b in zip(l2[5:], l2[6:]))


def test_cli_round_trip(tmp_path):
    out = tmp_path / "run.csv"
    rc = main([
        "--setup", "poisson", "--variant", "adafac-jac", "--lmax", "3",
        "--target", "1e-8", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert float(lines[-1].split(",")[1]) <= 1e-8


def test_cli_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("setup=half-jump\nk=2\nvariant=adafac-pi\nlmax=2\n"
                       "max_cycles=4\ntarget=1e-30\namr=off\n# comment\n")
    args = parse_args(["--config", str(cfgfile), "--k", "3"])
    cfg = config_from_sources(args)
    assert cfg.setup == "half-jump"
    assert cfg.k == 3  # flag wins
    assert cfg.max_cycles == 4


@pytest.mark.parametrize("content", [b"setup=torus\n", b"lmax = 3\n\xff\xfe bad\n"],
                         ids=["bad-value", "not-utf8"])
def test_cli_rejects_bad_config(tmp_path, capsys, content):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(content)
    rc = main(["--config", str(cfgfile)])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ")


@pytest.mark.parametrize("argv", [
    ["--boundary-cadence", "0"],
    ["--decile", "1.5"],
    ["--amr", "on", "--lmin", "3", "--lmax", "4"],
    ["--divergence", "-1"],
    ["--setup", "foo"],
    ["--k", "abc"],
    ["--amr", "maybe"],
    ["--bogus", "1"],
    ["--config", "/nonexistent.cfg"],
    ["--out", "/nonexistent/dir/x.csv"],
    ["--target", "nan"],
])
def test_cli_rejects_bad_amr_and_divergence(argv, capsys):
    rc = main(argv + ["--max-cycles", "1"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ")


def test_memory_estimate_rejects_oversized_runs(monkeypatch, capsys):
    # validation only: no test may start a solve above lmax 7
    monkeypatch.setattr(bench, "physical_memory", lambda: 8 * 2**30)
    ExperimentConfig(lmax=7).validate()
    for lmax in (9, 10**6):
        with pytest.raises(ConfigError, match=f"lmax {lmax} needs about"):
            ExperimentConfig(lmax=lmax).validate()
    # the two-grid reference adds a dense matrix and its inverse, 16 m^2
    # bytes for the m = (3**lmin - 1)**2 coarse unknowns
    ExperimentConfig(variant="multiplicative-v10", lmin=4, lmax=5).validate()
    with pytest.raises(ConfigError, match="lmax 6 with multiplicative-v10 at lmin 5 "
                                          "needs about 51.2 GiB"):
        ExperimentConfig(variant="multiplicative-v10", lmin=5, lmax=6).validate()
    # boxmg and the pipelined engine have estimates of their own; a run
    # that got past validation would fail the test instead of starting
    monkeypatch.setattr("treemg.cli.run", lambda cfg: pytest.fail(f"started {cfg}"))
    for argv, sized in ((["--flavor", "boxmg", "--lmax", "8"], "lmax 8 with boxmg"),
                        (["--engine", "pipelined", "--lmax", "7"],
                         "lmax 7 with the pipelined engine")):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"configuration error: {sized} needs about")
    ExperimentConfig(flavor="boxmg", lmax=7).validate()
    ExperimentConfig(engine="pipelined", lmax=6).validate()
    monkeypatch.setattr(bench, "physical_memory", lambda: 2**19)
    rc = main(["--lmax", "4", "--max-cycles", "1"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: lmax 4 needs about")


@pytest.mark.parametrize("engine, flavor, lmax, per_vertex", [
    ("reference", "geometric", 5, bench.BYTES_PER_FINEST_VERTEX),
    ("reference", "boxmg", 5, bench.BOXMG_BYTES_PER_FINEST_VERTEX),
    ("pipelined", "geometric", 3, bench.PIPELINED_BYTES_PER_FINEST_VERTEX),
    ("pipelined", "boxmg", 3, bench.PIPELINED_BYTES_PER_FINEST_VERTEX),
    ("pipelined", "geometric", 4, bench.PIPELINED_BYTES_PER_FINEST_VERTEX),
])
def test_memory_estimate_covers_the_measured_peak(engine, flavor, lmax, per_vertex):
    """The traced peak of set-up and two cycles stays under the estimate
    that validate uses for the run."""
    cfg = ExperimentConfig(setup="half-jump", k=3, engine=engine, flavor=flavor,
                           lmax=lmax, max_cycles=2)
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (3**lmax + 1) ** 2 < per_vertex


def test_boxmg_peak_over_a_whole_solve_stays_below_140_bytes_per_finest_vertex():
    """The traced peak of a boxmg half-jump k=3 solve at lmax 5, set-up and
    every cycle to convergence, stays below 140 B per finest vertex.  With
    a stored R~ table per coarse level and the finest stencil table
    assembled for the build of level lmax - 1 it was 177 B."""
    cfg = ExperimentConfig(setup="half-jump", k=3, flavor="boxmg", lmax=5)
    tracemalloc.start()
    try:
        result = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == bench.EXIT_CONVERGED and result.reports[-1].cycle == 68
    assert peak / (3**5 + 1) ** 2 < 140


def test_pipelined_peak_stays_below_1600_bytes_per_finest_vertex():
    """The traced peak of set-up and two sweeps of a pipelined half-jump
    k=3 run at lmax 4 stays below 1,600 B per finest vertex.  With a Python
    object of its own for every vertex id, row entry and leaf cell of the
    plan it was 3,134 B."""
    cfg = ExperimentConfig(setup="half-jump", k=3, engine="pipelined", lmax=4, max_cycles=2)
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (3**4 + 1) ** 2 < 1600


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--boundary-cadence" in capsys.readouterr().out


def test_cli_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("wibble=3\n")
    rc = main(["--config", str(cfgfile)])
    assert rc == 1


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treemg.cli", "--setup", "poisson", "--variant",
         "additive", "--lmax", "2", "--max-cycles", "3", "--target", "1e-30"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[0] == CSV_HEADER


def test_make_field_dispatch():
    assert make_field("poisson").variant == "constant"
    assert make_field("needle", 2).k == 2
    with pytest.raises(ConfigError):
        make_field("moebius")


def load_perfbench(name):
    """A perfbench module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_trace_spans_resolve():
    # perfbench/run.py --trace 1 wraps these places by name; a rename in src/
    # must fail here rather than leave a span without calls
    tracing = load_perfbench("tracing")
    places = [place for places, _ in tracing.SPANS.values() for place in places]
    assert places
    for place in places:
        owner, name = tracing._owner(place)
        assert callable(getattr(owner, name, None)), place


@pytest.mark.parametrize("workload", ["poisson-geo-l5", "jump-boxmg-l5", "jump-amr-l5",
                                      "jump-pipelined-l3"])
def test_perfbench_expected_spans_record_calls(workload, monkeypatch):
    # a place that resolves can still go silent, when its caller stops looking
    # the callee up by that name; perfbench/run.py --trace 1 then fails the
    # workload, and this quick-size run of it fails tier-1
    tracing, bench_run = load_perfbench("tracing"), load_perfbench("run")
    tracer = tracing.Tracer()
    for name, (places, dofs) in tracing.SPANS.items():
        for place in places:
            owner, attr = tracing._owner(place)
            monkeypatch.setattr(owner, attr, tracer._wrap(name, getattr(owner, attr), dofs))
    config = dict(bench_run.COMMON, **bench_run.WORKLOADS[workload])
    config["lmax"] = bench_run.QUICK_LMAX[workload]
    tracer.enabled = True
    bench.write_csv(bench.run(ExperimentConfig(**config)), io.StringIO())
    spans = tracer.summary()
    silent = sorted(s for s in bench_run.EXPECTED_SPANS[workload] if spans[s]["calls"] == 0)
    assert not silent, silent


def test_pipelined_run_calls_traverse_through_module_name(monkeypatch):
    # perfbench/run.py --trace 1 records the spacetree.traverse span by
    # wrapping treemg.pipeline.traverse; a compiler bound at import time or
    # renamed would leave that span without calls
    import treemg.pipeline

    calls = []
    compile_plan = treemg.pipeline.traverse

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_plan(*args, **kwargs)

    monkeypatch.setattr(treemg.pipeline, "traverse", counting)
    res = run(ExperimentConfig(setup="poisson", variant="adafac-jac", lmax=2,
                               engine="pipelined", max_cycles=3, target=1e-30))
    assert len(res.reports) == 4
    assert len(calls) >= 1
