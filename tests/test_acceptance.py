"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The deep-mesh runs
(criteria 3-5) dominate the runtime; everything else is seconds.  Where a
criterion leaves the operationalization open, the docstring of its test
states the measurement precisely.
"""

import numpy as np
import pytest

from treemg.bench import ExperimentConfig, count_updates, regular_level_dofs, run
from treemg.discretization import constant_field
from treemg.operators import geometric_prolongation, smoothed_restriction_table
from treemg.oracle import DenseHierarchy, dense_cycle, eq5_difference, exact_solve
from treemg.pipeline import PipelineEngine
from treemg.solvers import ReferenceEngine, SolverConfig
from treemg.spacetree import build_regular

POISSON = constant_field(1.0)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def drive(levels, variant, cycles, flavor="geometric", field=POISSON, seed=None,
          lmax=None, **cfg_kw):
    tree = build_regular(levels, lmax=lmax, field=field)
    eng = ReferenceEngine(tree, SolverConfig(variant=variant, flavor=flavor, **cfg_kw))
    if seed is not None:
        rng = np.random.default_rng(seed)
        m = tree.dof_mask(levels)
        tree.u[levels][m] += rng.standard_normal(int(m.sum()))
        eng.update_fas_state()
    norms = [eng.advance().l2h for _ in range(cycles)]
    return tree, eng, np.array(norms)


def tail_rate(norms, window=8):
    tail = norms[-window:]
    return (tail[-1] / tail[0]) ** (1.0 / (len(tail) - 1))


# -- 1: flavour consistency ---------------------------------------------------

def test_criterion_1_flavor_consistency():
    """BoxMG and geometric flavours produce identical iterates (<= 1e-12
    componentwise) for both damped variants on regular unit-coefficient
    grids up to lmax = 4."""
    worst = 0.0
    for variant in ("adafac-pi", "adafac-jac"):
        for levels in (2, 3, 4):
            iterates = {}
            for flavor in ("geometric", "boxmg"):
                tree = build_regular(levels, field=POISSON)
                eng = ReferenceEngine(tree, SolverConfig(variant=variant, flavor=flavor))
                for _ in range(8):
                    eng.advance()
                iterates[flavor] = tree.u[levels].copy()
            diff = float(np.abs(iterates["geometric"] - iterates["boxmg"]).max())
            worst = max(worst, diff)
            assert diff <= 1e-12, (variant, levels, diff)
    report(1, f"geometric == boxmg iterates for adafac-pi/jac, lmax 2..4; "
              f"max componentwise diff {worst:.2e} <= 1e-12")


# -- 2: printed smoothed-restriction stencil ----------------------------------

PRINTED = np.array([
    [-0.0139, -0.0417, -0.0833, -0.0972, -0.0833, -0.0417, -0.0139],
    [-0.0417, 0.0, 0.0, 0.0833, 0.0, 0.0, -0.0417],
    [-0.0833, 0.0, 0.0, 0.167, 0.0, 0.0, -0.0833],
    [-0.0972, 0.0833, 0.167, 0.444444444, 0.167, 0.0833, -0.0972],
    [-0.0833, 0.0, 0.0, 0.167, 0.0, 0.0, -0.0833],
    [-0.0417, 0.0, 0.0, 0.0833, 0.0, 0.0, -0.0417],
    [-0.0139, -0.0417, -0.0833, -0.0972, -0.0833, -0.0417, -0.0139],
])


def test_criterion_2_printed_stencil():
    """The smoothed restriction for unit coefficients and omega = 1 matches
    the published 7x7 table at every entry to three significant digits,
    before truncation changes anything.  The untruncated stencil is the row
    of coarse vertex (4, 4) in the dense oracle's omega R A diag(A)^-1 on
    levels 2 -> 3; the engines' geometric omega = 1 stencil is its truncation."""
    h = DenseHierarchy(2, 3, POISSON, omega=1.0)
    row = h.rt[2][h.levels[2].idx(4, 4)].reshape(28, 28)
    window = row[8:17, 8:17].copy()  # fine offsets -4..4 around fine vertex (12, 12)
    row[8:17, 8:17] = 0.0
    assert not row.any()
    assert np.abs(window[0, :]).max() == 0.0 and np.abs(window[-1, :]).max() == 0.0
    assert np.abs(window[:, 0]).max() == 0.0 and np.abs(window[:, -1]).max() == 0.0
    got = window[1:-1, 1:-1]
    assert np.abs(smoothed_restriction_table(geometric_prolongation(), 1.0) - got).max() <= 1e-15
    for i in range(7):
        for j in range(7):
            want = PRINTED[i, j]
            if want == 0.0:
                assert abs(got[i, j]) < 1e-12
            else:
                # half a unit in the last of three significant digits
                tol = 0.5 * 10.0 ** (np.floor(np.log10(abs(want))) - 2.0)
                assert abs(got[i, j] - want) <= tol, (i, j, got[i, j], want)
    report(2, "smoothed restriction matches the printed 7x7 stencil to 3 "
              f"significant digits everywhere; centre {got[3, 3]:.9f}")


# -- 3 & 4 fixtures: deep-grid runs -------------------------------------------

@pytest.fixture(scope="module")
def deep_runs():
    """Shared deep-grid measurements for criteria 3 and 4."""
    data = {}
    # adAFAC rates, lmax 2..7 (short windows reach the plateau; rates are
    # level-independent for these variants)
    for variant in ("adafac-pi", "adafac-jac"):
        rates = {}
        for levels in range(2, 8):
            cycles = 40 if levels <= 5 else 16
            _, _, norms = drive(levels, variant, cycles, seed=3)
            rates[levels] = tail_rate(norms)
        data[variant] = rates
    # plain additive: converges at 2..6, deteriorates at 7
    add_rates = {}
    for levels in range(2, 7):
        cycles = 60 if levels == 6 else 40
        _, _, norms = drive(levels, "additive", cycles, seed=3)
        add_rates[levels] = tail_rate(norms)
        data.setdefault("additive_final", {})[levels] = norms[-1] / norms[0]
    _, _, norms7 = drive(7, "additive", 45, seed=3)
    add_rates[7] = tail_rate(norms7)
    data["additive"] = add_rates
    data["additive_norms7"] = norms7
    return data


@pytest.mark.slow
def test_criterion_3_additive_instability_vs_adafac_stability(deep_runs):
    """Plain additive converges with healthy contraction up to lmax = 6 and
    its performance suddenly deteriorates at lmax = 7 (contraction factor
    degraded to >= 0.92, at least 1.2x the adAFAC factor at the same
    depth); both damped variants converge for lmax in 2..7 with
    level-independent factors (max/min ratio <= 2).

    Measured per-cycle l2h ratios stay strictly below one at lmax = 7
    (0.94-0.95 asymptotically, against 0.75 for the damped variants), so
    the deterioration quoted by the criterion shows as a broken contraction
    plateau rather than a residual increase; rates 0.77/0.86/0.95 at
    lmax 5/6/7 extrapolate past 1.0 at depth 8.
    """
    add = deep_runs["additive"]
    for levels in range(2, 7):
        assert add[levels] <= 0.90, (levels, add[levels])
        assert deep_runs["additive_final"][levels] < 1e-3
    jac7 = deep_runs["adafac-jac"][7]
    assert add[7] >= 0.92
    assert add[7] >= 1.2 * jac7
    ratios = {}
    for variant in ("adafac-pi", "adafac-jac"):
        rates = deep_runs[variant]
        assert all(r < 0.9 for r in rates.values()), rates
        ratios[variant] = max(rates.values()) / min(rates.values())
        assert ratios[variant] <= 2.0
    report(3, "additive contracts at <=0.90/cycle through lmax=6 but degrades to "
              f"{add[7]:.3f} at lmax=7 (adafac-jac: {jac7:.3f}); adAFAC factor "
              f"spread over lmax 2..7: pi {ratios['adafac-pi']:.2f}x, "
              f"jac {ratios['adafac-jac']:.2f}x (<= 2)")


@pytest.fixture(scope="module")
def to_target_runs():
    """Cycle counts to 1e-6 at lmax = 7 for the exponential-damping
    comparison."""
    counts = {}
    for variant in ("additive-exp", "adafac-jac"):
        cfg = ExperimentConfig(setup="poisson", variant=variant, lmax=7,
                               target=1e-6, max_cycles=260)
        res = run(cfg)
        counts[variant] = (res.status, res.reports[-1].cycle)
    return counts


@pytest.mark.slow
def test_criterion_4_exponential_damping_tradeoff(to_target_runs):
    """Exponentially damped additive multigrid (base 0.7) stays stable at
    lmax = 7 but needs at least 1.5x the cycles of adafac-jac to push the
    normalized residual to 1e-6."""
    status_exp, n_exp = to_target_runs["additive-exp"]
    status_jac, n_jac = to_target_runs["adafac-jac"]
    assert status_exp == 0, "exponential damping failed to reach 1e-6"
    assert status_jac == 0
    assert n_exp >= 1.5 * n_jac, (n_exp, n_jac)
    report(4, f"additive-exp stable at lmax=7, {n_exp} cycles to 1e-6 vs "
              f"adafac-jac {n_jac} ({n_exp / n_jac:.2f}x >= 1.5x)")


# -- 5: jump robustness with AMR ----------------------------------------------

def _amr_outcome(**kw):
    res = run(ExperimentConfig(setup="half-jump", amr=True, target=1e-8, **kw))
    return res.status


@pytest.mark.slow
def test_criterion_5_jump_robustness():
    """With dynamic refinement: adafac-jac + geometric converges for every
    k in 1..5; plain additive + geometric diverges (normalized residual
    beyond 1e4) at depth 7; adafac-pi + geometric diverges for the largest
    jump but converges with the operator-dependent flavour for k <= 3."""
    for k in (1, 2, 3, 4, 5):
        status = _amr_outcome(k=k, variant="adafac-jac", flavor="geometric",
                              lmax=6, max_cycles=200)
        assert status == 0, f"adafac-jac geometric k={k} did not converge"
    add_status = _amr_outcome(k=1, variant="additive", flavor="geometric",
                              lmax=7, max_cycles=150)
    assert add_status == 3, "plain additive should diverge at depth 7"
    pi_status = _amr_outcome(k=5, variant="adafac-pi", flavor="geometric",
                             lmax=6, max_cycles=200)
    assert pi_status == 3, "adafac-pi geometric should diverge at k=5"
    for k in (1, 2, 3):
        status = _amr_outcome(k=k, variant="adafac-pi", flavor="boxmg",
                              lmax=5, max_cycles=200)
        assert status == 0, f"adafac-pi boxmg k={k} did not converge"
    report(5, "adafac-jac geometric converged for k=1..5; additive geometric "
              "diverged at depth 7; adafac-pi geometric diverged at k=5 and "
              "converged with boxmg for k<=3 (all with AMR)")


# -- 6: overshoot identity -----------------------------------------------------

def test_criterion_6_overshoot_identity():
    """On the two-grid unit-coefficient problem the difference between the
    multiplicative V(1,0) iterate and the additive iterate with exact
    coarse solve equals the dense overshoot formula to 1e-13."""
    h = DenseHierarchy(1, 2, POISSON)
    rng = np.random.default_rng(11)
    u = h.fine().boundary_vector()
    u[h.fine().interior] = rng.standard_normal(int(h.fine().interior.sum()))
    diff = dense_cycle(h, "multiplicative-v10", u) - dense_cycle(h, "additive-exact-coarse", u)
    want = eq5_difference(h, u)
    err = float(np.abs(diff - want).max())
    assert err <= 1e-13
    # and the engine's multiplicative cycle is the dense one
    tree = build_regular(2, field=POISSON)
    tree.u[2][:, :] = u.reshape(tree.u[2].shape)
    eng = ReferenceEngine(tree, SolverConfig(variant="multiplicative-v10"))
    eng.update_fas_state()
    eng.advance()
    eng_err = float(np.abs(tree.u[2].reshape(-1) - dense_cycle(h, "multiplicative-v10", u)).max())
    assert eng_err <= 1e-12
    report(6, f"V(1,0) minus exact-coarse additive equals the overshoot term "
              f"(max dev {err:.2e} <= 1e-13; engine matches dense to {eng_err:.2e})")


# -- 7: engine equivalence ------------------------------------------------------

def test_criterion_7_engine_equivalence():
    """The single-touch engine reproduces the reference iterates
    componentwise to 1e-12 over 20+ cycles for all three supported
    variants on regular and adaptive-steady meshes; each sweep loads and
    stores every persistent vertex exactly once; n cycles need n+1
    sweeps."""
    worst = 0.0

    def paired(mk_tree, variant):
        nonlocal worst
        cfg = SolverConfig(variant=variant)
        tree_r, tree_p = mk_tree(), mk_tree()
        rng = np.random.default_rng(2)
        lt = tree_r.depth
        vals = rng.standard_normal(tree_r.u[lt].shape)
        for t in (tree_r, tree_p):
            m = t.dof_mask(lt)
            t.u[lt][m] += vals[m]
        ref = ReferenceEngine(tree_r, cfg)
        pipe = PipelineEngine(tree_p, cfg)
        ref.update_fas_state()
        pipe.update_fas_state()
        ref.advance()
        pipe.advance()
        sweeps = 1
        for n in range(1, 21):
            prev = {l: tree_r.u[l].copy() for l in range(1, ref.ltop + 1)}  # after n cycles
            ref.advance()
            pipe.advance(capture_iterate=True)
            sweeps += 1
            # n cycles take n + 1 sweeps: this sweep's snapshot is compared
            # with the reference iterate after n cycles
            assert sweeps == n + 1
            for l in range(1, ref.ltop + 1):
                mask = ref.masks[l]["exists"]
                diff = float(np.abs(pipe.last_snapshot[l] - prev[l])[mask].max())
                worst = max(worst, diff)
                assert diff <= 1e-12, (variant, l, diff)

    def regular():
        return build_regular(3, field=POISSON)

    def adaptive():
        t = build_regular(2, lmax=3, field=POISSON)
        marks = [np.zeros_like(r) for r in t.refined]
        marks[2][:, 0] = marks[2][4, 4] = True  # the bottom row and cell (4, 4)
        t.refine_many(marks)
        return t

    for variant in ("additive", "adafac-pi", "adafac-jac"):
        paired(regular, variant)
        paired(adaptive, variant)

    tree = build_regular(2, field=POISSON)
    eng = PipelineEngine(tree, SolverConfig(variant="adafac-jac"))
    eng.advance(count_touches=True)
    assert eng.last_counters.max_load_count() == 1
    assert max(eng.last_counters.stores.values()) == 1
    report(7, f"pipelined == reference over 20 cycles x 3 variants x 2 meshes "
              f"(max componentwise dev {worst:.2e} <= 1e-12); single-touch "
              "load/store counts == 1; n cycles take n+1 sweeps")


# -- 8: oracle equivalence -------------------------------------------------------

def test_criterion_8_oracle_equivalence():
    """Every solver variant matches its dense-matrix transcription on the
    regular two-grid problem to 1e-12."""
    worst = 0.0
    h = DenseHierarchy(1, 2, POISSON)
    rng = np.random.default_rng(4)
    for variant in ("additive", "additive-exp", "bpx", "afacc",
                    "adafac-pi", "adafac-jac", "multiplicative-v10"):
        tree = build_regular(2, field=POISSON)
        m = tree.dof_mask(2)
        tree.u[2][m] += rng.standard_normal(int(m.sum()))
        eng = ReferenceEngine(tree, SolverConfig(variant=variant))
        eng.update_fas_state()
        u0 = tree.u[2].reshape(-1).copy()
        want = dense_cycle(h, variant, u0)
        eng.advance()
        diff = float(np.abs(tree.u[2].reshape(-1) - want).max())
        worst = max(worst, diff)
        assert diff <= 1e-12, (variant, diff)
    report(8, f"all seven variants match their dense transcriptions on the "
              f"two-grid problem (max dev {worst:.2e} <= 1e-12)")


# -- 9: update counting -----------------------------------------------------------

def test_criterion_9_update_counting():
    """One fine-level sweep of the virtual lmax = 8 regular mesh updates
    exactly (3^8 - 1)^2 = 43,033,600 unknowns; forty cycles counting the
    coarse levels cost more than 1e9 updates."""
    dofs = regular_level_dofs(1, 8)
    fine_only = count_updates({**{l: 0 for l in range(1, 8)}, 8: dofs[8]},
                              "additive", 1, 8)
    assert fine_only == 43033600 == (3**8 - 1) ** 2
    assert 40 * count_updates(dofs, "additive", 1, 8) > 1e9
    report(9, "fine-level sweep at virtual lmax=8 counts 43,033,600 updates; "
              "40 cycles exceed 1e9 including coarse levels")


# -- 10: solution agreement ---------------------------------------------------------

def test_criterion_10_solution_agreement():
    """Variants that reach normalized residual 1e-10 on the same mesh agree
    pointwise to 1e-8; they are solvers, not preconditioners."""
    solutions = {}
    for variant in ("additive", "additive-exp", "afacc", "adafac-pi", "adafac-jac", "bpx"):
        cfg = ExperimentConfig(setup="poisson", variant=variant, lmax=3,
                               target=1e-10, max_cycles=400)
        tree = build_regular(3, field=POISSON)
        eng = ReferenceEngine(tree, cfg.solver_config())
        r0 = None
        for _ in range(cfg.max_cycles):
            stats = eng.advance()
            r0 = r0 or stats.l2h
            if stats.l2h <= 1e-10 * r0:
                solutions[variant] = tree.u[3].copy()
                break
    assert len(solutions) >= 4, f"too few variants converged: {sorted(solutions)}"
    names = sorted(solutions)
    worst = 0.0
    for a in names:
        for b in names:
            if a < b:
                diff = float(np.abs(solutions[a] - solutions[b]).max())
                worst = max(worst, diff)
                assert diff <= 1e-8, (a, b, diff)
    u_star = exact_solve(DenseHierarchy(1, 3, POISSON).fine())
    any_u = solutions["adafac-jac"].reshape(-1)
    assert float(np.abs(any_u - u_star).max()) < 1e-7
    report(10, f"{len(names)} converging variants agree pairwise to "
               f"{worst:.2e} <= 1e-8 and match the exact discrete solution")
