import copy

import numpy as np
import pytest

import treemg.solvers
from treemg.discretization import constant_field, half_domain_jump, needle_inclusion
from treemg.oracle import DenseHierarchy, dense_cycle, exact_solve
from treemg.pipeline import PipelineEngine
from treemg.solvers import (
    PIPELINE_VARIANTS,
    VARIANTS,
    ReferenceEngine,
    SolverConfig,
    count_updates,
)
from treemg.spacetree import build_regular

POISSON = constant_field(1.0)


def make_engine(levels=2, field=POISSON, built=False, **cfg_kw):
    """A regular tree and its engine; built=True also builds every boxmg
    level, as the first ltop - lmin cycles otherwise do."""
    tree = build_regular(levels, field=field)
    cfg = SolverConfig(**cfg_kw)
    eng = ReferenceEngine(tree, cfg)
    while built and eng.build_stale_level():
        pass
    return tree, eng


def randomize(tree, eng, seed=0):
    rng = np.random.default_rng(seed)
    l1 = eng.ltop
    interior = tree.dof_mask(l1)
    tree.u[l1][interior] = rng.standard_normal(int(interior.sum()))
    eng.update_fas_state()


def fine_vec(tree, eng):
    return tree.u[eng.ltop].reshape(-1).copy()


@pytest.mark.parametrize("variant", ["additive", "additive-exp", "bpx", "afacc",
                                     "adafac-pi", "adafac-jac"])
def test_engine_matches_dense_transcription_two_grid(variant):
    tree, eng = make_engine(2, variant=variant)
    randomize(tree, eng, seed=5)
    h = DenseHierarchy(1, 2, POISSON)
    want = dense_cycle(h, variant, fine_vec(tree, eng))
    eng.advance()
    got = fine_vec(tree, eng)
    assert np.abs(got - want).max() < 1e-12


def test_engine_matches_dense_multiplicative():
    tree, eng = make_engine(2, variant="multiplicative-v10")
    randomize(tree, eng, seed=6)
    h = DenseHierarchy(1, 2, POISSON)
    want = dense_cycle(h, "multiplicative-v10", fine_vec(tree, eng))
    eng.advance()
    assert np.abs(fine_vec(tree, eng) - want).max() < 1e-12


@pytest.mark.parametrize("variant, flavor, field", [
    pytest.param(v, f, field, id="-".join(s for s in (v, f if f == "boxmg" else "", name) if s))
    for f, name, field in (("geometric", "", POISSON), ("boxmg", "", POISSON),
                           ("boxmg", "half-jump-k3", half_domain_jump(3)),
                           ("boxmg", "needle-k3", needle_inclusion(3)))
    for v in ("additive", "adafac-pi", "adafac-jac")])
def test_engine_matches_dense_three_grid(variant, flavor, field):
    tree, eng = make_engine(3, field=field, built=True, variant=variant, flavor=flavor)
    randomize(tree, eng, seed=7)
    h = DenseHierarchy(1, 3, field, flavor=flavor)
    want = dense_cycle(h, variant, fine_vec(tree, eng))
    eng.advance()
    assert np.abs(fine_vec(tree, eng) - want).max() < 1e-12


@pytest.mark.parametrize("variant", ["adafac-pi", "adafac-jac"])
def test_engine_boxmg_matches_dense_on_jump(variant):
    field = half_domain_jump(1)
    tree, eng = make_engine(2, field=field, built=True, variant=variant, flavor="boxmg")
    randomize(tree, eng, seed=8)
    h = DenseHierarchy(1, 2, field, flavor="boxmg")
    want = dense_cycle(h, variant, fine_vec(tree, eng))
    eng.advance()
    assert np.abs(fine_vec(tree, eng) - want).max() < 1e-12


def test_update_fas_state_bilinear_surplus_vanishes():
    tree, eng = make_engine(2)
    for l in (1, 2):
        n = 3**l
        x = np.linspace(0, 1, n + 1)[:, None]
        y = np.linspace(0, 1, n + 1)[None, :]
        tree.u[l][:, :] = 0.25 + x - 2 * y + 0.5 * x * y
    uh = tree.u[2] - eng.transfers[1].prolong(tree.u[1])
    assert np.abs(uh).max() < 1e-13


def test_hierarchical_residual_matches_dense():
    tree, eng = make_engine(2)
    randomize(tree, eng, seed=10)
    h = DenseHierarchy(1, 2, POISSON)
    u = fine_vec(tree, eng)
    nc = 3
    p = h.p[1]
    inj = h.injection(1)
    uhat = u - p @ (inj @ u)
    want = (-h.fine().a @ uhat)
    uh = tree.u[2] - eng.transfers[1].prolong(tree.u[1])
    got = np.where(tree.dof_mask(2), -eng.ops[2].apply(uh), 0.0)
    assert np.abs(got.reshape(-1) - want).max() < 1e-12


def test_injection_copies_fine_values():
    tree, eng = make_engine(2)
    randomize(tree, eng, seed=11)
    assert np.array_equal(tree.u[1][1:-1, 1:-1], tree.u[2][::3, ::3][1:-1, 1:-1])


@pytest.mark.parametrize("variant", ["additive", "additive-exp", "bpx", "afacc",
                                     "adafac-pi", "adafac-jac", "multiplicative-v10"])
def test_exact_solution_is_fixed_point(variant):
    tree, eng = make_engine(2, variant=variant)
    u_star = exact_solve(DenseHierarchy(1, 2, POISSON).fine())
    tree.u[2][:, :] = u_star.reshape(tree.u[2].shape)
    eng.update_fas_state()
    eng.advance()
    assert np.abs(fine_vec(tree, eng) - u_star).max() < 1e-14


@pytest.mark.parametrize("flavor", ["geometric", "boxmg"])
def test_fixed_point_on_jump_both_flavors(flavor):
    # coarse residuals formed from leaf cells keep the exact solution a
    # fixed point even where rediscretized coarse operators disagree with
    # the Galerkin ones
    field = half_domain_jump(2)
    tree, eng = make_engine(2, field=field, built=True, variant="adafac-jac", flavor=flavor)
    u_star = exact_solve(DenseHierarchy(1, 2, field).fine())
    tree.u[2][:, :] = u_star.reshape(tree.u[2].shape)
    eng.update_fas_state()
    eng.advance()
    assert np.abs(fine_vec(tree, eng) - u_star).max() < 1e-13


@pytest.mark.parametrize("flavor,field", [
    ("geometric", POISSON),
    ("boxmg", half_domain_jump(2)),
])
def test_restriction_equals_hierarchical_residual_under_galerkin(flavor, field):
    # wherever A_c = R A_f P holds, the correction-consistent right-hand
    # side equals the restricted hierarchical residual R(b - A u_hat); every
    # coarse DoF of a regular tree is overlapped, so its whole row enters
    tree, eng = make_engine(2, field=field, built=True, variant="additive", flavor=flavor)
    randomize(tree, eng, seed=21)
    op_f, op_c = eng.ops[2], eng.ops[1]
    dof_f = tree.dof_mask(2)
    rho_f = np.where(dof_f, -op_f.apply(tree.u[2]), 0.0)
    correction_consistent = eng.transfers[1].restrict(rho_f) + op_c.apply(tree.u[1])
    uh = tree.u[2] - eng.transfers[1].prolong(tree.u[1])
    rhat = np.where(dof_f, -op_f.apply(uh), 0.0)
    hierarchical = eng.transfers[1].restrict(rhat)
    dof_c = tree.dof_mask(1)
    assert np.abs((correction_consistent - hierarchical)[dof_c]).max() < 1e-11


@pytest.mark.parametrize("flavor", ["geometric", "boxmg"])
def test_coarse_residual_is_restricted_residual_on_regular_tree(flavor):
    # no level below the top of a regular tree has a leaf cell, so its
    # residual is exactly the restriction of the finer one
    tree, eng = make_engine(3, field=half_domain_jump(3), built=True, variant="additive",
                            flavor=flavor)
    randomize(tree, eng, seed=8)
    rho = dict(eng._residual_chain(eng._new_stats()))
    for l in range(tree.lmin, eng.ltop):
        want = np.where(eng.masks[l]["dof"], eng.transfers[l].restrict(rho[l + 1]), 0.0)
        assert np.array_equal(rho[l], want)


def test_deep_convergence_on_adaptive_mesh():
    # composite-grid consistency: residual keeps contracting to near
    # round-off on a static adaptive mesh (no stalling floor)
    tree = build_regular(2, lmax=3, field=half_domain_jump(2))
    marks = [np.zeros_like(r) for r in tree.refined]
    marks[2][:, 0] = marks[2][4, 4] = True  # the bottom row and cell (4, 4)
    tree.refine_many(marks)
    eng = ReferenceEngine(tree, SolverConfig(variant="adafac-jac"))
    eng.update_fas_state()
    norms = [eng.advance().l2h for _ in range(220)]
    assert norms[-1] < 1e-10 * norms[0]


def test_refinement_residual_change_is_local():
    tree = build_regular(2, lmax=3, field=POISSON)
    eng = ReferenceEngine(tree, SolverConfig(variant="additive"))
    for _ in range(60):
        eng.advance()
    # record the fine-level residual, refine one interior cell, re-measure
    op = eng.ops[2]
    rho_before = np.where(tree.dof_mask(2), -op.apply(tree.u[2]), 0.0)
    marks = [np.zeros_like(r) for r in tree.refined]
    marks[2][4, 4] = True
    tree.refine_many(marks)
    eng.rebuild()
    eng.update_fas_state()
    op = eng.ops[2]
    rho_after = np.where(tree.dof_mask(2), -op.apply(tree.u[2]), 0.0)
    change = np.abs(rho_after - rho_before)
    near = np.zeros_like(change, dtype=bool)
    near[1:9, 1:9] = True  # 7x7-ish neighbourhood of cell (4, 4) corners
    assert change[~near].max() < 1e-12


def test_dirichlet_values_never_change():
    tree, eng = make_engine(2, variant="adafac-jac")
    boundary = tree.vertex_kinds(2) == 2  # VertexKind.DIRICHLET
    before = tree.u[2][boundary].copy()
    for _ in range(5):
        eng.advance()
    assert np.array_equal(tree.u[2][boundary], before)


@pytest.mark.parametrize("variant", ["adafac-jac"])
def test_damping_off_reduces_bitwise_to_additive(variant):
    tree_a, eng_a = make_engine(3, variant="additive")
    tree_b, eng_b = make_engine(3, variant=variant)
    for tr in eng_b.transfers.values():
        tr.rtilde = np.zeros_like(tr.rtilde)
    randomize(tree_a, eng_a, seed=12)
    randomize(tree_b, eng_b, seed=12)
    for _ in range(3):
        eng_a.advance()
        eng_b.advance()
    assert np.array_equal(tree_a.u[3], tree_b.u[3])


def test_flavor_equality_on_poisson():
    # identical iterates from geometric and operator-dependent transfers
    results = {}
    for flavor in ("geometric", "boxmg"):
        tree, eng = make_engine(3, variant="adafac-jac", flavor=flavor)
        randomize(tree, eng, seed=13)
        for _ in range(5):
            eng.advance()
        results[flavor] = tree.u[3].copy()
    assert np.abs(results["geometric"] - results["boxmg"]).max() < 1e-12


ADDITIVE_VARIANTS = [v for v in VARIANTS if v != "multiplicative-v10"]


@pytest.mark.parametrize("state,variant,flavor", [("two-level", "additive", "geometric")] + [
    ("graded", v, f) for v in ADDITIVE_VARIANTS for f in ("geometric", "boxmg")])
def test_stats_residual_normalization_inputs(state, variant, flavor, graded):
    if state == "two-level":
        _, eng = make_engine(2, variant=variant, flavor=flavor)
    else:
        eng = ReferenceEngine(graded, SolverConfig(variant=variant, flavor=flavor))
    for _ in range(3):
        s0 = eng.residual_stats()
        # advance reports the residual of the state it started from
        assert eng.advance() == s0
    if state == "two-level":
        assert s0.dofs == 64
        # one fine + one coarse correction equation per cycle
        assert s0.updates == 64 + 4


def test_updates_match_count_updates_on_graded_mesh(graded):
    lmin, depth = graded.lmin, graded.depth
    level_dofs = {l: int(graded.dof_mask(l).sum()) for l in range(lmin, depth + 1)}
    for variant in ADDITIVE_VARIANTS:
        eng = ReferenceEngine(graded, SolverConfig(variant=variant))
        assert eng.advance().updates == count_updates(level_dofs, variant, lmin, depth), variant
    for variant in PIPELINE_VARIANTS:
        eng = PipelineEngine(graded, SolverConfig(variant=variant))
        assert eng.advance().updates == count_updates(level_dofs, variant, lmin, depth), variant


def test_update_counts_per_variant():
    for variant, want in (
        ("additive", 64 + 4),
        ("adafac-jac", 64 + 4 + 4),      # damping equation on the coarse level
        ("adafac-pi", 64 + 4 + 64),      # damping term per fine-level vertex
    ):
        tree, eng = make_engine(2, variant=variant)
        stats = eng.advance()
        assert stats.updates == want, variant


def test_residual_decreases_on_small_poisson():
    tree, eng = make_engine(2, variant="adafac-jac")
    norms = [eng.advance().l2h for _ in range(30)]
    assert norms[-1] < 1e-3 * norms[0]


def test_multiplicative_requires_two_levels():
    with pytest.raises(ValueError):
        make_engine(3, variant="multiplicative-v10")


def test_omega_tilde_zero_matches_scaled_damping():
    # omega_tilde scales the damping equation only
    tree_a, eng_a = make_engine(3, variant="adafac-jac", omega_tilde=0.3)
    tree_b, eng_b = make_engine(3, variant="adafac-jac", omega_tilde=0.6)
    for _ in range(3):
        sa = eng_a.advance()
        sb = eng_b.advance()
    assert not np.allclose(tree_a.u[3], tree_b.u[3], atol=1e-12)


def test_boxmg_engine_storage_layouts():
    """P is kept as C-contiguous (5, 5, nc+1, nc+1) offset planes, and R~
    is not stored: only its weight omega, as restrict_smoothed applies it
    from P; the stencil tables are offset-major."""
    tree, eng = make_engine(3, half_domain_jump(3), built=True, flavor="boxmg")
    assert sorted(eng.transfers) == [1, 2]
    for l, tr in eng.transfers.items():
        n1 = 3**l + 1
        assert tr.p_planes.shape == (5, 5, n1, n1) and tr.p_planes.flags.c_contiguous
        assert tr.rtilde is None and tr.omega == eng.cfg.omega
    for op in eng.ops.values():
        assert op.table().transpose(2, 3, 0, 1).flags.c_contiguous


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("mesh", ["regular", "graded"])
def test_boxmg_operators_propagate_one_level_per_cycle(mesh, graded, monkeypatch):
    """Construction builds no Galerkin rows.  After n cycles exactly the n
    finest coarse levels hold their BoxMG operators, bit for bit those of
    an engine built to completion, and the coarser ones hold the geometric
    stand-ins; rebuild() makes every coarse level stale again."""
    probes = []
    rap = treemg.solvers.ritz_galerkin_coarse
    monkeypatch.setattr(treemg.solvers, "ritz_galerkin_coarse",
                        lambda *args: probes.append(1) or rap(*args))
    tree = build_regular(4, field=half_domain_jump(3)) if mesh == "regular" else graded
    cfg = SolverConfig(flavor="boxmg")
    full = ReferenceEngine(copy.deepcopy(tree), cfg)
    while full.build_stale_level():
        pass
    stand_in = ReferenceEngine(copy.deepcopy(tree), SolverConfig())
    del probes[:]
    eng = ReferenceEngine(tree, cfg)
    assert not probes
    lmin, ltop = tree.lmin, eng.ltop
    assert ltop - lmin == 3

    def check(n_built):
        assert eng.stale == ltop - 1 - n_built
        assert len(probes) == n_built
        for l in range(lmin, ltop):
            want = full if l > eng.stale else stand_in
            assert same_bits(eng.ops[l].table(), want.ops[l].table()), l
            assert same_bits(eng.diag[l], want.diag[l]), l
            tr, tw = eng.transfers[l], want.transfers[l]
            assert (tr.p_planes is None) == (tw.p_planes is None), l
            if tr.p_planes is not None:
                assert same_bits(tr.p_planes, tw.p_planes), l
                assert tr.rtilde is None and tr.omega == tw.omega, l
            else:
                assert same_bits(tr.rtilde, tw.rtilde), l

    check(0)
    for n in range(1, ltop - lmin + 2):
        eng.advance()
        check(min(n, ltop - lmin))
    del probes[:]
    eng.rebuild()
    check(0)
