import copy

import numpy as np
import pytest

from treemg.discretization import constant_field, half_domain_jump
from treemg.operators import geometric_prolongation
from treemg.pipeline import ENTER, PipelineEngine
from treemg.solvers import ReferenceEngine, SolverConfig
from treemg.spacetree import LEX_CHILD_ORDER, Spacetree, VertexKind, build_regular


def paired_engines(levels, variant, field=None, seed=1, **cfg_kw):
    field = field or constant_field(1.0)
    cfg = SolverConfig(variant=variant, **cfg_kw)
    tree_r = build_regular(levels, field=field)
    tree_p = build_regular(levels, field=field)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(tree_r.u[levels].shape)
    for tree in (tree_r, tree_p):
        m = tree.dof_mask(levels)
        tree.u[levels][m] += vals[m]
    ref = ReferenceEngine(tree_r, cfg)
    pipe = PipelineEngine(tree_p, cfg)
    # the pipelined engine builds every boxmg level in rebuild()
    while ref.build_stale_level():
        pass
    ref.update_fas_state()
    pipe.update_fas_state()
    return ref, pipe


@pytest.mark.parametrize("variant", ["additive", "adafac-pi", "adafac-jac"])
def test_engine_equivalence_regular(variant):
    # pipe's snapshot after sweep k+1's descent == ref iterate after k cycles
    ref, pipe = paired_engines(3, variant)
    s_r = ref.advance()
    s_p = pipe.advance()
    assert s_p.l2h == pytest.approx(s_r.l2h, rel=1e-10)
    prev = {l: ref.tree.u[l].copy() for l in range(1, 4)}
    for k in range(1, 21):
        s_r_next = ref.advance()
        s_p_next = pipe.advance(capture_iterate=True)
        snap = pipe.last_snapshot
        for l in range(1, 4):
            mask = ref.masks[l]["exists"]
            diff = np.abs(snap[l] - prev[l])[mask].max()
            assert diff < 1e-12, f"cycle {k} level {l}: {diff}"
        assert s_p_next.l2h == pytest.approx(s_r_next.l2h, rel=1e-9)
        prev = {l: ref.tree.u[l].copy() for l in range(1, 4)}


@pytest.mark.parametrize("variant", ["adafac-pi", "adafac-jac"])
def test_engine_equivalence_boxmg_jump(variant):
    ref, pipe = paired_engines(2, variant, field=half_domain_jump(1), flavor="boxmg")
    ref.advance()
    pipe.advance()
    prev = {l: ref.tree.u[l].copy() for l in range(1, 3)}
    for k in range(6):
        ref_stats = ref.advance()
        pipe.advance(capture_iterate=True)
        for l in range(1, 3):
            mask = ref.masks[l]["exists"]
            diff = np.abs(pipe.last_snapshot[l] - prev[l])[mask].max()
            assert diff < 1e-12
        prev = {l: ref.tree.u[l].copy() for l in range(1, 3)}


def test_child_order_does_not_change_iterates():
    field = constant_field(1.0)
    cfg = SolverConfig(variant="adafac-jac")
    results = {}
    for name, order in (("peano", None), ("lex", LEX_CHILD_ORDER)):
        tree = build_regular(2, field=field)
        kw = {} if order is None else {"child_order": order}
        eng = PipelineEngine(tree, cfg, **kw)
        for _ in range(6):
            eng.advance()
        results[name] = tree.u[2].copy()
    assert np.abs(results["peano"] - results["lex"]).max() < 1e-13


def test_single_touch_instrumentation():
    tree = build_regular(2)
    eng = PipelineEngine(tree, SolverConfig(variant="adafac-jac"))
    eng.advance(count_touches=True)
    counters = eng.last_counters
    assert counters.max_load_count() == 1
    assert max(counters.stores.values()) == 1
    # every persistent vertex loaded and stored exactly once
    assert set(counters.loads) == set(counters.stores)


def test_zero_data_stays_zero():
    tree = build_regular(2)
    # wipe the heated edge so everything is zero
    for l in range(3):
        tree.u[l][:, :] = 0.0
    eng = PipelineEngine(tree, SolverConfig(variant="adafac-jac"))
    for _ in range(3):
        stats = eng.advance()
    assert stats.l2h == 0.0
    for l in (1, 2):
        assert np.abs(tree.u[l]).max() == 0.0
        for arr in eng.helpers[l].values():
            assert np.abs(arr).max() == 0.0


def test_matvec_accumulation_matches_stencil_application():
    tree = build_regular(2)
    rng = np.random.default_rng(3)
    m = tree.dof_mask(2)
    tree.u[2][m] += rng.standard_normal(int(m.sum()))
    eng = PipelineEngine(tree, SolverConfig(variant="additive"))
    eng.update_fas_state()
    u0 = {l: tree.u[l].copy() for l in (1, 2)}
    eng.advance()
    for l in (1, 2):
        # only leaf cells accumulate; level 1 is fully refined
        leaf = eng.leaf_ops[l]
        want = np.zeros_like(u0[l]) if leaf is None else leaf.apply(u0[l])
        dof = eng.masks[l]["dof"]
        got = eng.helpers[l]["acc_au"]
        assert np.abs((got - want)[dof]).max() < 1e-13


def test_hanging_vertices_on_lmin_rejected():
    """Hanging values interpolate along prolongation rows, which start
    above lmin."""
    tree = Spacetree(lmin=2, lmax=3)
    tree.refine_many([np.ones((1, 1), dtype=bool)])
    half = np.zeros((3, 3), dtype=bool)
    half[:2, 0] = True
    tree.refine_many([np.zeros((1, 1), dtype=bool), half])
    assert (tree.vertex_kinds(2) == VertexKind.HANGING).any()
    ReferenceEngine(tree, SolverConfig(variant="adafac-jac"))
    with pytest.raises(ValueError, match="level lmin has hanging vertices"):
        PipelineEngine(tree, SolverConfig(variant="adafac-jac"))


def test_unsupported_variant_rejected():
    tree = build_regular(2)
    for variant in ("bpx", "afacc", "additive-exp", "multiplicative-v10"):
        with pytest.raises(ValueError):
            PipelineEngine(tree, SolverConfig(variant=variant))


def test_equivalence_on_adaptive_steady_mesh():
    """Static adaptive mesh: one refined patch; engines agree."""
    field = constant_field(1.0)
    cfg = SolverConfig(variant="adafac-jac")
    trees = []
    for _ in range(2):
        tree = build_regular(2, lmax=3, field=field)
        marks = [np.zeros_like(r) for r in tree.refined]
        marks[2][4, 0] = marks[2][4, 1] = True
        tree.refine_many(marks)
        trees.append(tree)
    ref = ReferenceEngine(trees[0], cfg)
    pipe = PipelineEngine(trees[1], cfg)
    ref.update_fas_state()
    pipe.update_fas_state()
    ref.advance()
    pipe.advance()
    prev = {l: trees[0].u[l].copy() for l in range(1, 4)}
    for k in range(8):
        ref.advance()
        pipe.advance(capture_iterate=True)
        for l in range(1, 4):
            mask = ref.masks[l]["exists"]
            diff = np.abs(pipe.last_snapshot[l] - prev[l])[mask].max()
            assert diff < 1e-12, f"cycle {k} level {l}: {diff}"
        prev = {l: trees[0].u[l].copy() for l in range(1, 4)}


@pytest.mark.parametrize("flavor", ["geometric", "boxmg"])
@pytest.mark.parametrize("variant", ["additive", "adafac-pi", "adafac-jac"])
def test_equivalence_on_graded_mesh(graded, variant, flavor):
    """Graded AMR mesh, levels 2 and 3 partly refined: engines agree."""
    cfg = SolverConfig(variant=variant, flavor=flavor)
    ref = ReferenceEngine(copy.deepcopy(graded), cfg)
    pipe = PipelineEngine(graded, cfg)
    while ref.build_stale_level():
        pass
    ref.update_fas_state()
    pipe.update_fas_state()
    ref.advance()
    pipe.advance()
    levels = range(graded.lmin, ref.ltop + 1)
    prev = {l: ref.tree.u[l].copy() for l in levels}
    for k in range(8):
        ref.advance()
        pipe.advance(capture_iterate=True)
        for l in levels:
            mask = ref.masks[l]["exists"]
            diff = np.abs(pipe.last_snapshot[l] - prev[l])[mask].max()
            assert diff <= 1e-12, f"cycle {k} level {l}: {diff}"
        prev = {l: ref.tree.u[l].copy() for l in levels}


@pytest.mark.parametrize("flavor", ["geometric", "boxmg"])
def test_hanging_weights_are_the_dlinear_products(graded, flavor):
    """Each hanging vertex reads the coarse vertices around it with the
    weights of geometric_prolongation at its offsets from them, bit for
    bit, the zero weights skipped."""
    pipe = PipelineEngine(graded, SolverConfig(variant="adafac-jac", flavor=flavor))
    plan = pipe._compile()
    geo = geometric_prolongation()
    off = plan.offsets
    checked = 0
    for l in range(graded.lmin + 1, pipe.ltop + 1):
        for i, j in np.argwhere(pipe.masks[l]["kinds"] == VertexKind.HANGING):
            want = {}
            for ci in (i // 3, i // 3 + 1):
                for cj in (j // 3, j // 3 + 1):
                    # the d-linear weights vanish at offsets +-3
                    oi, oj = i - 3 * ci, j - 3 * cj
                    w = geo[oi + 2, oj + 2] if max(abs(oi), abs(oj)) <= 2 else 0.0
                    if w != 0.0:
                        want[off[l - 1] + ci * (3 ** (l - 1) + 1) + cj] = w
            got = dict(plan.prow[off[l] + i * (3**l + 1) + j])
            assert got == want, (l, i, j)
            checked += 1
    assert checked > 0


def test_stream_enters_each_leaf_cell_once(graded):
    pipe = PipelineEngine(graded, SolverConfig(variant="adafac-jac"))
    plan = pipe._compile()
    entered = [x for code, x in plan.stream if code == ENTER]
    leaves = 0
    for l in range(graded.lmin, pipe.ltop + 1):
        leaf = graded.cells_exist(l)
        if l < graded.lmax:
            leaf &= ~graded.refined[l]
        leaves += int(leaf.sum())
    assert len(entered) == len(set(entered)) == leaves
    assert all(plan.cells[x] is not None for x in entered)


def _swept_pair(graded, sweeps):
    """Two adafac-jac engines on copies of the graded mesh, each after the
    same number of sweeps."""
    engines = []
    for tree in (graded, copy.deepcopy(graded)):
        eng = PipelineEngine(tree, SolverConfig(variant="adafac-jac"))
        eng.update_fas_state()
        for _ in range(sweeps):
            eng.advance()
        engines.append(eng)
    return engines


def _assert_same_state(a, b):
    for l in range(a.tree.lmin, a.ltop + 1):
        assert np.array_equal(a.tree.u[l], b.tree.u[l]), l
        hb = b.helpers[l]
        for name, arr in a.helpers[l].items():
            assert np.array_equal(arr, hb[name]), (l, name)


def test_rebuild_between_sweeps_keeps_state(graded):
    """rebuild() on an unchanged mesh keeps the sweeps' helper state: the
    run goes on bit for bit."""
    plain, rebuilt = _swept_pair(graded, 2)
    for _ in range(4):
        plain.advance()
        rebuilt.rebuild()
        rebuilt.advance()
    _assert_same_state(plain, rebuilt)
