import copy

import numpy as np
import pytest

from treemg.amr import (
    RefinePolicy,
    apply_refinement,
    cells_for_vertices,
    curvature_indicators,
    mark_boundary,
    mark_curvature,
)
from treemg.discretization import boundary_value
from treemg.operators import prolong_values
from treemg.solvers import ReferenceEngine, SolverConfig
from treemg.spacetree import VertexKind, build_regular


def cell_masks(tree, cells):
    """Per-level cell masks, shaped like tree.refined, holding the given
    (level, i, j) cells."""
    masks = [np.zeros_like(r) for r in tree.refined]
    for l, i, j in cells:
        masks[l][i, j] = True
    return masks


def marked(masks):
    return any(m.any() for m in masks)


def test_policy_validation():
    with pytest.raises(ValueError):
        RefinePolicy(decile=0.0)
    with pytest.raises(ValueError):
        RefinePolicy(boundary_cadence=0)


def test_mark_boundary_cadence():
    tree = build_regular(2, lmax=4)
    assert not marked(mark_boundary(tree, 1))
    marks = mark_boundary(tree, 0)
    want = cell_masks(tree, [(2, i, 0) for i in range(9)])
    assert len(marks) == len(want)
    assert all((m == w).all() for m, w in zip(marks, want))
    assert all((m == w).all() for m, w in zip(mark_boundary(tree, 2), marks))


def test_mark_boundary_respects_cap():
    tree = build_regular(2, lmax=2)
    assert not marked(mark_boundary(tree, 0))


def test_boundary_refinement_progression():
    tree = build_regular(2, lmax=3)
    apply_refinement(tree, mark_boundary(tree, 0))
    # the level-2 bottom row became level-3 cells; next round marks those
    marks = mark_boundary(tree, 2)
    assert not marked(marks)  # level-3 cells sit at the cap
    kinds = tree.vertex_kinds(3)
    assert (kinds != VertexKind.NONE).any()


def test_curvature_zero_for_zero_and_bilinear():
    tree = build_regular(2)
    for l in (1, 2):
        tree.u[l][:, :] = 0.0
    assert not marked(mark_curvature(tree))
    for l in (1, 2):
        n = 3**l
        x = np.linspace(0, 1, n + 1)[:, None]
        y = np.linspace(0, 1, n + 1)[None, :]
        tree.u[l][:, :] = 0.3 + x + 2 * y  # linear: zero second differences
    assert not marked(mark_curvature(tree))


def test_curvature_indicator_values():
    tree = build_regular(1)
    n = 3
    x = np.linspace(0, 1, n + 1)[:, None]
    tree.u[1][:, :] = (x * x) * np.ones((1, n + 1))
    ind = curvature_indicators(tree, 1)
    # estimated second derivative of x^2 is 2, independent of the level
    assert ind[1, 1] == pytest.approx(2.0, rel=1e-12)
    tree2 = build_regular(2)
    x2 = np.linspace(0, 1, 10)[:, None]
    tree2.u[2][:, :] = (x2 * x2) * np.ones((1, 10))
    assert curvature_indicators(tree2, 2)[4, 4] == pytest.approx(2.0, rel=1e-12)


def test_mark_curvature_targets_peak():
    tree = build_regular(3)
    # localized bump at one interior vertex dominates the indicator
    tree.u[3][13, 13] += 10.0
    marks = mark_curvature(tree)
    assert marked(marks)
    assert len(marks) == 4 and not marked(marks[:3])  # only level 3 marks
    assert marks[3][12:15, 12:15].any()
    cells = cells_for_vertices(tree, marks)
    assert not marked(cells)  # tree already at its cap


def test_marked_fraction_in_band():
    tree = build_regular(3)
    rng = np.random.default_rng(8)
    m = tree.dof_mask(3)
    tree.u[3][m] += 0.01 * rng.standard_normal(int(m.sum()))
    marks = mark_curvature(tree)
    frac = sum(int(m.sum()) for m in marks) / (3**3 - 1) ** 2
    assert 0.02 <= frac <= 0.20


def test_apply_refinement_reports_and_grows():
    tree = build_regular(1, lmax=2)
    before = tree.depth
    rep = apply_refinement(tree, cell_masks(tree, [(1, 0, 0), (1, 1, 1)]))
    assert rep.refined_cells == 2
    assert rep.created_vertices > 0
    assert tree.depth == before + 1
    # refining nothing changes nothing
    rep2 = apply_refinement(tree, cell_masks(tree, []))
    assert not rep2.changed


def test_vertex_count_monotone_under_regridding():
    tree = build_regular(2, lmax=4)
    eng = ReferenceEngine(tree, SolverConfig(variant="adafac-jac"))
    counts = []
    for cycle in range(6):
        eng.advance()
        marks = mark_boundary(tree, cycle)
        if marked(marks):
            apply_refinement(tree, marks)
            eng.rebuild()
            eng.update_fas_state()
        counts.append(sum(int((tree.vertex_kinds(l) != VertexKind.NONE).sum())
                          for l in range(tree.depth + 1)))
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_hanging_values_interpolated_after_regrid():
    tree = build_regular(2, lmax=3)
    eng = ReferenceEngine(tree, SolverConfig(variant="additive"))
    for _ in range(3):
        eng.advance()
    apply_refinement(tree, cell_masks(tree, [(2, 4, 4)]))
    eng.rebuild()
    eng.update_fas_state()
    kinds = tree.vertex_kinds(3)
    hang = np.argwhere(kinds == VertexKind.HANGING)
    assert len(hang)
    vals = prolong_values(tree.u[2])
    for i, j in hang:
        assert tree.u[3][i, j] == pytest.approx(vals[i, j], abs=1e-13)


def test_refinement_keeps_residual_change_local():
    tree = build_regular(2, lmax=3)
    eng = ReferenceEngine(tree, SolverConfig(variant="additive"))
    for _ in range(40):
        eng.advance()
    # u is now nearly constant in the domain interior; refining one cell far
    # from the boundary barely perturbs the residual elsewhere
    before = eng.residual_stats()
    apply_refinement(tree, cell_masks(tree, [(2, 4, 4)]))
    eng.rebuild()
    eng.update_fas_state()
    after = eng.residual_stats()
    assert after.l2h < 1e3 * max(before.l2h, 1e-14)


# -- mask kernels against their per-cell definitions on a graded mesh --------
# (the run_states and graded fixtures are in conftest.py)


def random_cell_marks(tree, seed, density=0.3):
    """Random marks on existing cells, refined ones included."""
    rng = np.random.default_rng(seed)
    return [tree.cells_exist(l) & (rng.random(r.shape) < density)
            for l, r in enumerate(tree.refined)]


def test_cells_for_vertices_matches_neighbour_loop(graded):
    rng = np.random.default_rng(3)
    vmarks = [rng.random(u.shape) < 0.05 for u in graded.u]
    cells = cells_for_vertices(graded, vmarks)
    want = [np.zeros_like(r) for r in graded.refined]
    for l in range(graded.lmax):
        n = 3**l
        exists = graded.cells_exist(l)
        for i, j in np.argwhere(vmarks[l]):
            for ci in (i - 1, i):
                for cj in (j - 1, j):
                    if not (0 <= ci < n and 0 <= cj < n):
                        continue
                    if exists[ci, cj] and not graded.refined[l][ci, cj]:
                        want[l][ci, cj] = True
    assert len(cells) == len(want)
    assert all((c == w).all() for c, w in zip(cells, want))
    assert marked(want)


def test_mark_boundary_matches_cell_loop(run_states):
    nonempty = 0
    for tree in run_states:
        for cycle in range(4):
            marks = mark_boundary(tree, cycle)
            want = [np.zeros_like(r) for r in tree.refined]
            if cycle % 2 == 0:
                for l in range(tree.lmax):
                    exists = tree.cells_exist(l)
                    for i in range(3**l):
                        if exists[i, 0] and not tree.refined[l][i, 0]:
                            want[l][i, 0] = True
            assert [m.shape for m in marks] == [r.shape for r in tree.refined]
            assert all((m == w).all() for m, w in zip(marks, want))
            nonempty += marked(marks)
    assert nonempty > 0


def refine_by_loop(tree, marks):
    """Created vertices and resulting u of refining the marks cell by cell,
    coarse levels first: a child vertex is new when no adjacent child cell
    existed before; it takes the d-linear value of the (already updated)
    parent level inside the domain and the boundary data on the edge."""
    u = [a.copy() for a in tree.u]
    created = set()
    for l, mark in enumerate(marks):
        before = tree.refined[l]
        n = 3 ** (l + 1)
        vals = prolong_values(u[l])
        for ci, cj in np.argwhere(mark & ~before):
            for i in range(3 * ci, 3 * ci + 4):
                for j in range(3 * cj, 3 * cj + 4):
                    existed = any(
                        before[a // 3, b // 3]
                        for a in (i - 1, i) for b in (j - 1, j)
                        if 0 <= a < n and 0 <= b < n
                    )
                    if existed or (l + 1, i, j) in created:
                        continue
                    created.add((l + 1, i, j))
                    on_edge = i in (0, n) or j in (0, n)
                    u[l + 1][i, j] = boundary_value(i / n, j / n) if on_edge else vals[i, j]
    return created, u


def test_refine_many_creates_vertices_like_cell_loop(graded):
    marks = random_cell_marks(graded, seed=5)
    want_created, want_u = refine_by_loop(graded, marks)
    refined = [m | r for m, r in zip(marks, graded.refined)]
    made = graded.refine_many(marks)
    got = {(l, int(i), int(j)) for l, m in enumerate(made) for i, j in np.argwhere(m)}
    assert got == want_created
    assert {l for l, _, _ in got} == {3, 4}  # level 1 is fully refined already
    assert len(graded.u) == len(want_u)
    for have, want in zip(graded.u, want_u):
        assert np.array_equal(have, want)
    for have, want in zip(graded.refined, refined):
        assert (have == want).all()


def test_regrid_report_counts_match_cell_loop(graded):
    marks = random_cell_marks(graded, seed=7)
    todo = sum(1 for l, m in enumerate(marks) for i, j in np.argwhere(m)
               if not graded.refined[l][i, j])
    want_created, _ = refine_by_loop(graded, marks)
    rep = apply_refinement(graded, marks)
    assert rep.refined_cells == todo > 0
    assert rep.created_vertices == len(want_created) > 0


def test_refine_many_rejects_missing_and_skips_refined(graded):
    refined = [r.copy() for r in graded.refined]
    u = [a.copy() for a in graded.u]
    missing = cell_masks(graded, [(1, 0, 0)])
    missing[3][tuple(np.argwhere(~graded.cells_exist(3))[0])] = True
    with pytest.raises(ValueError, match="does not exist"):
        graded.refine_many(missing)
    # already refined cells are skipped: nothing is created or changed
    assert not marked(graded.refine_many(refined))
    for have, want in zip(graded.refined, refined):
        assert (have == want).all()
    for have, want in zip(graded.u, u):
        assert np.array_equal(have, want)
