import numpy as np
import pytest

from treemg.spacetree import (
    ENTER_CELL,
    FIRST_TOUCH,
    LAST_TOUCH,
    LEX_CHILD_ORDER,
    PEANO_CHILD_ORDER,
    Spacetree,
    VertexKind,
    build_regular,
    cells_around,
    traverse,
)


def interior_dofs(tree, level):
    return int((tree.vertex_kinds(level) == VertexKind.INTERIOR_DOF).sum())


def position(level, i, j):
    n = 3**level
    return (i / n, j / n)


def refine(tree, *cells):
    """Refine (level, i, j) cells one after another; returns the last
    refinement's created-vertex masks."""
    for l, i, j in cells:
        marks = [np.zeros_like(r) for r in tree.refined[: l + 1]]
        marks[l][i, j] = True
        made = tree.refine_many(marks)
    return made


def vertex_of(plan, v):
    """(level, i, j) of a flat vertex id."""
    level = int(np.searchsorted(plan.offsets, v, side="right")) - 1
    i, j = divmod(v - plan.offsets[level], 3**level + 1)
    return level, i, j


def touches(plan):
    """Per vertex (level, i, j): event positions of its first and last touches."""
    first, last = {}, {}
    for k, (kind, v) in enumerate(zip(plan.event_kind.tolist(), plan.event_id.tolist())):
        if kind != ENTER_CELL:
            (first if kind == FIRST_TOUCH else last).setdefault(vertex_of(plan, v), []).append(k)
    return first, last


def recursive_events(tree, order, l=0, i=0, j=0, touched=None):
    """Reference: the recursive depth-first traversal as a list of
    (event kind, (level, i, j)) pairs, cells named by their first corner."""
    if touched is None:
        touched = {}
    corners = [(l, i + a, j + b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]
    events = []
    for v in corners:
        touched[v] = touched.get(v, 0) + 1
        if touched[v] == 1:
            events.append((FIRST_TOUCH, v))
    events.append((ENTER_CELL, (l, i, j)))
    if l < tree.lmax and tree.refined[l][i, j]:
        for a, b in order:
            events += recursive_events(tree, order, l + 1, 3 * i + a, 3 * j + b, touched)
    for v in corners:
        if touched[v] == cells_around(tree.cells_exist(v[0]))[v[1], v[2]]:
            touched[v] += 1
            events.append((LAST_TOUCH, v))
    return events


def test_regular_dof_counts():
    assert interior_dofs(build_regular(1), 1) == 4
    assert interior_dofs(build_regular(2), 2) == 64
    tree = build_regular(3)
    assert interior_dofs(tree, 3) == (3**3 - 1) ** 2
    # coarser levels of a regular tree are fully overlapped
    kinds = tree.vertex_kinds(2)
    assert (kinds[1:-1, 1:-1] == VertexKind.COARSE_OVERLAPPED).all()


def test_paper_scale_dof_count_formula():
    # (3^7 - 1)^2 without building the level
    assert (3**7 - 1) ** 2 == 4778596


def test_build_regular_rejects_zero_levels():
    with pytest.raises(ValueError):
        build_regular(0)


def test_parent_relation_and_c_points():
    # cell (2, 7, 4) lies inside its parent (1, 7 // 3, 4 // 3) = (1, 2, 1)
    lo, hi = position(2, 7, 4), position(2, 8, 5)
    plo, phi = position(1, 2, 1), position(1, 3, 2)
    assert all(p <= x and y <= q for p, x, y, q in zip(plo, lo, hi, phi))
    # (6, 9) coincides with a parent-level vertex, (6, 4) with none
    parents = {position(1, a, b) for a in range(4) for b in range(4)}
    assert position(2, 6, 4) not in parents
    assert position(2, 6, 9) == position(1, 2, 3)


def test_c_point_coincidence_matches_positions():
    for level in range(1, 11):
        n = 3**level
        for i, j in ((0, 0), (3, 9 % (n + 1)), (n, n), (min(6, n), min(3, n))):
            if i % 3 == 0 and j % 3 == 0:
                px, py = position(level - 1, i // 3, j // 3)
                vx, vy = position(level, i, j)
                assert abs(px - vx) < 1e-12 and abs(py - vy) < 1e-12


def test_boundary_vertices_are_dirichlet():
    tree = build_regular(2)
    kinds = tree.vertex_kinds(2)
    assert (kinds[0, :] == VertexKind.DIRICHLET).all()
    assert (kinds[:, -1] == VertexKind.DIRICHLET).all()


def test_hanging_classification_after_single_refinement():
    tree = Spacetree(lmin=1, lmax=3)
    refine(tree, (0, 0, 0), (1, 1, 1))
    kinds = tree.vertex_kinds(2)
    # the four vertices strictly inside the refined cell carry DoFs
    assert kinds[4, 4] == VertexKind.INTERIOR_DOF
    assert kinds[5, 5] == VertexKind.INTERIOR_DOF
    # patch edge vertices hang (fewer than four adjacent same-level cells);
    # that includes the patch corners even though they are c-points
    assert kinds[4, 3] == VertexKind.HANGING
    assert kinds[3, 4] == VertexKind.HANGING
    assert kinds[3, 3] == VertexKind.HANGING
    # only vertices around the refined cell exist on level 2
    assert kinds[0, 0] == VertexKind.NONE
    assert (kinds != VertexKind.NONE).sum() == 16


def test_refine_initializes_by_interpolation():
    tree = Spacetree(lmin=1, lmax=2)
    refine(tree, (0, 0, 0))
    # level-1 interior values from a bilinear function, boundary kept
    n = 3
    x = np.linspace(0, 1, n + 1)[:, None]
    y = np.linspace(0, 1, n + 1)[None, :]
    tree.u[1][:, :] = 2.0 - x + 3.0 * y + 0.5 * x * y
    created = refine(tree, (1, 1, 1))[2]
    assert created.sum() == 16
    n2 = 9
    for i, j in np.argwhere(created):
        if 0 < i < n2 and 0 < j < n2:
            xx, yy = position(2, i, j)
            want = 2.0 - xx + 3.0 * yy + 0.5 * xx * yy
            assert tree.u[2][i, j] == pytest.approx(want, abs=1e-14)


def test_refine_errors_and_noop():
    tree = build_regular(2, lmax=2)
    u = [a.copy() for a in tree.u]
    # already refined: nothing is created or changed
    assert not any(m.any() for m in refine(tree, (1, 0, 0)))
    assert all(np.array_equal(a, b) for a, b in zip(tree.u, u))
    # cells at lmax carry no refinement flag, so they cannot be marked
    assert len(tree.refined) == tree.lmax
    with pytest.raises(ValueError, match="does not exist"):
        refine(Spacetree(1, 3), (1, 0, 0))  # does not exist yet


def test_traversal_touch_counts_regular():
    tree = build_regular(2)
    first, last = touches(traverse(tree))
    assert all(len(k) == 1 for k in first.values())
    assert all(len(k) == 1 for k in last.values())
    # every persistent vertex of every level was touched exactly once
    expected = {(level, int(i), int(j)) for level in range(3)
                for i, j in np.argwhere(tree.vertex_kinds(level) != VertexKind.NONE)}
    assert set(first) == set(last) == expected
    # 64 finest interior DoFs among them
    kinds2 = tree.vertex_kinds(2)
    fine_dofs = [v for v in first if v[0] == 2 and kinds2[v[1], v[2]] == VertexKind.INTERIOR_DOF]
    assert len(fine_dofs) == 64


def test_traversal_closure_on_adaptive_tree():
    tree = Spacetree(lmin=1, lmax=3)
    refine(tree, (0, 0, 0), (1, 2, 0))
    first, last = touches(traverse(tree))
    assert set(first) == set(last)
    lvl2 = [v for v in first if v[0] == 2]
    assert len(lvl2) == 16  # only the 4x4 patch inside the refined cell
    kinds2 = tree.vertex_kinds(2)
    interior = [v for v in lvl2 if kinds2[v[1], v[2]] == VertexKind.INTERIOR_DOF]
    # patch corners that are c-points plus the 4 interior vertices; corners on
    # the domain boundary stay Dirichlet
    assert len(interior) >= 4


def test_traversal_event_order():
    tree = build_regular(2)
    plan = traverse(tree)
    first, last = touches(plan)
    for v, (kf,) in first.items():
        assert last[v][0] > kf
    # parent's first touch precedes every child vertex's first touch
    for v, (kf,) in first.items():
        if v[0] == 2 and 3 <= v[1] <= 6 and 3 <= v[2] <= 6:
            assert kf > first[(1, 1, 1)][0]
    # a cell is entered after the first touches of its corners
    enter = {int(c): k for k, (kind, c) in enumerate(zip(plan.event_kind, plan.event_id))
             if kind == ENTER_CELL}
    for c, corners in enumerate(plan.cell_corners.tolist()):
        assert all(first[vertex_of(plan, v)][0] < enter[c] for v in corners)


def cells_in_order(plan):
    return [(int(l), *vertex_of(plan, int(c0))[1:])
            for l, c0 in zip(plan.cell_level, plan.cell_corners[:, 0])]


def test_traversal_orders_cover_same_cells():
    tree = Spacetree(lmin=1, lmax=3)
    refine(tree, (0, 0, 0), (1, 1, 2))
    seen = {name: cells_in_order(traverse(tree, order))
            for name, order in (("peano", PEANO_CHILD_ORDER), ("lex", LEX_CHILD_ORDER))}
    assert set(seen["peano"]) == set(seen["lex"])
    assert seen["peano"] != seen["lex"]


@pytest.mark.parametrize("order", [PEANO_CHILD_ORDER, LEX_CHILD_ORDER], ids=["peano", "lex"])
@pytest.mark.parametrize("mesh", ["regular", "graded"])
def test_compiled_traversal_matches_recursive_reference(request, mesh, order):
    tree = build_regular(3) if mesh == "regular" else request.getfixturevalue("graded")
    plan = traverse(tree, order)
    cells = cells_in_order(plan)
    got = [(kind, cells[v] if kind == ENTER_CELL else vertex_of(plan, v))
           for kind, v in zip(plan.event_kind.tolist(), plan.event_id.tolist())]
    assert got == recursive_events(tree, order)
    # the compiled cell records agree with the tree
    for (l, i, j), corners, refined in zip(cells, plan.cell_corners.tolist(),
                                           plan.cell_refined.tolist()):
        assert corners == [plan.offsets[l] + (i + a) * (3**l + 1) + j + b
                           for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert corners[3] == plan.vertex_id(l, i + 1, j + 1)
        assert refined == bool(l < tree.lmax and tree.refined[l][i, j])
    # one first and one last touch per existing vertex, first before last
    first, last = touches(plan)
    existing = {(l, int(i), int(j)) for l in range(tree.depth + 1)
                for i, j in np.argwhere(tree.vertex_kinds(l) != VertexKind.NONE)}
    assert set(first) == set(last) == existing
    assert all(len(first[v]) == len(last[v]) == 1 and first[v] < last[v] for v in existing)
    # parents before children: a cell after its parent cell, and a c-point's
    # touches nested inside those of the coarse vertex it coincides with
    assert all(cells.index((l - 1, i // 3, j // 3)) < k
               for k, (l, i, j) in enumerate(cells) if l > 0)
    for l, i, j in existing:
        if l > 0 and i % 3 == 0 and j % 3 == 0:
            parent = (l - 1, i // 3, j // 3)
            assert first[parent] < first[(l, i, j)] and last[(l, i, j)] < last[parent]


def test_peano_child_order_is_face_connected():
    for a, b in zip(PEANO_CHILD_ORDER, PEANO_CHILD_ORDER[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def test_depth_tracks_refinement():
    tree = Spacetree(lmin=1, lmax=4)
    assert tree.depth == 0
    refine(tree, (0, 0, 0))
    assert tree.depth == 1
    refine(tree, (1, 0, 0))
    assert tree.depth == 2
