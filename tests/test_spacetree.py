import numpy as np
import pytest

from treemg.spacetree import (
    LEX_CHILD_ORDER,
    PEANO_CHILD_ORDER,
    CellId,
    Spacetree,
    VertexId,
    VertexKind,
    build_regular,
    traverse,
)


def interior_dofs(tree, level):
    return int((tree.vertex_kinds(level) == VertexKind.INTERIOR_DOF).sum())


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
    c = CellId(2, 7, 4)
    assert c.parent() == CellId(1, 2, 1)
    # (6, 9) coincides with a parent-level vertex, (6, 4) with none
    parents = {VertexId(1, a, b).position() for a in range(4) for b in range(4)}
    assert VertexId(2, 6, 4).position() not in parents
    assert VertexId(2, 6, 9).position() == VertexId(1, 2, 3).position()


def test_c_point_coincidence_matches_positions():
    for level in range(1, 11):
        n = 3**level
        for i, j in ((0, 0), (3, 9 % (n + 1)), (n, n), (min(6, n), min(3, n))):
            v = VertexId(level, i, j)
            if i % 3 == 0 and j % 3 == 0:
                parent = VertexId(level - 1, i // 3, j // 3)
                px, py = parent.position()
                vx, vy = v.position()
                assert abs(px - vx) < 1e-12 and abs(py - vy) < 1e-12


def test_boundary_vertices_are_dirichlet():
    tree = build_regular(2)
    kinds = tree.vertex_kinds(2)
    assert (kinds[0, :] == VertexKind.DIRICHLET).all()
    assert (kinds[:, -1] == VertexKind.DIRICHLET).all()


def test_hanging_classification_after_single_refinement():
    tree = Spacetree(lmin=1, lmax=3)
    tree.refine(CellId(0, 0, 0))
    tree.refine(CellId(1, 1, 1))
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
    tree.refine(CellId(0, 0, 0))
    # level-1 interior values from a bilinear function, boundary kept
    n = 3
    x = np.linspace(0, 1, n + 1)[:, None]
    y = np.linspace(0, 1, n + 1)[None, :]
    tree.u[1][:, :] = 2.0 - x + 3.0 * y + 0.5 * x * y
    created = tree.refine(CellId(1, 1, 1))
    n2 = 9
    for v in created:
        if 0 < v.i < n2 and 0 < v.j < n2:
            xx, yy = v.position()
            want = 2.0 - xx + 3.0 * yy + 0.5 * xx * yy
            assert tree.u[2][v.i, v.j] == pytest.approx(want, abs=1e-14)


def test_refine_errors_and_noop():
    tree = build_regular(2, lmax=2)
    with pytest.raises(ValueError):
        tree.refine(CellId(1, 0, 0))  # already refined
    assert tree.refine(CellId(2, 0, 0)) is None  # at lmax: no-op signal
    with pytest.raises(ValueError):
        Spacetree(1, 3).refine(CellId(1, 0, 0))  # does not exist yet


def test_traversal_touch_counts_regular():
    tree = build_regular(2)
    counters = traverse(tree, count_touches=True)
    kinds2 = tree.vertex_kinds(2)
    for v, n in counters.loads.items():
        assert n == 1
    for v, n in counters.stores.items():
        assert n == 1
    # every persistent vertex of every level was touched exactly once
    expected = 0
    for level in range(3):
        expected += int((tree.vertex_kinds(level) != VertexKind.NONE).sum())
    assert len(counters.loads) == expected
    assert len(counters.stores) == expected
    assert counters.max_load_count() == 1
    # 64 finest interior DoFs among them
    fine_dofs = [v for v in counters.loads if v.level == 2 and kinds2[v.i, v.j] == VertexKind.INTERIOR_DOF]
    assert len(fine_dofs) == 64


def test_traversal_closure_on_adaptive_tree():
    tree = Spacetree(lmin=1, lmax=3)
    tree.refine(CellId(0, 0, 0))
    tree.refine(CellId(1, 2, 0))
    counters = traverse(tree, count_touches=True)
    lvl2 = [v for v in counters.loads if v.level == 2]
    assert len(lvl2) == 16  # only the 4x4 patch inside the refined cell
    kinds2 = tree.vertex_kinds(2)
    interior = [v for v in lvl2 if kinds2[v.i, v.j] == VertexKind.INTERIOR_DOF]
    # patch corners that are c-points plus the 4 interior vertices; corners on
    # the domain boundary stay Dirichlet
    assert len(interior) >= 4


def test_traversal_event_order():
    tree = build_regular(2)
    events = []
    traverse(
        tree,
        descend_into_cell=lambda cell, verts, parent, pverts: events.append(("cell", cell)),
        touch_vertex_first_time=lambda v: events.append(("first", v)),
        touch_vertex_last_time=lambda v: events.append(("last", v)),
    )
    first_seen = {}
    last_seen = {}
    for k, (kind, payload) in enumerate(events):
        if kind == "first":
            assert payload not in first_seen
            first_seen[payload] = k
        elif kind == "last":
            assert payload not in last_seen
            last_seen[payload] = k
    for v, kf in first_seen.items():
        assert last_seen[v] > kf
    # parent's first touch precedes every child vertex's first touch
    root_like = VertexId(1, 1, 1)
    for v, kf in first_seen.items():
        if v.level == 2 and 3 <= v.i <= 6 and 3 <= v.j <= 6:
            assert kf > first_seen[root_like]


def test_traversal_orders_cover_same_cells():
    tree = Spacetree(lmin=1, lmax=3)
    tree.refine(CellId(0, 0, 0))
    tree.refine(CellId(1, 1, 2))
    seen = {}
    for name, order in (("peano", PEANO_CHILD_ORDER), ("lex", LEX_CHILD_ORDER)):
        cells = []
        traverse(tree, descend_into_cell=lambda cell, *a: cells.append(cell), child_order=order)
        seen[name] = cells
    assert set(seen["peano"]) == set(seen["lex"])
    assert seen["peano"] != seen["lex"]


def test_peano_child_order_is_face_connected():
    for a, b in zip(PEANO_CHILD_ORDER, PEANO_CHILD_ORDER[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def test_depth_tracks_refinement():
    tree = Spacetree(lmin=1, lmax=4)
    assert tree.depth == 0
    tree.refine(CellId(0, 0, 0))
    assert tree.depth == 1
    tree.refine(CellId(1, 0, 0))
    assert tree.depth == 2
