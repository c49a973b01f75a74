"""Tripartitioned spacetree over the unit square.

The bounding cell (level 0) is recursively cut into 3x3 children.  Every
level is a Cartesian grid; level grids may be ragged because cells refine
individually.  Vertices live on the (3**l + 1)**2 grid of a level and are
classified into interior degrees of freedom, Dirichlet boundary vertices,
hanging vertices (fewer than four adjacent same-level cells) and
coarse-overlapped vertices (all four adjacent cells refined, so a finer
copy carries the solution).

Vertex storage is per-level array stores rather than traversal stacks.
``traverse`` compiles the depth-first multiscale traversal of a mesh into a
flat event stream (first touch of a vertex, entering a cell, last touch of
a vertex), which an engine replays once per sweep; every vertex of the
stream has one flat integer id across all levels.  Hanging vertices are not
held persistently: their values are re-interpolated from the parent level
whenever they are needed.

Refinement works on whole levels: ``refine_many`` takes one boolean cell
mask per level, shaped like ``refined[l]``, sets the marked cells, and finds
the child vertices that gain their first adjacent cell by comparing
adjacent-cell counts before and after.  Those get d-linear values from the
parent level in one masked assignment, and the boundary data on the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .discretization import EpsilonField, constant_field, epsilon_cells
from .operators import prolong_values

__all__ = [
    "VertexKind",
    "Spacetree",
    "build_regular",
    "cells_around",
    "traverse",
    "vertex_offsets",
    "TraversalPlan",
    "TraversalCounters",
    "FIRST_TOUCH", "ENTER_CELL", "LAST_TOUCH",
    "PEANO_CHILD_ORDER",
    "LEX_CHILD_ORDER",
]


class VertexKind:
    NONE = 0  # no adjacent cell on this level
    INTERIOR_DOF = 1
    DIRICHLET = 2
    HANGING = 3
    COARSE_OVERLAPPED = 4  # all four adjacent cells refined


# Serpentine child order: consecutive children share a face, as a
# space-filling-curve traversal would visit them.  Solver correctness must
# not depend on the order; the lexicographic one exists to assert that.
PEANO_CHILD_ORDER = (
    (0, 0), (1, 0), (2, 0),
    (2, 1), (1, 1), (0, 1),
    (0, 2), (1, 2), (2, 2),
)
LEX_CHILD_ORDER = tuple((a, b) for a in range(3) for b in range(3))


def cells_around(mask: np.ndarray) -> np.ndarray:
    """Number of set cells among the four around each vertex of an (n, n)
    cell mask, as an (n + 1, n + 1) int8 array."""
    m = mask.astype(np.int8)
    count = np.zeros((m.shape[0] + 1, m.shape[1] + 1), dtype=np.int8)
    count[:-1, :-1] += m
    count[1:, :-1] += m
    count[:-1, 1:] += m
    count[1:, 1:] += m
    return count


class Spacetree:
    """Adaptive tripartitioned mesh plus the persistent solution field.

    refined[l] is a boolean (3**l, 3**l) array marking refined cells of
    level l.  Cells of level l exist iff their parent is refined (the root
    always exists), so tree closure holds by construction.  The solution u
    is stored per level on the full vertex grid; slots of non-existing
    vertices stay at zero.
    """

    def __init__(self, lmin: int = 1, lmax: int = 2, field: EpsilonField | None = None):
        if lmin < 1:
            raise ValueError("lmin must be at least 1")
        if lmax < lmin:
            raise ValueError("lmax must not be smaller than lmin")
        self.lmin = lmin
        self.lmax = lmax
        self.field = field if field is not None else constant_field(1.0)
        self.refined: list[np.ndarray] = [np.zeros((3**l, 3**l), dtype=bool) for l in range(lmax)]
        self.u: list[np.ndarray] = []
        self.eps: list[np.ndarray] = []
        self._kind_cache: dict[int, np.ndarray] = {}
        self._ensure_level_arrays(0)

    # -- construction ------------------------------------------------------

    def _ensure_level_arrays(self, level: int) -> None:
        while len(self.u) <= level:
            l = len(self.u)
            n = 3**l
            u = np.zeros((n + 1, n + 1))
            # Boundary data holds on every level of the generating system.
            u[:, 0] = 1.0
            self.u.append(u)
            self.eps.append(epsilon_cells(self.field, l))

    def invalidate_kinds(self, level: int | None = None) -> None:
        if level is None:
            self._kind_cache.clear()
        else:
            self._kind_cache.pop(level, None)

    # -- queries -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Finest level with existing cells."""
        for l in range(self.lmax - 1, -1, -1):
            if self.refined[l].any():
                return l + 1
        return 0

    def cells_exist(self, level: int) -> np.ndarray:
        if level == 0:
            return np.ones((1, 1), dtype=bool)
        return np.repeat(np.repeat(self.refined[level - 1], 3, axis=0), 3, axis=1)

    def vertex_kinds(self, level: int) -> np.ndarray:
        """Vertex classification of a level as an int8 array."""
        cached = self._kind_cache.get(level)
        if cached is not None:
            return cached
        count = cells_around(self.cells_exist(level))
        kinds = np.full(count.shape, VertexKind.NONE, dtype=np.int8)
        exists = count > 0
        boundary = np.zeros_like(exists)
        boundary[0, :] = boundary[-1, :] = True
        boundary[:, 0] = boundary[:, -1] = True
        kinds[exists & boundary] = VertexKind.DIRICHLET
        interior = exists & ~boundary
        kinds[interior & (count < 4)] = VertexKind.HANGING
        full = interior & (count == 4)
        if level < self.lmax:
            overlap = cells_around(self.refined[level]) == 4
            kinds[full & overlap] = VertexKind.COARSE_OVERLAPPED
            kinds[full & ~overlap] = VertexKind.INTERIOR_DOF
        else:
            kinds[full] = VertexKind.INTERIOR_DOF
        self._kind_cache[level] = kinds
        return kinds

    def dof_mask(self, level: int) -> np.ndarray:
        """Vertices carrying an equation: interior DoFs plus overlapped ones."""
        kinds = self.vertex_kinds(level)
        return (kinds == VertexKind.INTERIOR_DOF) | (kinds == VertexKind.COARSE_OVERLAPPED)

    def composite_mask(self, level: int) -> np.ndarray:
        """Vertices owning the solution at this level (not overlapped by finer DoFs)."""
        return self.vertex_kinds(level) == VertexKind.INTERIOR_DOF

    # -- refinement --------------------------------------------------------

    def refine_many(self, marks: list[np.ndarray]) -> list[np.ndarray]:
        """Refine the cells of per-level masks, coarse levels first.

        marks[l] is shaped like refined[l]; a list shorter than lmax leaves
        the finer levels alone.  Already-refined cells are skipped and a
        marked cell that does not exist raises before anything changes.
        Returns the masks of the newly created vertices, one per level of
        u.  They get d-linearly interpolated values inside the domain and
        the boundary data on its edge.
        """
        for l, mark in enumerate(marks):
            missing = np.argwhere(mark & ~self.cells_exist(l))
            if len(missing):
                raise ValueError(f"cell {(l, *map(int, missing[0]))} does not exist")
        created: dict[int, np.ndarray] = {}
        for l, mark in enumerate(marks):
            new = mark & ~self.refined[l]
            if not new.any():
                continue
            child = l + 1
            self._ensure_level_arrays(child)
            before = cells_around(self.cells_exist(child))
            self.refined[l] |= new
            self.invalidate_kinds(l)
            self.invalidate_kinds(child)
            made = (before == 0) & (cells_around(self.cells_exist(child)) > 0)
            edge = made.copy()
            edge[1:-1, 1:-1] = False
            inner = made & ~edge
            u = self.u[child]
            u[inner] = prolong_values(self.u[l])[inner]
            # boundary data: 1 on the edge y = 0, 0 on the others
            u[edge] = 0.0
            u[:, 0][edge[:, 0]] = 1.0
            created[child] = made
        return [created.get(l, np.zeros(u.shape, dtype=bool)) for l, u in enumerate(self.u)]


def build_regular(levels: int, lmin: int = 1, lmax: int | None = None,
                  field: EpsilonField | None = None) -> Spacetree:
    """Spacetree with every cell refined on levels 0..levels-1.

    The finest level then carries (3**levels - 1)**2 interior degrees of
    freedom.  lmax defaults to the construction depth.
    """
    if levels < 1:
        raise ValueError("need at least one refined level to obtain DoFs")
    tree = Spacetree(lmin=lmin, lmax=levels if lmax is None else lmax, field=field)
    for l in range(levels):
        tree.refined[l][:, :] = True
        tree._ensure_level_arrays(l + 1)
    tree.invalidate_kinds()
    return tree


FIRST_TOUCH, ENTER_CELL, LAST_TOUCH = 0, 1, 2


@dataclass
class TraversalPlan:
    """The depth-first multiscale traversal of one mesh, as flat streams.

    Vertex (l, i, j) has the flat id offsets[l] + i * (3**l + 1) + j.  The
    event stream (event_kind[k], event_id[k]) lists, in traversal order,
    FIRST_TOUCH of a vertex id when its first adjacent same-level cell is
    entered, ENTER_CELL of a cell index, and LAST_TOUCH of a vertex id after
    its last adjacent cell has been left.  Cells are indexed in the order
    they are entered; cell_corners holds their vertex ids in the order
    (i, j), (i+1, j), (i, j+1), (i+1, j+1).
    """

    offsets: list[int]
    event_kind: np.ndarray
    event_id: np.ndarray
    cell_level: np.ndarray
    cell_corners: np.ndarray
    cell_refined: np.ndarray

    def vertex_id(self, level: int, i, j):
        """Flat id of vertex (level, i, j); elementwise on index arrays."""
        return self.offsets[level] + i * (3**level + 1) + j


@dataclass
class TraversalCounters:
    """Instrumentation of one depth-first sweep.

    loads[v] counts first touches, stores[v] last touches, keyed by flat
    vertex id.  A correct sweep loads and stores every persistent vertex
    exactly once.
    """

    loads: dict[int, int]
    stores: dict[int, int]

    def max_load_count(self) -> int:
        return max(self.loads.values()) if self.loads else 0


def vertex_offsets(depth: int) -> list[int]:
    """Flat id of vertex (0, 0) of each level 0..depth, plus the total."""
    return np.cumsum([0] + [(3**l + 1) ** 2 for l in range(depth + 1)]).tolist()


def traverse(tree: Spacetree,
             child_order: Iterable[tuple[int, int]] = PEANO_CHILD_ORDER) -> TraversalPlan:
    """Compile the depth-first traversal of all existing cells.

    Children are entered in child_order.  Each persistent vertex receives
    exactly one first touch and one last touch, so replaying the plan
    touches every vertex once per sweep.
    """
    order = tuple(child_order)
    depth = tree.depth
    offsets = vertex_offsets(depth)
    adjacent = np.concatenate(
        [cells_around(tree.cells_exist(l)).ravel() for l in range(depth + 1)]).tolist()
    refined = [tree.refined[l].tolist() for l in range(depth)]
    touched = [0] * offsets[-1]
    events: list[tuple[int, int]] = []
    cells: list[tuple[int, ...]] = []  # (level, refined, four corner ids)
    # an entry (l, i, j) enters a cell; None on top of its corners leaves it
    stack: list = [(0, 0, 0)]
    while stack:
        top = stack.pop()
        if top is None:
            events += [(LAST_TOUCH, v) for v in stack.pop() if touched[v] == adjacent[v]]
            continue
        l, i, j = top
        row = 3**l + 1
        v = offsets[l] + i * row + j
        corners = (v, v + row, v + 1, v + row + 1)
        for v in corners:
            touched[v] += 1
        events += [(FIRST_TOUCH, v) for v in corners if touched[v] == 1]
        events.append((ENTER_CELL, len(cells)))
        split = l < depth and refined[l][i][j]
        cells.append((l, split) + corners)
        stack += [corners, None]
        if split:
            stack.extend((l + 1, 3 * i + a, 3 * j + b) for a, b in reversed(order))
    ev = np.array(events, dtype=np.int64)
    cell = np.array(cells, dtype=np.int64)
    return TraversalPlan(offsets, ev[:, 0], ev[:, 1], cell[:, 0], cell[:, 2:],
                         cell[:, 1].astype(bool))
