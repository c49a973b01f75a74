"""Dynamic mesh refinement.

Two criteria drive the mesh.  A hard-coded one refines the leaf cells along
the heated boundary edge every other cycle until they reach the depth cap,
which keeps the initial vertex count low without polluting the solution.  A
feature-based one measures per vertex the largest absolute second
difference of the solution along the coordinate axes and refines around the
(approximately) ten percent largest indicators, selected by bin sorting:
whole bins are taken from the top until the decile is covered, so marking
is deterministic and never splits a bin.

Marks are whole-level boolean arrays, the vectorised form of per-cell
refinement flags: vertex marks are shaped like ``tree.u[l]``, cell marks
like ``tree.refined[l]``, one array per level in a list indexed by level.
A vertex marks the existing unrefined cells around it through a 2x2 OR of
shifted masks, and the spacetree refines a whole level's mask at once.

New vertices are initialized d-linearly by the spacetree; operator and
state rebuilds after a regrid are the solver engines' responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spacetree import Spacetree, VertexKind

__all__ = [
    "RefinePolicy",
    "RegridReport",
    "mark_boundary",
    "curvature_indicators",
    "mark_curvature",
    "cells_for_vertices",
    "apply_refinement",
]


# histogram bins of the curvature marking
BINS = 64


@dataclass(frozen=True)
class RefinePolicy:
    boundary_cadence: int = 2
    decile: float = 0.10

    def __post_init__(self):
        if not 0.0 < self.decile < 1.0:
            raise ValueError(f"decile must lie in (0, 1), got {self.decile}")
        if self.boundary_cadence < 1:
            raise ValueError(f"boundary_cadence must be positive, got {self.boundary_cadence}")


@dataclass
class RegridReport:
    refined_cells: int
    created_vertices: int

    @property
    def changed(self) -> bool:
        return self.refined_cells > 0


def mark_boundary(tree: Spacetree, cycle: int,
                  policy: RefinePolicy = RefinePolicy()) -> list[np.ndarray]:
    """Leaf cells with a face on the heated edge y = 0, every other cycle.

    One cell mask per level 0..lmax-1, shaped like ``tree.refined``; all
    masks are empty on the cycles the cadence skips.
    """
    marks = [np.zeros_like(r) for r in tree.refined]
    if cycle % policy.boundary_cadence == 0:
        for l, mark in enumerate(marks):
            mark[:, 0] = tree.cells_exist(l)[:, 0] & ~tree.refined[l][:, 0]
    return marks


def curvature_indicators(tree: Spacetree, level: int) -> np.ndarray:
    """Largest absolute axis-aligned second derivative of u per vertex,
    estimated by second differences over the level's mesh width.

    Only same-level neighbours enter; where a vertex lacks one of the two
    neighbours along an axis that axis is skipped, so no fictitious
    cross-level curvature appears at resolution transitions.  The 1/h^2
    scaling turns each level's second differences into estimates of the
    same derivative, so indicators of different levels can be ranked
    together.
    """
    u = tree.u[level]
    exists = tree.vertex_kinds(level) != VertexKind.NONE
    inv_h2 = float(9.0**level)
    ind = np.zeros_like(u)
    # x axis
    ok = exists[1:-1, :] & exists[:-2, :] & exists[2:, :]
    d2 = np.abs(u[:-2, :] - 2.0 * u[1:-1, :] + u[2:, :])
    ind[1:-1, :] = np.where(ok, d2, 0.0)
    # y axis
    ok = exists[:, 1:-1] & exists[:, :-2] & exists[:, 2:]
    d2 = np.abs(u[:, :-2] - 2.0 * u[:, 1:-1] + u[:, 2:])
    ind[:, 1:-1] = np.maximum(ind[:, 1:-1], np.where(ok, d2, 0.0))
    return ind * inv_h2


def mark_curvature(tree: Spacetree, policy: RefinePolicy = RefinePolicy()) -> list[np.ndarray]:
    """Vertices carrying approximately the top decile of the indicator.

    The indicator is evaluated at composite vertices (the finest vertex at
    each position).  Bin sorting over (0, max]: zero indicators never mark,
    and bins are taken whole from the top until the decile of the composite
    vertex count is reached.  Returns one vertex mask per level 0..depth;
    levels below lmin never mark.
    """
    marks = [np.zeros(tree.u[l].shape, dtype=bool) for l in range(tree.depth + 1)]
    levels = range(tree.lmin, tree.depth + 1)
    scale = max([1.0] + [float(np.abs(tree.u[l]).max()) for l in levels])
    per_level: list[tuple[int, np.ndarray, np.ndarray]] = []
    values = []
    total = 0
    for l in levels:
        comp = tree.composite_mask(l)
        total += int(comp.sum())
        ind = np.where(comp, curvature_indicators(tree, l), 0.0)
        # roundoff of the level's second differences never marks
        floor = 1e-12 * scale * 9.0**l
        ind[ind <= floor] = 0.0
        per_level.append((l, ind, comp))
        vals = ind[comp]
        values.append(vals[vals > 0.0])
    allvals = np.concatenate(values) if values else np.empty(0)
    if allvals.size == 0:
        return marks
    edges = np.linspace(0.0, float(allvals.max()), BINS + 1)
    counts, _ = np.histogram(allvals, bins=edges)
    want = policy.decile * total
    cum = 0
    cut_bin = BINS - 1
    for b in range(BINS - 1, -1, -1):
        cum += counts[b]
        cut_bin = b
        if cum >= want:
            break
    threshold = edges[cut_bin]
    for l, ind, comp in per_level:
        marks[l] = comp & (ind > threshold)
    return marks


def cells_for_vertices(tree: Spacetree, vmarks: list[np.ndarray]) -> list[np.ndarray]:
    """Unrefined existing cells adjacent to a marked vertex.

    Takes per-level vertex masks and returns per-level cell masks shaped
    like ``tree.refined``: a cell is marked when any of its four corners is.
    """
    cells = [np.zeros_like(r) for r in tree.refined]
    for l, m in enumerate(vmarks[: tree.lmax]):
        near = m[:-1, :-1] | m[1:, :-1] | m[:-1, 1:] | m[1:, 1:]
        cells[l] = near & tree.cells_exist(l) & ~tree.refined[l]
    return cells


def apply_refinement(tree: Spacetree, marks: list[np.ndarray]) -> RegridReport:
    """Refine the cells of the per-level masks, coarse levels first."""
    todo = sum(int((m & ~r).sum()) for m, r in zip(marks, tree.refined))
    made = tree.refine_many(marks)
    return RegridReport(todo, sum(int(m.sum()) for m in made))
