"""Adaptive-mesh states shared by the AMR and solver tests."""

import copy

import pytest

from treemg.amr import (
    RefinePolicy,
    apply_refinement,
    cells_for_vertices,
    mark_boundary,
    mark_curvature,
)
from treemg.bench import make_field
from treemg.solvers import ReferenceEngine, SolverConfig
from treemg.spacetree import build_regular


@pytest.fixture(scope="session")
def run_states():
    """Trees of a half-jump k=3 AMR run at lmax 4, regridded as bench.run
    does: the two-level start mesh and the mesh after each of the first
    three regrids.  The last one is graded: levels 2 and 3 are partly
    refined."""
    tree = build_regular(2, lmax=4, field=make_field("half-jump", 3))
    eng = ReferenceEngine(tree, SolverConfig(variant="adafac-jac"))
    policy = RefinePolicy()
    states = [copy.deepcopy(tree)]
    cycle = 0
    while len(states) < 4:
        eng.advance()
        if cycle % policy.boundary_cadence == 0:
            marks = mark_boundary(tree, cycle, policy)
            for m, c in zip(marks, cells_for_vertices(tree, mark_curvature(tree, policy))):
                m |= c
            if any(m.any() for m in marks):
                apply_refinement(tree, marks)
                eng.rebuild()
                eng.update_fas_state()
                states.append(copy.deepcopy(tree))
        cycle += 1
    return states


@pytest.fixture
def graded(run_states):
    tree = copy.deepcopy(run_states[-1])
    for l in (2, 3):
        exists = tree.cells_exist(l)
        assert 0 < (tree.refined[l] & exists).sum() < exists.sum()
    return tree
