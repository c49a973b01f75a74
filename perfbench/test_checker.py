"""Tests of the benchmark's checker and of its quick mode.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks as C
from treemg.bench import count_updates, make_field, regular_level_dofs
from treemg.discretization import epsilon_cells
from treemg.operators import ElementOperator

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("setup", ["poisson", "half-jump", "needle", "skew"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_sparse_assembly_matches_element_operator(setup, level):
    k = 3
    n = 3**level
    x = np.random.default_rng(level).standard_normal((n + 1, n + 1))
    ours = (C.assemble(setup, k, level) @ x.ravel()).reshape(n + 1, n + 1)
    theirs = ElementOperator(epsilon_cells(make_field(setup, k), level)).apply(x)
    inner = C.interior_mask(level)
    np.testing.assert_allclose(ours[inner], theirs[inner], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("lmax", [1, 3, 6])
def test_update_rule_matches_program(lmax):
    dofs = regular_level_dofs(1, lmax)
    assert C.updates_per_cycle(1, lmax) == count_updates(dofs, "adafac-jac", 1, lmax)


def test_direct_solve_obeys_max_principle():
    u = C.direct_solve("half-jump", 3, 3)
    assert u.min() >= 0.0 and u.max() <= 1.0
    a = C.assemble("half-jump", 3, 3)
    r, r0 = C.residual_norms(a, u, 3)
    assert r <= 1e-12 * r0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_runs_every_workload(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", trace],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (4 if trace == "0" else 8)
