"""Correctness checks computed by the benchmark itself.

Nothing here imports treemg: the material fields, the Q1 element matrix,
the boundary data, the sparse system and its direct solves are rebuilt
from the problem statement in the README (bilinear elements on the
tripartitioned unit square, coefficient sampled at cell midpoints, u = 1 on
y = 0 and u = 0 on the other edges).  Vertex arrays are (n+1, n+1), indexed
[i, j] with i along x; cell arrays are (n, n).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Corners of a cell in the order used by the element matrix rows.
CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))


def q1_element_matrix() -> np.ndarray:
    """Stiffness matrix of -laplace on the unit cell for bilinear shapes.

    Integrated with the 2-point Gauss rule, which is exact for the
    products of bilinear gradients; in 2D the matrix does not depend on
    the cell size.
    """
    g = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    k = np.zeros((4, 4))
    for x in g:
        for y in g:
            grads = []
            for a, b in CORNERS:
                sx = 1.0 if a else -1.0
                sy = 1.0 if b else -1.0
                fx = x if a else 1.0 - x
                fy = y if b else 1.0 - y
                grads.append((sx * fy, sy * fx))
            for r in range(4):
                for c in range(4):
                    k[r, c] += 0.25 * (grads[r][0] * grads[c][0] + grads[r][1] * grads[c][1])
    return k


def material(setup: str, k: int, level: int) -> np.ndarray:
    """Coefficient at the cell midpoints of a regular level.

    Contrast 1 : 10**-k.  Points on a dividing line belong to the side the
    README calls lesser (the strict inequality selects the other side).
    """
    n = 3**level
    mid = (np.arange(n) + 0.5) / n
    x, y = np.meshgrid(mid, mid, indexing="ij")
    low = 10.0 ** (-k)
    if setup == "poisson":
        return np.ones((n, n))
    if setup == "half-jump":
        return np.where(x > 0.5, low, 1.0)
    if setup == "needle":
        return np.where((np.abs(x - 0.5) <= 0.01) & (y <= 0.5), 1.0, low)
    if setup == "skew":
        steep = y - (5.0 * x - 2.5) > 0.0
        flat = y - (0.2 * x + 0.5) > 0.0
        return np.where(steep == flat, 1.0, low)
    raise ValueError(f"unknown setup {setup!r}")


def boundary_data(level: int) -> np.ndarray:
    """Dirichlet values on the vertex grid; interior entries are zero."""
    n = 3**level
    g = np.zeros((n + 1, n + 1))
    g[:, 0] = 1.0
    return g


def interior_mask(level: int) -> np.ndarray:
    n = 3**level
    m = np.zeros((n + 1, n + 1), dtype=bool)
    m[1:-1, 1:-1] = True
    return m


def assemble(setup: str, k: int, level: int) -> sp.csr_matrix:
    """Q1 stiffness matrix over all (n+1)**2 vertices of a regular level."""
    n = 3**level
    eps = material(setup, k, level).ravel()
    ke = q1_element_matrix()
    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ci, cj = ci.ravel(), cj.ravel()
    ids = [((ci + a) * (n + 1) + cj + b).astype(np.int32) for a, b in CORNERS]
    rows = np.concatenate([ids[r] for r in range(4) for _ in range(4)])
    cols = np.concatenate([ids[c] for _ in range(4) for c in range(4)])
    vals = np.concatenate([ke[r, c] * eps for r in range(4) for c in range(4)])
    nv = (n + 1) ** 2
    return sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsr()


def residual_norms(a: sp.csr_matrix, u: np.ndarray, level: int) -> tuple[float, float]:
    """||b - A u||_2 and ||b - A u0||_2 of the interior system.

    u carries the iterate at interior vertices; its boundary entries are
    replaced by the boundary data.  u0 is zero inside.
    """
    g = boundary_data(level)
    inner = interior_mask(level)
    full = np.where(inner, u, g)
    r = -(a @ full.ravel())[inner.ravel()]
    r0 = -(a @ g.ravel())[inner.ravel()]
    return float(np.linalg.norm(r)), float(np.linalg.norm(r0))


def direct_solve(setup: str, k: int, level: int) -> np.ndarray:
    """Exact discrete solution of a regular level on the vertex grid."""
    a = assemble(setup, k, level)
    g = boundary_data(level).ravel()
    inner = interior_mask(level).ravel()
    a_ii = a[inner][:, inner].tocsc()
    b = -(a[inner] @ g)
    u = g.copy()
    u[inner] = spla.spsolve(a_ii, b)
    n = 3**level
    return u.reshape(n + 1, n + 1)


def inverse_norm(setup: str, k: int, level: int) -> float:
    """||A_II^-1||_2 of a small regular level, from its dense matrix."""
    a = assemble(setup, k, level)
    inner = interior_mask(level).ravel()
    dense = a[inner][:, inner].toarray()
    return float(1.0 / np.linalg.svd(dense, compute_uv=False).min())


def updates_per_cycle(lmin: int, lmax: int) -> int:
    """adafac-jac work on a regular mesh: one correction equation per DoF
    on every level plus one damping equation per DoF below the top."""
    dofs = [(3**l - 1) ** 2 for l in range(lmin, lmax + 1)]
    return sum(dofs) + sum(dofs[:-1])


def composite_values(refined: list[np.ndarray], u, lmin: int, depth: int
                     ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per level, the mask of vertices owning the solution and the values.

    A vertex owns the solution on level l when it is interior, its four
    level-l cells exist (it is not hanging) and not all four are refined
    (no finer copy exists).  refined[l] marks refined cells of level l;
    the cells of level l exist where their parent is refined.  u maps
    each level lmin..depth to its vertex values.
    """
    out = {}
    for l in range(lmin, depth + 1):
        n = 3**l
        exists = np.kron(refined[l - 1], np.ones((3, 3), dtype=bool))
        ref = refined[l] if l < len(refined) else np.zeros((n, n), dtype=bool)
        ref = ref & exists
        around_exist = np.zeros((n + 1, n + 1), dtype=int)
        around_ref = np.zeros((n + 1, n + 1), dtype=int)
        for a, b in CORNERS:
            around_exist[a:a + n, b:b + n] += exists
            around_ref[a:a + n, b:b + n] += ref
        own = interior_mask(l) & (around_exist == 4) & (around_ref < 4)
        if own.any():
            out[l] = (own, u[l])
    return out


def regular_depth(refined: list[np.ndarray], depth: int) -> bool:
    """True when every cell of every level below depth is refined."""
    return all(bool(refined[l].all()) for l in range(depth))


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def composite_minus_level(comp: dict[int, tuple[np.ndarray, np.ndarray]],
                          ref: np.ndarray, level: int) -> np.ndarray:
    """composite - ref at the composite vertices that coincide with
    vertices of a regular level."""
    diffs = []
    for l, (own, vals) in comp.items():
        if l <= level:
            s = 3 ** (level - l)
            diffs.append(vals[own] - ref[::s, ::s][own])
        else:
            s = 3 ** (l - level)
            sub = own[::s, ::s]
            diffs.append(vals[::s, ::s][sub] - ref[sub])
    return np.concatenate(diffs)
