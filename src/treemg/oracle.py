"""Dense-matrix ground truth for small regular grids.

Everything here is deliberately assembled with plain loops over cells and
vertices, independent of the stencil machinery, so it can serve as an
anti-drift reference for the solver engines: global FE assembly, dense
transfer operators (d-linear and collapsed-stencil), Galerkin triple
products, literal transcriptions of the additive update formula, the
multiplicative V(1,0) two-grid cycle, both damping algorithms and the
masked/BPX baseline rows, plus exact solves.

Matrices are square over ALL vertices of a level (boundary included);
rows of vertices without test functions are zero.  Solution vectors carry
the Dirichlet values, so no fold-in bookkeeping is needed.  Capped at
desk scale: levels up to 3 keep the factorizations trivial.
"""

from __future__ import annotations

import numpy as np

from .discretization import ELEMENT_MATRIX_UNIT, CORNER_OFFSETS, EpsilonField, boundary_value, epsilon_at

__all__ = [
    "DenseLevel",
    "DenseHierarchy",
    "exact_solve",
    "dense_cycle",
    "eq5_difference",
    "two_grid_spectral_radius",
]

MAX_ORACLE_LEVEL = 3


class DenseLevel:
    """One regular level: full matrices over the (n+1)**2 vertex grid."""

    def __init__(self, level: int, field: EpsilonField):
        if level > MAX_ORACLE_LEVEL + 1:
            raise ValueError("dense oracle is capped at desk scale")
        self.level = level
        n = self.n = 3**level
        nv = self.nv = (n + 1) ** 2

        a_raw = np.zeros((nv, nv))
        h = 1.0 / n
        for ci in range(n):
            for cj in range(n):
                eps = epsilon_at(field, (ci + 0.5) * h, (cj + 0.5) * h)
                for a, (a0, a1) in enumerate(CORNER_OFFSETS):
                    ia = self.idx(ci + a0, cj + a1)
                    for b, (b0, b1) in enumerate(CORNER_OFFSETS):
                        ib = self.idx(ci + b0, cj + b1)
                        a_raw[ia, ib] += eps * ELEMENT_MATRIX_UNIT[a, b]
        self.a_raw = a_raw

        self.interior = np.zeros(nv, dtype=bool)
        for i in range(n + 1):
            for j in range(n + 1):
                self.interior[self.idx(i, j)] = 0 < i < n and 0 < j < n
        self.a = np.where(self.interior[:, None], a_raw, 0.0)
        d = np.where(self.interior, np.diag(self.a), 1.0)
        self.inv_diag = np.where(self.interior, 1.0 / d, 0.0)

    def idx(self, i: int, j: int) -> int:
        return i * (self.n + 1) + j

    def boundary_vector(self) -> np.ndarray:
        g = np.zeros(self.nv)
        n = self.n
        for i in range(n + 1):
            for j in range(n + 1):
                if not (0 < i < n and 0 < j < n):
                    g[self.idx(i, j)] = boundary_value(i / n, j / n)
        return g


def dense_bilinear_p(coarse: DenseLevel, fine: DenseLevel) -> np.ndarray:
    """Full d-linear interpolation matrix, fine vertices x coarse vertices."""
    p = np.zeros((fine.nv, coarse.nv))
    for fi in range(fine.n + 1):
        for fj in range(fine.n + 1):
            row = fine.idx(fi, fj)
            for ci in range(coarse.n + 1):
                for cj in range(coarse.n + 1):
                    da, db = fi - 3 * ci, fj - 3 * cj
                    w = max(0.0, 1.0 - abs(da) / 3.0) * max(0.0, 1.0 - abs(db) / 3.0)
                    if w:
                        p[row, coarse.idx(ci, cj)] = w
    return p


def dense_boxmg_p(coarse: DenseLevel, fine: DenseLevel, a: np.ndarray) -> np.ndarray:
    """Collapsed-stencil interpolation built from the fine matrix a.

    Independent loop implementation: identity on c-points, lumped 1D solves
    on coarse-face points (lumping along the face normal), exact local 4x4
    solves for the interior points of each coarse cell.
    """
    nc, nf = coarse.n, fine.n
    p = np.zeros((fine.nv, coarse.nv))
    for ci in range(nc + 1):
        for cj in range(nc + 1):
            p[fine.idx(3 * ci, 3 * cj), coarse.idx(ci, cj)] = 1.0

    def lump(i, j, normal_axis):
        # sum the row over the normal direction; index by the tangential one
        out = np.zeros(3)
        row = a[fine.idx(i, j)]
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                ii, jj = i + da, j + db
                if not (0 <= ii <= nf and 0 <= jj <= nf):
                    continue
                along = db if normal_axis == 0 else da
                out[along + 1] += row[fine.idx(ii, jj)]
        return out

    # horizontal edges (normal y), then vertical edges (normal x): edge
    # (ci, cj) runs from c-point (ci, cj) to (ci + ei, cj + ej)
    for normal, (ei, ej) in ((1, (1, 0)), (0, (0, 1))):
        for ci in range(nc + 1 - ei):
            for cj in range(nc + 1 - ej):
                f1 = (3 * ci + ei, 3 * cj + ej)
                f2 = (3 * ci + 2 * ei, 3 * cj + 2 * ej)
                c1, c2 = lump(*f1, normal), lump(*f2, normal)
                m = np.array([[c1[1], c1[2]], [c2[0], c2[1]]])
                for rhs, col in ((np.array([-c1[0], 0.0]), coarse.idx(ci, cj)),
                                 (np.array([0.0, -c2[2]]), coarse.idx(ci + ei, cj + ej))):
                    w = np.linalg.solve(m, rhs)
                    p[fine.idx(*f1), col] = w[0]
                    p[fine.idx(*f2), col] = w[1]

    # interior points: A P e = 0 on the four points inside each coarse cell
    for ci in range(nc):
        for cj in range(nc):
            f_pts = [(3 * ci + 1, 3 * cj + 1), (3 * ci + 2, 3 * cj + 1),
                     (3 * ci + 1, 3 * cj + 2), (3 * ci + 2, 3 * cj + 2)]
            f_idx = [fine.idx(i, j) for i, j in f_pts]
            corners = [coarse.idx(ci + a, cj + b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]
            a_ff = np.zeros((4, 4))
            rhs = np.zeros((4, 4))
            for r, (i, j) in enumerate(f_pts):
                row = a[fine.idx(i, j)]
                for da in (-1, 0, 1):
                    for db in (-1, 0, 1):
                        t = fine.idx(i + da, j + db)
                        if (i + da, j + db) in f_pts:
                            a_ff[r, f_pts.index((i + da, j + db))] += row[t]
                        else:
                            for c, col in enumerate(corners):
                                rhs[r, c] -= row[t] * p[t, col]
            sol = np.linalg.solve(a_ff, rhs)
            for r, fi in enumerate(f_idx):
                for c, col in enumerate(corners):
                    p[fi, col] = sol[r, c]
    return p


class DenseHierarchy:
    """Dense regular hierarchy from lmin to lmax with transfer operators.

    flavor selects d-linear transfers with rediscretized coarse matrices or
    collapsed-stencil transfers with Galerkin coarse matrices.  omega feeds
    the smoothed auxiliary restriction.
    """

    def __init__(self, lmin: int, lmax: int, field: EpsilonField,
                 flavor: str = "geometric", omega: float = 0.6,
                 omega_tilde: float | None = None, omega_hat: float = 0.7):
        if flavor not in ("geometric", "boxmg"):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.lmin, self.lmax = lmin, lmax
        self.flavor = flavor
        self.omega = omega
        self.omega_tilde = omega if omega_tilde is None else omega_tilde
        self.omega_hat = omega_hat
        self.levels = {l: DenseLevel(l, field) for l in range(lmin, lmax + 1)}
        self.p = {}
        self.rt = {}
        unit = EpsilonField("constant", value=1.0)
        # top-down, so that a Galerkin level reads the finer Galerkin matrix
        for l in range(lmax - 1, lmin - 1, -1):
            coarse, fine = self.levels[l], self.levels[l + 1]
            if flavor == "boxmg":
                # collapse the finer level's final operator, as BoxMG does:
                # Galerkin rows inside, rediscretized rows on the boundary
                a_fine = np.where(fine.interior[:, None], fine.a, fine.a_raw)
                self.p[l] = dense_boxmg_p(coarse, fine, a_fine)
                self.levels[l].a = self._galerkin(l)
                d = np.where(coarse.interior, np.diag(self.levels[l].a), 1.0)
                self.levels[l].inv_diag = np.where(coarse.interior, 1.0 / d, 0.0)
            else:
                self.p[l] = dense_bilinear_p(coarse, fine)
            # smoothed auxiliary restriction from the unit-coefficient level
            a1 = DenseLevel(l + 1, unit)
            self.rt[l] = self.omega * self.p[l].T @ a1.a @ np.diag(a1.inv_diag)

    def _galerkin(self, l: int) -> np.ndarray:
        fine_a = self.levels[l + 1].a
        p = self.p[l]
        a_c = p.T @ fine_a @ p
        return np.where(self.levels[l].interior[:, None], a_c, 0.0)

    def injection(self, l: int) -> np.ndarray:
        """Coarse-from-fine picking matrix at coinciding vertices."""
        coarse, fine = self.levels[l], self.levels[l + 1]
        inj = np.zeros((coarse.nv, fine.nv))
        for ci in range(coarse.n + 1):
            for cj in range(coarse.n + 1):
                inj[coarse.idx(ci, cj), fine.idx(3 * ci, 3 * cj)] = 1.0
        return inj

    def fine(self) -> DenseLevel:
        return self.levels[self.lmax]

    def prolong_chain(self, vec: np.ndarray, from_level: int) -> np.ndarray:
        for l in range(from_level, self.lmax):
            vec = self.p[l] @ vec
        return vec


def exact_solve(level: DenseLevel, b: np.ndarray | None = None) -> np.ndarray:
    """Solve the interior system by Cholesky; returns the full vector with
    boundary values in place."""
    g = level.boundary_vector()
    rhs = np.zeros(level.nv) if b is None else b.copy()
    mask = level.interior
    a_ii = level.a_raw[np.ix_(mask, mask)]
    rhs_i = rhs[mask] - level.a_raw[np.ix_(mask, ~mask)] @ g[~mask]
    chol = np.linalg.cholesky(a_ii)  # SPD after elimination; raises otherwise
    y = np.linalg.solve(chol, rhs_i)
    u_i = np.linalg.solve(chol.T, y)
    out = g.copy()
    out[mask] = u_i
    return out


# -- literal cycle transcriptions -------------------------------------------


def _omega_add(h: DenseHierarchy, l: int, variant: str) -> float:
    if variant == "additive-exp":
        return h.omega_hat ** (h.lmax - l)
    return h.omega


def dense_cycle(h: DenseHierarchy, variant: str, u: np.ndarray,
                b: np.ndarray | None = None) -> np.ndarray:
    """One cycle of the named solver as a literal matrix formula.

    u and the returned iterate live on the finest level's full vertex grid
    (Dirichlet values included).
    """
    fine = h.fine()
    b = np.zeros(fine.nv) if b is None else b
    r = b - fine.a @ u

    if variant in ("additive", "additive-exp", "bpx"):
        out = u.copy()
        rl = r
        for l in range(h.lmax, h.lmin - 1, -1):
            if l < h.lmax:
                rl = h.p[l].T @ rl
            w = _omega_add(h, l, variant)
            if variant == "bpx" and l < h.lmax:
                upd = w * rl * h.levels[l].interior  # h**(d-2) == 1 for d == 2
            else:
                upd = w * h.levels[l].inv_diag * rl
            out += h.prolong_chain(upd, l)
        return out

    if variant == "afacc":
        out = u.copy()
        rl = r
        for l in range(h.lmax, h.lmin - 1, -1):
            if l < h.lmax:
                masked = rl - h.injection(l).T @ (h.injection(l) @ rl)
                rl = h.p[l].T @ masked
            out += h.prolong_chain(h.omega * h.levels[l].inv_diag * rl, l)
        return out

    if variant == "adafac-jac":
        bl = {h.lmax: r}
        btl = {}
        for l in range(h.lmax - 1, h.lmin - 1, -1):
            bl[l] = h.p[l].T @ bl[l + 1]
            btl[l] = h.rt[l] @ bl[l + 1]
        out = u.copy()
        for l in range(h.lmin, h.lmax + 1):
            c = h.omega * h.levels[l].inv_diag * bl[l]
            out += h.prolong_chain(c, l)
            if l < h.lmax:
                ct = h.omega_tilde * h.levels[l].inv_diag * btl[l]
                out -= h.prolong_chain(ct, l)
        return out

    if variant == "adafac-pi":
        bl = {h.lmax: r}
        for l in range(h.lmax - 1, h.lmin - 1, -1):
            bl[l] = h.p[l].T @ bl[l + 1]
        out = u.copy()
        for l in range(h.lmin, h.lmax + 1):
            c = h.omega * h.levels[l].inv_diag * bl[l]
            if l > h.lmin:
                c = c - h.p[l - 1] @ (h.injection(l - 1) @ c)
            out += h.prolong_chain(c, l)
        return out

    if variant in ("multiplicative-v10", "additive-exact-coarse"):
        sm = u + h.omega * fine.inv_diag * r
        res = b - fine.a @ sm if variant == "multiplicative-v10" else r
        return sm + _coarse_correction(h, res)

    raise ValueError(f"unknown dense cycle variant {variant!r}")


def _coarse_correction(h: DenseHierarchy, res: np.ndarray) -> np.ndarray:
    """The exact two-grid coarse correction P A_c^-1 R res."""
    if h.lmax - h.lmin != 1:
        raise ValueError("two-grid reference only")
    coarse = h.levels[h.lmin]
    mask = coarse.interior
    rc = h.p[h.lmin].T @ res
    c = np.zeros(coarse.nv)
    c[mask] = np.linalg.solve(coarse.a[np.ix_(mask, mask)], rc[mask])
    return h.p[h.lmin] @ c


def eq5_difference(h: DenseHierarchy, u: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Literal right-hand side of the overshoot identity on two grids:
    P A_c^-1 R (b - A[u + w M^-1 (b - A u)]) - P A_c^-1 R (b - A u)."""
    fine = h.fine()
    b = np.zeros(fine.nv) if b is None else b
    r = b - fine.a @ u
    sm = u + h.omega * fine.inv_diag * r
    return _coarse_correction(h, b - fine.a @ sm) - _coarse_correction(h, r)


def two_grid_spectral_radius(h: DenseHierarchy, variant: str, iters: int = 200,
                             seed: int = 0) -> float:
    """Power-iteration estimate of the iteration matrix spectral radius.

    Runs on the homogeneous problem (zero rhs, zero boundary data), where
    one cycle is a linear map."""
    rng = np.random.default_rng(seed)
    fine = h.fine()
    v = rng.standard_normal(fine.nv) * fine.interior
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(iters):
        w = dense_cycle(h, variant, v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        rho = nw
        v = w / nw
    return rho
