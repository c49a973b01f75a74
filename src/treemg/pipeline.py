"""Single-touch traversal engine.

One depth-first sweep of the spacetree realizes one additive cycle by
offsetting update application half a sweep: during the descent a vertex
consumes what the previous sweep bookmarked (prolonged coarse corrections,
its own damping, injected finer-level updates) and resets its
right-hand-side accumulators; two element matrix-vector products
accumulate while cells are entered (the full operator image and the part
contributed by refined cells, whose difference at the last touch is the
local share of the correction-consistent right-hand side); when a vertex
is touched for the last time all restrictions from finer levels have
arrived, so it computes its Jacobi update, applies and bookmarks it, and
restricts its residual to the parent level.  n cycles therefore cost
n + 1 sweeps: the kick-off sweep only computes, the following sweeps both
apply and compute.

Bookmark layout per vertex: sl (own update), stl (own damping term), sc
(prolongation carry), sf (injected sum of finer updates), b and bt
(restricted right-hand sides; bt double-buffered), and for the
injection-damped variant a double-buffered field tco of injected c-point
updates.

Where the half-sweep schedule leaves room for interpretation, the binding
requirement is iterate equality with the level-by-level reference engine:

- the carry a vertex prepares for finer levels is sl - stl plus the
  prolonged parent carry (adding the prolonged parent damping separately
  would double-count it);
- the damping update of cycle n is computed at the first touch of sweep
  n+2 from accumulators filled during sweep n+1, because the smoothed
  restriction's +-3-offset ring can reach coarse targets whose cells are
  not adjacent to the source, so producing and consuming the damping
  right-hand side within one sweep would depend on the traversal order
  (and, at refinement-patch boundaries, mix cycles);
- the injected effect of finer-level damping on coarser levels is read
  directly off the finer levels' still-unconsumed accumulators during the
  descent, which equals the eagerly propagated injection chain.

The engine supports the plain additive solver and both damped variants.
Strictly one execution context per tree; helper bookkeeping is
order-dependent within a sweep, but the produced iterates are not: any
depth-first child order yields the same cycle.
"""

from __future__ import annotations

import numpy as np

from .discretization import ELEMENT_MATRIX_UNIT
from .operators import geometric_prolongation
from .solvers import PIPELINE_VARIANTS, ReferenceEngine, SolverConfig
from .spacetree import PEANO_CHILD_ORDER, Spacetree, VertexKind, traverse

__all__ = ["PipelineEngine", "sweep_count_for_cycles"]


def sweep_count_for_cycles(n: int) -> int:
    """Tree traversals needed for n cycles: one per cycle plus kick-off."""
    if n < 0:
        raise ValueError("cycle count must be non-negative")
    return n + 1


class PipelineEngine(ReferenceEngine):
    """Single-touch engine; iterates equal the reference engine's.

    advance() performs one sweep and returns the residual statistics of the
    iterate that sweep's restrictions were computed from, exactly matching
    the reference engine's advance().  A cycle's iterate becomes readable
    only after the next sweep's descent; capture_iterate=True snapshots it
    then (available as last_snapshot).
    """

    def __init__(self, tree: Spacetree, cfg: SolverConfig,
                 child_order=PEANO_CHILD_ORDER):
        if cfg.variant not in PIPELINE_VARIANTS:
            raise ValueError(
                f"pipelined engine supports {PIPELINE_VARIANTS}, not {cfg.variant!r}")
        self.child_order = child_order
        self._swept = False
        self.last_snapshot = None
        self.last_counters = None
        super().__init__(tree, cfg)

    # -- construction --------------------------------------------------------

    def rebuild(self) -> None:
        super().rebuild()
        self._ensure_helpers()

    def _ensure_helpers(self) -> None:
        tree = self.tree
        old = getattr(self, "helpers", {})
        self.helpers = {}
        names = ("sl", "stl", "sc", "sf", "b", "bt_r", "bt_w", "acc_au",
                 "acc_ar", "tco_r", "tco_w")
        for l in range(tree.lmin, self.ltop + 1):
            if l in old and old[l]["sl"].shape == tree.u[l].shape:
                self.helpers[l] = old[l]
            else:
                shape = tree.u[l].shape
                self.helpers[l] = {n: np.zeros(shape) for n in names}
        self.diag = {l: np.where(self.masks[l]["dof"], self.ops[l].diag(), 1.0)
                     for l in range(tree.lmin, self.ltop + 1)}
        # per-cell element splits of the stored stencils, for the mat-vec
        # accumulation (a cell's share of each vertex-pair coupling)
        self._splits = {}
        for l in range(tree.lmin, self.ltop + 1):
            if hasattr(self.ops[l], "eps"):
                self._splits[l] = None  # element operator: use eps directly
            else:
                self._splits[l] = self._split_table(l)
        self._geo_weights = geometric_prolongation().values

    def _split_table(self, l: int) -> np.ndarray:
        """Stencil entries divided by the number of cells sharing each
        coupling, so that summing the per-cell parts reproduces the rows."""
        tbl = self.ops[l].table()
        n = 3**l
        cells = np.zeros((n + 2, n + 2), dtype=np.int8)
        cells[1:-1, 1:-1] = self.tree.cells_exist(l)
        shares = np.zeros(tbl.shape)
        for a in range(3):
            for b in range(3):
                shares[:, :, a, b] = np.maximum(
                    self._shared_cell_count(cells, n, a - 1, b - 1), 1)
        return tbl / shares

    @staticmethod
    def _shared_cell_count(cells_padded: np.ndarray, n: int, da: int, db: int) -> np.ndarray:
        """Number of existing cells whose corner set contains both v and
        v + (da, db), per vertex v."""
        count = np.zeros((n + 1, n + 1), dtype=np.int8)
        for ci in (-1, 0):
            for cj in (-1, 0):
                # cell at (v_i + ci, v_j + cj) always contains v; it also
                # contains v + d iff d - (ci, cj) lies in {0, 1}^2
                if da - ci in (0, 1) and db - cj in (0, 1):
                    count += cells_padded[1 + ci : n + 2 + ci, 1 + cj : n + 2 + cj]
        return count

    def reset_helpers(self) -> None:
        for fields in self.helpers.values():
            for arr in fields.values():
                arr.fill(0.0)
        self._swept = False

    # -- local transfer evaluations ------------------------------------------

    def _p_weight(self, lc: int, wi: int, wj: int, oi: int, oj: int) -> float:
        tr = self.transfers[lc]
        if tr.p_table is None:
            return float(self._geo_weights[oi + 3, oj + 3])
        return float(tr.p_table[wi, wj, oi + 3, oj + 3])

    def _prolong_at(self, lc: int, arr: np.ndarray, i: int, j: int) -> float:
        nc = 3**lc
        total = 0.0
        for wi in range(max(0, (i - 1) // 3), min(nc, (i + 3) // 3) + 1):
            oi = i - 3 * wi
            for wj in range(max(0, (j - 1) // 3), min(nc, (j + 3) // 3) + 1):
                oj = j - 3 * wj
                w = self._p_weight(lc, wi, wj, oi, oj)
                if w != 0.0:
                    total += w * arr[wi, wj]
        return total

    def _dlinear_parent(self, l: int, i: int, j: int) -> float:
        ci, ri = divmod(i, 3)
        cj, rj = divmod(j, 3)
        coarse = self.tree.u[l - 1]
        wi, wj = 1.0 - ri / 3.0, 1.0 - rj / 3.0
        val = wi * wj * coarse[ci, cj]
        if ri:
            val += (1.0 - wi) * wj * coarse[ci + 1, cj]
        if rj:
            val += wi * (1.0 - wj) * coarse[ci, cj + 1]
        if ri and rj:
            val += (1.0 - wi) * (1.0 - wj) * coarse[ci + 1, cj + 1]
        return val

    def _damping_chain(self, l: int, i: int, j: int) -> float:
        """Injected damping of all finer levels, read at the coarse vertex.

        The finer levels' damping updates of the cycle being applied exist
        only as unconsumed accumulators here (their own first touches come
        later in the descent), so the injection chain reads them directly.
        The chain stops where the coincident finer vertex stops being a
        persistent degree of freedom.
        """
        cfg = self.cfg
        total = 0.0
        ii, jj = i, j
        for lj in range(l + 1, self.ltop + 1):
            if not self.masks[lj - 1]["injected"][ii, jj]:
                break
            ii *= 3
            jj *= 3
            if cfg.variant == "adafac-jac":
                if lj < self.ltop:
                    total += cfg.damping_scale * cfg.wt * \
                        self.helpers[lj]["bt_r"][ii, jj] / self.diag[lj][ii, jj]
            elif cfg.variant == "adafac-pi":
                total += cfg.damping_scale * self.helpers[lj - 1]["tco_r"][ii // 3, jj // 3]
        return total

    def _scatter_to_parent(self, l: int, i: int, j: int, res: float, rho: float) -> None:
        lc = l - 1
        nc = 3**lc
        hlc = self.helpers[lc]
        tr = self.transfers[lc]
        jac = self.cfg.variant == "adafac-jac"
        rt_const = jac and tr.rtilde is not None and tr.rtilde.ndim == 2
        for wi in range(max(0, (i - 1) // 3), min(nc, (i + 3) // 3) + 1):
            oi = i - 3 * wi
            for wj in range(max(0, (j - 1) // 3), min(nc, (j + 3) // 3) + 1):
                oj = j - 3 * wj
                w = self._p_weight(lc, wi, wj, oi, oj)
                if w != 0.0:
                    hlc["b"][wi, wj] += w * res
                if jac:
                    if rt_const:
                        wrt = tr.rtilde[oi + 3, oj + 3]
                    else:
                        wrt = tr.rtilde[wi, wj, oi + 3, oj + 3]
                    if wrt != 0.0:
                        hlc["bt_w"][wi, wj] += wrt * rho

    # -- sweep ---------------------------------------------------------------

    def sweep(self, phase: str, **kw):
        """Explicit-phase entry point; steady sweeps need a kick-off first."""
        if phase not in ("kickoff", "steady"):
            raise ValueError(f"unknown sweep phase {phase!r}")
        if phase == "steady" and not self._swept:
            raise RuntimeError("steady sweep requested before kick-off")
        if phase == "kickoff" and self._swept:
            raise RuntimeError("kick-off requested on already-running pipeline")
        return self.advance(**kw)

    def advance(self, capture_iterate: bool = False, count_touches: bool = False):
        tree = self.tree
        cfg = self.cfg
        l0, ltop = tree.lmin, self.ltop
        stats = self._new_stats()
        snapshot = None
        if capture_iterate:
            snapshot = {l: tree.u[l].copy() for l in range(l0, ltop + 1)}
        kinds = {l: self.masks[l]["kinds"] for l in range(l0, ltop + 1)}

        def first_touch(v):
            l = v.level
            if l < l0:
                return
            i, j = v.i, v.j
            h = self.helpers[l]
            kind = kinds[l][i, j]
            if kind == VertexKind.HANGING:
                tree.u[l][i, j] = self._dlinear_parent(l, i, j)
                h["sc"][i, j] = self._prolong_at(l - 1, self.helpers[l - 1]["sc"], i, j) \
                    if l > l0 else 0.0
            elif kind == VertexKind.DIRICHLET:
                h["sc"][i, j] = 0.0
            else:
                stl = 0.0
                if cfg.variant == "adafac-jac" and l < ltop:
                    stl = cfg.damping_scale * cfg.wt * h["bt_r"][i, j] / self.diag[l][i, j]
                elif cfg.variant == "adafac-pi" and l > l0:
                    stl = cfg.damping_scale * self._prolong_at(
                        l - 1, self.helpers[l - 1]["tco_r"], i, j)
                h["stl"][i, j] = stl
                carry_in = self._prolong_at(l - 1, self.helpers[l - 1]["sc"], i, j) \
                    if l > l0 else 0.0
                u = tree.u[l]
                u[i, j] += carry_in - stl
                h["sc"][i, j] = h["sl"][i, j] - stl + carry_in
                u[i, j] += h["sf"][i, j] - self._damping_chain(l, i, j)
            h["sf"][i, j] = 0.0
            h["b"][i, j] = 0.0
            h["acc_au"][i, j] = 0.0
            h["acc_ar"][i, j] = 0.0
            if snapshot is not None:
                snapshot[l][i, j] = tree.u[l][i, j]

        def descend(cell, verts, parent, parent_verts):
            l = cell.level
            if l < l0:
                return
            h = self.helpers[l]
            u = tree.u[l]
            split = self._splits[l]
            refined = tree.is_refined(cell)
            cidx = [(v.i, v.j) for v in verts]
            uv = [u[p] for p in cidx]
            E1 = ELEMENT_MATRIX_UNIT
            eps = float(self.eff_eps[l][cell.i, cell.j])
            if split is None:
                for a in range(4):
                    acc = 0.0
                    for b in range(4):
                        acc += E1[a, b] * uv[b]
                    h["acc_au"][cidx[a]] += eps * acc
                    if refined:
                        h["acc_ar"][cidx[a]] += eps * acc
            else:
                for a in range(4):
                    ai, aj = cidx[a]
                    acc = 0.0
                    acce = 0.0
                    for b in range(4):
                        da = cidx[b][0] - ai + 1
                        db = cidx[b][1] - aj + 1
                        acc += split[ai, aj, da, db] * uv[b]
                        if refined:
                            acce += E1[a, b] * uv[b]
                    h["acc_au"][ai, aj] += acc
                    if refined:
                        h["acc_ar"][ai, aj] += eps * acce

        def last_touch(v):
            l = v.level
            if l < l0:
                return
            i, j = v.i, v.j
            kind = kinds[l][i, j]
            if kind in (VertexKind.NONE, VertexKind.DIRICHLET):
                return
            h = self.helpers[l]
            overlapped = kind == VertexKind.COARSE_OVERLAPPED
            bpart = h["acc_au"][i, j] if overlapped else h["acc_ar"][i, j]
            rho = h["b"][i, j] + bpart - h["acc_au"][i, j]
            if kind == VertexKind.HANGING:
                # no equation here, but the accumulated residual moves on
                # coarse-ward so composite transitions stay consistent; the
                # damping right-hand side only collects smoothed vertices
                if l > l0:
                    self._scatter_to_parent(l, i, j, rho, 0.0)
                return
            if kind == VertexKind.INTERIOR_DOF:
                hw = self.hweight[l]
                hwv = hw[0, 0] if hw.shape == (1, 1) else hw[i, j]
                stats.l2h += (hwv * rho) ** 2
                stats.linf = max(stats.linf, abs(rho))
            d = cfg.omega * rho / self.diag[l][i, j]
            h["sl"][i, j] = d
            tree.u[l][i, j] += d
            if l > l0:
                self._scatter_to_parent(l, i, j, rho, rho)
                if i % 3 == 0 and j % 3 == 0:
                    ci, cj = i // 3, j // 3
                    self.helpers[l - 1]["sf"][ci, cj] = h["sf"][i, j] + d
                    if cfg.variant == "adafac-pi":
                        self.helpers[l - 1]["tco_w"][ci, cj] = d

        counters = traverse(
            tree,
            descend_into_cell=descend,
            touch_vertex_first_time=first_touch,
            touch_vertex_last_time=last_touch,
            child_order=self.child_order,
            count_touches=count_touches,
        )
        # swap the double-buffered damping accumulators: what this sweep
        # scattered becomes readable next sweep (patch-boundary sources can
        # fire before their coarse targets are first-touched, so a single
        # buffer would mix cycles on adaptive meshes)
        if cfg.variant == "adafac-jac":
            for l in range(l0, ltop + 1):
                h = self.helpers[l]
                h["bt_r"], h["bt_w"] = h["bt_w"], h["bt_r"]
                h["bt_w"].fill(0.0)
        if cfg.variant == "adafac-pi":
            for l in range(l0, ltop + 1):
                h = self.helpers[l]
                h["tco_r"], h["tco_w"] = h["tco_w"], h["tco_r"]
                h["tco_w"].fill(0.0)
        self._swept = True
        self.last_snapshot = snapshot
        self.last_counters = counters
        return self.finalize_stats(stats)
