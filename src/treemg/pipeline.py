"""Single-touch traversal engine.

One depth-first sweep of the spacetree realizes one additive cycle by
offsetting update application half a sweep: during the descent a vertex
consumes what the previous sweep bookmarked (prolonged coarse corrections,
its own damping, injected finer-level updates) and resets its
right-hand-side accumulators; one element matrix-vector product per leaf
cell accumulates while the cell is entered (refined cells carry no
arithmetic: a level's residual is its leaf-cell residual plus the
restricted finer one); when a vertex is touched for the last time all
restrictions from finer levels have arrived, so it computes its residual
and Jacobi update, applies and bookmarks the update, and restricts the
residual to the parent level.  n cycles therefore cost
n + 1 sweeps: the kick-off sweep only computes, the following sweeps both
apply and compute.

Bookmark layout per vertex: sl (own update), sc (prolongation carry), sf
(injected sum of finer updates), b and bt (restricted right-hand sides; bt
double-buffered), au (the leaf-cell mat-vec), and for the injection-damped
variant a double-buffered field tco of injected c-point updates.  A
vertex's own damping term stl lives only within its first touch.

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

The operators are those of the reference engine, but built at once: the
reference engine propagates the BoxMG operators one level per cycle, and
a sweep that mixes two cycles would mix two operator sets, so rebuild()
builds every stale level before the traversal is compiled.  BoxMG levels
store no R~, so the compilation composes their R~ rows from P with
smoothed_restriction_table, one level at a time.

The traversal is compiled once per mesh, at the first sweep after
rebuild(): ``traverse`` yields the event stream, and numpy turns it,
_VERTEX_BLOCK vertices at a time, into a plan of Python lists and tuples:

- the stream, two parallel lists: event codes, which fold in each
  vertex's kind, and ids, vertex ids or, on entering a cell, cell indices;
- per vertex id: diagonal, h-weight, prolongation rows (which also
  scatter restrictions and interpolate hanging values), R~ rows, damping
  chain and c-point parent;
- per leaf cell: the flat tuple (c0, c1, c2, c3, eps) of its corners and
  material.

The plan holds each number once, as lean per-vertex state: every id is
the int object of one pool shared by the stream, the rows, the parents
and the cells, every float is interned by value, and each row is a tuple
of (source, weight) entries interned by value.  A sweep is one loop over
zip(codes, ids), with every arithmetic expression in the order of the
definitions above.

The bookmarks are Python lists over the flat vertex ids and stay in place
from one sweep to the next, as a stack-based traversal keeps vertex state
between grid sweeps; ``rebuild()`` extends them to new vertices, and
``helpers`` hands out numpy copies.  ``tree.u`` is read at the start of
every sweep and written back at its end.

The engine supports the plain additive solver and both damped variants.
Strictly one execution context per tree; helper bookkeeping is
order-dependent within a sweep, but the produced iterates are not: any
depth-first child order yields the same cycle.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .discretization import ELEMENT_MATRIX_UNIT
from .operators import geometric_prolongation, smoothed_restriction_table
from .solvers import PIPELINE_VARIANTS, ReferenceEngine, SolverConfig
from .spacetree import (
    ENTER_CELL,
    FIRST_TOUCH,
    PEANO_CHILD_ORDER,
    Spacetree,
    TraversalCounters,
    TraversalPlan,
    VertexKind,
    traverse,
    vertex_offsets,
)

__all__ = ["PipelineEngine"]

HELPERS = ("sl", "sc", "sf", "b", "bt_r", "bt_w", "acc_au", "tco_r", "tco_w")

# event codes of a compiled sweep: enter a leaf cell; first touch of a hanging,
# Dirichlet, undamped or damped equation vertex; last touch of a vertex
# without equation, a hanging, a composite or a coarse-overlapped vertex
(ENTER, FIRST_HANGING, FIRST_DIRICHLET, FIRST_DOF, FIRST_DAMPED,
 LAST_NONE, LAST_HANGING, LAST_COMPOSITE, LAST_OVERLAPPED) = range(9)


# Vertices per chunk of _vertex_rows' index arrays, and values per chunk of
# _objects' conversions: about 1 MB of (chunk, 9) gathers and masks,
# whatever the size of the level.
_VERTEX_BLOCK = 2048


class _Interned(dict):
    """One object per value: pool[v] is the first object equal to v.  +0.0
    and -0.0 are one key, and a sweep reads no pooled zero: zero weights
    are skipped, materials and diagonals are positive where they are read,
    and h-weights are squared."""

    def __missing__(self, value):
        self[value] = value
        return value


def _objects(get, values: np.ndarray) -> list:
    """get(v) for each v of the 1-D array values, converted _VERTEX_BLOCK
    at a time, so that few fresh Python numbers live at once."""
    out = []
    for k in range(0, values.size, _VERTEX_BLOCK):
        out += map(get, values[k : k + _VERTEX_BLOCK].tolist())
    return out


def _ragged(keep: np.ndarray, items: list) -> list[tuple]:
    """Per row of keep, its share of items, the kept entries in row-major
    order, as one tuple."""
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [tuple(items[a:b]) for a, b in zip([0] + ends[:-1], ends)]


class PipelineEngine(ReferenceEngine):
    """Single-touch engine; iterates equal the reference engine's.

    advance() performs one sweep and returns the residual statistics of the
    iterate that sweep's restrictions were computed from, exactly matching
    the reference engine's advance().  A cycle's iterate becomes readable
    only after the next sweep's descent; capture_iterate=True snapshots it
    then (available as last_snapshot).  tree.u holds the state after each
    sweep, and each read of helpers[l][name] gives a copy of its bookmarks.
    """

    def __init__(self, tree: Spacetree, cfg: SolverConfig,
                 child_order=PEANO_CHILD_ORDER):
        if cfg.variant not in PIPELINE_VARIANTS:
            raise ValueError(
                f"pipelined engine supports {PIPELINE_VARIANTS}, not {cfg.variant!r}")
        self.child_order = child_order
        self.last_snapshot = None
        self.last_counters = None
        self._lists = dict.fromkeys(HELPERS, [])
        super().__init__(tree, cfg)

    # -- construction --------------------------------------------------------

    def rebuild(self) -> None:
        """Rebuild the operators, every BoxMG level at once; helpers of
        existing levels keep their values, and the traversal is compiled
        again at the next sweep."""
        super().rebuild()
        if self.masks[self.tree.lmin]["hanging"].any():
            raise ValueError("pipelined engine: level lmin has hanging vertices")
        while self.build_stale_level():
            pass
        # one list per helper over the flat vertex ids of levels 0..ltop
        n = vertex_offsets(self.ltop)[-1]
        self._lists = {name: old[:n] + [0.0] * (n - len(old))
                       for name, old in self._lists.items()}
        self._plan = None

    @property
    def helpers(self) -> dict[int, dict[str, np.ndarray]]:
        """helpers[l][name]: a copy of one helper on level l after the
        last sweep."""
        off = vertex_offsets(self.ltop)
        return {l: {name: np.array(self._lists[name][off[l]:off[l + 1]]).reshape(
                        self.tree.u[l].shape) for name in HELPERS}
                for l in range(self.tree.lmin, self.ltop + 1)}

    # -- compilation -----------------------------------------------------------

    def _compile(self) -> SimpleNamespace:
        """Event stream and flat per-vertex and per-cell rows of this mesh,
        built from one pool of vertex-id ints and interned floats and row
        entries."""
        tree, cfg = self.tree, self.cfg
        l0, ltop = tree.lmin, self.ltop
        plan = traverse(tree, self.child_order)
        off = plan.offsets
        # one int object per vertex id, also taken for the cell indices,
        # which are fewer
        pool, floats = list(range(off[-1])), _Interned()

        def per_vertex(arrays, fill):
            out = np.full(off[-1], fill)
            for l in range(l0, ltop + 1):
                out[off[l]:off[l + 1]] = np.broadcast_to(arrays[l], tree.u[l].shape).ravel()
            return out

        # the rows before the stream's index arrays exist: built after them,
        # they raised the traced peak of set-up and two sweeps by a fifth
        rows = self._vertex_rows(plan, pool, floats)
        cells = self._cell_rows(plan, pool, floats)
        kind = per_vertex({l: m["kinds"] for l, m in self.masks.items()}, VertexKind.NONE)
        level = np.repeat(np.arange(ltop + 1), np.diff(off))
        first = np.select([kind == VertexKind.HANGING, kind == VertexKind.DIRICHLET],
                          [FIRST_HANGING, FIRST_DIRICHLET], FIRST_DOF)
        damped = {"adafac-jac": level < ltop, "adafac-pi": level > l0}.get(cfg.variant, False)
        first[(first == FIRST_DOF) & damped] = FIRST_DAMPED
        last = np.select([kind == VertexKind.HANGING, kind == VertexKind.INTERIOR_DOF,
                          kind == VertexKind.COARSE_OVERLAPPED],
                         [LAST_HANGING, LAST_COMPOSITE, LAST_OVERLAPPED], LAST_NONE)
        # the stream without cells and vertices below lmin, which a sweep
        # leaves alone, and without refined cells, which carry no arithmetic
        cell = plan.event_kind == ENTER_CELL
        ev, vid = plan.event_id, plan.event_id[~cell]
        code = np.full(len(ev), ENTER)
        code[~cell] = np.where(plan.event_kind[~cell] == FIRST_TOUCH, first[vid], last[vid])
        ev_level = np.empty_like(ev)
        ev_level[~cell], ev_level[cell] = level[vid], plan.cell_level[ev[cell]]
        keep = ev_level >= l0
        keep[cell] &= ~plan.cell_refined[ev[cell]]
        return SimpleNamespace(
            codes=code[keep].tolist(), ids=_objects(pool.__getitem__, ev[keep]),
            offsets=off, cells=cells,
            diag=_objects(floats.__getitem__, per_vertex(self.diag, 1.0)),
            hw=_objects(floats.__getitem__, per_vertex(self.hweight, 0.0)), **rows)

    def _vertex_rows(self, plan: TraversalPlan, pool: list,
                     floats: _Interned) -> dict[str, list]:
        """Per flat vertex id: prolongation rows and R~ rows as tuples of
        (source, weight) entries in the order wi outer, wj inner with zero
        weights skipped, damping-chain sources and c-point parent.  A
        prolongation row also scatters the vertex's residual to the coarser
        level, and at a hanging vertex it gives the value: both flavours' P
        hold the d-linear weights there, at most two terms along a coarse
        edge.  Every source is the pool's int, every weight an interned
        float, every entry interned by value; the index arrays run over
        _VERTEX_BLOCK vertices at a time."""
        l0, ltop = self.tree.lmin, self.ltop
        jac, pi = self.cfg.variant == "adafac-jac", self.cfg.variant == "adafac-pi"
        off, ids = plan.offsets, plan.vertex_id
        nv = off[-1]
        rows = {name: [()] * nv for name in ("prow", "rrow", "chain")}
        cpar = [-1] * nv
        geo = geometric_prolongation()

        def entry_rows(keep, src, w):
            ents = zip(map(pool.__getitem__, src[keep].tolist()),
                       map(floats.__getitem__, w[keep].tolist()))
            return _ragged(keep, list(map(entries.__getitem__, ents)))

        for l in range(l0, ltop + 1):
            lc, nc = l - 1, 3 ** (l - 1)
            tr = self.transfers[lc] if l > l0 else None
            rtable = (smoothed_restriction_table(tr.p_planes, tr.omega)
                      if jac and tr is not None and tr.p_planes is not None else None)
            # the sources of this level's entries lie on level lc only
            entries = _Interned()
            for start in range(off[l], off[l + 1], _VERTEX_BLOCK):
                span = slice(start, min(start + _VERTEX_BLOCK, off[l + 1]))
                I, J = np.divmod(np.arange(span.start, span.stop) - off[l], 3**l + 1)
                if tr is not None:
                    ci = np.maximum(0, (I - 1) // 3)[:, None] + np.repeat(np.arange(3), 3)
                    cj = np.maximum(0, (J - 1) // 3)[:, None] + np.tile(np.arange(3), 3)
                    ok = (ci <= np.minimum(nc, (I + 3) // 3)[:, None]) & \
                         (cj <= np.minimum(nc, (J + 3) // 3)[:, None])
                    ci, cj = np.minimum(ci, nc), np.minimum(cj, nc)
                    di, dj = I[:, None] - 3 * ci, J[:, None] - 3 * cj
                    src = ids(lc, ci, cj)
                    # P's planes reach offsets -2..2, R~'s table -3..3
                    near = (np.abs(di) <= 2) & (np.abs(dj) <= 2)
                    pa, pb = np.clip(di, -2, 2) + 2, np.clip(dj, -2, 2) + 2
                    w = geo[pa, pb] if tr.p_planes is None else tr.p_planes[pa, pb, ci, cj]
                    rows["prow"][span] = entry_rows(ok & near & (w != 0.0), src, w)
                    oi, oj = np.clip(di, -3, 3) + 3, np.clip(dj, -3, 3) + 3
                    if jac:
                        rt = (tr.rtilde[oi, oj] if tr.p_planes is None else
                              rtable[ci, cj, oi, oj])
                        rows["rrow"][span] = entry_rows(ok & (rt != 0.0), src, rt)
                    cpt = np.flatnonzero((I % 3 == 0) & (J % 3 == 0))
                    parents = ids(lc, I[cpt] // 3, J[cpt] // 3).tolist()
                    for x, p in zip((span.start + cpt).tolist(), parents):
                        cpar[x] = pool[p]
                if not (jac or pi):
                    continue
                # injected damping of finer levels: the injection targets at
                # the vertex's position on levels k, as long as each one is
                # injected; adafac-jac reads the damping of level k + 1
                # below the top
                alive, live, srcs = np.ones(len(I), dtype=bool), [], []
                for k in range(l, ltop - 1 if jac else ltop):
                    s = 3 ** (k - l)
                    alive = alive & self.masks[k]["injected"][I * s, J * s]
                    live.append(alive)
                    srcs.append(ids(k + 1, 3 * I * s, 3 * J * s) if jac else ids(k, I * s, J * s))
                if srcs:
                    keep = np.stack(live, axis=1)
                    chain = np.stack(srcs, axis=1)[keep].tolist()
                    rows["chain"][span] = _ragged(keep, list(map(pool.__getitem__, chain)))
        rows["cpar"] = cpar
        return rows

    def _cell_rows(self, plan: TraversalPlan, pool: list, floats: _Interned) -> list:
        """Per leaf cell of lmin and finer: the flat tuple of its corners,
        the pool's ints, and its material sample, an interned float that
        scales the unit element matrix."""
        cells = [None] * len(plan.cell_level)
        for l in range(self.tree.lmin, self.ltop + 1):
            idx = np.flatnonzero((plan.cell_level == l) & ~plan.cell_refined)
            corners = plan.cell_corners[idx]
            ci, cj = np.divmod(corners[:, 0] - plan.offsets[l], 3**l + 1)
            cols = [_objects(pool.__getitem__, c) for c in corners.T]
            cols.append(_objects(floats.__getitem__, self.eff_eps[l][ci, cj]))
            for k, row in zip(idx.tolist(), zip(*cols)):
                cells[k] = row
        return cells

    # -- sweep ---------------------------------------------------------------

    def advance(self, capture_iterate: bool = False, count_touches: bool = False):
        if self._plan is None:
            self._plan = self._compile()
        plan = self._plan
        tree, cfg = self.tree, self.cfg
        l0, ltop, off = tree.lmin, self.ltop, plan.offsets
        jac, pi = cfg.variant == "adafac-jac", cfg.variant == "adafac-pi"
        omega, wt = cfg.omega, cfg.wt
        cells, prow, rrow = plan.cells, plan.prow, plan.rrow
        chain, cpar, diag, hw = plan.chain, plan.cpar, plan.diag, plan.hw
        ((e00, e01, e02, e03), (e10, e11, e12, e13),
         (e20, e21, e22, e23), (e30, e31, e32, e33)) = ELEMENT_MATRIX_UNIT.tolist()
        u = np.concatenate([tree.u[l].ravel() for l in range(ltop + 1)]).tolist()
        h = self._lists
        sl, sc, sf, b = h["sl"], h["sc"], h["sf"], h["b"]
        btr, btw, au = h["bt_r"], h["bt_w"], h["acc_au"]
        tcor, tcow = h["tco_r"], h["tco_w"]
        snap = list(u) if capture_iterate else None
        counters = TraversalCounters({}, {}) if count_touches else None
        l2h = linf = 0.0

        for code, x in zip(plan.codes, plan.ids):
            if code == ENTER:
                c0, c1, c2, c3, eps = cells[x]
                u0, u1, u2, u3 = u[c0], u[c1], u[c2], u[c3]
                au[c0] += eps * (e00 * u0 + e01 * u1 + e02 * u2 + e03 * u3)
                au[c1] += eps * (e10 * u0 + e11 * u1 + e12 * u2 + e13 * u3)
                au[c2] += eps * (e20 * u0 + e21 * u1 + e22 * u2 + e23 * u3)
                au[c3] += eps * (e30 * u0 + e31 * u1 + e32 * u2 + e33 * u3)
                continue
            if code <= FIRST_DAMPED:
                if code == FIRST_DIRICHLET:
                    sc[x] = 0.0
                else:
                    carry = 0.0
                    for s, w in prow[x]:
                        carry += w * sc[s]
                    if code == FIRST_HANGING:
                        (s, w), *rest = prow[x]
                        val = w * u[s]
                        for s, w in rest:
                            val += w * u[s]
                        u[x] = val
                        sc[x] = carry
                    else:
                        stl = 0.0
                        if code == FIRST_DAMPED and jac:
                            stl = wt * btr[x] / diag[x]
                        elif code == FIRST_DAMPED:
                            for s, w in prow[x]:
                                stl += w * tcor[s]
                        u[x] += carry - stl
                        sc[x] = sl[x] - stl + carry
                        # finer levels' damping of the cycle being applied,
                        # injected here from their unconsumed accumulators
                        damp = 0.0
                        for s in chain[x]:
                            damp += wt * btr[s] / diag[s] if jac else tcor[s]
                        u[x] += sf[x] - damp
                sf[x] = b[x] = au[x] = 0.0
                if snap is not None:
                    snap[x] = u[x]
                if counters is not None:
                    counters.loads[x] = counters.loads.get(x, 0) + 1
                continue
            if counters is not None:
                counters.stores[x] = counters.stores.get(x, 0) + 1
            if code == LAST_NONE:
                continue
            rho = b[x] - au[x]
            if code != LAST_HANGING:
                if code == LAST_COMPOSITE:
                    l2h += (hw[x] * rho) ** 2
                    a = abs(rho)
                    if a > linf:
                        linf = a
                d = omega * rho / diag[x]
                sl[x] = d
                u[x] += d
                for s, w in rrow[x]:
                    btw[s] += w * rho
                p = cpar[x]
                if p >= 0:
                    sf[p] = sf[x] + d
                    if pi:
                        tcow[p] = d
            # hanging vertices carry no equation, but their residual moves
            # on coarse-ward so composite transitions stay consistent; the
            # damping right-hand side only collects smoothed vertices
            for s, w in prow[x]:
                b[s] += w * rho

        flat_u = np.array(u)
        for l in range(l0, ltop + 1):
            tree.u[l][...] = flat_u[off[l]:off[l + 1]].reshape(tree.u[l].shape)
        # swap the double-buffered damping accumulators: what this sweep
        # scattered becomes readable next sweep (patch-boundary sources can
        # fire before their coarse targets are first-touched, so a single
        # buffer would mix cycles on adaptive meshes)
        if jac:
            h["bt_r"], h["bt_w"] = btw, [0.0] * len(btw)
        if pi:
            h["tco_r"], h["tco_w"] = tcow, [0.0] * len(tcow)
        if snap is not None:
            snap = np.array(snap)
            snap = {l: snap[off[l]:off[l + 1]].reshape(tree.u[l].shape)
                    for l in range(l0, ltop + 1)}
        self.last_snapshot = snap
        self.last_counters = counters
        stats = self._new_stats()
        stats.l2h, stats.linf = l2h, linf
        return self.finalize_stats(stats)
