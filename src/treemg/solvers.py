"""Level-by-level reference engine for the additive solver family.

All solvers run on full-approximation state: every level stores nodal
solution values and coarse levels hold the injection of the next finer
one.  A level's residual is the composite-grid residual of its leaf cells
plus what the finer levels restrict into it (the FAC composite residual),

    rho_l = R rho_(l+1) - A_l^(leaf cells) u_l,

with A_l^(leaf cells) the element operator of the level's unrefined cells.
It equals the correction-consistent form (R rho_(l+1) + A_l^(refined
cells)(I u)) - A_l (I u), because refined and leaf cells are disjoint; at
coarse-overlapped vertices no leaf cell is adjacent and the residual is
the restricted one alone.  The coarse operators A_l therefore enter an
additive cycle only through their diagonal (plus the Galerkin build and
the two-grid coarse solve), and the exact solution is a fixed point for
rediscretized and Galerkin coarse operators alike.  Residuals accumulated
at hanging vertices carry no equation but restrict onwards, which keeps
composite meshes consistent across resolution transitions.

One damped Jacobi step per level per cycle, no exceptions.  Variants
differ only in the per-level update and in what feeds the restriction:

  additive        d_l = w M^-1 rho_l
  additive-exp    d_l = w_hat**(ltop-l) M^-1 rho_l
  bpx             coarse d_l = w rho_l (h**(d-2) == 1 in 2D), fine as additive
  afacc           as additive, but residual entries at vertices coinciding
                  with the next coarser level are zeroed before restriction
  adafac-pi       damping c~_l = P I d_l subtracted per level
  adafac-jac      damping from an auxiliary Jacobi step on the next coarser
                  level, fed by the smoothed restriction of rho
  multiplicative-v10  presmooth, exact coarse solve, correct (two-grid
                  reference; used to validate the overshoot identity)

Level contributions are summed coarse to fine in a fixed order so that
regression tests can compare iterates bitwise.

The BoxMG operators propagate one resolution level per cycle.  rebuild()
gives every level its rediscretized operator and every coarse level the
d-linear transfers and the 7x7 geometric R~ stencil for omega, composed
once by smoothed_restriction_table, which the geometric flavour keeps;
BoxMG coarse levels hold them as stand-ins and are stale.  Each advance()
ends, once its cycle's arrays are released, by building the finest stale
level l from level l+1's current operator: P from its stencil rows, and
the Galerkin rows at its overlapped vertices, probed with its apply and
laid over the rediscretized table.  A built level stores no R~: its
TransferOps applies omega R A_unit diag(A_unit)^-1 from P.  So the first
boxmg cycle is the geometric one, cycle n+1 runs on the operators of the n
finest coarse levels, and after ltop - lmin cycles on an unchanged mesh
every table is bitwise that of an eager build.  No level materialises the
stencil table of the element operator above it.  The pipelined engine,
whose sweep mixes two cycles, builds every level in its rebuild().
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import (
    ElementOperator,
    TableOperator,
    TransferOps,
    assemble_stencil_table,
    boxmg_prolongation,
    geometric_prolongation,
    prolong_values,
    ritz_galerkin_coarse,
    smoothed_restriction_table,
)
from .spacetree import Spacetree, VertexKind, cells_around

__all__ = [
    "VARIANTS",
    "PIPELINE_VARIANTS",
    "SolverConfig",
    "CycleStats",
    "ReferenceEngine",
    "count_updates",
]

VARIANTS = (
    "additive",
    "additive-exp",
    "bpx",
    "afacc",
    "adafac-pi",
    "adafac-jac",
    "multiplicative-v10",
)
PIPELINE_VARIANTS = ("additive", "adafac-pi", "adafac-jac")


@dataclass
class SolverConfig:
    variant: str = "adafac-jac"
    flavor: str = "geometric"
    omega: float = 0.6
    omega_tilde: float | None = None  # damping-equation weight, defaults to omega
    omega_hat: float = 0.7  # base of the exponential per-level damping

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.flavor not in ("geometric", "boxmg"):
            raise ValueError(f"flavor must be geometric or boxmg, got {self.flavor!r}")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(f"omega must lie in (0, 1], got {self.omega}")
        if self.omega_tilde is not None and not 0.0 < self.omega_tilde <= 1.0:
            raise ValueError(f"omega_tilde must lie in (0, 1], got {self.omega_tilde}")
        if not 0.0 < self.omega_hat < 1.0:
            raise ValueError(f"omega_hat must lie in (0, 1), got {self.omega_hat}")

    @property
    def wt(self) -> float:
        return self.omega if self.omega_tilde is None else self.omega_tilde


@dataclass
class CycleStats:
    """Residual of the iterate a cycle started from, plus work counts."""

    l2h: float
    linf: float
    dofs: int
    updates: int


def count_updates(level_dofs: dict[int, int], variant: str, lmin: int, lmax: int) -> int:
    """DoF updates of one cycle: correction plus damping equations."""
    total = sum(level_dofs[l] for l in range(lmin, lmax + 1))
    if variant == "adafac-jac":
        total += sum(level_dofs[l] for l in range(lmin, lmax))
    elif variant == "adafac-pi":
        total += sum(level_dofs[l] for l in range(lmin + 1, lmax + 1))
    return total


def _complement(mask: np.ndarray) -> np.ndarray | None:
    """~mask, or None when mask is all true."""
    return None if mask.all() else ~mask


def _zero(arr: np.ndarray, where: np.ndarray | None) -> None:
    if where is not None:
        arr[where] = 0.0


class ReferenceEngine:
    """Runs cycles on a spacetree; the semantic ground truth engine.

    advance() performs one cycle and returns the residual statistics of the
    iterate it started from, mirroring the pipelined engine where cycle n's
    residual is fully accumulated during sweep n+1.  The BoxMG coarse
    levels lmin..stale still hold their geometric stand-ins; stale is below
    lmin once every level is built, and always for the geometric flavour.
    """

    def __init__(self, tree: Spacetree, cfg: SolverConfig):
        self.tree = tree
        self.cfg = cfg
        self.rebuild()

    # -- operator construction ---------------------------------------------

    def rebuild(self) -> None:
        """(Re)build stencils, transfer operators and masks from the tree;
        every BoxMG coarse level becomes stale."""
        tree = self.tree
        self.ltop = tree.depth
        if self.ltop < tree.lmin:
            raise ValueError("tree has no DoF-carrying level at or above lmin")
        self.__dict__.pop("diag", None)
        self.ops: dict[int, object] = {}
        self.transfers: dict[int, TransferOps] = {}
        self.masks: dict[int, dict[str, np.ndarray]] = {}
        self.hweight: dict[int, np.ndarray] = {}
        self.comp_h: dict[int, np.ndarray] = {}

        # Effective material samples: leaf cells keep their midpoint sample
        # (the composite discretization), refined cells average their
        # children so correction-equation diagonals carry the scale of the
        # fine content they stand in for.  Without this, a refined cell
        # whose own midpoint sees the weak material but whose children
        # contain the stiff one gets a diagonal orders of magnitude below
        # the residuals restricted into it, and every additive variant
        # explodes on the inclusion and checkerboard setups.  Levels without
        # refined cells share tree.eps[l]; nothing writes to either.
        self.eff_eps: dict[int, np.ndarray] = {}
        for l in range(self.ltop, tree.lmin - 1, -1):
            eff = tree.eps[l]
            if l < tree.lmax and tree.refined[l].any():
                n = 3**l
                avg = self.eff_eps[l + 1].reshape(n, 3, n, 3).mean(axis=(1, 3))
                eff = np.where(tree.refined[l], avg, eff)
            self.eff_eps[l] = eff

        eps_masked = {}
        for l in range(tree.lmin, self.ltop + 1):
            eps_masked[l] = self.eff_eps[l] * tree.cells_exist(l)
            kinds = tree.vertex_kinds(l)
            dof = tree.dof_mask(l)
            hanging = kinds == VertexKind.HANGING
            exists = kinds != VertexKind.NONE
            not_dof = _complement(dof)
            self.masks[l] = {
                "kinds": kinds,
                "dof": dof,
                "composite": kinds == VertexKind.INTERIOR_DOF,
                "hanging": hanging,
                "exists": exists,
                "overlapped": kinds == VertexKind.COARSE_OVERLAPPED,
                # the vertices zeroed on each cycle's fresh level arrays:
                # the complements of dof, dof | hanging and exists, None
                # where the complement is empty
                "not_dof": not_dof,
                "not_src": _complement(dof | hanging) if hanging.any() else not_dof,
                "missing": _complement(exists),
            }
            if l < tree.lmax and tree.refined[l].any():
                any_refined = cells_around(tree.refined[l]) > 0
                self.hweight[l] = np.where(any_refined, 3.0 ** -(l + 1), 3.0**-l)
            else:
                # no refined cells: the local mesh width is uniform
                self.hweight[l] = np.full((1, 1), 3.0**-l)
            # h-weights of the composite vertices in boolean-index order,
            # or the one weight of a uniform level
            hw = self.hweight[l]
            self.comp_h[l] = hw[self.masks[l]["composite"]] if hw.size > 1 else hw.reshape(1)
        for l in range(tree.lmin, self.ltop):
            # coarse vertices whose finer copy carries an equation: the FAS
            # injection targets
            self.masks[l]["injected"] = self.masks[l + 1]["dof"][::3, ::3].copy()
        level_dofs = {l: int(np.count_nonzero(m["dof"])) for l, m in self.masks.items()}
        self.composite_dofs = sum(
            int(np.count_nonzero(m["composite"])) for m in self.masks.values())
        self.updates = count_updates(level_dofs, self.cfg.variant, tree.lmin, self.ltop)

        # every level starts rediscretized with d-linear transfers; BoxMG
        # coarse levels hold these as stand-ins until build_stale_level()
        # replaces them, one level per cycle
        for l in range(tree.lmin, self.ltop + 1):
            self.ops[l] = ElementOperator(eps_masked[l])
        rt = (smoothed_restriction_table(geometric_prolongation(), self.cfg.omega)
              if self.cfg.variant == "adafac-jac" else None)
        for l in range(tree.lmin, self.ltop):
            self.transfers[l] = TransferOps(None, rt)
        self.stale = self.ltop - 1 if self.cfg.flavor == "boxmg" else tree.lmin - 1

        # the operators of each level's leaf cells, which alone form its
        # residual; none where every cell of a level is refined
        self.leaf_ops: dict[int, ElementOperator | None] = {self.ltop: self.ops[self.ltop]}
        for l in range(tree.lmin, self.ltop):
            leaf_eps = eps_masked[l] * ~tree.refined[l]
            self.leaf_ops[l] = ElementOperator(leaf_eps) if leaf_eps.any() else None

        if self.cfg.variant == "multiplicative-v10":
            if self.ltop - tree.lmin != 1 or not self._regular():
                raise ValueError("the two-grid reference needs a regular two-level tree")
            self._coarse_dense = self._dense_interior_matrix(tree.lmin)

    def build_stale_level(self) -> bool:
        """Build the BoxMG operators of the finest stale level l from level
        l+1's current operator: P and the Galerkin rows at overlapped
        vertices laid over the rediscretized table; R~ is applied from P in
        the cycles.  False when no level is stale."""
        l = self.stale
        if l < self.tree.lmin:
            return False
        tree = self.tree
        self.__dict__.pop("diag", None)
        fine = self.ops[l + 1]
        refined = tree.refined[l] & tree.cells_exist(l)
        planes = boxmg_prolongation(fine, refined, self.masks[l + 1]["hanging"])
        rap = ritz_galerkin_coarse(fine, planes, self.masks[l + 1]["dof"])
        tbl = assemble_stencil_table(self.ops[l].eps)
        np.copyto(tbl, rap, where=self.masks[l]["overlapped"][:, :, None, None])
        del rap
        self.ops[l] = TableOperator(tbl)
        omega = self.cfg.omega if self.cfg.variant == "adafac-jac" else None
        self.transfers[l] = TransferOps(planes, omega=omega)
        self.stale = l - 1
        if self.cfg.variant == "multiplicative-v10":
            self._coarse_dense = self._dense_interior_matrix(l)
        return True

    @cached_property
    def diag(self) -> dict[int, np.ndarray]:
        """Per-level operator diagonal, 1 off the equation-carrying vertices.

        Built at the first cycle after rebuild() or build_stale_level(),
        which drop it, so that set-up pays only for the operators and a
        stale level's diagonal is its stand-in's until the level is built.
        """
        return {l: np.where(self.masks[l]["dof"], self.ops[l].diag(), 1.0)
                for l in range(self.tree.lmin, self.ltop + 1)}

    def _regular(self) -> bool:
        return all(
            self.tree.refined[l].all() for l in range(self.ltop)
        )

    def _dense_interior_matrix(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        tbl = self.ops[l].table()
        dof = self.masks[l]["dof"]
        idx = np.argwhere(dof)
        m = len(idx)
        # DoF numbers in idx's order, -1 off the DoFs: couplings to those
        # land in a's extra last column.  A DoF never lies on the boundary,
        # so its neighbours' indices stay in range.
        pos = np.full(dof.shape, -1)
        pos[dof] = np.arange(m)
        i, j = idx.T
        a = np.zeros((m, m + 1))
        for da, db in np.ndindex(3, 3):
            a[np.arange(m), pos[i + da - 1, j + db - 1]] += tbl[i, j, da, db]
        return np.linalg.inv(a[:, :m]), idx

    # -- FAS state ----------------------------------------------------------

    def update_fas_state(self) -> None:
        """Injection bottom-up, then hanging interpolation top-down."""
        tree = self.tree
        for l in range(self.ltop - 1, tree.lmin - 1, -1):
            take = self.masks[l]["injected"]
            tree.u[l][take] = tree.u[l + 1][::3, ::3][take]
        for l in range(tree.lmin, self.ltop + 1):
            self._refresh_hanging(l)

    def _refresh_hanging(self, l: int) -> None:
        hang = self.masks[l]["hanging"]
        if hang.any():
            vals = prolong_values(self.tree.u[l - 1])
            self.tree.u[l][hang] = vals[hang]

    def _omega_add(self, l: int) -> float:
        if self.cfg.variant == "additive-exp":
            return self.cfg.omega_hat ** (self.ltop - l)
        return self.cfg.omega

    # -- one cycle -----------------------------------------------------------

    def _residual_chain(self, stats: CycleStats):
        """Walk the restricted residual chain of the current iterate, top down.

        Each level's residual is the restricted finer residual b minus the
        operator image of its leaf cells.  The walk adds it to stats,
        restricts it into the next coarser b and yields (l, rho_dof), the
        residual at equation-carrying vertices.  Residuals at hanging
        vertices restrict onwards but are not part of rho_dof.
        """
        tree = self.tree
        l0, l1 = tree.lmin, self.ltop
        b = 0.0
        for l in range(l1, l0 - 1, -1):
            masks = self.masks[l]
            leaf = self.leaf_ops[l]
            if leaf is None:
                rho = b  # a fresh array of restrict()
            else:
                rho = leaf.apply(tree.u[l])
                np.subtract(b, rho, out=rho)
            _zero(rho, masks["not_src"])
            if masks["hanging"].any() or self.cfg.variant == "afacc":
                rho_dof = np.where(masks["dof"], rho, 0.0)
            else:
                rho_dof = rho  # no hanging vertex: rho is zero off the dofs
            self._accumulate_stats(stats, l, rho_dof)
            if l > l0:
                if self.cfg.variant == "afacc":
                    rho[::3, ::3] = 0.0  # vertices coinciding with the coarser level
                b = self.transfers[l - 1].restrict(rho)
            yield l, rho_dof

    def advance(self) -> CycleStats:
        """One cycle, then the BoxMG operators of one stale level, built
        once the cycle's arrays are released."""
        if self.cfg.variant == "multiplicative-v10":
            stats = self._advance_mult_v10()
        else:
            stats = self._cycle()
        self.build_stale_level()
        return stats

    def _cycle(self) -> CycleStats:
        tree = self.tree
        cfg = self.cfg
        l0, l1 = tree.lmin, self.ltop

        d: dict[int, np.ndarray] = {}
        dtil: dict[int, np.ndarray] = {}
        stats = self._new_stats()
        rho_fine = None
        for l, rho_dof in self._residual_chain(stats):
            diag = self.diag[l]
            if cfg.variant == "bpx" and l < l1:
                d[l] = cfg.omega * rho_dof
            else:
                d[l] = np.multiply(self._omega_add(l), rho_dof)
                np.divide(d[l], diag, out=d[l])
            if cfg.variant == "adafac-jac" and l < l1:
                dtil[l] = cfg.wt * self.transfers[l].restrict_smoothed(rho_fine) / diag
                _zero(dtil[l], self.masks[l]["not_dof"])
            # the damping anticipates the smoother's update M^-1 rho, which
            # exists at smoothed vertices only: hanging residuals restrict
            # into the correction right-hand side but never into b~
            rho_fine = rho_dof

        if cfg.variant == "adafac-pi":
            for l in range(l0 + 1, l1 + 1):
                inj = np.zeros_like(tree.u[l - 1])
                take = self.masks[l - 1]["injected"]
                inj[take] = d[l][::3, ::3][take]
                dtil[l] = self.transfers[l - 1].prolong(inj)
                _zero(dtil[l], self.masks[l]["not_dof"])

        carry = None
        for l in range(l0, l1 + 1):
            g = np.subtract(d[l], dtil[l], out=d[l]) if l in dtil else d[l]
            if carry is None:
                carry = g
            else:
                carry = self.transfers[l - 1].prolong(carry)
                carry += g
            _zero(carry, self.masks[l]["missing"])
            tree.u[l] += carry

        self.update_fas_state()
        return self.finalize_stats(stats)

    def _advance_mult_v10(self) -> CycleStats:
        tree = self.tree
        l0, l1 = tree.lmin, self.ltop
        stats = self._new_stats()
        rho = dict(self._residual_chain(stats))[l1]
        tree.u[l1] += self.cfg.omega * rho / self.diag[l1]
        self.update_fas_state()

        # the coarse level has no leaf cell: its residual is the restricted one
        rho_c = dict(self._residual_chain(self._new_stats()))[l0]
        inv, idx = self._coarse_dense
        c_vec = inv @ rho_c[tuple(idx.T)]
        c = np.zeros_like(tree.u[l0])
        c[tuple(idx.T)] = c_vec
        tree.u[l0] += c
        tree.u[l1] += self.transfers[l0].prolong(c)
        self.update_fas_state()
        return self.finalize_stats(stats)

    # -- reporting -----------------------------------------------------------

    def _new_stats(self) -> CycleStats:
        return CycleStats(0.0, 0.0, self.composite_dofs, self.updates)

    def _accumulate_stats(self, stats: CycleStats, l: int, rho: np.ndarray) -> None:
        r = rho[self.masks[l]["composite"]]
        if r.size:
            stats.l2h += float(((self.comp_h[l] * r) ** 2).sum())
            stats.linf = max(stats.linf, float(np.abs(r).max()))

    def finalize_stats(self, stats: CycleStats) -> CycleStats:
        stats.l2h = float(np.sqrt(stats.l2h))
        return stats

    def residual_stats(self) -> CycleStats:
        """Residual of the current iterate without advancing it."""
        stats = self._new_stats()
        for _ in self._residual_chain(stats):
            pass
        return self.finalize_stats(stats)
