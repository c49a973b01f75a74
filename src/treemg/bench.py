"""Benchmark harness: configured runs, normalized residual reporting, CSV.

A run executes one kick-off plus one traversal/cycle per report until the
normalized h-weighted residual reaches the target, the cycle budget is
exhausted, or the run is declared diverged (normalized residual above the
divergence threshold).  Residuals are normalized by the cycle-0 values;
the denominators stay frozen even when the mesh grows, so curves may
temporarily rise after a regrid without that meaning divergence.

Reported work follows the update-counting convention: every correction
equation counts its non-Dirichlet vertices once per cycle, damping
equations likewise on the levels where the variant computes them.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field as dc_field

from .amr import RefinePolicy, apply_refinement, cells_for_vertices, mark_boundary, mark_curvature
from .discretization import EpsilonField, constant_field, half_domain_jump, needle_inclusion, skew_checkerboard
from .pipeline import PipelineEngine
from .solvers import PIPELINE_VARIANTS, ReferenceEngine, SolverConfig, count_updates
from .spacetree import build_regular

__all__ = [
    "SETUPS",
    "ENGINES",
    "ExperimentConfig",
    "CycleReport",
    "RunResult",
    "ConfigError",
    "count_updates",
    "regular_level_dofs",
    "normalized_residuals",
    "make_field",
    "run",
    "write_csv",
    "CSV_HEADER",
]

SETUPS = ("poisson", "half-jump", "needle", "skew")
ENGINES = ("reference", "pipelined")
CSV_HEADER = "cycle,res_l2h,res_linf,dofs,updates_cumulative,regridded"

EXIT_CONVERGED = 0
EXIT_CONFIG_ERROR = 1
EXIT_MAX_CYCLES = 2
EXIT_DIVERGED = 3

# estimated peak memory per finest-level vertex: every level stores full
# arrays, and half-jump runs measured about 100 B at lmax 5 to 7
BYTES_PER_FINEST_VERTEX = 128
# the same with boxmg, whose P planes stay resident (R~ is applied from P):
# 119 B at lmax 5 and 118 B at lmax 6 (tracemalloc peak of half-jump k=3
# runs over set-up and every cycle, the BoxMG levels built one per cycle
# after cycle 0), kept at 256 B so that the check refuses the runs it
# refused before
BOXMG_BYTES_PER_FINEST_VERTEX = 256
# the pipelined engine keeps its vertex rows in Python lists: 2.5 to 3.2 kB
# at lmax 3 to 5, either flavour
PIPELINED_BYTES_PER_FINEST_VERTEX = 3584


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def physical_memory() -> int:
    """Bytes of physical memory of the host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass
class ExperimentConfig:
    setup: str = "poisson"
    k: int = 1
    variant: str = "adafac-jac"
    flavor: str = "geometric"
    lmin: int = 1
    lmax: int = 4
    omega: float = 0.6
    omega_tilde: float | None = None
    omega_hat: float = 0.7
    amr: bool = False
    boundary_cadence: int = 2
    decile: float = 0.10
    engine: str = "reference"
    target: float = 1e-8
    max_cycles: int = 200
    divergence: float = 1e4
    out: str | None = None

    def validate(self) -> None:
        if self.setup not in SETUPS:
            raise ConfigError(f"setup must be one of {SETUPS}, got {self.setup!r}")
        if self.setup != "poisson" and not 1 <= self.k <= 5:
            raise ConfigError(f"k must lie in 1..5, got {self.k}")
        if self.lmin < 1:
            raise ConfigError(f"lmin must be at least 1, got {self.lmin}")
        if self.lmax < self.lmin:
            raise ConfigError(f"lmax must be at least lmin, got {self.lmax}")
        if self.engine == "pipelined":
            per_vertex, uses = PIPELINED_BYTES_PER_FINEST_VERTEX, ["the pipelined engine"]
        elif self.flavor == "boxmg":
            per_vertex, uses = BOXMG_BYTES_PER_FINEST_VERTEX, ["boxmg"]
        else:
            per_vertex, uses = BYTES_PER_FINEST_VERTEX, []
        # lmax capped at 40, far beyond any host, so the estimate stays a float
        need = per_vertex * (3 ** min(self.lmax, 40) + 1) ** 2
        if self.variant == "multiplicative-v10":
            # the two-grid reference's dense lmin matrix and its inverse
            need += 16 * (3 ** min(self.lmin, 40) - 1) ** 4
            uses.append(f"multiplicative-v10 at lmin {self.lmin}")
        sized = f"lmax {self.lmax}" + (" with " + " and ".join(uses) if uses else "")
        have = physical_memory()
        if need > have:
            raise ConfigError(
                f"{sized} needs about {need / 2**30:.3g} GiB, more than the "
                f"{have / 2**30:.3g} GiB of physical memory")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.engine == "pipelined" and self.variant not in PIPELINE_VARIANTS:
            raise ConfigError(
                f"engine 'pipelined' supports variants {PIPELINE_VARIANTS}, got {self.variant!r}")
        if not self.target > 0.0:
            raise ConfigError(f"target must be positive, got {self.target}")
        if self.max_cycles < 0:
            raise ConfigError(f"max_cycles must be non-negative, got {self.max_cycles}")
        # the cycle-0 residual normalises to 1, so a lower threshold trips at once
        if not self.divergence >= 1.0:
            raise ConfigError(f"divergence must be at least 1, got {self.divergence}")
        try:
            self.solver_config()
            self.refine_policy()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.amr and self.lmin > 2:
            raise ConfigError(f"amr starts from two levels, lmin must be at most 2, got {self.lmin}")
        if self.variant == "multiplicative-v10" and (self.amr or self.lmax - self.lmin != 1):
            raise ConfigError("multiplicative-v10 is a two-grid regular reference only")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            variant=self.variant, flavor=self.flavor, omega=self.omega,
            omega_tilde=self.omega_tilde, omega_hat=self.omega_hat,
        )

    def refine_policy(self) -> RefinePolicy:
        return RefinePolicy(boundary_cadence=self.boundary_cadence, decile=self.decile)


@dataclass
class CycleReport:
    cycle: int
    res_l2h: float
    res_linf: float
    dofs: int
    updates_cumulative: int
    regridded: bool


@dataclass
class RunResult:
    status: int
    reports: list[CycleReport] = dc_field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == EXIT_CONVERGED


def make_field(setup: str, k: int = 1) -> EpsilonField:
    if setup == "poisson":
        return constant_field(1.0)
    if setup == "half-jump":
        return half_domain_jump(k)
    if setup == "needle":
        return needle_inclusion(k)
    if setup == "skew":
        return skew_checkerboard(k)
    raise ConfigError(f"unknown setup {setup!r}")


def regular_level_dofs(lmin: int, lmax: int) -> dict[int, int]:
    """Interior DoF counts of a fully regular mesh, no tree required."""
    return {l: (3**l - 1) ** 2 for l in range(lmin, lmax + 1)}


def normalized_residuals(l2h: float, linf: float, r0: tuple[float, float]) -> tuple[float, float]:
    """Residual norms relative to the frozen cycle-0 norms.

    A zero initial residual means the run starts converged; both ratios are
    reported as zero then.
    """
    l0, i0 = r0
    if l0 == 0.0:
        return 0.0, 0.0
    return l2h / l0, linf / (i0 if i0 != 0.0 else 1.0)


def run(cfg: ExperimentConfig) -> RunResult:
    cfg.validate()
    field = make_field(cfg.setup, cfg.k)
    start_levels = min(2, cfg.lmax) if cfg.amr else cfg.lmax
    tree = build_regular(start_levels, lmin=cfg.lmin, lmax=cfg.lmax, field=field)
    scfg = cfg.solver_config()
    engine = (PipelineEngine if cfg.engine == "pipelined" else ReferenceEngine)(tree, scfg)
    policy = cfg.refine_policy()

    result = RunResult(EXIT_MAX_CYCLES)
    r0 = None
    updates_cum = 0
    regridded = False
    empty_regrids = 0
    amr_steady = not cfg.amr

    for n in range(cfg.max_cycles + 1):
        stats = engine.advance()
        if r0 is None:
            r0 = (stats.l2h, stats.linf)
        nl2, nli = normalized_residuals(stats.l2h, stats.linf, r0)
        result.reports.append(CycleReport(n, nl2, nli, stats.dofs, updates_cum, regridded))
        regridded = False
        updates_cum += stats.updates
        if nl2 <= cfg.target or r0[0] == 0.0:
            result.status = EXIT_CONVERGED
            return result
        if nl2 > cfg.divergence or nl2 != nl2:
            result.status = EXIT_DIVERGED
            return result
        if not amr_steady:
            if n % policy.boundary_cadence == 0:
                marks = mark_boundary(tree, n, policy)
                for m, c in zip(marks, cells_for_vertices(tree, mark_curvature(tree, policy))):
                    m |= c
                if any(m.any() for m in marks):
                    empty_regrids = 0
                    apply_refinement(tree, marks)
                    engine.rebuild()
                    engine.update_fas_state()
                    regridded = True
                else:
                    empty_regrids += 1
                    if empty_regrids >= 2:
                        amr_steady = True
    result.status = EXIT_MAX_CYCLES
    return result


def write_csv(result: RunResult, stream: io.TextIOBase) -> None:
    stream.write(CSV_HEADER + "\n")
    for r in result.reports:
        stream.write(
            f"{r.cycle},{r.res_l2h:.12e},{r.res_linf:.12e},{r.dofs},"
            f"{r.updates_cumulative},{int(r.regridded)}\n"
        )
