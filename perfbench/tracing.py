"""Outside-in spans around the public callees of each treemg layer.

Every span wraps the attribute its caller looks up (a module-level name in
the calling module, or a method on its class), so the program itself is
not modified.  Spans are kept in memory while the solve runs; the worker
aggregates and writes them out afterwards.
"""

from __future__ import annotations

import importlib
import statistics
import time


def _first_arg_size(args, result):
    return args[1].size


def _result_size(args, result):
    return result.size


def _tree_dofs(args, result):
    return result.dofs


# span name -> (places the callee is looked up, DoF count of one call or None).
# A place is "module:attribute" or "module:Class.method".  For applies the
# DoFs are the vertices of the input level, for transfers those of the finer
# level, for a pipelined sweep the tree's DoFs.
SPANS = {
    "operators.element_apply": (["treemg.operators:ElementOperator.apply"], _first_arg_size),
    "operators.table_apply": (["treemg.operators:TableOperator.apply"], _first_arg_size),
    "operators.restrict": (["treemg.operators:TransferOps.restrict"], _first_arg_size),
    "operators.prolong": (["treemg.operators:TransferOps.prolong"], _result_size),
    "operators.restrict_smoothed": (["treemg.operators:TransferOps.restrict_smoothed"],
                                    _first_arg_size),
    "operators.ritz_galerkin_coarse": (["treemg.solvers:ritz_galerkin_coarse"], None),
    "operators.boxmg_prolongation": (["treemg.solvers:boxmg_prolongation"], None),
    "operators.smoothed_restriction_table": (["treemg.solvers:smoothed_restriction_table"], None),
    # solvers calls it directly, ElementOperator.table() through operators
    "operators.assemble_stencil_table": (["treemg.solvers:assemble_stencil_table",
                                          "treemg.operators:assemble_stencil_table"], None),
    "solvers.advance": (["treemg.solvers:ReferenceEngine.advance"], None),
    "solvers.rebuild": (["treemg.solvers:ReferenceEngine.rebuild"], None),
    "solvers.update_fas_state": (["treemg.solvers:ReferenceEngine.update_fas_state"], None),
    "amr.mark_boundary": (["treemg.bench:mark_boundary"], None),
    "amr.mark_curvature": (["treemg.bench:mark_curvature"], None),
    "amr.cells_for_vertices": (["treemg.bench:cells_for_vertices"], None),
    "amr.apply_refinement": (["treemg.bench:apply_refinement"], None),
    "spacetree.refine_many": (["treemg.spacetree:Spacetree.refine_many"], None),
    "spacetree.build_regular": (["treemg.bench:build_regular"], None),
    "spacetree.traverse": (["treemg.pipeline:traverse"], None),
    "discretization.epsilon_cells": (["treemg.spacetree:epsilon_cells"], None),
    "pipeline.advance": (["treemg.pipeline:PipelineEngine.advance"], _tree_dofs),
    "bench.run": (["treemg.bench:run"], None),
    "bench.write_csv": (["treemg.bench:write_csv"], None),
}

PER_DOF = tuple(name for name, (_, dofs) in SPANS.items() if dofs is not None)


def _owner(place: str):
    module, attr = place.split(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records (span, start, end, self time, parent, DoFs) per call."""

    def __init__(self):
        self.enabled = False
        self.events: list[tuple] = []
        self._stack: list[list] = []  # [span name, time spent in child spans]

    def install(self) -> None:
        for name, (places, dofs) in SPANS.items():
            for place in places:
                owner, attr = _owner(place)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), dofs))

    def _wrap(self, name, fn, dofs):
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
            n = dofs(args, result) if dofs is not None else 0
            self.events.append((name, start, end, end - start - frame[1], parent, n))
            return result

        return span

    def summary(self) -> dict:
        """Per span: calls, total_s, self_s and, for per-DoF kernels, the
        median and 90th percentile of ns per DoF over calls."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPANS}
        per_dof: dict[str, list[float]] = {name: [] for name in PER_DOF}
        for name, start, end, self_s, _parent, n in self.events:
            s = out[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += self_s
            if name in per_dof and n > 0:
                per_dof[name].append((end - start) * 1e9 / n)
        for name, samples in per_dof.items():
            out[name]["ns_per_dof"] = statistics.median(samples) if samples else 0.0
            out[name]["ns_per_dof_p90"] = (
                statistics.quantiles(samples, n=10)[-1] if len(samples) >= 2
                else out[name]["ns_per_dof"])
        return out
