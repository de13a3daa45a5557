"""R-tree + Scan: local density via an in-memory R-tree, δ via Scan (§6).

The ρ phase is Ex-DPC's per-point range count (``rho_range_count``) run
on the R-tree instead of the kd-tree.
"""
from __future__ import annotations

from repro.core.exdpc import rho_range_count
from repro.core.labels import PhaseClock, result
from repro.core.scan import delta_scan
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.index.rtree import RTree

__all__ = ["rtree_scan_dpc"]


def rtree_scan_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    n_tasks: int | None = None,
    leaf_size: int = 64,
) -> DPCResult:
    """The R-tree + Scan baseline of the paper's evaluation."""
    points = as_points(points)
    n = len(points)
    clock = PhaseClock()
    tree = RTree(points, leaf_size=leaf_size)
    clock.mark("build")
    rho, nde = rho_range_count(points, tree, params.d_cut, spark=spark, n_tasks=n_tasks)
    clock.mark("rho")
    key = rho + tiebreak(n, params.seed)
    delta, dep = delta_scan(points, key, spark=spark, n_tasks=n_tasks)
    clock.mark("delta")
    return result(
        rho, delta, dep, params, clock,
        counters={"dist_evals": nde + n * n},
        memory_bytes=tree.memory_bytes(),
    )
