"""R-tree + Scan: local density via an in-memory R-tree, δ via Scan (§6).

The ρ phase is Ex-DPC's per-point range count (``rho_range_count``) run
on the R-tree instead of the kd-tree.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.exdpc import rho_range_count
from repro.core.labels import finalize
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
    t0 = time.perf_counter()
    tree = RTree(points, leaf_size=leaf_size)
    t_build = time.perf_counter() - t0

    t1 = time.perf_counter()
    rho, nde = rho_range_count(points, tree, params.d_cut, spark=spark, n_tasks=n_tasks)
    t2 = time.perf_counter()

    key = rho + tiebreak(n, params.seed)
    delta, dep = delta_scan(points, key, spark=spark, n_tasks=n_tasks)
    t3 = time.perf_counter()
    centers, noise, labels = finalize(rho, delta, dep, params)
    t4 = time.perf_counter()
    return DPCResult(
        rho=rho,
        delta=delta,
        dep=dep,
        centers=centers,
        noise=noise,
        labels=labels,
        timings={
            "build": t_build,
            "rho": (t2 - t1) + t_build,
            "delta": t3 - t2,
            "assign": t4 - t3,
            "total": t4 - t0,
        },
        counters={"dist_evals": nde + n * n},
        memory_bytes=tree.memory_bytes(),
    )
