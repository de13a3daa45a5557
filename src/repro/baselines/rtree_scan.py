"""R-tree + Scan: local density via an in-memory R-tree, δ via Scan (§6).

The ρ phase is the faithful per-point baseline: one R-tree range count
per point (``rho_range_count``), dealt round-robin into one task group
per core.
"""
from __future__ import annotations

import numpy as np

from repro.core.labels import PhaseClock, result
from repro.core.scan import delta_scan
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.index.rtree import RTree
from repro.par.spark_map import run_phase

__all__ = ["rtree_scan_dpc", "rho_range_count"]


def _rho_kernel(items: np.ndarray, p: dict) -> dict:
    tree, pts, d_cut = p["tree"], p["pts"], p["d_cut"]
    ids = items[:, 0]  # one (id,) row per point
    rho = np.empty(len(ids), dtype=np.int64)
    before = tree.dist_evals
    for k, i in enumerate(ids):
        rho[k] = tree.range_count(pts[i], d_cut) - 1  # exclude self
    return {"id": ids, "rho": rho, "nde": np.array([tree.dist_evals - before])}


def rho_range_count(
    points: np.ndarray,
    tree,
    d_cut: float,
    *,
    spark=None,
) -> tuple[np.ndarray, int]:
    """All local densities by one range count per point on ``tree``.

    ``tree`` is any index with ``range_count(q, r)`` and a running
    ``dist_evals`` counter. Returns (rho, dist_evals).
    """
    out = run_phase(
        spark,
        _rho_kernel,
        np.arange(len(points), dtype=np.int64)[:, None],
        {"tree": tree, "pts": points, "d_cut": d_cut},
    )
    rho = np.zeros(len(points), dtype=np.int64)
    rho[out["id"]] = out["rho"]
    return rho, int(out["nde"].sum())


def rtree_scan_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
) -> DPCResult:
    """The R-tree + Scan baseline of the paper's evaluation."""
    points = as_points(points)
    n = len(points)
    clock = PhaseClock()
    tree = RTree(points)
    clock.mark("build")
    rho, nde = rho_range_count(points, tree, params.d_cut, spark=spark)
    clock.mark("rho")
    key = rho + tiebreak(n, params.seed)
    delta, dep = delta_scan(points, key, spark=spark)
    clock.mark("delta")
    return result(
        rho, delta, dep, params, clock,
        counters={"dist_evals": nde + n * n},
        memory_bytes=tree.memory_bytes(),
    )
