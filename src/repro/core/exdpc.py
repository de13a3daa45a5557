"""Ex-DPC (§3): exact DPC via a kd-tree.

* Local density: one kd-tree range count per point. The paper uses
  OpenMP ``schedule(dynamic)`` because the per-point cost
  O(n^{1-1/d} + ρ_i) is unknown up front; here the points are dealt
  round-robin into one task group per core (one Spark wave), since each
  extra Spark task costs more latency than dynamic balancing saves
  (DESIGN.md §2).

* Dependent points: the paper's incremental construction — empty the
  ρ phase's kd-tree, sort by descending (jittered) density, then for
  each point run an NN query on the tree holding exactly the
  higher-density points, inserting the point afterwards. This is
  *inherently sequential* (the paper proves it cannot be parallelized)
  and runs on the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.labels import PhaseClock, result
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.index.kdtree import IncrementalKDTree, KDTree
from repro.par.spark_map import run_phase
from repro.par.spark_map import run_tasks  # noqa: F401  (perfbench's tracer test reads this binding)

__all__ = ["ex_dpc", "rho_range_count"]


def _rho_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    tree, pts, d_cut = p["tree"], p["pts"], p["d_cut"]
    ids = items["id"].to_numpy()
    rho = np.empty(len(ids), dtype=np.int64)
    nde = np.empty(len(ids), dtype=np.int64)
    for k, i in enumerate(ids):
        before = tree.dist_evals
        rho[k] = tree.range_count(pts[i], d_cut) - 1  # exclude self
        nde[k] = tree.dist_evals - before
    return pd.DataFrame({"id": ids, "rho": rho, "nde": nde})


def rho_range_count(
    points: np.ndarray,
    tree,
    d_cut: float,
    *,
    spark=None,
    n_tasks: int | None = None,
) -> tuple[np.ndarray, int]:
    """All local densities by one range count per point on ``tree``.

    ``tree`` is any index with ``range_count(q, r)`` and a running
    ``dist_evals`` counter: Ex-DPC's kd-tree or R-tree + Scan's R-tree.
    Returns (rho, dist_evals).
    """
    out = run_phase(
        spark,
        _rho_kernel,
        pd.DataFrame({"id": np.arange(len(points), dtype=np.int64)}),
        {"tree": tree, "pts": points, "d_cut": d_cut},
        n_tasks=n_tasks,
    )
    rho = np.zeros(len(points), dtype=np.int64)
    rho[out["id"].to_numpy()] = out["rho"].to_numpy()
    return rho, int(out["nde"].sum())


def ex_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    n_tasks: int | None = None,
    leaf_size: int = 32,
) -> DPCResult:
    """Exact DPC: kd-tree range counts + incremental-kd-tree NN (§3)."""
    points = as_points(points)
    n = len(points)
    clock = PhaseClock()
    tree = KDTree(points, leaf_size=leaf_size)
    clock.mark("build")
    rho, nde_rho = rho_range_count(
        points, tree, params.d_cut, spark=spark, n_tasks=n_tasks
    )
    clock.mark("rho")

    key = rho + tiebreak(n, params.seed)
    # Sequential dependent-point phase (driver): destroy K, re-insert in
    # descending density order, NN query against the partial tree.
    order = np.argsort(-key, kind="stable")
    itree = IncrementalKDTree(tree)
    delta2 = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    itree.insert(int(order[0]))
    for i in order[1:].tolist():
        dep[i], delta2[i] = itree.nn(points[i])
        itree.insert(i)
    delta = np.sqrt(delta2)
    clock.mark("delta")
    return result(
        rho, delta, dep, params, clock,
        counters={"dist_evals": nde_rho + itree.dist_evals},
        memory_bytes=tree.memory_bytes() + itree.memory_bytes(),
    )
