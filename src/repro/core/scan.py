"""Scan — the straightforward O(n²) DPC baseline (§2.2).

Local densities by a full linear scan per point; dependent points by a
linear scan over higher-density points. Both phases are embarrassingly
parallel work for :func:`repro.par.spark_map.run_phase`: the ρ phase's
items are contiguous chunks of points, the δ phase's items are the query
ids, and both kernels stream blockwise squared distances against the
whole point set.

The δ scan (:func:`delta_scan`) is shared with the R-tree + Scan and
CFSFDP-A baselines, which per the paper use Scan's dependent-point
computation, and with LSH-DDP, whose refinement scans P for the query
ids it passes in.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.distutil import sq_dists
from repro.core.labels import PhaseClock, result
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.par.spark_map import run_phase

__all__ = ["scan_dpc", "chunk_items", "delta_scan", "rho_scan"]

_BLOCK = 2048  # inner blocking of the n axis, bounds temp memory


def chunk_items(n: int, chunk: int) -> pd.DataFrame:
    """Work items covering [0, n) in contiguous [start, end) ranges."""
    starts = np.arange(0, n, chunk, dtype=np.int64)
    ends = np.minimum(starts + chunk, n)
    return pd.DataFrame({"start": starts, "end": ends})


def _rho_scan_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, dcut2 = p["pts"], p["dcut2"]
    n = len(pts)
    out_id, out_rho = [], []
    for s, e in zip(items["start"].to_numpy(), items["end"].to_numpy()):
        cnt = np.zeros(e - s, dtype=np.int64)
        a = pts[s:e]
        for j0 in range(0, n, _BLOCK):
            d2 = sq_dists(a, pts[j0 : j0 + _BLOCK])
            cnt += (d2 < dcut2).sum(axis=1)
        out_id.append(np.arange(s, e, dtype=np.int64))
        out_rho.append(cnt - 1)  # self is always strictly within d_cut
    return pd.DataFrame(
        {"id": np.concatenate(out_id), "rho": np.concatenate(out_rho)}
    )


def _delta_scan_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, key = p["pts"], p["key"]
    ids = items["id"].to_numpy()
    n = len(pts)
    best = np.full(len(ids), np.inf)
    besti = np.full(len(ids), -1, dtype=np.int64)
    for q0 in range(0, len(ids), _BLOCK):  # _BLOCK queries x _BLOCK points
        q = ids[q0 : q0 + _BLOCK]
        a, ka = pts[q], key[q]
        qbest, qbesti = best[q0 : q0 + _BLOCK], besti[q0 : q0 + _BLOCK]
        for j0 in range(0, n, _BLOCK):
            d2 = sq_dists(a, pts[j0 : j0 + _BLOCK])
            mask = key[j0 : j0 + _BLOCK][None, :] > ka[:, None]
            d2 = np.where(mask, d2, np.inf)
            bi = np.argmin(d2, axis=1)
            bv = d2[np.arange(len(q)), bi]
            upd = bv < qbest
            qbest[upd] = bv[upd]
            qbesti[upd] = j0 + bi[upd]
    return pd.DataFrame({"id": ids, "delta": np.sqrt(best), "dep": besti})


def rho_scan(
    points: np.ndarray,
    d_cut: float,
    *,
    spark=None,
    n_tasks: int | None = None,
    chunk: int = 2048,
) -> np.ndarray:
    """Parallel brute-force local densities (raw counts)."""
    out = run_phase(
        spark,
        _rho_scan_kernel,
        chunk_items(len(points), chunk),
        {"pts": points, "dcut2": d_cut * d_cut},
        n_tasks=n_tasks,
    )
    rho = np.zeros(len(points), dtype=np.int64)
    rho[out["id"].to_numpy()] = out["rho"].to_numpy()
    return rho


def delta_scan(
    points: np.ndarray,
    key: np.ndarray,
    ids: np.ndarray | None = None,
    *,
    spark=None,
    n_tasks: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Parallel brute-force (delta, dep) given jittered densities.

    Each query id in ``ids`` (default: every point) scans all of P, so it
    costs n distance evaluations. delta/dep are dense over all n points;
    slots outside ``ids`` stay inf / -1.
    """
    n = len(points)
    if ids is None:
        ids = np.arange(n)
    out = run_phase(
        spark,
        _delta_scan_kernel,
        pd.DataFrame({"id": np.asarray(ids, dtype=np.int64)}),
        {"pts": points, "key": key},
        n_tasks=n_tasks,
    )
    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    got = out["id"].to_numpy()
    delta[got] = out["delta"].to_numpy()
    dep[got] = out["dep"].to_numpy()
    return delta, dep


def scan_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    n_tasks: int | None = None,
    chunk: int = 2048,
) -> DPCResult:
    """The straightforward algorithm of §2.2, Spark-parallelized."""
    points = as_points(points)
    n = len(points)
    clock = PhaseClock()
    rho = rho_scan(points, params.d_cut, spark=spark, n_tasks=n_tasks, chunk=chunk)
    clock.mark("rho")
    key = rho + tiebreak(n, params.seed)
    delta, dep = delta_scan(points, key, spark=spark, n_tasks=n_tasks)
    clock.mark("delta")
    return result(rho, delta, dep, params, clock, counters={"dist_evals": 2 * n * n})
