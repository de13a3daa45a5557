"""Scan — the straightforward O(n²) DPC baseline (§2.2).

Local densities by a full linear scan per point; dependent points by a
linear scan over higher-density points. Both phases are embarrassingly
parallel: points are split into contiguous chunks, each chunk is a work
item for :func:`repro.par.spark_map.run_tasks`, and the per-chunk kernel
streams blockwise squared distances against the whole point set.

The δ kernel (:func:`delta_scan_kernel`) is shared with the
R-tree + Scan and CFSFDP-A baselines, which per the paper use Scan's
dependent-point computation.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.distutil import sq_dists
from repro.core.labels import finalize
from repro.core.types import DPCParams, DPCResult, tiebreak
from repro.par.spark_map import Shared, run_tasks

__all__ = ["scan_dpc", "chunk_items", "delta_scan", "rho_scan"]

_BLOCK = 2048  # inner blocking of the n axis, bounds temp memory


def chunk_items(n: int, chunk: int) -> pd.DataFrame:
    """Work items covering [0, n) in contiguous [start, end) ranges."""
    starts = np.arange(0, n, chunk, dtype=np.int64)
    ends = np.minimum(starts + chunk, n)
    return pd.DataFrame({"start": starts, "end": ends})


def _rho_scan_kernel(items: pd.DataFrame, shared: Shared) -> pd.DataFrame:
    p = shared.get()
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


def _delta_scan_kernel(items: pd.DataFrame, shared: Shared) -> pd.DataFrame:
    p = shared.get()
    pts, key = p["pts"], p["key"]
    n = len(pts)
    out = []
    for s, e in zip(items["start"].to_numpy(), items["end"].to_numpy()):
        a = pts[s:e]
        ka = key[s:e]
        best = np.full(e - s, np.inf)
        besti = np.full(e - s, -1, dtype=np.int64)
        for j0 in range(0, n, _BLOCK):
            d2 = sq_dists(a, pts[j0 : j0 + _BLOCK])
            mask = key[j0 : j0 + _BLOCK][None, :] > ka[:, None]
            d2 = np.where(mask, d2, np.inf)
            bi = np.argmin(d2, axis=1)
            bv = d2[np.arange(e - s), bi]
            upd = bv < best
            best[upd] = bv[upd]
            besti[upd] = j0 + bi[upd]
        out.append(
            pd.DataFrame(
                {
                    "id": np.arange(s, e, dtype=np.int64),
                    "delta": np.sqrt(best),
                    "dep": besti,
                }
            )
        )
    return pd.concat(out, ignore_index=True)


def rho_scan(
    points: np.ndarray,
    d_cut: float,
    *,
    spark=None,
    n_tasks: int | None = None,
    chunk: int = 2048,
) -> np.ndarray:
    """Parallel brute-force local densities (raw counts)."""
    shared = Shared({"pts": points, "dcut2": d_cut * d_cut}, spark)
    try:
        out = run_tasks(
            spark,
            lambda it: _rho_scan_kernel(it, shared),
            chunk_items(len(points), chunk),
            n_tasks=n_tasks,
        )
    finally:
        shared.destroy()
    rho = np.zeros(len(points), dtype=np.int64)
    rho[out["id"].to_numpy()] = out["rho"].to_numpy()
    return rho


def delta_scan(
    points: np.ndarray,
    key: np.ndarray,
    *,
    spark=None,
    n_tasks: int | None = None,
    chunk: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Parallel brute-force (delta, dep) given jittered densities."""
    n = len(points)
    shared = Shared({"pts": points, "key": key}, spark)
    try:
        out = run_tasks(
            spark,
            lambda it: _delta_scan_kernel(it, shared),
            chunk_items(n, chunk),
            n_tasks=n_tasks,
        )
    finally:
        shared.destroy()
    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    ids = out["id"].to_numpy()
    delta[ids] = out["delta"].to_numpy()
    dep[ids] = out["dep"].to_numpy()
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
    n = len(points)
    points = np.ascontiguousarray(points, dtype=np.float64)
    t0 = time.perf_counter()
    rho = rho_scan(points, params.d_cut, spark=spark, n_tasks=n_tasks, chunk=chunk)
    t1 = time.perf_counter()
    key = rho + tiebreak(n, params.seed)
    delta, dep = delta_scan(points, key, spark=spark, n_tasks=n_tasks, chunk=chunk)
    t2 = time.perf_counter()
    centers, noise, labels = finalize(rho, delta, dep, params)
    t3 = time.perf_counter()
    return DPCResult(
        rho=rho,
        delta=delta,
        dep=dep,
        centers=centers,
        noise=noise,
        labels=labels,
        timings={"rho": t1 - t0, "delta": t2 - t1, "assign": t3 - t2, "total": t3 - t0},
        counters={"dist_evals": 2 * n * n},
        memory_bytes=0,
    )
