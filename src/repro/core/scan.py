"""Scan — the straightforward O(n²) DPC baseline (§2.2).

Local densities by a full linear scan per point; dependent points by a
linear scan over higher-density points. Both phases are embarrassingly
parallel work for :func:`repro.par.spark_map.run_phase`: each work item
scans a contiguous range of query points against a range of candidate
points, here chunks of ``_CHUNK`` queries against the whole point set.
Two blocked helpers do the scanning: ``count_within`` (points strictly
within d_cut) and ``nearest_denser`` (the nearest strictly denser
point, smallest id on ties).

The δ scan (:func:`delta_scan`) is shared with the R-tree + Scan and
CFSFDP-A baselines, which per the paper use Scan's dependent-point
computation, and with LSH-DDP, whose refinement scans P for the query
ids it passes in. LSH-DDP's bucket phases run the same two kernels
(``rho_kernel``, ``delta_kernel``) with each bucket's members as both
the queries and the candidates.
"""
from __future__ import annotations

import numpy as np

from repro.core.distutil import sq_dists
from repro.core.labels import PhaseClock, result
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.par.spark_map import concat, run_phase

__all__ = [
    "scan_dpc", "chunk_items", "count_within", "delta_kernel", "delta_scan",
    "nearest_denser", "rho_kernel", "rho_scan",
]

_BLOCK = 2048  # blocking of both axes, bounds temp memory
_CHUNK = 2048  # query points per work item


def chunk_items(n: int, chunk: int) -> np.ndarray:
    """Work items covering [0, n): (start, end) rows of contiguous ranges."""
    starts = np.arange(0, n, chunk, dtype=np.int64)
    return np.column_stack([starts, np.minimum(starts + chunk, n)])


def count_within(a: np.ndarray, b: np.ndarray, dcut2: float) -> np.ndarray:
    """For each row of ``a``, the number of rows of ``b`` at squared
    distance below ``dcut2``."""
    cnt = np.zeros(len(a), dtype=np.int64)
    for i0 in range(0, len(a), _BLOCK):
        for j0 in range(0, len(b), _BLOCK):
            d2 = sq_dists(a[i0 : i0 + _BLOCK], b[j0 : j0 + _BLOCK])
            cnt[i0 : i0 + _BLOCK] += (d2 < dcut2).sum(axis=1)
    return cnt


def nearest_denser(
    a: np.ndarray, ka: np.ndarray, b: np.ndarray, kb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ``a``, the nearest row of ``b`` whose key is
    strictly above the row's own key ``ka``, smallest index on ties.

    Returns (squared distance, index into ``b``); (inf, -1) where no row
    of ``b`` is denser.
    """
    best = np.full(len(a), np.inf)
    besti = np.full(len(a), -1, dtype=np.int64)
    for i0 in range(0, len(a), _BLOCK):
        ka_i = ka[i0 : i0 + _BLOCK]
        qbest, qbesti = best[i0 : i0 + _BLOCK], besti[i0 : i0 + _BLOCK]
        for j0 in range(0, len(b), _BLOCK):
            d2 = sq_dists(a[i0 : i0 + _BLOCK], b[j0 : j0 + _BLOCK])
            d2 = np.where(kb[None, j0 : j0 + _BLOCK] > ka_i[:, None], d2, np.inf)
            bi = np.argmin(d2, axis=1)
            bv = d2[np.arange(len(bi)), bi]
            upd = bv < qbest  # an earlier block wins ties: smallest index
            qbest[upd] = bv[upd]
            qbesti[upd] = j0 + bi[upd]
    return best, besti


def rho_kernel(items: np.ndarray, p: dict) -> dict:
    """Per (start, end, cstart, cend) row, ρ of the queries
    ``q[start:end]`` counted over the candidates ``c[cstart:cend]``,
    which hold each query itself."""
    pts, q, c = p["pts"], p["q"], p["c"]
    return concat([
        {"id": q[s:e], "rho": count_within(pts[q[s:e]], pts[c[cs:ce]], p["dcut2"]) - 1}
        for s, e, cs, ce in items.tolist()
    ])


def delta_kernel(items: np.ndarray, p: dict) -> dict:
    """Per (start, end, cstart, cend) row, (δ, dep) of the queries
    ``q[start:end]`` over the candidates ``c[cstart:cend]``; dep is −1
    where no candidate is denser."""
    pts, key, q, c = p["pts"], p["key"], p["q"], p["c"]
    parts = []
    for s, e, cs, ce in items.tolist():
        qi, ci = q[s:e], c[cs:ce]
        d2, j = nearest_denser(pts[qi], key[qi], pts[ci], key[ci])
        parts.append({"id": qi, "delta": np.sqrt(d2), "dep": np.where(j >= 0, ci[j], -1)})
    return concat(parts)


def rho_scan(
    points: np.ndarray,
    d_cut: float,
    *,
    spark=None,
) -> np.ndarray:
    """Parallel brute-force local densities (raw counts)."""
    n = len(points)
    ids = np.arange(n, dtype=np.int64)
    chunks = chunk_items(n, _CHUNK)  # each against all n points
    out = run_phase(
        spark,
        rho_kernel,
        np.c_[chunks, np.tile([0, n], (len(chunks), 1))],
        {"pts": points, "q": ids, "c": ids, "dcut2": d_cut * d_cut},
    )
    rho = np.zeros(n, dtype=np.int64)
    rho[out["id"]] = out["rho"]
    return rho


def delta_scan(
    points: np.ndarray,
    key: np.ndarray,
    ids: np.ndarray | None = None,
    *,
    spark=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Parallel brute-force (delta, dep) given jittered densities.

    Each query id in ``ids`` (default: every point) scans all of P, so it
    costs n distance evaluations. delta/dep are dense over all n points;
    slots outside ``ids`` stay inf / -1.
    """
    n = len(points)
    every = np.arange(n, dtype=np.int64)
    ids = every if ids is None else np.asarray(ids, dtype=np.int64)
    chunks = chunk_items(len(ids), _CHUNK)  # each against all n points
    out = run_phase(
        spark,
        delta_kernel,
        np.c_[chunks, np.tile([0, n], (len(chunks), 1))],
        {"pts": points, "key": key, "q": ids, "c": every},
    )
    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    delta[out["id"]] = out["delta"]
    dep[out["id"]] = out["dep"]
    return delta, dep


def scan_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
) -> DPCResult:
    """The straightforward algorithm of §2.2, Spark-parallelized."""
    points = as_points(points)
    n = len(points)
    clock = PhaseClock()
    rho = rho_scan(points, params.d_cut, spark=spark)
    clock.mark("rho")
    key = rho + tiebreak(n, params.seed)
    delta, dep = delta_scan(points, key, spark=spark)
    clock.mark("delta")
    return result(rho, delta, dep, params, clock, counters={"dist_evals": 2 * n * n})
