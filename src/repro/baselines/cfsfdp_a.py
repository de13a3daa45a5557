"""CFSFDP-A (Bai et al. [7]) — exact baseline with k-means pivots.

Pivot points are k-means centroids; every point stores its distance to
each pivot, and a candidate for "within d_cut of p_i" must satisfy the
triangle-inequality ring test |dist(p_i,c_m) − dist(p_j,c_m)| ≤ d_cut
against p_j's own pivot c_m. Candidates are then verified exactly, so ρ
is exact. Following the paper's protocol (§6 "Algorithms"), the
dependent-point phase reuses Scan's computation — CFSFDP-A's own δ
phase is slower than Scan's.

The n×k pivot-distance matrix is materialised (that is the algorithm's
memory signature — cf. Table 7) and its size reported; parallel workers
recompute their chunk's rows instead of shipping the matrix.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.kmeans import kmeans
from repro.core.distutil import paired_sq, sq_dists
from repro.core.labels import PhaseClock, result
from repro.core.scan import chunk_items, delta_scan
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.par.spark_map import concat, run_phase

__all__ = ["cfsfdp_a"]

_FLAT_CHUNK = 1 << 20
_CHUNK = 2048  # points per ρ work item


def _rho_kernel(items: np.ndarray, p: dict) -> dict:
    pts, cents, d_cut = p["pts"], p["cents"], p["d_cut"]
    gsorted_d, gsorted_id = p["gsorted_d"], p["gsorted_id"]
    dcut2 = d_cut * d_cut
    parts = []
    for s, e in items.tolist():
        a = pts[s:e]
        m = len(a)
        # this chunk's distances to every pivot
        dq = np.sqrt(sq_dists(a, cents))
        # The ring is only a filter: widen it past the rounding of the sqrt
        # distances so a pair at exactly d_cut still reaches the exact test.
        w = d_cut + 1e-9 * (dq + d_cut)
        cnt = np.zeros(m, dtype=np.int64)
        nde = m * len(cents)
        for g in range(len(cents)):
            sd, sid = gsorted_d[g], gsorted_id[g]
            if len(sd) == 0:
                continue
            lo = np.searchsorted(sd, dq[:, g] - w[:, g], side="left")
            hi = np.searchsorted(sd, dq[:, g] + w[:, g], side="right")
            lens = hi - lo
            total = int(lens.sum())
            if total == 0:
                continue
            qidx = np.repeat(np.arange(m), lens)
            offs = np.cumsum(lens) - lens
            fpos = np.arange(total) - np.repeat(offs, lens) + np.repeat(lo, lens)
            cand = sid[fpos]
            for f0 in range(0, total, _FLAT_CHUNK):
                qs = qidx[f0 : f0 + _FLAT_CHUNK]
                cs = cand[f0 : f0 + _FLAT_CHUNK]
                d2 = paired_sq(a[qs], pts[cs])
                cnt += np.bincount(
                    qs, weights=(d2 < dcut2), minlength=m
                ).astype(np.int64)
            nde += total
        # self survives its own ring test
        parts.append({"id": np.arange(s, e), "rho": cnt - 1, "nde": np.array([nde])})
    return concat(parts)


def cfsfdp_a(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    k: int | None = None,
) -> DPCResult:
    """CFSFDP-A: exact ρ via pivot rings, δ via Scan."""
    points = as_points(points)
    n, d = points.shape
    if k is None:
        k = max(1, int(round(np.sqrt(n))))

    clock = PhaseClock()
    cents, group = kmeans(points, k, seed=params.seed)
    k = len(cents)
    # The algorithm's pivot-distance table (n x k) — its memory signature.
    dmat = np.empty((n, k))
    for s in range(0, n, 4096):
        dmat[s : s + 4096] = np.sqrt(sq_dists(points[s : s + 4096], cents))
    mem_bytes = dmat.nbytes + cents.nbytes + group.nbytes
    own = dmat[np.arange(n), group]
    gsorted_d, gsorted_id = [], []
    for g in range(k):
        mem = np.flatnonzero(group == g)
        o = np.argsort(own[mem], kind="stable")
        gsorted_d.append(own[mem][o])
        gsorted_id.append(mem[o])
    del dmat
    clock.mark("pivot")

    out = run_phase(
        spark,
        _rho_kernel,
        chunk_items(n, _CHUNK),
        {
            "pts": points,
            "cents": cents,
            "d_cut": params.d_cut,
            "gsorted_d": gsorted_d,
            "gsorted_id": gsorted_id,
        },
    )
    rho = np.zeros(n, dtype=np.int64)
    rho[out["id"]] = out["rho"]
    nde = int(out["nde"].sum())
    clock.mark("rho")

    key = rho + tiebreak(n, params.seed)
    delta, dep = delta_scan(points, key, spark=spark)
    clock.mark("delta")
    return result(
        rho, delta, dep, params, clock,
        counters={"dist_evals": nde + n * n, "k_pivots": k},
        memory_bytes=mem_bytes,
    )
