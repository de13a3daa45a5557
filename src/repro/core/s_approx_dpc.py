"""S-Approx-DPC (§5): grid sampling + cell-based clustering.

A coarser grid G' (side ε·d_cut/√d) is built; one *picked* point per
cell gets an exact density via a kd-tree range search (one search per
cell — this is where the ε-for-speed trade comes from); every other
point simply depends on its cell's picked point. Picked points resolve
their dependent points in two phases:

1. any picked point in a neighbouring cell (N(c)) with higher density —
   approximate dependent distance bounded by (1+ε)·d_cut;
2. the remaining roots P'_pick form temporal clusters from the phase-1
   forest and search each other with the triangle-inequality pruning of
   §5 (falling back to Approx-DPC's subset machinery when
   |P'_pick|² ≫ n).

ρ_min applies to picked points only; non-picked points inherit density,
noise and cluster from their picked point and are never cluster centers.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.depexact import exact_dependent
from repro.core.distutil import sq_dists
from repro.core.labels import finalize
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.index.grid import UniformGrid, cell_side
from repro.index.kdtree import KDTree
from repro.par.spark_map import run_phase

__all__ = ["s_approx_dpc"]

# Phase 2 falls back to the subset machinery once |P'_pick|² exceeds this
# many times n, the O(n) budget of the pairwise root search.
_FALLBACK_FACTOR = 16.0


def _pick_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, tree, cell_of, d_cut = p["pts"], p["tree"], p["cell_of"], p["d_cut"]
    rows = []
    for c, pid in zip(items["cell"].to_numpy(), items["picked"].to_numpy()):
        c, pid = int(c), int(pid)
        before = tree.dist_evals
        R = tree.range_query(pts[pid], d_cut)
        nde = tree.dist_evals - before
        ncells = np.unique(cell_of[R])
        ncells = ncells[ncells != c]
        rows.append(
            {
                "cell": c,
                "picked": pid,
                "rho": len(R) - 1,  # exclude self
                "nde": nde,
                "ncells": ncells.tolist(),
            }
        )
    return pd.DataFrame(
        rows, columns=["cell", "picked", "rho", "nde", "ncells"]
    )


def _temporal_roots(dep_local: np.ndarray) -> np.ndarray:
    """Root (with path halving) of each node in the phase-1 forest."""
    root = dep_local.copy()
    root[root < 0] = np.flatnonzero(dep_local < 0)  # roots point to self
    # pointer jumping until fixpoint; forest depth is small
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def s_approx_dpc(
    points: np.ndarray,
    params: DPCParams,
    eps: float,
    *,
    spark=None,
    n_tasks: int | None = None,
) -> DPCResult:
    """S-Approx-DPC with approximation parameter ``eps`` (> 0)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    points = as_points(points)
    n, d = points.shape
    jitter = tiebreak(n, params.seed)

    t0 = time.perf_counter()
    tree = KDTree(points)
    grid = UniformGrid(points, cell_side(params.d_cut, d, eps))
    m = grid.m
    # deterministic sample: the smallest point id in each cell
    picked = np.array([int(grid.members(c)[0]) for c in range(m)], dtype=np.int64)
    t_build = time.perf_counter() - t0

    # ρ phase: one range search per cell.
    t1 = time.perf_counter()
    out = run_phase(
        spark,
        _pick_kernel,
        pd.DataFrame({"cell": np.arange(m, dtype=np.int64), "picked": picked}),
        {"pts": points, "tree": tree, "cell_of": grid.cell_of, "d_cut": params.d_cut},
        n_tasks=n_tasks,
    )
    out = out.sort_values("cell").reset_index(drop=True)
    rho_pick = out["rho"].to_numpy()
    neigh = [np.asarray(nc, dtype=np.int64) for nc in out["ncells"]]
    nde = int(out["nde"].sum())
    t2 = time.perf_counter()

    key_pick = rho_pick + jitter[picked]
    # Phase 1: approximate dependent point among neighbouring cells.
    dep_local = np.full(m, -1, dtype=np.int64)  # cell -> cell of dependent
    for c in range(m):
        cand = neigh[c]
        if len(cand) == 0:
            continue
        better = cand[key_pick[cand] > key_pick[c]]
        if len(better):
            dep_local[c] = int(better[np.argmax(key_pick[better])])

    delta_pick = np.full(m, np.inf)
    delta_pick[dep_local >= 0] = (1.0 + eps) * params.d_cut
    roots = np.flatnonzero(dep_local < 0)

    # Phase 2: dependent points of the roots P'_pick.
    ppts = points[picked]
    if len(roots) ** 2 > _FALLBACK_FACTOR * n:
        # |P'_pick|² exceeds O(n): fall back to Approx-DPC's machinery
        # over the picked points.
        dx, px, nde2 = exact_dependent(ppts, key_pick, roots, spark=spark, n_tasks=n_tasks)
        nde += nde2
        for c in roots:
            if px[c] >= 0:
                dep_local[c] = int(px[c])
                delta_pick[c] = dx[c]
    else:
        cluster_of = _temporal_roots(dep_local)
        rts = points[picked[roots]]
        kroots = key_pick[roots]
        # radius r_i of each temporal cluster
        d2_to_root = sq_dists(ppts, ppts[roots])  # (m, |roots|) — ok, |roots| small
        nde += d2_to_root.size
        member_mask = cluster_of[:, None] == roots[None, :]
        r = np.sqrt(np.where(member_mask, d2_to_root, 0.0).max(axis=0))
        d2_rr = sq_dists(rts, rts)
        for a, c in enumerate(roots):
            higher = kroots > kroots[a]
            if not higher.any():
                continue  # global density peak among picked
            dpp = np.sqrt(np.min(np.where(higher, d2_rr[a], np.inf)))
            # prune temporal clusters by triangle inequality
            cand = np.flatnonzero(higher & (np.sqrt(d2_rr[a]) - r <= dpp))
            best2 = np.inf
            bid = -1
            for b in cand:
                members = np.flatnonzero(member_mask[:, b])
                members = members[key_pick[members] > kroots[a]]
                if not len(members):
                    continue
                d2m = sq_dists(ppts[c][None, :], ppts[members])[0]
                nde += len(members)
                j = int(np.argmin(d2m))
                if d2m[j] < best2:
                    best2 = float(d2m[j])
                    bid = int(members[j])
            if bid >= 0:
                dep_local[c] = bid
                delta_pick[c] = float(np.sqrt(best2))
    t3 = time.perf_counter()

    # Expand to all points.
    rho = np.zeros(n)
    rho[picked] = rho_pick
    nonpicked = np.ones(n, dtype=bool)
    nonpicked[picked] = False
    cell_all = grid.cell_of
    rho[nonpicked] = rho_pick[cell_all[nonpicked]]
    delta = np.zeros(n)
    delta[picked] = delta_pick
    dep = np.full(n, -1, dtype=np.int64)
    has_dep = dep_local >= 0
    dep[picked[has_dep]] = picked[dep_local[has_dep]]
    dep[nonpicked] = picked[cell_all[nonpicked]]

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
        counters={"dist_evals": nde, "n_cells": m, "n_roots": int(len(roots))},
        memory_bytes=tree.memory_bytes() + grid.memory_bytes() + picked.nbytes,
    )
