"""Exact dependent points of a query set over the ρ kd-tree (§4.3).

Used by Approx-DPC for the (small) set P' of points whose approximate
dependent point could not be decided in O(1).

The queries are grouped by the kd-tree leaf that holds them, and each
block is resolved without a tree traversal, over the tree's leaf table
(each leaf's slot range and bounding box) plus each leaf's maximum
(jittered) density; per block, one (|block| × leaves) matrix of
``box_lower_bounds`` from the queries to the leaf boxes is the lower
bound, ∞ for a leaf with no strictly denser point. Pass 1 scans
each query's nearest eligible leaf, which gives every query a finite
bound; pass 2 scans every other leaf whose lower bound is within some
query's bound. Candidates are sorted by id and scanned in chunks, so a
block that holds a cluster peak (and scans most leaves) keeps its
temporaries small; the tie rule is the shared one, nearest, then
smallest id. The blocks are LPT-balanced by size over one Spark stage.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.distutil import sq_dists
from repro.index.grid import take_groups
from repro.index.kdtree import KDTree, box_lower_bounds
from repro.par.spark_map import run_phase
from repro.par.spark_map import run_tasks  # noqa: F401  (perfbench's tracer test reads this binding)

__all__ = ["exact_dependent"]

_CHUNK = 2048  # candidates per distance matrix, bounds temp memory


def _fold(p: dict, leaves: np.ndarray, q, kq, best, bid) -> int:
    """Fold the strictly denser points of ``leaves`` into (best, bid).

    Returns the number of distances evaluated.
    """
    pts, key = p["pts"], p["key"]
    ids = np.sort(take_groups(p["perm"], p["edges"], leaves))
    rows = np.arange(len(q))
    for j0 in range(0, len(ids), _CHUNK):
        c = ids[j0 : j0 + _CHUNK]
        d2 = sq_dists(q, pts[c])
        d2[key[c][None, :] <= kq[:, None]] = np.inf
        a = np.argmin(d2, axis=1)  # ids ascend: the smallest id among equals
        bv, bi = d2[rows, a], c[a]
        upd = (bv < best) | ((bv == best) & (bi < bid))
        best[upd], bid[upd] = bv[upd], bi[upd]
    return len(q) * len(ids)


def _dep_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    """Exact (δ, dep) of blocks of queries; one output row per task."""
    qids, pts, key, lo, hi, kmax = (p[k] for k in ("qids", "pts", "key", "lo", "hi", "kmax"))
    out: dict[str, list] = {"id": [], "delta": [], "dep": []}
    nde = 0
    for s, e in zip(items["start"].to_numpy(), items["end"].to_numpy()):
        qb = qids[s:e]
        q, kq = pts[qb], key[qb]
        lb = box_lower_bounds(q, q, lo, hi)
        lb[kmax[None, :] <= kq[:, None]] = np.inf  # no strictly denser point
        best = np.full(len(qb), np.inf)
        bid = np.full(len(qb), -1, dtype=np.int64)
        nearest = np.argmin(lb, axis=1)
        has = lb[np.arange(len(qb)), nearest] < np.inf  # all but the global peak
        if has.any():
            first = np.unique(nearest[has])
            nde += _fold(p, first, q, kq, best, bid)
            # padded by a relative 1e-9: lb sums in another order than
            # sq_dists and is only a filter
            thr = np.where(has, best * (1.0 + 1e-9), -1.0)
            rest = (lb <= thr[:, None]).any(axis=0)
            rest[first] = False
            if rest.any():
                nde += _fold(p, np.flatnonzero(rest), q, kq, best, bid)
        out["id"].append(qb)
        out["delta"].append(np.sqrt(best))
        out["dep"].append(bid)
    return pd.DataFrame({**{k: [np.concatenate(v)] for k, v in out.items()}, "nde": [nde]})


def exact_dependent(
    points: np.ndarray,
    tree: KDTree,
    key: np.ndarray,
    qids: np.ndarray,
    *,
    spark=None,
    n_tasks: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact (delta, dep) for the points in ``qids``.

    ``tree`` is a :class:`KDTree` over ``points`` and ``key`` the
    (jittered) densities. Returns (delta, dep, dist_evals) where
    delta/dep are dense over all n points but only the ``qids`` slots
    are filled (inf / -1 elsewhere, and for the global peak).
    """
    n = len(points)
    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    if len(qids) == 0:
        return delta, dep, 0
    qids = np.asarray(qids, dtype=np.int64)
    order, bounds = tree.leaf_blocks(qids)
    out = run_phase(
        spark,
        _dep_kernel,
        pd.DataFrame({"start": bounds[:-1], "end": bounds[1:]}),
        {**tree.leaf_table(), "qids": qids[order], "pts": points, "key": key,
         "kmax": np.maximum.reduceat(key[tree.perm], tree.edges[:-1])},
        costs=np.diff(bounds).astype(np.float64),
        n_tasks=n_tasks,
    )
    ids = np.concatenate(out["id"].to_list())
    delta[ids] = np.concatenate(out["delta"].to_list())
    dep[ids] = np.concatenate(out["dep"].to_list())
    return delta, dep, int(out["nde"].sum())
