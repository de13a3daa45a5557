"""Exact dependent points of a query set over the ρ kd-tree (§4.3).

Used by Approx-DPC for the set P' of points whose approximate dependent
point could not be decided in O(1), and by S-Approx-DPC for the roots
P'_pick of its phase-1 forest.

No tree is traversed. The queries go in leaf order, in chunks of
``2**17 // L`` for a tree of L leaves, so each chunk's (|chunk| × L)
matrix of ``box_lower_bounds`` from the queries to the tree's leaf
boxes stays cache-sized; a leaf whose maximum (jittered) density is not
above the query's is at ∞. Pass 1 scans each query's nearest eligible
leaf, which gives every query but the global peak a finite bound; pass
2 scans, for each query, only the other leaves within its *own* bound.
A pass expands its (query, leaf) pairs into (query, point) pairs, at
most 2**17 per slice, drops the pairs whose point is not strictly
denser than the query, takes one row-wise squared distance per
remaining pair (``paired_sq``) and reduces per query with the shared
tie rule: nearest, then smallest id. With ``cell_of`` a candidate's id
is its cell, so ties go to the smallest cell and dep reports cells. The
chunks are LPT-balanced by size over one Spark stage.
"""
from __future__ import annotations

import numpy as np

from repro.core.distutil import paired_sq
from repro.index.kdtree import KDTree, box_lower_bounds
from repro.par.spark_map import concat, run_phase
from repro.par.spark_map import run_tasks  # noqa: F401  (perfbench's tracer test reads this binding)

__all__ = ["exact_dependent"]

_CELLS = 2**17  # entries per temporary: bound-matrix cells, or pairs per scan slice
_NO_ID = np.iinfo(np.int64).max


def _scan(p: dict, qi: np.ndarray, leaves: np.ndarray, q, kq, best, bid) -> int:
    """Fold the strictly denser points of leaf ``leaves[j]`` into query
    ``qi[j]``'s (best, bid); the pairs are sorted by query.

    Returns the number of distances evaluated: pairs with a point that
    is not strictly denser than the query are dropped before.
    """
    pts, key, perm, edges, cell_of = (p[k] for k in ("pts", "key", "perm", "edges", "cell_of"))
    lens = edges[leaves + 1] - edges[leaves]
    ends = np.cumsum(lens)
    base = edges[leaves] - ends + lens  # slot of pair j's point t is base[j] + t
    total = int(ends[-1]) if len(ends) else 0
    nde = 0
    for s in range(0, total, _CELLS):
        t = np.arange(s, min(s + _CELLS, total))
        j = np.searchsorted(ends, t, side="right")
        c, r = perm[base[j] + t], qi[j]
        keep = key[c] > kq[r]  # strictly denser points only
        c, r = c[keep], r[keep]
        if len(r) == 0:
            continue
        nde += len(r)
        d2 = paired_sq(q[r], pts[c])
        cid = c if cell_of is None else cell_of[c]
        # per query (a run of r): the nearest, then the smallest id
        head = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        bv = np.minimum.reduceat(d2, head)
        tie = d2 == np.repeat(bv, np.diff(head, append=len(r)))
        bi = np.minimum.reduceat(np.where(tie, cid, _NO_ID), head)
        r = r[head]
        upd = (bv < best[r]) | ((bv == best[r]) & (bi < bid[r]))
        best[r[upd]], bid[r[upd]] = bv[upd], bi[upd]
    return nde


def _dep_kernel(items: np.ndarray, p: dict) -> dict:
    """Exact (δ, dep) of chunks of queries, ``qids[start:end]`` per row."""
    qids, pts, key, lo, hi, kmax = (p[k] for k in ("qids", "pts", "key", "lo", "hi", "kmax"))
    parts = []
    for s, e in items.tolist():
        qb = qids[s:e]
        q, kq = pts[qb], key[qb]
        lb = box_lower_bounds(q, q, lo, hi)
        lb[kmax[None, :] <= kq[:, None]] = np.inf  # no strictly denser point
        best = np.full(len(qb), np.inf)
        bid = np.full(len(qb), -1, dtype=np.int64)
        rows = np.arange(len(qb))
        nearest = np.argmin(lb, axis=1)
        has = lb[rows, nearest] < np.inf  # all but the global peak
        nde = _scan(p, rows[has], nearest[has], q, kq, best, bid)
        # padded by a relative 1e-9: lb sums in another order than
        # paired_sq and is only a filter
        lb[rows, nearest] = np.inf
        qi, leaves = np.nonzero(lb <= np.where(has, best * (1.0 + 1e-9), -1.0)[:, None])
        nde += _scan(p, qi, leaves, q, kq, best, bid)
        parts.append({"id": qb, "delta": np.sqrt(best), "dep": bid, "nde": np.array([nde])})
    return concat(parts)


def exact_dependent(
    points: np.ndarray,
    tree: KDTree,
    key: np.ndarray,
    qids: np.ndarray,
    *,
    cell_of: np.ndarray | None = None,
    spark=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact (delta, dep) for the points in ``qids``.

    ``tree`` is a :class:`KDTree` over ``points`` and ``key`` the
    (jittered) densities; a point keyed −∞ is never a dependent point.
    Returns (delta, dep, dist_evals) where delta/dep are dense over all
    n points but only the ``qids`` slots are filled (inf / -1 elsewhere,
    and for the global peak). With ``cell_of`` (point → cell) dep holds
    the dependent point's cell, and equally near candidates are ranked
    by cell, not by point id.
    """
    n = len(points)
    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    if len(qids) == 0:
        return delta, dep, 0
    qids = np.asarray(qids, dtype=np.int64)
    order, _ = tree.leaf_blocks(qids)
    size = max(1, _CELLS // (len(tree.edges) - 1))
    bounds = np.append(np.arange(0, len(qids), size), len(qids))
    out = run_phase(
        spark,
        _dep_kernel,
        np.column_stack([bounds[:-1], bounds[1:]]),
        {**tree.leaf_table(), "qids": qids[order], "pts": points, "key": key,
         "kmax": np.maximum.reduceat(key[tree.perm], tree.edges[:-1]), "cell_of": cell_of},
        costs=np.diff(bounds).astype(np.float64),
    )
    delta[out["id"]] = out["delta"]
    dep[out["id"]] = out["dep"]
    return delta, dep, int(out["nde"].sum())
