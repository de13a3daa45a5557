"""S-Approx-DPC (§5): grid sampling + cell-based clustering.

A coarser grid G' (side ε·d_cut/√d) is built; one *picked* point per
cell gets an exact density (only m of the n points — this is where the
ε-for-speed trade comes from); every other point simply depends on its
cell's picked point. The picked points that lie in one kd-tree leaf
share one joint range search over the tree's leaf table, their bounding
box against every leaf box (Ex-DPC's ``joint_range_rho``), which also
returns N(c), the cells within d_cut of c's picked point, as flat
(cell, neighbour cell) pairs. Picked points resolve their dependent
points in two phases:

1. the densest picked point in a neighbouring cell (N(c)) with higher
   density — approximate dependent distance bounded by (1+ε)·d_cut;
2. the remaining roots P'_pick form temporal clusters from the phase-1
   forest and search each other with the triangle-inequality pruning of
   §5, on the driver, in O(m + |P'_pick|) memory; the result is the
   exact nearest higher-density picked point, smallest id on ties.

ρ_min applies to picked points only; non-picked points inherit density,
noise and cluster from their picked point and are never cluster centers.
"""
from __future__ import annotations

import numpy as np

from repro.core.distutil import sq_dists
from repro.core.exdpc import joint_range_rho
from repro.core.labels import PhaseClock, result
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.index.grid import UniformGrid, cell_side, group_by, take_groups
from repro.index.kdtree import KDTree

__all__ = ["s_approx_dpc"]


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


def _root_dependents(
    ppts: np.ndarray, key: np.ndarray, dep_local: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Phase 2: exact (δ, dep) of the roots of the phase-1 forest.

    Each root heads a temporal cluster of picked points, of radius r_b.
    Roots are visited in descending key order: root a compares with the
    roots above it (the nearest at dpp) and scans the higher-key members
    of every cluster b with dist(a, root_b) − r_b ≤ dpp (triangle
    inequality; padded by a relative 1e-9, as it compares rounded
    distances and is only a filter). Nearest wins, then smallest id.
    Returns (δ, dep, dist_evals) over all picked points; non-roots and
    the top root get (∞, −1).
    """
    m = len(key)
    roots = np.flatnonzero(dep_local < 0)
    roots = roots[np.argsort(-key[roots], kind="stable")]
    rank = np.empty(m, dtype=np.int64)
    rank[roots] = np.arange(len(roots))
    cluster = rank[_temporal_roots(dep_local)]  # by root rank
    order, offsets = group_by(cluster, len(roots))
    diff = ppts - ppts[roots[cluster]]
    radius = np.zeros(len(roots))
    np.maximum.at(radius, cluster, np.einsum("ij,ij->i", diff, diff))
    radius = np.sqrt(radius)
    rts = ppts[roots]
    krts = key[roots]
    # roots with a strictly higher key than each root (a prefix of `roots`)
    n_higher = np.searchsorted(-krts, -krts, side="left")
    nde = m
    delta = np.full(m, np.inf)
    dep = np.full(m, -1, dtype=np.int64)
    for a, h in enumerate(n_higher):
        if h == 0:
            continue  # density peak among the picked points
        c = roots[a]
        q = ppts[c][None, :]
        dr = np.sqrt(sq_dists(q, rts[:h])[0])
        keep = np.flatnonzero(dr - radius[:h] <= dr.min() * (1.0 + 1e-9))
        mem = take_groups(order, offsets, keep)  # members of the kept clusters
        mem = mem[key[mem] > key[c]]
        d2 = sq_dists(q, ppts[mem])[0]
        nde += h + len(mem)
        best = d2.min()
        dep[c] = mem[d2 == best].min()
        delta[c] = np.sqrt(best)
    return delta, dep, nde


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

    clock = PhaseClock()
    tree = KDTree(points)
    grid = UniformGrid(points, cell_side(params.d_cut, d, eps))
    m = grid.m
    # deterministic sample: the smallest point id in each cell
    picked = grid.order[grid.offsets[:-1]]
    clock.mark("build")

    # ρ phase: one joint range search per leaf's picked points.
    rho_all, _, (pc, pn), nde = joint_range_rho(
        points, tree, params.d_cut, groups=(picked, np.arange(m + 1)),
        cell_of=grid.cell_of, jitter=jitter, spark=spark, n_tasks=n_tasks,
    )
    rho_pick = rho_all[picked]
    clock.mark("rho")

    key_pick = rho_pick + jitter[picked]
    # Phase 1: the densest neighbouring cell denser than c (first in N(c)
    # on ties) is the cell of c's approximate dependent point.
    better = key_pick[pn] > key_pick[pc]
    pc, pn = pc[better], pn[better]
    o = np.lexsort((pn, -key_pick[pn], pc))
    cells, first = np.unique(pc[o], return_index=True)
    dep_local = np.full(m, -1, dtype=np.int64)  # cell -> cell of dependent
    dep_local[cells] = pn[o][first]

    # Phase 2: dependent points of the roots P'_pick.
    roots = dep_local < 0
    delta_root, dep_root, nde2 = _root_dependents(points[picked], key_pick, dep_local)
    nde += nde2
    delta_pick = np.where(roots, delta_root, (1.0 + eps) * params.d_cut)
    dep_local = np.where(roots, dep_root, dep_local)
    clock.mark("delta")

    # Expand to all points: a non-picked point takes its picked point's ρ.
    cell_all = grid.cell_of
    rho = rho_pick[cell_all].astype(np.float64)
    nonpicked = np.ones(n, dtype=bool)
    nonpicked[picked] = False
    delta = np.zeros(n)
    delta[picked] = delta_pick
    dep = np.full(n, -1, dtype=np.int64)
    has_dep = dep_local >= 0
    dep[picked[has_dep]] = picked[dep_local[has_dep]]
    dep[nonpicked] = picked[cell_all[nonpicked]]

    return result(
        rho, delta, dep, params, clock,
        counters={"dist_evals": nde, "n_cells": m, "n_roots": int(roots.sum())},
        memory_bytes=tree.memory_bytes() + grid.memory_bytes() + picked.nbytes,
    )
