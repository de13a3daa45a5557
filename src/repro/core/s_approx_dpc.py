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
2. the remaining roots P'_pick get the exact nearest higher-density
   picked point, smallest picked index (cell) on ties, from Approx-DPC's
   exact-δ kernel (``core.depexact``) over the ρ phase's kd-tree, with
   every non-picked point keyed −∞ so only picked points compete; it
   runs on the driver. The paper's temporal clusters and their
   triangle-inequality pruning are not built (DESIGN.md §2).

ρ_min applies to picked points only; non-picked points inherit density,
noise and cluster from their picked point and are never cluster centers.
"""
from __future__ import annotations

import numpy as np

from repro.core.depexact import exact_dependent
from repro.core.exdpc import first_max_per_run, joint_range_rho
from repro.core.labels import PhaseClock, result
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.index.grid import UniformGrid, cell_side
from repro.index.kdtree import KDTree

__all__ = ["s_approx_dpc"]


def s_approx_dpc(
    points: np.ndarray,
    params: DPCParams,
    eps: float,
    *,
    spark=None,
) -> DPCResult:
    """S-Approx-DPC with approximation parameter ``eps`` (finite, > 0)."""
    if not 0 < eps < np.inf:  # NaN or inf would put every point in one cell
        raise ValueError(f"eps must be positive and finite, got {eps}")
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
        cell_of=grid.cell_of, jitter=jitter, spark=spark,
    )
    rho_pick = rho_all[picked]
    clock.mark("rho")

    key_pick = rho_pick + jitter[picked]
    # Phase 1: the densest neighbouring cell denser than c (first in N(c)
    # on ties) is the cell of c's approximate dependent point; the pairs
    # arrive sorted by (cell, neighbour), so each cell is one run.
    better = key_pick[pn] > key_pick[pc]
    pc, pn = pc[better], pn[better]
    top = first_max_per_run(pc, key_pick[pn])
    dep_local = np.full(m, -1, dtype=np.int64)  # cell -> cell of dependent
    dep_local[pc[top]] = pn[top]

    # Phase 2: the roots P'_pick search the picked points of the ρ tree
    # (every other point keyed −∞), reported by cell.
    roots = dep_local < 0
    key = np.full(n, -np.inf)
    key[picked] = key_pick
    dx, px, nde2 = exact_dependent(points, tree, key, picked[roots], cell_of=grid.cell_of)
    nde += nde2
    delta_pick = np.where(roots, dx[picked], (1.0 + eps) * params.d_cut)
    dep_local = np.where(roots, px[picked], dep_local)
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
        # the tree counts its leaf table; phase 2 adds a max key per leaf
        memory_bytes=tree.memory_bytes() + tree.lo[0].nbytes + grid.memory_bytes() + picked.nbytes,
    )
