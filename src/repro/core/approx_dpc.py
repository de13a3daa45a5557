"""Approx-DPC (§4): joint range search + cell-based dependent approximation.

Exact local densities for every point (so Theorem 4's cluster-center
guarantee holds) from the joint range search of §4.2, run per block of
cells: the cells whose smallest-id member lies in one kd-tree leaf share
one search of the tree's leaf table, their members' bounding box against
every leaf box, and one distance matrix over the leaves within d_cut
(Ex-DPC's ``joint_range_rho``). Cell statistics fall out of the
same pass: p*(c), the first member of maximal density, and N(c), the
cells within d_cut of p*(c), as flat (cell, neighbour cell) pairs.

Dependent points: O(1) approximation inside the grid — a non-maximal
point depends on its cell's density maximum p*(c) with distance set to
``d_cut``; a cell maximum depends on p*(c') of a neighbouring cell
c' ∈ N(c) whose *minimum* density exceeds its own. The remaining points
P' get exact dependent points from a (query, leaf) pair search over the
same leaf table (``core.depexact``) instead of the paper's s
density-sorted subset trees; the results are the same. Both the ρ phase
(cost: the block's point count, the sum of the paper's |P(c)|) and the
P' phase (cost: the chunk's query count) are LPT-balanced ``run_phase``
calls: a Spark stage, or one driver call when the recorded stage costs
say a stage would not finish sooner.
"""
from __future__ import annotations

import numpy as np

from repro.core.depexact import exact_dependent
from repro.core.exdpc import joint_range_rho, run_heads
from repro.core.labels import PhaseClock, result
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.index.grid import UniformGrid, cell_side
from repro.index.kdtree import KDTree

__all__ = ["approx_dpc"]


def approx_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
) -> DPCResult:
    """Approx-DPC (§4). Same cluster centers as Ex-DPC (Theorem 4).

    Raises ValueError unless ``params.delta_min > params.d_cut``, the
    precondition of Theorem 4: with δ_min ≤ d_cut every point whose δ
    the grid sets to d_cut would become a center.
    """
    if not params.delta_min > params.d_cut:
        raise ValueError(
            f"approx_dpc needs delta_min > d_cut (Theorem 4), got "
            f"delta_min={params.delta_min} and d_cut={params.d_cut}"
        )
    points = as_points(points)
    n, d = points.shape
    jitter = tiebreak(n, params.seed)

    clock = PhaseClock()
    tree = KDTree(points)
    grid = UniformGrid(points, cell_side(params.d_cut, d))
    clock.mark("build")
    rho, pstar_of_cell, (pc, pn), nde_rho = joint_range_rho(
        points, tree, params.d_cut, groups=(grid.order, grid.offsets),
        cell_of=grid.cell_of, jitter=jitter, spark=spark,
    )
    clock.mark("rho")

    key = rho + jitter
    # min density per cell (for the p* neighbour rule)
    minkey = np.full(grid.m, np.inf)
    np.minimum.at(minkey, grid.cell_of, key)

    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    # Rule 1: non-maximal points depend on their cell's p*, distance d_cut.
    pstar_arr = pstar_of_cell[grid.cell_of]
    nonmax = np.arange(n) != pstar_arr
    dep[nonmax] = pstar_arr[nonmax]
    delta[nonmax] = params.d_cut
    # Rule 2: a cell maximum depends on p*(c') for the first c' in N(c)
    # (ascending) whose min density is above its own; the rest go to P'.
    # The pairs arrive sorted by cell, so each cell's first c' heads a run.
    ok = minkey[pn] > key[pstar_of_cell[pc]]
    pc, pn = pc[ok], pn[ok]
    first = run_heads(pc)
    cells = pc[first]
    dep[pstar_of_cell[cells]] = pstar_of_cell[pn[first]]
    delta[pstar_of_cell[cells]] = params.d_cut
    pprime = np.delete(pstar_of_cell, cells)  # in cell order
    # Exact dependent points for P'.
    dx, px, nde_dep = exact_dependent(points, tree, key, pprime, spark=spark)
    delta[pprime] = dx[pprime]
    dep[pprime] = px[pprime]
    clock.mark("delta")
    return result(
        rho, delta, dep, params, clock,
        counters={
            "dist_evals": nde_rho + nde_dep,
            "n_cells": grid.m,
            "n_pprime": len(pprime),
        },
        # the tree counts its leaf table; P′'s search adds a max key per leaf
        memory_bytes=tree.memory_bytes() + tree.lo[0].nbytes + grid.memory_bytes(),
    )
