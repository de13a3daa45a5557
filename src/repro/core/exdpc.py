"""Ex-DPC (§3): exact DPC via a kd-tree.

* Local density: one joint range search per kd-tree leaf
  (``joint_range_rho``, also the ρ phase of Approx-DPC and
  S-Approx-DPC), with no tree traversal: the leaf's box against every
  box of the tree's leaf table, then one ``sq_dists`` block over the
  points of the leaves within d_cut. The paper uses OpenMP
  ``schedule(dynamic)`` because the per-point cost O(n^{1-1/d} + ρ_i)
  is unknown up front; here the leaves are LPT-balanced by point count
  into one task group per core (one Spark wave), since each extra Spark
  task costs more latency than dynamic balancing saves (DESIGN.md §2).

* Dependent points: the paper's incremental construction — empty the
  ρ phase's kd-tree (every slot set to +inf), sort by descending
  (jittered) density, then for each point run an NN query on the tree
  holding exactly the higher-density points, writing the point back
  afterwards (``IncrementalKDTree.refill``). This is *inherently
  sequential* (the paper proves it cannot be parallelized): it runs in
  the calling process, one query after another, never as a Spark stage;
  the refilled tree ends bit-equal to the ρ phase's.
"""
from __future__ import annotations

import numpy as np

from repro.core.labels import PhaseClock, result
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.index.grid import take_groups
from repro.index.kdtree import IncrementalKDTree, KDTree, leaf_join
from repro.par.spark_map import concat, run_phase
from repro.par.spark_map import run_tasks  # noqa: F401  (perfbench's tracer test reads this binding)

__all__ = ["ex_dpc", "first_max_per_run", "joint_range_rho", "run_heads"]


def run_heads(runs: np.ndarray) -> np.ndarray:
    """The first position of each run of equal ``runs`` values."""
    return np.flatnonzero(np.diff(runs, prepend=runs[:1] - 1))


def first_max_per_run(runs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Position of the first maximum of ``vals`` in each run of equal
    ``runs`` values, in run order."""
    head = run_heads(runs)
    peak = np.repeat(np.maximum.reduceat(vals, head), np.diff(head, append=len(runs)))
    top = np.flatnonzero(vals == peak)
    return top[run_heads(runs[top])]


def _rho_kernel(items: np.ndarray, p: dict) -> dict:
    """Leaf-table range searches over blocks of groups, one per
    (start, end) row of ``mem``."""
    mem_all, cell_of, jitter = p["mem"], p["cell_of"], p["jitter"]
    n = len(p["pts"])
    parts = []
    for s, e in items.tolist():
        mem = mem_all[s:e]
        ids, within = leaf_join(p, mem, p["d_cut"])
        rho = within.sum(axis=1) - 1  # self is among ids
        part = {"id": mem, "rho": rho, "nde": np.array([within.size])}
        if cell_of is None:
            parts.append({**part, "group": mem[:0], "pstar": mem[:0], "pairs": mem[:0]})
            continue
        # p*: the first maximum of key in each group (members ascending);
        # group g is cell g, so a group is a run of one cell in mem
        c = cell_of[mem]
        top = first_max_per_run(c, rho + jitter[mem])
        # N(g): the cells within d_cut of p*(g), own cell excluded, sorted
        r, j = np.nonzero(within[top])
        pairs = np.unique(c[top][r] * n + cell_of[ids[j]])
        parts.append({**part, "group": c[top], "pstar": mem[top],
                      "pairs": pairs[pairs // n != pairs % n]})
    return concat(parts)


def joint_range_rho(
    points: np.ndarray,
    tree: KDTree,
    d_cut: float,
    *,
    groups: tuple[np.ndarray, np.ndarray] | None = None,
    cell_of: np.ndarray | None = None,
    jitter: np.ndarray | None = None,
    spark=None,
):
    """Exact ρ of grouped points by leaf-blocked joint range searches.

    ``groups`` = (order, offsets) lists each group's member ids,
    ascending, as ``order[offsets[g]:offsets[g + 1]]``; by default every
    point is its own group. A block is the set of groups whose first
    member lies in one kd-tree leaf, and each block costs one
    ``leaf_join`` over the tree's leaf table: one Spark stage of numpy
    payload, LPT-balanced by the blocks' point counts. With ``cell_of``
    (group ids are cell ids) each group also gets p*(g), its first member
    of maximal ρ + ``jitter``, and N(g), the other cells within d_cut of
    p*(g).

    Returns (rho over all points, p* per group, N as flat int64
    (group, cell) pairs sorted by group then cell, dist_evals); without
    ``cell_of``, p* is all −1 and N is empty.
    """
    n = len(points)
    if groups is None:
        groups = (np.arange(n, dtype=np.int64), np.arange(n + 1, dtype=np.int64))
    order, offsets = groups
    blocks, bounds = tree.leaf_blocks(order[offsets[:-1]])
    ends = np.append(0, np.cumsum(np.diff(offsets)[blocks]))[bounds]  # block member ranges
    out = run_phase(
        spark,
        _rho_kernel,
        np.column_stack([ends[:-1], ends[1:]]),
        {**tree.leaf_table(), "pts": points, "d_cut": d_cut, "cell_of": cell_of,
         "jitter": jitter, "mem": take_groups(order, offsets, blocks)},  # members in block order
        costs=np.diff(ends).astype(np.float64),
    )
    rho = np.zeros(n, dtype=np.int64)
    rho[out["id"]] = out["rho"]
    pstar = np.full(len(offsets) - 1, -1, dtype=np.int64)
    pstar[out["group"]] = out["pstar"]
    return rho, pstar, np.divmod(np.sort(out["pairs"]), n), int(out["nde"].sum())


def ex_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
) -> DPCResult:
    """Exact DPC: leaf-blocked kd-tree range searches + incremental-kd-tree NN (§3)."""
    points = as_points(points)
    n = len(points)
    clock = PhaseClock()
    tree = KDTree(points)
    clock.mark("build")
    rho, _, _, nde_rho = joint_range_rho(points, tree, params.d_cut, spark=spark)
    clock.mark("rho")

    key = rho + tiebreak(n, params.seed)
    # Sequential dependent-point phase (driver): destroy K, re-insert in
    # descending density order, NN query against the partial tree.
    itree = IncrementalKDTree(tree)
    dep, delta2 = itree.refill(np.argsort(-key, kind="stable"))
    delta = np.sqrt(delta2)
    clock.mark("delta")
    return result(
        rho, delta, dep, params, clock,
        counters={"dist_evals": nde_rho + itree.dist_evals},
        memory_bytes=tree.memory_bytes() + itree.memory_bytes(),
    )
