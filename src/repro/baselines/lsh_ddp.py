"""LSH-DDP (Zhang et al. [42]) — the approximate DPC baseline.

p-stable compound LSH partitions P into buckets, L times. The local
density of a point is approximated by the densest bucket it falls in
(a lower bound of the true ρ); dependent-point candidates are likewise
retrieved per bucket (against the aggregated densities) and the best
candidate across tables wins. Points whose local dependent information
"does not seem accurate" — no in-bucket candidate, or a dependent
distance large enough to make the point a potential cluster center —
are refined by a full scan of P, as in the original algorithm.

Inside a bucket LSH-DDP is Scan: both bucket phases run Scan's kernels
(``core.scan.rho_kernel`` / ``delta_kernel``, over its blocked helpers
``count_within`` and ``nearest_denser``) with the bucket's members as
both the queries and the candidates. Both phases cost O(L·Σb²) distance
evaluations (Table 1) and are LPT-balanced over buckets by b² — note
the paper's point that LSH-DDP itself does *not* load-balance its
partitions; the balancing here is at the Spark-task layer, bucket sizes
remain as skewed as LSH makes them.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.lsh import CompoundLSH
from repro.core.labels import PhaseClock, result
from repro.core.scan import delta_kernel, delta_scan, rho_kernel
from repro.core.types import DPCParams, DPCResult, as_points, tiebreak
from repro.index.grid import group_by
from repro.par.spark_map import run_phase

__all__ = ["lsh_ddp"]


def lsh_ddp(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    k: int = 2,
    L: int = 4,
    w_factor: float = 3.0,
) -> DPCResult:
    """LSH-DDP with L compound tables of k p-stable hashes, w = w_factor·d_cut."""
    points = as_points(points)
    n, d = points.shape
    jitter = tiebreak(n, params.seed)

    clock = PhaseClock()
    lsh = CompoundLSH(d, k=k, L=L, w=w_factor * params.d_cut, seed=params.seed + 1)
    bucket_ids = lsh.bucket_ids(points)
    # per table, (order, offsets) giving contiguous bucket member slices
    layouts = [group_by(row, int(row.max()) + 1) for row in bucket_ids]
    # every table's buckets as slices of one member array: table t's
    # members sit at [t·n, (t+1)·n)
    mem = np.concatenate([order for order, _ in layouts])
    starts = np.concatenate([f[:-1] + t * n for t, (_, f) in enumerate(layouts)])
    ends = np.concatenate([f[1:] + t * n for t, (_, f) in enumerate(layouts)])
    nz = ends > starts
    starts, ends = starts[nz], ends[nz]
    # each bucket's members are both the queries and the candidates
    items = np.column_stack([starts, ends, starts, ends])
    sizes = ends - starts
    costs = sizes.astype(np.float64) ** 2
    nde = 2 * int((sizes**2).sum())  # b² distances per bucket and phase
    clock.mark("build")

    # Phase ρ: per-bucket local densities; aggregate by max over tables.
    out = run_phase(
        spark,
        rho_kernel,
        items,
        {"pts": points, "q": mem, "c": mem, "dcut2": params.d_cut**2},
        costs=costs,
    )
    rho = np.zeros(n, dtype=np.int64)
    np.maximum.at(rho, out["id"], out["rho"])
    clock.mark("rho")

    # Phase δ: per-bucket candidates against aggregated densities; the
    # best candidate over tables is the smallest (δ, dep) per id.
    key = rho + jitter
    out = run_phase(
        spark,
        delta_kernel,
        items,
        {"pts": points, "key": key, "q": mem, "c": mem},
        costs=costs,
    )
    has = out["dep"] >= 0
    ids, dx, px = out["id"][has], out["delta"][has], out["dep"][has]
    rank = np.lexsort((px, dx, ids))
    first = rank[np.diff(ids[rank], prepend=-1) != 0]
    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    delta[ids[first]] = dx[first]
    dep[ids[first]] = px[first]

    # Refinement: no candidate found, or the point looks like a center —
    # the original verifies such points by scanning P.
    needs = np.flatnonzero(
        (dep < 0) | (np.isfinite(delta) & (delta >= params.delta_min))
    )
    # the true global peak never has a dependent point
    global_peak = int(np.argmax(key))
    needs = needs[needs != global_peak]
    if len(needs):
        dx, px = delta_scan(points, key, needs, spark=spark)
        delta[needs] = dx[needs]
        dep[needs] = px[needs]
        nde += len(needs) * n  # each refined point scans the whole of P
    delta[global_peak] = np.inf
    dep[global_peak] = -1
    clock.mark("delta")
    return result(
        rho, delta, dep, params, clock,
        counters={
            "dist_evals": nde,
            "n_buckets": int(len(items)),
            "max_bucket": int(sizes.max()) if len(sizes) else 0,
            "n_refined": int(len(needs)),
        },
        memory_bytes=lsh.memory_bytes(n) + sum(o.nbytes + f.nbytes for o, f in layouts),
    )
