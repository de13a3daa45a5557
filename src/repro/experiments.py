"""Experiment harness: one function per evaluation table (Tables 2–7).

Protocol, following §6 of the paper:

1. Run Ex-DPC with the dataset's default d_cut and ρ_min and an open
   δ_min; choose δ_min from the decision graph (largest relative gap in
   the sorted dependent distances around the dataset's expected cluster
   count — the programmatic stand-in for the paper's "specified so that
   we have k clusters").
2. Re-finalize Ex-DPC with that δ_min — its labels are the ground truth.
3. Run every approximation algorithm with the *same* (d_cut, ρ_min,
   δ_min) and score Rand index against the ground truth.

Every ``tableN`` function takes ``scale`` (cardinality multiplier, 1.0 =
the bench scale of DESIGN.md §4) and ``spark`` (None = serial) and
returns a pandas DataFrame shaped like the paper's table.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pandas as pd

from repro import datasets
from repro.baselines.cfsfdp_a import cfsfdp_a
from repro.baselines.lsh_ddp import lsh_ddp
from repro.baselines.rtree_scan import rtree_scan_dpc
from repro.core.approx_dpc import approx_dpc
from repro.core.exdpc import ex_dpc
from repro.core.labels import finalize
from repro.core.rand_index import rand_index
from repro.core.s_approx_dpc import s_approx_dpc
from repro.core.scan import scan_dpc
from repro.core.types import DPCParams, DPCResult

__all__ = [
    "ALGORITHMS",
    "select_delta_min",
    "ground_truth",
    "refinalize",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
]


def _on_points(fn):
    return lambda ds, params, *, spark=None: fn(ds.points, params, spark=spark)


def _s_approx(ds: datasets.Dataset, params: DPCParams, *, spark=None) -> DPCResult:
    return s_approx_dpc(ds.points, params, ds.eps_default, spark=spark)


# The seven algorithms of Tables 6 and 7, in the paper's row order; Tables
# 2-4 call theirs through it too. Each entry runs one algorithm as
# ``ALGORITHMS[name](ds, params, spark=...)``; S-Approx-DPC takes the
# dataset's ε (the paper's Table 5 choice).
ALGORITHMS = {
    "Scan": _on_points(scan_dpc),
    "R-tree + Scan": _on_points(rtree_scan_dpc),
    "LSH-DDP": _on_points(lsh_ddp),
    "CFSFDP-A": _on_points(cfsfdp_a),
    "Ex-DPC": _on_points(ex_dpc),
    "Approx-DPC": _on_points(approx_dpc),
    "S-Approx-DPC": _s_approx,
}


def select_delta_min(
    result: DPCResult, expected_k: int
) -> tuple[float, int]:
    """δ_min from the decision graph: the largest relative gap in the
    sorted non-noise dependent distances within ±~50% of ``expected_k``.

    Returns (delta_min, chosen_k).
    """
    dl = np.sort(result.delta[~result.noise])[::-1]
    if len(dl) == 0:  # degenerate tiny-scale run: everything is noise
        dl = np.sort(result.delta)[::-1]
    finite = dl[np.isfinite(dl)]
    cap = float(finite.max()) * 2 if len(finite) else 1.0
    dl = np.where(np.isfinite(dl), dl, cap)
    if len(dl) < 2:
        return float(dl[0] * 0.5), 1
    lo = max(1, min(int(expected_k * 0.5), len(dl) - 1))
    hi = min(len(dl) - 1, max(lo + 1, int(np.ceil(expected_k * 1.6))))
    ratios = dl[lo - 1 : hi - 1] / np.maximum(dl[lo:hi], 1e-12)
    k = lo + int(np.argmax(ratios)) if len(ratios) else lo
    delta_min = float(np.sqrt(dl[k - 1] * dl[k]))  # geometric midpoint
    return delta_min, k


def refinalize(result: DPCResult, params: DPCParams) -> DPCResult:
    """Re-derive centers/noise/labels under new thresholds (ρ/δ reused)."""
    centers, noise, labels = finalize(result.rho, result.delta, result.dep, params)
    return dataclasses.replace(result, centers=centers, noise=noise, labels=labels)


def ground_truth(
    ds: datasets.Dataset, *, spark=None
) -> tuple[DPCResult, DPCParams]:
    """Ex-DPC ground truth with δ_min chosen from its decision graph."""
    open_params = DPCParams(d_cut=ds.d_cut, rho_min=ds.rho_min, delta_min=np.inf)
    res = ex_dpc(ds.points, open_params, spark=spark)
    delta_min, _ = select_delta_min(res, ds.expected_k)
    params = DPCParams(d_cut=ds.d_cut, rho_min=ds.rho_min, delta_min=delta_min)
    return refinalize(res, params), params


def _scaled(ds_name: str, scale: float, **kw) -> datasets.Dataset:
    """Dataset at ``scale`` times its bench cardinality.

    ρ_min shrinks proportionally: for a fixed distribution, local density
    grows linearly with n (the paper's own scalability argument), so a
    scaled-down run keeps the same noise semantics.
    """
    base = datasets.load(ds_name, **kw)
    if scale == 1.0:
        return base
    n_new = max(500, int(base.n * scale))
    ds = datasets.load(ds_name, n=n_new, **kw)
    return dataclasses.replace(
        ds, rho_min=max(1.0, ds.rho_min * n_new / base.n)
    )


def _rand_row(ds: datasets.Dataset, algs: tuple[str, ...], *, spark=None) -> dict:
    """Rand index of each algorithm in ``algs`` against Ex-DPC's labels."""
    gt, params = ground_truth(ds, spark=spark)
    return {
        alg: rand_index(ALGORITHMS[alg](ds, params, spark=spark).labels, gt.labels)
        for alg in algs
    }


_APPROXIMATE = ("LSH-DDP", "Approx-DPC", "S-Approx-DPC")


# -- Table 2: Rand index vs noise rate on Syn -------------------------------


def table2(
    *,
    scale: float = 1.0,
    spark=None,
    noise_rates=(0.01, 0.02, 0.04, 0.08, 0.16),
) -> pd.DataFrame:
    """Rand index of LSH-DDP / Approx-DPC / S-Approx-DPC on Syn."""
    rows = []
    for rate in noise_rates:
        ds = _scaled("syn", scale, noise_rate=rate)
        row = _rand_row(ds, _APPROXIMATE, spark=spark)
        rows.append({"noise_rate": rate, **row})
    return pd.DataFrame(rows)


# -- Table 3: Rand index on S1..S4 ------------------------------------------


def table3(*, scale: float = 1.0, spark=None) -> pd.DataFrame:
    """Rand index on the S-sets (cluster-overlap robustness)."""
    rows = []
    for name in ("s1", "s2", "s3", "s4"):
        ds = _scaled(name, scale)
        row = _rand_row(ds, _APPROXIMATE, spark=spark)
        rows.append({"dataset": name.upper(), **row})
    return pd.DataFrame(rows)


# -- Table 4: Rand index on real-like datasets ------------------------------


def table4(*, scale: float = 1.0, spark=None) -> pd.DataFrame:
    """Rand index of LSH-DDP and Approx-DPC on the real-dataset substitutes."""
    rows = []
    for name in datasets.REAL_LIKE:
        ds = _scaled(name, scale)
        row = _rand_row(ds, ("LSH-DDP", "Approx-DPC"), spark=spark)
        rows.append({"dataset": name, **row})
    return pd.DataFrame(rows)


# -- Table 5: time vs accuracy of S-Approx-DPC ------------------------------


def table5(
    *,
    scale: float = 1.0,
    spark=None,
    eps_values=(0.2, 0.4, 0.6, 0.8, 1.0),
    dataset_names=("airline", "household"),
) -> pd.DataFrame:
    """S-Approx-DPC running time and Rand index across ε."""
    rows = []
    for name in dataset_names:
        ds = _scaled(name, scale)
        gt, params = ground_truth(ds, spark=spark)
        for eps in eps_values:
            t0 = time.perf_counter()
            res = s_approx_dpc(ds.points, params, eps, spark=spark)
            el = time.perf_counter() - t0
            rows.append(
                {
                    "dataset": name,
                    "eps": eps,
                    "time_s": el,
                    "rand_index": rand_index(res.labels, gt.labels),
                }
            )
    return pd.DataFrame(rows)


# -- Tables 6 & 7: decomposed time and memory -------------------------------


def table6(
    *,
    scale: float = 1.0,
    spark=None,
    dataset_names=datasets.REAL_LIKE,
    include: tuple[str, ...] | None = None,
) -> pd.DataFrame:
    """Decomposed ρ/δ computation time (and memory, feeding Table 7).

    ``include`` restricts the algorithm set (used by the benchmarks to
    time one algorithm at a time). The Ex-DPC row is the ground-truth
    run: its phases and counters are the open-δ_min run's, its labels
    come from ``refinalize``.
    """
    rows: list[dict] = []
    for name in dataset_names:
        ds = _scaled(name, scale)
        gt, params = ground_truth(ds, spark=spark)
        for alg in include if include is not None else ALGORITHMS:
            res = gt if alg == "Ex-DPC" else ALGORITHMS[alg](ds, params, spark=spark)
            rows.append(
                {
                    "dataset": ds.name,
                    "algorithm": alg,
                    "rho_s": res.timings.get("rho", np.nan),
                    "delta_s": res.timings.get("delta", np.nan),
                    "total_s": res.timings.get("total", np.nan),
                    "dist_evals": res.counters.get("dist_evals", np.nan),
                    "memory_mb": res.memory_bytes / 2**20,
                }
            )
    return pd.DataFrame(rows)


def table7(
    *, scale: float = 1.0, spark=None, table6_df: pd.DataFrame | None = None
) -> pd.DataFrame:
    """Memory usage [MB] of the index structures per algorithm/dataset.

    Reuses a Table 6 run when provided (the measurements come from the
    same executions).
    """
    df = table6_df if table6_df is not None else table6(scale=scale, spark=spark)
    keep = [alg for alg in ALGORITHMS if alg != "Scan"]  # Scan builds no index
    out = df[df["algorithm"].isin(keep)].pivot(
        index="algorithm", columns="dataset", values="memory_mb"
    )
    return out.reindex(keep).reset_index()
