"""Noise / cluster-center selection and label propagation (§2.1 step 4).

``finalize`` turns (rho, delta, dep) into centers, noise mask and labels
with the paper's semantics: noise points have raw rho < rho_min; cluster
centers are non-noise points with delta >= delta_min; every other point
gets the label of its dependent point, assigned by depth-first search
from the centers over the dependency forest. Propagation passes
*through* noise points (they sit on dependency chains) and they are
relabelled -1 afterwards; points not reachable from any center (possible
with approximate dependent points, e.g. LSH-DDP cycles) also stay -1.
"""
from __future__ import annotations

import numpy as np

from repro.core.types import DPCParams
from repro.index.grid import group_by

__all__ = ["finalize", "propagate_labels", "select_centers"]


def select_centers(
    rho_raw: np.ndarray, delta: np.ndarray, params: DPCParams
) -> tuple[np.ndarray, np.ndarray]:
    """Return (centers ids ascending, noise bool mask)."""
    noise = rho_raw < params.rho_min
    centers = np.flatnonzero(~noise & (delta >= params.delta_min))
    return centers.astype(np.int64), noise


def propagate_labels(
    dep: np.ndarray, centers: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """DFS from each center over the children lists of the dependency forest.

    Center i gets label equal to its position in ``centers`` (so labels
    are stable across algorithms that agree on centers). Noise is -1.
    """
    n = len(dep)
    labels = np.full(n, -1, dtype=np.int64)
    # children adjacency via counting sort on dep
    valid = dep >= 0
    order, offsets = group_by(dep[valid], n)
    kids = np.flatnonzero(valid)[order]
    # Label every center before any DFS so one center's tree can never
    # absorb another center that happens to hang below it.
    labels[centers] = np.arange(len(centers), dtype=np.int64)
    for cid, c in enumerate(centers):
        stack = [int(c)]
        while stack:
            u = stack.pop()
            s, e = offsets[u], offsets[u + 1]
            for v in kids[s:e]:
                v = int(v)
                if labels[v] < 0:
                    labels[v] = cid
                    stack.append(v)
    labels[noise] = -1
    return labels


def finalize(
    rho_raw: np.ndarray,
    delta: np.ndarray,
    dep: np.ndarray,
    params: DPCParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, noise, labels) from the three DPC quantities."""
    centers, noise = select_centers(rho_raw, delta, params)
    labels = propagate_labels(dep, centers, noise)
    return centers, noise, labels
