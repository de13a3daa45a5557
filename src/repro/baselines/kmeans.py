"""Lloyd's k-means with k-means++ seeding — CFSFDP-A's pivot selector.

Minimal but correct: chunked assignment (bounded temp memory), empty
clusters reseeded to the farthest point. Deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np

from repro.core.distutil import sq_dists

__all__ = ["kmeans"]

_CHUNK = 4096
_ITERS = 5  # Lloyd iterations


def _assign(points: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nearest centroid id, squared distance to it) per point, chunked."""
    n = len(points)
    lab = np.empty(n, dtype=np.int64)
    d2 = np.empty(n)
    for s in range(0, n, _CHUNK):
        block = sq_dists(points[s : s + _CHUNK], cents)
        lab[s : s + _CHUNK] = np.argmin(block, axis=1)
        d2[s : s + _CHUNK] = block[np.arange(len(block)), lab[s : s + _CHUNK]]
    return lab, d2


def kmeans(points: np.ndarray, k: int, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Return (centroids (k,d), assignment (n,)).

    k-means++ initialisation followed by ``_ITERS`` Lloyd steps.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    k = int(min(k, n))
    rng = np.random.default_rng(seed)
    cents = np.empty((k, points.shape[1]))
    cents[0] = points[rng.integers(n)]
    d2 = sq_dists(points, cents[:1])[:, 0]
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        cents[j] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, sq_dists(points, cents[j : j + 1])[:, 0])
    lab = np.zeros(n, dtype=np.int64)
    for _ in range(_ITERS):
        lab, d2 = _assign(points, cents)
        for j in range(k):
            mask = lab == j
            if mask.any():
                cents[j] = points[mask].mean(axis=0)
            else:  # reseed empty cluster to the farthest point
                far = int(np.argmax(d2))
                cents[j] = points[far]
                d2[far] = 0.0
    lab, _ = _assign(points, cents)
    return cents, lab
