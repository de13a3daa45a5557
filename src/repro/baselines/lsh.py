"""p-stable locality-sensitive hashing (Datar et al. [13]) — LSH-DDP's substrate.

A compound hash g(p) = (h_1(p), …, h_k(p)) with h(p) = ⌊(a·p + b)/w⌋,
a ~ N(0, I_d), b ~ U[0, w). L independent compound hashes partition the
point set into L bucket layouts ("tables"); points sharing a compound
value share a bucket. Deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["CompoundLSH"]


class CompoundLSH:
    """L compound p-stable hashes over an (n, d) point set."""

    def __init__(self, d: int, k: int, L: int, w: float, seed: int):
        if w <= 0:
            raise ValueError("w must be positive")
        rng = np.random.default_rng(seed)
        self.k, self.L, self.w = int(k), int(L), float(w)
        self.a = rng.normal(size=(L, k, d))  # projection vectors
        self.b = rng.uniform(0.0, w, size=(L, k))  # offsets

    def bucket_ids(self, points: np.ndarray) -> np.ndarray:
        """(L, n) int64 bucket ids; buckets are dense per table."""
        n = len(points)
        out = np.empty((self.L, n), dtype=np.int64)
        for l in range(self.L):
            h = np.floor(
                (points @ self.a[l].T + self.b[l]) / self.w
            ).astype(np.int64)  # (n, k)
            _, inv = np.unique(h, axis=0, return_inverse=True)
            out[l] = inv
        return out

    def memory_bytes(self, n: int) -> int:
        # per table: one bucket id per point, plus hash parameters
        return self.L * n * 8 + self.a.nbytes + self.b.nbytes
