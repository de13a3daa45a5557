"""One shared squared-distance kernel.

Every algorithm (and the naive reference) computes pairwise squared
distances through this function, so floating-point behaviour at the
``dist < d_cut`` boundary is bit-identical across implementations —
exact-equality tests between algorithms then cannot be tripped by
summation-order differences (e.g. BLAS matmul vs. diff-einsum).
``paired_sq`` is its row-wise form for scans over explicit (query,
candidate) pairs, bit-equal to the diagonal of ``sq_dists``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["paired_sq", "sq_dists"]


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances, diff-based."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def paired_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a),) squared Euclidean distances between rows a[i] and b[i], diff-based."""
    diff = a - b
    return np.einsum("ij,ij->i", diff, diff)
