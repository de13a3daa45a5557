"""Shared DPC types and conventions.

Conventions (identical across every algorithm in the repo — see
DESIGN.md §3):

* ``rho`` is the raw local density: the number of *other* points
  strictly within ``d_cut``.
* Comparisons "higher local density" use ``rho + jitter`` where jitter
  is a deterministic per-id value in (0, 1) seeded by ``params.seed``
  (the paper's "add a random value ∈ (0,1)" made reproducible, so
  Theorem 4 — identical cluster centers — is exactly testable).
* ``dep`` is the dependent-point id, -1 for the global density peak
  (whose ``delta`` is +inf).
* noise: raw ``rho < rho_min``; center: non-noise and ``delta >=
  delta_min``; label -1 marks noise / unreachable points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DPCParams", "DPCResult", "as_points", "tiebreak"]


@dataclass(frozen=True)
class DPCParams:
    """User parameters of DPC (Definitions 1, 4, 5)."""

    d_cut: float
    rho_min: float = 0.0
    delta_min: float = float("inf")
    seed: int = 777  # tie-break jitter seed (shared across algorithms)

    def __post_init__(self):
        if not self.d_cut > 0:  # also rejects NaN
            raise ValueError(f"d_cut must be positive, got {self.d_cut}")
        if math.isnan(self.rho_min) or math.isnan(self.delta_min):
            raise ValueError("rho_min and delta_min must not be NaN")


def as_points(points) -> np.ndarray:
    """``points`` as a C-contiguous float64 (n, d) array, n, d >= 1.

    Raises ValueError for input that is not 2-D, is empty or holds a
    NaN or infinite coordinate: no algorithm defines ρ for those.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (no NaN or inf coordinates)")
    return pts


def tiebreak(n: int, seed: int = DPCParams.seed) -> np.ndarray:
    """Deterministic per-id jitter in (0,1) added to rho for ordering."""
    u = np.random.default_rng(seed).random(n)
    # Keep strictly inside (0,1) so jitter never promotes rho across an
    # integer boundary used by rho_min.
    return np.clip(u, 1e-12, 1.0 - 1e-12)


@dataclass
class DPCResult:
    """Output of one DPC run plus bookkeeping for the experiment tables."""

    rho: np.ndarray  # raw counts (float for approximate algorithms)
    delta: np.ndarray
    dep: np.ndarray  # int64; -1 for roots
    centers: np.ndarray  # ids, ascending
    noise: np.ndarray  # bool mask
    labels: np.ndarray  # int64; -1 = noise/unreachable
    timings: dict = field(default_factory=dict)  # phase -> seconds
    counters: dict = field(default_factory=dict)  # e.g. dist_evals
    memory_bytes: int = 0

    @property
    def n_clusters(self) -> int:
        return int(len(self.centers))
