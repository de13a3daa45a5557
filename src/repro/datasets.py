"""Datasets of the paper's evaluation — synthetic substitutes (DESIGN.md §4).

* ``syn``   — the paper's 2-D random-walk dataset (Gan & Tao [17] model):
  13 walkers whose step-by-step positions form snake-shaped density
  peaks, plus a configurable uniform noise rate. Full paper scale
  (n = 100,000, domain [0, 1e5]²).
* ``s1..s4`` — the Fränti S-sets [16]: 15 Gaussian clusters, overlap
  degree growing with the index. Regenerated synthetically at the true
  cardinality (n = 5,000).
* ``airline / household / pamap2 / sensor`` — offline substitutes for
  the real datasets: same dimensionality and domains, skewed
  Gaussian-mixture (airline, household, sensor) or multi-walker
  random-walk (pamap2, a wearable-sensor time series in the original)
  structure, at 1/40 the paper's cardinality so the pure-Python/numpy
  substrate stays tractable. d_cut defaults follow the paper (1000,
  resp. 5000 for sensor).

Every generator is deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "load", "DATASET_NAMES", "REAL_LIKE"]

DATASET_NAMES = (
    "syn",
    "s1",
    "s2",
    "s3",
    "s4",
    "airline",
    "household",
    "pamap2",
    "sensor",
)
REAL_LIKE = ("airline", "household", "pamap2", "sensor")


@dataclass
class Dataset:
    """A point set plus the paper's default DPC parameters for it."""

    name: str
    points: np.ndarray  # (n, d) float64
    d_cut: float
    rho_min: float
    expected_k: int  # cluster count the paper reports / targets
    eps_default: float  # S-Approx-DPC ε the paper chose (Table 5)
    seed: int

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _spread_centers(
    rng: np.random.Generator, k: int, lo: float, hi: float, d: int, min_sep: float
) -> np.ndarray:
    """k centers in [lo, hi]^d pairwise at least min_sep apart (dart throwing)."""
    centers: list[np.ndarray] = []
    for _ in range(100_000):
        c = rng.uniform(lo, hi, d)
        if all(np.linalg.norm(c - o) >= min_sep for o in centers):
            centers.append(c)
            if len(centers) == k:
                return np.stack(centers)
    raise RuntimeError("could not place centers; lower min_sep")


def _clip(pts: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.clip(pts, lo, hi)


def _mixture(
    rng: np.random.Generator,
    n: int,
    d: int,
    domain: float,
    k: int,
    sigma_lo: float,
    sigma_hi: float,
    noise_rate: float,
    min_sep: float,
) -> np.ndarray:
    """Skewed Gaussian mixture + uniform background noise."""
    n_noise = int(n * noise_rate)
    n_clustered = n - n_noise
    centers = _spread_centers(rng, k, 0.12 * domain, 0.88 * domain, d, min_sep)
    # Moderately skewed cluster sizes (ratio largest:smallest ~ k^0.6) so
    # every cluster stays above the noise threshold yet sizes differ.
    weights = (np.arange(1, k + 1, dtype=np.float64)) ** -0.6
    rng.shuffle(weights)
    weights /= weights.sum()
    sizes = np.maximum(1, (weights * n_clustered).astype(int))
    while sizes.sum() < n_clustered:
        sizes[rng.integers(k)] += 1
    while sizes.sum() > n_clustered:
        sizes[int(np.argmax(sizes))] -= 1
    sigmas = rng.uniform(sigma_lo, sigma_hi, k)
    parts = [
        rng.normal(centers[j], sigmas[j], (sizes[j], d)) for j in range(k)
    ]
    parts.append(rng.uniform(0, domain, (n_noise, d)))
    pts = _clip(np.concatenate(parts), 0, domain)
    return pts[rng.permutation(len(pts))]


def _random_walks(
    rng: np.random.Generator,
    n: int,
    d: int,
    domain: float,
    k: int,
    step: float,
    noise_rate: float,
    min_sep: float,
) -> np.ndarray:
    """k bounded random walks (snake-shaped density peaks) + noise."""
    n_noise = int(n * noise_rate)
    n_walk = n - n_noise
    starts = _spread_centers(rng, k, 0.15 * domain, 0.85 * domain, d, min_sep)
    per = n_walk // k
    parts = []
    for j in range(k):
        m = per if j < k - 1 else n_walk - per * (k - 1)
        steps = rng.normal(0.0, step, (m, d))
        walk = starts[j] + np.cumsum(steps, axis=0)
        # reflect at a soft bounding box around the start so walks stay
        # compact density peaks instead of wandering off
        span = 0.08 * domain
        walk = starts[j] + np.abs((walk - starts[j] + span) % (4 * span) - 2 * span) - span
        parts.append(walk)
    parts.append(rng.uniform(0, domain, (n_noise, d)))
    pts = _clip(np.concatenate(parts), 0, domain)
    return pts[rng.permutation(len(pts))]


# -- the nine datasets ------------------------------------------------------


def syn(n: int = 100_000, *, noise_rate: float = 0.01, seed: int = 42) -> Dataset:
    """Paper's Syn: 2-D random-walk data, 13 density peaks, domain [0,1e5]."""
    rng = np.random.default_rng(seed)
    pts = _random_walks(
        rng, n, 2, 1e5, k=13, step=60.0, noise_rate=noise_rate, min_sep=1.7e4
    )
    return Dataset("syn", pts, d_cut=250.0, rho_min=10, expected_k=13,
                   eps_default=1.0, seed=seed)


_S_SIGMA = {1: 800.0, 2: 1400.0, 3: 2200.0, 4: 3000.0}


def s_set(i: int, n: int = 5_000, *, seed: int = 7) -> Dataset:
    """S1–S4: 15 Gaussian clusters, overlap grows with the index."""
    if i not in _S_SIGMA:
        raise ValueError("S-set index must be 1..4")
    rng = np.random.default_rng(seed + i)
    centers = _spread_centers(rng, 15, 1.2e4, 8.8e4, 2, min_sep=1.6e4)
    per = n // 15
    parts = [
        rng.normal(centers[j], _S_SIGMA[i], (per if j < 14 else n - 14 * per, 2))
        for j in range(15)
    ]
    pts = _clip(np.concatenate(parts), 0, 1e5)
    pts = pts[rng.permutation(len(pts))]
    return Dataset(f"s{i}", pts, d_cut=1500.0, rho_min=5, expected_k=15,
                   eps_default=1.0, seed=seed)


def airline(n: int = 145_261, *, seed: int = 11) -> Dataset:
    """3-D, domain [0,1e6] — substitute for the Airline dataset."""
    rng = np.random.default_rng(seed)
    pts = _mixture(rng, n, 3, 1e6, k=40, sigma_lo=1_200, sigma_hi=3_500,
                   noise_rate=0.02, min_sep=6.0e4)
    return Dataset("airline", pts, d_cut=1000.0, rho_min=10, expected_k=40,
                   eps_default=0.8, seed=seed)


def household(n: int = 51_232, *, seed: int = 12) -> Dataset:
    """4-D, domain [0,1e5] — substitute for Household power consumption."""
    rng = np.random.default_rng(seed)
    pts = _mixture(rng, n, 4, 1e5, k=25, sigma_lo=1_200, sigma_hi=2_500,
                   noise_rate=0.02, min_sep=2.2e4)
    return Dataset("household", pts, d_cut=1000.0, rho_min=10, expected_k=25,
                   eps_default=0.8, seed=seed)


def pamap2(n: int = 96_262, *, seed: int = 13) -> Dataset:
    """4-D, domain [0,1e5] — substitute for PAMAP2 (wearable trajectories)."""
    rng = np.random.default_rng(seed)
    pts = _random_walks(rng, n, 4, 1e5, k=18, step=60.0, noise_rate=0.02,
                        min_sep=2.4e4)
    return Dataset("pamap2", pts, d_cut=1000.0, rho_min=10, expected_k=18,
                   eps_default=0.8, seed=seed)


def sensor(n: int = 23_224, *, seed: int = 14) -> Dataset:
    """8-D, domain [0,1e5] — substitute for the Sensor dataset."""
    rng = np.random.default_rng(seed)
    pts = _mixture(rng, n, 8, 1e5, k=22, sigma_lo=1_500, sigma_hi=2_500,
                   noise_rate=0.02, min_sep=3.5e4)
    return Dataset("sensor", pts, d_cut=5000.0, rho_min=10, expected_k=22,
                   eps_default=0.6, seed=seed)


def load(name: str, n: int | None = None, **kw) -> Dataset:
    """Load a dataset by name, optionally overriding its cardinality."""
    makers = {
        "syn": syn,
        "s1": lambda **k: s_set(1, **k),
        "s2": lambda **k: s_set(2, **k),
        "s3": lambda **k: s_set(3, **k),
        "s4": lambda **k: s_set(4, **k),
        "airline": airline,
        "household": household,
        "pamap2": pamap2,
        "sensor": sensor,
    }
    if name not in makers:
        raise KeyError(f"unknown dataset {name!r}; one of {DATASET_NAMES}")
    if n is not None:
        kw["n"] = n
    return makers[name](**kw)

