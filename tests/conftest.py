"""Shared fixtures/helpers for the DPC test suite (spark fixture is in the
root conftest)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import DPCParams


def make_blobs(
    n_per: int = 100,
    k: int = 3,
    d: int = 2,
    spread: float = 5.0,
    sep: float = 100.0,
    n_noise: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """k well-separated Gaussian blobs + uniform noise, deterministic."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, sep * max(2, k), (k, d))
    # push centers apart deterministically on a diagonal lattice
    centers += np.arange(k)[:, None] * sep
    parts = [rng.normal(centers[j], spread, (n_per, d)) for j in range(k)]
    if n_noise:
        lo, hi = centers.min() - 2 * sep, centers.max() + 2 * sep
        parts.append(rng.uniform(lo, hi, (n_noise, d)))
    pts = np.concatenate(parts)
    return pts[rng.permutation(len(pts))]


@pytest.fixture
def blob_points() -> np.ndarray:
    return make_blobs()


@pytest.fixture
def blob_params() -> DPCParams:
    return DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)


@pytest.fixture
def uniform_points() -> np.ndarray:
    return np.random.default_rng(3).uniform(0, 100, (400, 3))


@pytest.fixture
def place(monkeypatch):
    """``place(on_driver)`` fixes where ``run_phase`` puts every phase.

    Returns a list that gets, per ``run_tasks`` call with work items,
    whether it ran as a Spark stage, so a test can check that one ran.
    """
    from repro.par import spark_map

    staged: list[bool] = []
    run_tasks = spark_map.run_tasks

    def spy(spark, kernel, items, costs):
        if len(items):
            staged.append(spark is not None)
        return run_tasks(spark, kernel, items, costs)

    def fix(on_driver: bool) -> list[bool]:
        monkeypatch.setattr(spark_map, "_on_driver", lambda *a: on_driver)
        monkeypatch.setattr(spark_map, "run_tasks", spy)
        return staged

    return fix
