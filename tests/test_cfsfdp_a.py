"""CFSFDP-A baseline tests — it is an *exact* algorithm, so full equality."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cfsfdp_a import cfsfdp_a
from repro.core.reference import brute_dpc, brute_rho
from repro.core.types import DPCParams
from tests.conftest import make_blobs


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_reference(d, seed):
    pts = make_blobs(n_per=70, k=3, d=d, seed=seed)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)
    ref = brute_dpc(pts, params)
    res = cfsfdp_a(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)
    assert np.array_equal(res.centers, ref.centers)
    assert np.array_equal(res.labels, ref.labels)


@pytest.mark.parametrize("k", [1, 2, 10, 50])
def test_pivot_count_invariant(k):
    """Ring pruning is exact for any number of pivots."""
    pts = make_blobs(n_per=50, k=2, seed=2)
    params = DPCParams(d_cut=8.0)
    ref = brute_dpc(pts, params)
    res = cfsfdp_a(pts, params, k=k)
    assert np.array_equal(res.rho, ref.rho)


@pytest.mark.parametrize("seed", [157, 325, 333, 605, 649])
def test_rho_exact_at_d_cut_on_lattices(seed):
    """Pairs at exactly d_cut = √2 pass the pivot ring, which is a filter."""
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(2, 4)), int(rng.integers(2, 80))
    pts = rng.integers(0, 6, (n, d)).astype(float)
    d_cut = float(np.sqrt(2.0))
    assert np.array_equal(cfsfdp_a(pts, DPCParams(d_cut=d_cut)).rho, brute_rho(pts, d_cut))


def test_memory_signature():
    """CFSFDP-A materialises the n x k pivot-distance matrix (Table 7)."""
    pts = make_blobs(n_per=100, k=3, seed=3)
    n = len(pts)
    res = cfsfdp_a(pts, DPCParams(d_cut=8.0), k=17)
    assert res.memory_bytes >= n * 17 * 8


def test_counters_include_scan_delta():
    pts = make_blobs(n_per=60, k=2, seed=4)
    n = len(pts)
    res = cfsfdp_a(pts, DPCParams(d_cut=8.0))
    assert res.counters["dist_evals"] >= n * n  # δ phase is Scan
    assert res.counters["k_pivots"] >= 1


def test_duplicate_points():
    pts = np.repeat(np.random.default_rng(1).uniform(0, 10, (15, 2)), 4, axis=0)
    params = DPCParams(d_cut=2.0)
    ref = brute_dpc(pts, params)
    res = cfsfdp_a(pts, params, k=4)
    assert np.array_equal(res.rho, ref.rho)
