"""R-tree + Scan baseline tests — exact algorithm, full equality."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import rtree_scan
from repro.baselines.rtree_scan import rtree_scan_dpc
from repro.core.reference import brute_dpc
from repro.core.types import DPCParams
from tests.conftest import make_blobs


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_reference(d, seed):
    pts = make_blobs(n_per=70, k=3, d=d, seed=seed)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)
    ref = brute_dpc(pts, params)
    res = rtree_scan_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)
    assert np.array_equal(res.centers, ref.centers)
    assert np.array_equal(res.labels, ref.labels)


@pytest.mark.parametrize("leaf_size", [4, 16, 256])
def test_leaf_size_invariant(leaf_size, monkeypatch):
    pts = make_blobs(n_per=60, k=2, seed=2)
    params = DPCParams(d_cut=8.0)
    ref = brute_dpc(pts, params)
    monkeypatch.setattr(rtree_scan, "_LEAF_SIZE", leaf_size)
    res = rtree_scan_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)


def test_delta_is_scan_quadratic():
    pts = make_blobs(n_per=50, k=2, seed=3)
    n = len(pts)
    res = rtree_scan_dpc(pts, DPCParams(d_cut=8.0))
    assert res.counters["dist_evals"] >= n * n  # the Scan δ component


def test_rho_cheaper_than_scan_on_clustered_data():
    pts = make_blobs(n_per=500, k=3, d=2, n_noise=0, seed=4)
    n = len(pts)
    res = rtree_scan_dpc(pts, DPCParams(d_cut=6.0))
    rho_evals = res.counters["dist_evals"] - n * n
    assert rho_evals < 0.5 * n * n


def test_memory_reported():
    res = rtree_scan_dpc(make_blobs(n_per=40, k=2), DPCParams(d_cut=8.0))
    assert res.memory_bytes > 0
