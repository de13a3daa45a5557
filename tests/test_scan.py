"""Scan baseline: exact equality with the naive reference (serial mode)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import scan
from repro.core.reference import brute_dpc
from repro.core.scan import chunk_items, scan_dpc
from repro.core.types import DPCParams
from tests.conftest import make_blobs


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_reference(d, seed):
    pts = make_blobs(n_per=80, k=3, d=d, seed=seed)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)
    ref = brute_dpc(pts, params)
    res = scan_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)
    assert np.array_equal(res.dep, ref.dep)
    assert np.array_equal(res.centers, ref.centers)
    assert np.array_equal(res.labels, ref.labels)


@pytest.mark.parametrize("chunk", [1, 7, 100, 10_000])
def test_chunking_invariant(chunk, monkeypatch):
    pts = make_blobs(n_per=50, k=2, seed=2)
    params = DPCParams(d_cut=8.0, rho_min=3, delta_min=30.0)
    monkeypatch.setattr(scan, "_CHUNK", 512)
    base = scan_dpc(pts, params)
    monkeypatch.setattr(scan, "_CHUNK", chunk)
    res = scan_dpc(pts, params)
    assert np.array_equal(res.rho, base.rho)
    assert np.array_equal(res.delta, base.delta)
    assert np.array_equal(res.labels, base.labels)


def test_chunk_items_covers_range():
    items = chunk_items(1003, 100)  # (start, end) rows
    assert items.dtype == np.int64 and items.shape == (11, 2)
    assert items[0, 0] == 0
    assert items[-1, 1] == 1003
    assert (items[:, 1] - items[:, 0]).sum() == 1003


def test_timings_and_counters():
    pts = make_blobs(n_per=30, k=2)
    res = scan_dpc(pts, DPCParams(d_cut=8.0))
    n = len(pts)
    assert res.counters["dist_evals"] == 2 * n * n
    assert res.memory_bytes == 0  # no index


def test_uniform_data():
    pts = np.random.default_rng(5).uniform(0, 100, (300, 2))
    params = DPCParams(d_cut=10.0, rho_min=2, delta_min=25.0)
    ref = brute_dpc(pts, params)
    res = scan_dpc(pts, params)
    assert np.array_equal(res.labels, ref.labels)
