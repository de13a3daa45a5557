"""LSH-DDP baseline tests."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.lsh import CompoundLSH
from repro.baselines.lsh_ddp import lsh_ddp
from repro.core.rand_index import rand_index
from repro.core.reference import brute_delta, brute_dpc, brute_rho
from repro.core.types import DPCParams, tiebreak
from tests.conftest import make_blobs


@pytest.fixture(scope="module")
def setup():
    pts = make_blobs(n_per=150, k=3, n_noise=20, seed=0)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=40.0)
    ref = brute_dpc(pts, params)
    res = lsh_ddp(pts, params)
    return pts, params, ref, res


def test_rho_lower_bound(setup):
    """Bucket-local densities can only undercount the true density."""
    _, _, ref, res = setup
    assert np.all(res.rho <= ref.rho)


def test_rho_reasonably_tight(setup):
    _, _, ref, res = setup
    nz = ref.rho > 0
    assert (res.rho[nz] / ref.rho[nz]).mean() > 0.5


def test_quality(setup):
    _, _, ref, res = setup
    assert rand_index(res.labels, ref.labels) >= 0.9


def test_dep_higher_key(setup):
    pts, _, _, res = setup
    key = res.rho + tiebreak(len(pts))
    ok = res.dep >= 0
    assert np.all(key[res.dep[ok]] > key[ok])


def test_single_root_delta_inf(setup):
    pts, _, _, res = setup
    key = res.rho + tiebreak(len(pts))
    peak = int(np.argmax(key))
    assert res.dep[peak] == -1 and np.isinf(res.delta[peak])


def test_refined_points_are_exact(setup):
    """Refinement scans the whole P, so refined deltas equal the exact
    dependent distance under LSH-DDP's own density estimates."""
    pts, params, _, res = setup
    key = res.rho + tiebreak(len(pts))
    bd, _ = brute_delta(pts, key)
    # every point whose delta >= delta_min was refined (or is the peak)
    checked = np.isfinite(res.delta) & (res.delta >= params.delta_min)
    assert np.array_equal(res.delta[checked], bd[checked])


def test_one_table_is_a_scan_per_bucket():
    """With L = 1 every bucket phase is Scan over one bucket's members:
    ρ is the bucket's brute-force ρ, and every point that is not refined
    keeps its bucket's brute-force (δ, dep) under the aggregated keys."""
    pts = make_blobs(n_per=150, k=3, n_noise=20, seed=0)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=40.0)
    res = lsh_ddp(pts, params, L=1)
    n, d = pts.shape
    lsh = CompoundLSH(d, k=2, L=1, w=3.0 * params.d_cut, seed=params.seed + 1)
    bucket = lsh.bucket_ids(pts)[0]
    key = res.rho + tiebreak(n, params.seed)
    rho = np.empty(n, dtype=np.int64)
    bd, bp = np.empty(n), np.empty(n, dtype=np.int64)
    for b in np.unique(bucket):
        mem = np.flatnonzero(bucket == b)
        rho[mem] = brute_rho(pts[mem], params.d_cut)
        dx, px = brute_delta(pts[mem], key[mem])
        bd[mem], bp[mem] = dx, np.where(px >= 0, mem[px], -1)
    assert np.array_equal(res.rho, rho)
    kept = (bp >= 0) & (bd < params.delta_min)  # not refined by a scan of P
    assert 0 < kept.sum() < n
    assert np.array_equal(res.delta[kept], bd[kept])
    assert np.array_equal(res.dep[kept], bp[kept])
    # the rest, but for the global peak, were refined
    assert res.counters["n_refined"] == n - kept.sum() - 1


def test_counters(setup):
    _, _, _, res = setup
    assert res.counters["n_buckets"] > 0
    assert res.counters["max_bucket"] >= 1
    assert res.counters["dist_evals"] > 0
    assert res.memory_bytes > 0


@pytest.mark.parametrize("L", [1, 2, 6])
def test_more_tables_tighter_rho(L):
    pts = make_blobs(n_per=100, k=2, seed=1)
    params = DPCParams(d_cut=8.0)
    res = lsh_ddp(pts, params, L=L)
    ref = brute_dpc(pts, params)
    assert np.all(res.rho <= ref.rho)


def test_more_tables_monotone_quality():
    pts = make_blobs(n_per=120, k=3, seed=2)
    params = DPCParams(d_cut=8.0, rho_min=3, delta_min=40.0)
    ref = brute_dpc(pts, params)
    r1 = rand_index(lsh_ddp(pts, params, L=1, k=4).labels, ref.labels)
    r8 = rand_index(lsh_ddp(pts, params, L=8, k=4).labels, ref.labels)
    assert r8 >= r1 - 0.02  # allow tiny non-monotonicity from tie noise


def test_dcut_sensitivity_counter():
    """Figure 8's mechanism: larger d_cut -> larger buckets -> more work."""
    pts = make_blobs(n_per=200, k=3, seed=3)
    small = lsh_ddp(pts, DPCParams(d_cut=4.0))
    large = lsh_ddp(pts, DPCParams(d_cut=30.0))
    assert large.counters["dist_evals"] > small.counters["dist_evals"]
