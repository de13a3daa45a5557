"""Approx-DPC (§4) tests: exact rho, Theorem 4 center guarantee, quality."""
from __future__ import annotations

import numpy as np
import pytest

import repro.core.approx_dpc as approx_module
from repro.core.approx_dpc import approx_dpc
from repro.core.exdpc import ex_dpc
from repro.core.rand_index import rand_index
from repro.core.reference import brute_dpc
from repro.core.types import DPCParams, tiebreak
from repro.index.kdtree import KDTree
from tests.conftest import make_blobs


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_rho_exact(d, seed):
    """§4.2: Approx-DPC computes *exact* local densities."""
    pts = make_blobs(n_per=70, k=3, d=d, seed=seed)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)
    ref = brute_dpc(pts, params)
    res = approx_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_theorem4_same_centers_as_exdpc(d, seed):
    pts = make_blobs(n_per=80, k=3, d=d, n_noise=20, seed=seed)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)
    a = ex_dpc(pts, params)
    b = approx_dpc(pts, params)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.noise, b.noise)


def test_exact_delta_for_far_points():
    """Theorem 4 proof: points with no close higher-density neighbour get
    their exact dependent distance."""
    pts = make_blobs(n_per=60, k=3, seed=3)
    params = DPCParams(d_cut=8.0, rho_min=0, delta_min=30.0)
    ref = brute_dpc(pts, params)
    res = approx_dpc(pts, params)
    exact_mask = ref.delta > params.d_cut
    assert np.array_equal(res.delta[exact_mask], ref.delta[exact_mask])


def test_approx_delta_is_dcut():
    """Approximated points carry delta == d_cut exactly (§4.3)."""
    pts = make_blobs(n_per=60, k=2, seed=4)
    params = DPCParams(d_cut=8.0)
    ref = brute_dpc(pts, params)
    res = approx_dpc(pts, params)
    approx_mask = (res.delta != ref.delta) & np.isfinite(res.delta)
    assert np.all(res.delta[approx_mask] == params.d_cut)


def test_dep_always_higher_density():
    pts = make_blobs(n_per=70, k=3, seed=5)
    res = approx_dpc(pts, DPCParams(d_cut=8.0))
    key = res.rho + tiebreak(len(pts))
    for i in range(len(pts)):
        if res.dep[i] >= 0:
            assert key[res.dep[i]] > key[i]


def test_high_rand_index_vs_reference():
    pts = make_blobs(n_per=150, k=4, n_noise=30, seed=6)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=40.0)
    ref = brute_dpc(pts, params)
    res = approx_dpc(pts, params)
    assert rand_index(res.labels, ref.labels) >= 0.95


def test_counters_and_memory():
    pts = make_blobs(n_per=50, k=2, seed=7)
    res = approx_dpc(pts, DPCParams(d_cut=8.0))
    assert res.counters["n_cells"] > 0
    assert 0 <= res.counters["n_pprime"] <= len(pts)
    assert res.memory_bytes > 0


def test_joint_search_reduces_tree_traversals():
    """§4.2: Approx-DPC replaces n per-point range searches by one joint
    search per cell (far fewer tree traversals), and §4.3 resolves most
    dependent points in O(1) so P' is small. The leaf-scan dist_evals
    stay in the same ballpark (the trade is traversal overhead, not
    distance evaluations)."""
    pts = make_blobs(n_per=800, k=3, d=2, spread=3.0, n_noise=0, seed=8)
    n = len(pts)
    params = DPCParams(d_cut=6.0)
    a = ex_dpc(pts, params)
    b = approx_dpc(pts, params)
    assert b.counters["n_cells"] < n / 2  # range searches: one per cell
    assert b.counters["n_pprime"] < n / 4  # most deps resolved in O(1)
    assert b.counters["dist_evals"] < 2 * a.counters["dist_evals"]


def test_delta_phase_traverses_no_tree(monkeypatch):
    """P' is resolved over the ρ phase's tree: the δ phase builds no
    kd-tree and runs no range or NN traversal."""
    calls, active = [], []
    for name in ("__init__", "range_query", "nn_with_bound"):
        orig = getattr(KDTree, name)

        def spy(self, *a, _orig=orig, _name=name, **kw):
            if active:
                calls.append(_name)
            return _orig(self, *a, **kw)

        monkeypatch.setattr(KDTree, name, spy)
    exact = approx_module.exact_dependent

    def delta_phase(*a, **kw):
        active.append(True)
        try:
            return exact(*a, **kw)
        finally:
            active.pop()

    monkeypatch.setattr(approx_module, "exact_dependent", delta_phase)
    pts = make_blobs(n_per=150, k=3, n_noise=40, seed=11)
    res = approx_dpc(pts, DPCParams(d_cut=8.0))
    assert res.counters["n_pprime"] > 0
    assert calls == []


def test_single_cell_dataset():
    """All points inside one grid cell: everybody depends on p*."""
    pts = np.random.default_rng(9).uniform(0, 1.0, (50, 2))
    params = DPCParams(d_cut=10.0, delta_min=20.0)
    res = approx_dpc(pts, params)
    assert res.counters["n_cells"] == 1
    assert res.n_clusters == 1
    assert np.all(res.labels == 0)


@pytest.mark.parametrize("delta_min", [8.0, 4.0])
def test_rejects_delta_min_at_or_below_d_cut(delta_min):
    """Theorem 4 needs δ_min > d_cut; below it grid points become centers."""
    pts = make_blobs(n_per=30, k=2, seed=10)
    with pytest.raises(ValueError, match="delta_min"):
        approx_dpc(pts, DPCParams(d_cut=8.0, delta_min=delta_min))
