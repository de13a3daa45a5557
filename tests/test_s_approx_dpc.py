"""S-Approx-DPC (§5) tests."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.rand_index import rand_index
from repro.core.reference import brute_dpc
from repro.core.s_approx_dpc import s_approx_dpc
from repro.core.types import DPCParams
from repro.index.grid import UniformGrid, cell_side
from tests.conftest import make_blobs


class TestSApprox:
    def test_eps_validation(self):
        # NaN and inf would put every point in one cell: one cluster.
        for eps in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps"):
                s_approx_dpc(np.zeros((5, 2)), DPCParams(d_cut=1.0), eps=eps)

    @pytest.mark.parametrize("eps", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_quality_on_blobs(self, eps, seed):
        pts = make_blobs(n_per=150, k=4, n_noise=20, seed=seed)
        params = DPCParams(d_cut=8.0, rho_min=5, delta_min=40.0)
        ref = brute_dpc(pts, params)
        res = s_approx_dpc(pts, params, eps)
        assert rand_index(res.labels, ref.labels) >= 0.9

    def test_smaller_eps_more_cells(self):
        pts = make_blobs(n_per=100, k=3, seed=2)
        params = DPCParams(d_cut=8.0)
        a = s_approx_dpc(pts, params, eps=0.2)
        b = s_approx_dpc(pts, params, eps=1.0)
        assert a.counters["n_cells"] > b.counters["n_cells"]

    def test_cells_match_grid(self):
        pts = make_blobs(n_per=80, k=2, seed=3)
        params = DPCParams(d_cut=8.0)
        res = s_approx_dpc(pts, params, eps=0.7)
        g = UniformGrid(pts, cell_side(8.0, 2, 0.7))
        assert res.counters["n_cells"] == g.m

    def test_picked_density_exact(self):
        """Picked points get exact local densities (§5)."""
        pts = make_blobs(n_per=80, k=2, seed=4)
        params = DPCParams(d_cut=8.0)
        ref = brute_dpc(pts, params)
        res = s_approx_dpc(pts, params, eps=0.5)
        g = UniformGrid(pts, cell_side(8.0, 2, 0.5))
        picked = np.array([int(g.members(c)[0]) for c in range(g.m)])
        assert np.array_equal(res.rho[picked], ref.rho[picked])

    def test_phase1_delta_bound(self):
        """Phase-1 dependent distances are exactly (1+eps)·d_cut (§5)."""
        eps = 0.6
        pts = make_blobs(n_per=120, k=3, seed=5)
        params = DPCParams(d_cut=8.0)
        res = s_approx_dpc(pts, params, eps)
        finite = np.isfinite(res.delta) & (res.delta > 0)
        vals = np.unique(res.delta[finite])
        # every positive finite delta is either the phase-1 bound or an
        # exact phase-2 distance; the bound value must be present
        assert np.any(np.isclose(vals, (1 + eps) * params.d_cut))

    def test_nonpicked_never_centers(self):
        pts = make_blobs(n_per=100, k=3, seed=6)
        params = DPCParams(d_cut=8.0, rho_min=3, delta_min=30.0)
        res = s_approx_dpc(pts, params, eps=0.8)
        g = UniformGrid(pts, cell_side(8.0, 2, 0.8))
        picked = {int(g.members(c)[0]) for c in range(g.m)}
        assert all(int(c) in picked for c in res.centers)

    def test_result_fields(self):
        pts = make_blobs(n_per=40, k=2, seed=8)
        res = s_approx_dpc(pts, DPCParams(d_cut=8.0), eps=1.0)
        assert res.counters["n_roots"] >= 1
        assert res.memory_bytes > 0
