"""Seeded property test: the exact algorithms equal the reference bit for bit.

Inputs are built to hit ties and the d_cut boundary: integer lattices
with d_cut at a lattice distance (1, √2, 2), every point triplicated,
and uniform points; d = 1–4 and n < 60, run serially. Exact algorithms
must be ``array_equal`` to ``core/reference.py`` on ρ, δ, dep and labels
(so they share the tie rule "nearest, then smallest id"), the exact
dependent-point machinery must equal ``brute_delta``, and Approx-DPC
must keep ρ and the cluster centers (Theorem 4, δ_min > d_cut).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cfsfdp_a import cfsfdp_a
from repro.baselines.rtree_scan import rtree_scan_dpc
from repro.core.approx_dpc import approx_dpc
from repro.core.depexact import exact_dependent
from repro.core.exdpc import ex_dpc
from repro.core.reference import brute_delta, brute_dpc
from repro.core.scan import scan_dpc
from repro.core.types import DPCParams, tiebreak

EXACT = {
    "Scan": scan_dpc,
    "R-tree + Scan": rtree_scan_dpc,
    "CFSFDP-A": cfsfdp_a,
    "Ex-DPC": ex_dpc,
}
D_CUTS = (1.0, float(np.sqrt(2.0)), 2.0)
N_INPUTS = 100  # per kind


def _input(kind: str, seed: int) -> tuple[np.ndarray, DPCParams]:
    rng = np.random.default_rng([seed, len(kind)])
    d = int(rng.integers(1, 5))
    if kind == "lattice":
        pts = rng.integers(0, 5, (int(rng.integers(2, 60)), d)).astype(float)
    elif kind == "triplicate":
        pts = np.repeat(rng.uniform(0, 5, (int(rng.integers(1, 20)), d)), 3, axis=0)
        pts = pts[rng.permutation(len(pts))]
    else:
        pts = rng.uniform(0, 5, (int(rng.integers(2, 60)), d))
    d_cut = D_CUTS[int(rng.integers(0, len(D_CUTS)))]
    return pts, DPCParams(d_cut=d_cut, rho_min=1, delta_min=1.5 * d_cut)


@pytest.mark.parametrize("kind", ["lattice", "triplicate", "uniform"])
def test_exact_algorithms_equal_reference(kind):
    for seed in range(N_INPUTS):
        pts, params = _input(kind, seed)
        ref = brute_dpc(pts, params)
        for name, alg in EXACT.items():
            res = alg(pts, params)
            for field in ("rho", "delta", "dep", "labels"):
                assert np.array_equal(getattr(res, field), getattr(ref, field)), (
                    f"{name} {field} differs from the reference ({kind}, seed {seed})"
                )
        key = ref.rho + tiebreak(len(pts), params.seed)
        delta, dep, _ = exact_dependent(pts, key, np.arange(len(pts)))
        want_delta, want_dep = brute_delta(pts, key)
        assert np.array_equal(delta, want_delta) and np.array_equal(dep, want_dep), (
            f"exact_dependent differs from brute_delta ({kind}, seed {seed})"
        )
        res = approx_dpc(pts, params)
        assert np.array_equal(res.rho, ref.rho), f"Approx-DPC rho ({kind}, seed {seed})"
        assert np.array_equal(res.centers, ref.centers), (
            f"Approx-DPC centers ({kind}, seed {seed})"
        )
