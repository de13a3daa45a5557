"""Seeded property test: the exact algorithms equal the reference bit for bit.

Inputs are built to hit ties and the d_cut boundary: integer lattices
with d_cut at a lattice distance (1, √2, 2), every point triplicated,
and uniform points; d = 1–4 and n < 60, run serially. Exact algorithms
must be ``array_equal`` to ``core/reference.py`` on ρ, δ, dep and labels
(so they share the tie rule "nearest, then smallest id"), the exact
dependent-point machinery must equal ``brute_delta`` at kd-tree leaf
sizes 1, 3 and 32, and Approx-DPC must keep ρ and the cluster centers
(Theorem 4, δ_min > d_cut).
S-Approx-DPC's phase 2 must give every root its nearest strictly
higher-density picked point (smallest id on ties), and the approximate
algorithms must return well-formed labels. One input of each kind also
runs under Spark, where all seven algorithms must equal their serial run.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.s_approx_dpc as s_approx_module
from repro.baselines.cfsfdp_a import cfsfdp_a
from repro.baselines.lsh_ddp import lsh_ddp
from repro.baselines.rtree_scan import rtree_scan_dpc
from repro.core.approx_dpc import approx_dpc
from repro.core.depexact import exact_dependent
from repro.core.exdpc import ex_dpc
from repro.core.reference import brute_delta, brute_dpc
from repro.core.s_approx_dpc import s_approx_dpc
from repro.core.scan import scan_dpc
from repro.core.types import DPCParams, tiebreak
from repro.experiments import ALGORITHMS
from repro.index.kdtree import KDTree

EXACT = {
    "Scan": scan_dpc,
    "R-tree + Scan": rtree_scan_dpc,
    "CFSFDP-A": cfsfdp_a,
    "Ex-DPC": ex_dpc,
}
D_CUTS = (1.0, float(np.sqrt(2.0)), 2.0)
N_INPUTS = 100  # per kind
S_EPS = (0.5, 1.0)
LEAF_SIZES = (1, 3, 32)  # one point per leaf, a few, the default


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
        want_delta, want_dep = brute_delta(pts, key)
        for leaf_size in LEAF_SIZES:
            delta, dep, _ = exact_dependent(pts, KDTree(pts, leaf_size), key, np.arange(len(pts)))
            assert np.array_equal(delta, want_delta) and np.array_equal(dep, want_dep), (
                f"exact_dependent differs from brute_delta ({kind}, seed {seed}, "
                f"leaf size {leaf_size})"
            )
        res = approx_dpc(pts, params)
        assert np.array_equal(res.rho, ref.rho), f"Approx-DPC rho ({kind}, seed {seed})"
        assert np.array_equal(res.centers, ref.centers), (
            f"Approx-DPC centers ({kind}, seed {seed})"
        )


def _assert_labels(res, n: int, what: str) -> None:
    assert res.labels.dtype == np.int64 and res.labels.shape == (n,), what
    assert res.labels.min() >= -1 and res.labels.max() < len(res.centers), what


@pytest.mark.parametrize("kind", ["lattice", "triplicate", "uniform"])
def test_approximate_algorithms(kind, monkeypatch):
    calls = []

    def spy(points, tree, key, qids, **kw):
        out = exact_dependent(points, tree, key, qids, **kw)
        calls.append((key, qids, kw["cell_of"], out))
        return out

    monkeypatch.setattr(s_approx_module, "exact_dependent", spy)
    for seed in range(N_INPUTS):
        pts, params = _input(kind, seed)
        _assert_labels(lsh_ddp(pts, params), len(pts), f"LSH-DDP ({kind}, seed {seed})")
        for eps in S_EPS:
            calls.clear()
            res = s_approx_dpc(pts, params, eps)
            what = f"S-Approx-DPC ({kind}, seed {seed}, eps {eps})"
            _assert_labels(res, len(pts), what)
            ((key, roots, cell_of, (delta, dep, _)),) = calls
            # the picked points are the finite keys; picked index = cell
            picked = np.flatnonzero(np.isfinite(key))
            picked = picked[np.argsort(cell_of[picked])]
            want_delta, want_dep = brute_delta(pts[picked], key[picked])
            rc = cell_of[roots]
            assert np.array_equal(delta[roots], want_delta[rc]), what
            assert np.array_equal(dep[roots], want_dep[rc]), what
            assert np.array_equal(res.delta[roots], want_delta[rc]), what


@pytest.mark.parametrize("kind", ["lattice", "triplicate", "uniform"])
def test_spark_equals_serial(kind, spark):
    pts, params = _input(kind, 0)
    ds = SimpleNamespace(points=pts, eps_default=S_EPS[0])
    for name, alg in ALGORITHMS.items():
        a = alg(ds, params)
        b = alg(ds, params, spark=spark)
        for field in ("rho", "delta", "dep", "labels"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), (
                f"{name} {field}: serial differs from Spark ({kind})"
            )
