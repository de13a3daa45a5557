"""Ex-DPC: exact equality with the reference (rho, delta, centers, labels)."""
from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baselines.rtree_scan import rho_range_count
from repro.core import approx_dpc as approx_module
from repro.core import exdpc
from repro.core import s_approx_dpc as s_approx_module
from repro.core.approx_dpc import approx_dpc
from repro.core.exdpc import ex_dpc
from repro.core.labels import PhaseClock
from repro.core.reference import brute_dpc, brute_rho
from repro.core.s_approx_dpc import s_approx_dpc
from repro.core.types import DPCParams, tiebreak
from repro.index.kdtree import IncrementalKDTree, KDTree
from repro.par import spark_map
from repro.index.rtree import RTree
from tests.conftest import make_blobs


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_reference(d, seed):
    pts = make_blobs(n_per=70, k=3, d=d, seed=seed)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)
    ref = brute_dpc(pts, params)
    res = ex_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)
    assert np.array_equal(res.centers, ref.centers)
    assert np.array_equal(res.labels, ref.labels)


@pytest.mark.parametrize("leaf_size", [1, 4, 64])
def test_leaf_size_invariant(leaf_size, monkeypatch):
    pts = make_blobs(n_per=60, k=2, seed=3)
    params = DPCParams(d_cut=8.0, rho_min=3, delta_min=30.0)
    ref = brute_dpc(pts, params)
    monkeypatch.setattr(exdpc, "KDTree", functools.partial(KDTree, leaf_size=leaf_size))
    res = ex_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)


def test_rho_range_count_helper():
    """R-tree + Scan's per-point range-count kernel runs on either index."""
    pts = make_blobs(n_per=50, k=2, seed=4)
    for tree in (KDTree(pts), RTree(pts)):
        rho, nde = rho_range_count(pts, tree, 8.0)
        assert np.array_equal(rho, brute_rho(pts, 8.0))
        assert nde > 0


def test_dep_always_higher_density():
    """The incremental construction guarantees dep has strictly higher key."""
    pts = make_blobs(n_per=80, k=3, seed=5)
    res = ex_dpc(pts, DPCParams(d_cut=8.0))
    key = res.rho + tiebreak(len(pts))
    for i in range(len(pts)):
        if res.dep[i] >= 0:
            assert key[res.dep[i]] > key[i]


def test_delta_phase_is_sequential_and_starts_no_stage(monkeypatch):
    """§3 and Figure 9: the δ phase runs one NN query per point but the
    densest, in descending key order, each against the refilled tree, and
    starts no stage, so it cannot quietly be parallelized or batched."""
    events, queries = [], []
    run_tasks, mark, nn = spark_map.run_tasks, PhaseClock.mark, IncrementalKDTree.nn

    def tasks_spy(*a, **kw):
        events.append("stage")
        return run_tasks(*a, **kw)

    def mark_spy(self, phase):
        events.append(phase)
        mark(self, phase)

    def nn_spy(self, q):
        queries.append((events[-1], len(self), np.array(q)))
        return nn(self, q)

    for module in (spark_map, exdpc):
        monkeypatch.setattr(module, "run_tasks", tasks_spy)
    monkeypatch.setattr(PhaseClock, "mark", mark_spy)
    monkeypatch.setattr(IncrementalKDTree, "nn", nn_spy)
    pts = make_blobs(n_per=80, k=3, seed=5)
    params = DPCParams(d_cut=8.0)
    res = ex_dpc(pts, params)
    assert events == ["build", "stage", "rho", "delta", "assign"]
    order = np.argsort(-(res.rho + tiebreak(len(pts), params.seed)), kind="stable")
    assert [(phase, size) for phase, size, _ in queries] == [
        ("rho", k) for k in range(1, len(pts))]
    assert np.array_equal([q for *_, q in queries], pts[order[1:]])


def test_single_root():
    pts = make_blobs(n_per=40, k=2, seed=6)
    res = ex_dpc(pts, DPCParams(d_cut=8.0))
    assert int((res.dep == -1).sum()) == 1


def test_duplicate_points():
    pts = np.repeat(np.random.default_rng(0).uniform(0, 10, (20, 2)), 3, axis=0)
    params = DPCParams(d_cut=2.0, rho_min=0, delta_min=5.0)
    ref = brute_dpc(pts, params)
    res = ex_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)


def test_timings_present():
    res = ex_dpc(make_blobs(n_per=20, k=2), DPCParams(d_cut=8.0))
    assert res.counters["dist_evals"] > 0
    assert res.memory_bytes > 0


def test_subquadratic_work_on_clustered_data():
    """Table 1's point: Ex-DPC does far fewer distance evals than Scan's 2n²."""
    pts = make_blobs(n_per=700, k=4, d=2, n_noise=50, seed=7)
    n = len(pts)
    res = ex_dpc(pts, DPCParams(d_cut=6.0))
    assert res.counters["dist_evals"] < 0.5 * (2 * n * n)


@pytest.mark.parametrize("alg", ["Ex-DPC", "Approx-DPC", "S-Approx-DPC"])
def test_rho_phase_traverses_no_tree(alg, monkeypatch):
    """The three kd-tree ρ phases read the tree's leaf table: they run no
    range or NN traversal, and their payload is arrays, never a KDTree."""
    calls, payloads, active = [], [], []
    for name in ("range_query", "range_count", "_nn"):
        orig = getattr(KDTree, name)

        def spy(self, *a, _orig=orig, _name=name, **kw):
            if active:
                calls.append(_name)
            return _orig(self, *a, **kw)

        monkeypatch.setattr(KDTree, name, spy)
    run_phase, rho_phase = exdpc.run_phase, exdpc.joint_range_rho

    def phase_spy(spark, kernel, items, payload, **kw):
        payloads.append(payload)
        return run_phase(spark, kernel, items, payload, **kw)

    def rho_spy(*a, **kw):
        active.append(True)
        try:
            return rho_phase(*a, **kw)
        finally:
            active.pop()

    monkeypatch.setattr(exdpc, "run_phase", phase_spy)
    for module in (exdpc, approx_module, s_approx_module):
        monkeypatch.setattr(module, "joint_range_rho", rho_spy)
    pts = make_blobs(n_per=300, k=3, seed=2)
    params = DPCParams(d_cut=8.0, rho_min=3, delta_min=30.0)
    if alg == "Ex-DPC":
        ex_dpc(pts, params)
    elif alg == "Approx-DPC":
        approx_dpc(pts, params)
    else:
        s_approx_dpc(pts, params, eps=0.5)
    assert calls == []
    assert len(payloads) == 1
    assert all(v is None or isinstance(v, (np.ndarray, float)) for v in payloads[0].values())


@pytest.mark.parametrize("seed", range(5))
def test_first_max_per_run_matches_a_loop(seed):
    # Few distinct values, so most runs tie at their maximum; the first wins.
    rng = np.random.default_rng(seed)
    runs = np.sort(rng.integers(0, 40, 300))
    vals = rng.integers(0, 4, 300).astype(np.float64)
    want = [int(np.flatnonzero(runs == r)[np.argmax(vals[runs == r])]) for r in np.unique(runs)]
    assert exdpc.first_max_per_run(runs, vals).tolist() == want
    assert len(exdpc.first_max_per_run(runs[:0], vals[:0])) == 0
