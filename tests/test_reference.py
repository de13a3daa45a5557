"""Tests of the naive reference itself on hand-checkable configurations."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.reference import brute_delta, brute_dpc, brute_rho
from repro.core.types import DPCParams, tiebreak


class TestBruteRho:
    def test_line_of_points(self):
        pts = np.array([[0.0], [1.0], [2.0], [10.0]])
        rho = brute_rho(pts, 1.5)
        assert rho.tolist() == [1, 2, 1, 0]

    def test_self_excluded(self):
        pts = np.zeros((5, 2))
        assert brute_rho(pts, 1.0).tolist() == [4] * 5

    def test_strict_boundary(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert brute_rho(pts, 5.0).tolist() == [0, 0]


class TestBruteDelta:
    def test_peak_gets_inf(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        key = np.array([3.0, 2.0, 1.0])
        delta, dep = brute_delta(pts, key)
        assert delta[0] == np.inf and dep[0] == -1
        assert delta[1] == 1.0 and dep[1] == 0
        assert delta[2] == 1.0 and dep[2] == 1

    def test_dep_has_higher_key(self):
        pts = np.random.default_rng(0).uniform(0, 10, (50, 2))
        key = np.arange(50, dtype=float)
        delta, dep = brute_delta(pts, key)
        for i in range(50):
            if dep[i] >= 0:
                assert key[dep[i]] > key[i]

    def test_delta_is_distance_to_dep(self):
        pts = np.random.default_rng(1).uniform(0, 10, (40, 3))
        key = np.random.default_rng(2).random(40)
        delta, dep = brute_delta(pts, key)
        for i in range(40):
            if dep[i] >= 0:
                assert delta[i] == pytest.approx(
                    float(np.linalg.norm(pts[i] - pts[dep[i]]))
                )


class TestBruteDPC:
    def test_two_blobs(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate(
            [rng.normal(0, 1, (100, 2)), rng.normal([50, 0], 1, (100, 2))]
        )
        res = brute_dpc(pts, DPCParams(d_cut=3.0, rho_min=3, delta_min=10.0))
        assert res.n_clusters == 2
        # the two blobs get different labels
        l0 = res.labels[:100][res.labels[:100] >= 0]
        l1 = res.labels[100:][res.labels[100:] >= 0]
        assert len(set(l0.tolist())) == 1 and len(set(l1.tolist())) == 1
        assert set(l0.tolist()) != set(l1.tolist())

    def test_exactly_one_root(self):
        pts = np.random.default_rng(3).uniform(0, 100, (200, 2))
        res = brute_dpc(pts, DPCParams(d_cut=10.0))
        assert int((res.dep == -1).sum()) == 1
        root = int(np.flatnonzero(res.dep == -1)[0])
        key = res.rho + tiebreak(200, DPCParams.seed)
        assert root == int(np.argmax(key))

    def test_single_point(self):
        res = brute_dpc(np.zeros((1, 2)), DPCParams(d_cut=1.0, delta_min=2.0))
        assert res.delta[0] == np.inf and res.n_clusters == 1
