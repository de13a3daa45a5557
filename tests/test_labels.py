"""Noise/center selection and label-propagation tests (§2.1 step 4)."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.labels import finalize, propagate_labels, select_centers
from repro.core.types import DPCParams
from repro.index.grid import group_by


def P(d_cut=1.0, rho_min=0.0, delta_min=np.inf):
    return DPCParams(d_cut=d_cut, rho_min=rho_min, delta_min=delta_min)


class TestSelectCenters:
    def test_noise_threshold_strict(self):
        rho = np.array([9, 10, 11])
        delta = np.full(3, 100.0)
        centers, noise = select_centers(rho, delta, P(rho_min=10, delta_min=50))
        assert noise.tolist() == [True, False, False]
        assert centers.tolist() == [1, 2]

    def test_delta_threshold_inclusive(self):
        rho = np.array([5, 5])
        delta = np.array([10.0, 9.999])
        centers, _ = select_centers(rho, delta, P(delta_min=10.0))
        assert centers.tolist() == [0]

    def test_noise_cannot_be_center(self):
        rho = np.array([1, 100])
        delta = np.array([1e9, 1e9])
        centers, noise = select_centers(rho, delta, P(rho_min=10, delta_min=5))
        assert centers.tolist() == [1] and noise[0]

    def test_inf_delta_is_center(self):
        rho = np.array([100])
        delta = np.array([np.inf])
        centers, _ = select_centers(rho, delta, P(delta_min=1e18))
        assert centers.tolist() == [0]


def _dfs_labels(dep, centers, noise):
    """The reference: depth-first search from each center over the children
    lists of the dependency forest, every center labelled before any search
    so that no center's tree absorbs a center hanging below it."""
    n = len(dep)
    labels = np.full(n, -1, dtype=np.int64)
    valid = dep >= 0
    order, offsets = group_by(dep[valid], n)
    kids = np.flatnonzero(valid)[order]
    labels[centers] = np.arange(len(centers), dtype=np.int64)
    for cid, c in enumerate(centers):
        stack = [int(c)]
        while stack:
            u = stack.pop()
            for v in kids[offsets[u]:offsets[u + 1]].tolist():
                if labels[v] < 0:
                    labels[v] = cid
                    stack.append(v)
    labels[noise] = -1
    return labels


@st.composite
def _forests(draw):
    """(dep, centers, noise): any dependency graph, with cycles (self-loops
    too) unless ``acyclic``, roots that need not be centers, several centers
    on one chain, centers in any order and noise anywhere on the chains."""
    n = draw(st.integers(1, 60))
    acyclic = draw(st.booleans())
    dep = np.array([v if not acyclic or v < i else -1
                    for i, v in enumerate(draw(st.lists(st.integers(-1, n - 1),
                                                        min_size=n, max_size=n)))],
                   dtype=np.int64)
    centers = np.array(draw(st.lists(st.integers(0, n - 1), unique=True)), dtype=np.int64)
    noise = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return dep, centers, noise


class TestPropagate:
    @settings(max_examples=300, deadline=None)
    @given(_forests())
    def test_matches_dfs(self, forest):
        assert np.array_equal(propagate_labels(*forest), _dfs_labels(*forest))

    @pytest.mark.parametrize("n", [2, 3, 1000, 1024, 1025])
    def test_long_chain_and_cycle(self, n):
        # A chain of n points ending at a center (n - 1 jumps), then a cycle
        # of n points with no center: the most rounds pointer jumping takes.
        dep = np.append(np.arange(1, n + 1), np.arange(n + 1, 2 * n + 1))
        dep[n - 1] = -1
        dep[-1] = n
        centers = np.array([n - 1])
        noise = np.zeros(2 * n, dtype=bool)
        labels = propagate_labels(dep, centers, noise)
        assert np.array_equal(labels, _dfs_labels(dep, centers, noise))
        assert (labels[:n] == 0).all() and (labels[n:] == -1).all()

    def test_chain(self):
        # 3 <- 2 <- 1 <- 0 ; center = 3
        dep = np.array([1, 2, 3, -1])
        labels = propagate_labels(dep, np.array([3]), np.zeros(4, bool))
        assert labels.tolist() == [0, 0, 0, 0]

    def test_two_trees(self):
        dep = np.array([-1, 0, 0, -1, 3])
        labels = propagate_labels(dep, np.array([0, 3]), np.zeros(5, bool))
        assert labels.tolist() == [0, 0, 0, 1, 1]

    def test_unreachable_stays_minus_one(self):
        dep = np.array([-1, 0, 1, -1])  # second root (3) is not a center
        labels = propagate_labels(dep, np.array([0]), np.zeros(4, bool))
        assert labels.tolist() == [0, 0, 0, -1]

    def test_propagates_through_noise(self):
        # 0(center) <- 1(noise) <- 2 : 2 keeps the cluster, 1 is -1
        dep = np.array([-1, 0, 1])
        noise = np.array([False, True, False])
        labels = propagate_labels(dep, np.array([0]), noise)
        assert labels.tolist() == [0, -1, 0]

    def test_cycle_tolerated(self):
        # approximate deps can produce cycles; they stay unlabelled
        dep = np.array([1, 0, -1])
        labels = propagate_labels(dep, np.array([2]), np.zeros(3, bool))
        assert labels.tolist() == [-1, -1, 0]

    def test_center_below_other_center_not_absorbed(self):
        # 0 is a center whose dep chain hangs under center 1's tree
        dep = np.array([1, -1, 0])
        labels = propagate_labels(dep, np.array([0, 1]), np.zeros(3, bool))
        assert labels[0] == 0 and labels[1] == 1 and labels[2] == 0

    def test_center_label_order_stable(self):
        dep = np.array([-1, -1])
        labels = propagate_labels(dep, np.array([1, 0]), np.zeros(2, bool))
        assert labels[1] == 0 and labels[0] == 1


class TestFinalize:
    def test_pipeline(self):
        rho = np.array([50, 40, 30, 2])
        delta = np.array([np.inf, 100.0, 1.0, 1.0])
        dep = np.array([-1, 0, 1, 2])
        centers, noise, labels = finalize(rho, delta, dep, P(rho_min=5, delta_min=50))
        assert centers.tolist() == [0, 1]
        assert noise.tolist() == [False, False, False, True]
        assert labels.tolist() == [0, 1, 1, -1]

    def test_everything_noise(self):
        rho = np.zeros(3)
        delta = np.full(3, np.inf)
        dep = np.full(3, -1)
        centers, noise, labels = finalize(rho, delta, dep, P(rho_min=1))
        assert len(centers) == 0 and noise.all() and (labels == -1).all()


def test_only_labels_reads_the_clock():
    """Table 6's phase timing has one home, ``labels.result``'s clock."""
    root = Path(repro.__file__).parent
    readers = sorted(
        str(f.relative_to(root))
        for pkg in ("core", "baselines")
        for f in (root / pkg).glob("*.py")
        if "perf_counter" in f.read_text()
    )
    assert readers == ["core/labels.py"]
