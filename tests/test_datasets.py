"""Dataset generator tests (synthetic substitutes, DESIGN.md §4)."""
from __future__ import annotations

import numpy as np
import pytest

from repro import datasets


class TestLoad:
    @pytest.mark.parametrize("name", datasets.DATASET_NAMES)
    def test_loads_and_shapes(self, name):
        ds = datasets.load(name, n=2000)
        assert ds.points.shape == (2000, ds.d)
        assert ds.points.dtype == np.float64
        assert ds.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            datasets.load("nope")

    @pytest.mark.parametrize("name", datasets.DATASET_NAMES)
    def test_deterministic(self, name):
        a = datasets.load(name, n=1000).points
        b = datasets.load(name, n=1000).points
        assert np.array_equal(a, b)

    def test_default_cardinalities(self):
        """1/40 of the paper's real-dataset sizes (DESIGN.md §4)."""
        assert datasets.load("airline", n=None).n == 145_261
        assert datasets.load("household", n=None).n == 51_232
        assert datasets.load("pamap2", n=None).n == 96_262
        assert datasets.load("sensor", n=None).n == 23_224


class TestDomains:
    @pytest.mark.parametrize(
        "name,d,domain",
        [
            ("syn", 2, 1e5),
            ("s1", 2, 1e5),
            ("airline", 3, 1e6),
            ("household", 4, 1e5),
            ("pamap2", 4, 1e5),
            ("sensor", 8, 1e5),
        ],
    )
    def test_dim_and_domain(self, name, d, domain):
        ds = datasets.load(name, n=3000)
        assert ds.d == d
        assert ds.points.min() >= 0.0
        assert ds.points.max() <= domain

    @pytest.mark.parametrize("name,dcut", [("syn", 250.0), ("airline", 1000.0), ("sensor", 5000.0)])
    def test_paper_dcut_defaults(self, name, dcut):
        assert datasets.load(name, n=1000).d_cut == dcut


class TestSyn:
    def test_noise_rate_respected(self):
        lo = datasets.syn(5000, noise_rate=0.01)
        hi = datasets.syn(5000, noise_rate=0.16)
        assert lo.n == hi.n == 5000
        # higher noise rate -> more spread-out mass (simple proxy check)
        from repro.core.reference import brute_rho

        rho_lo = brute_rho(lo.points[:2000], lo.d_cut).mean()
        rho_hi = brute_rho(hi.points[:2000], hi.d_cut).mean()
        assert rho_hi < rho_lo

    def test_13_walkers(self):
        assert datasets.load("syn", n=1000).expected_k == 13


class TestSSets:
    def test_overlap_grows_with_index(self):
        """Sx spreads grow with x (the paper's overlap degree)."""
        spreads = []
        for i in range(1, 5):
            ds = datasets.s_set(i, n=3000)
            # mean distance to the nearest other point grows with sigma
            from repro.core.distutil import sq_dists

            sub = ds.points[:500]
            d2 = sq_dists(sub, sub)
            np.fill_diagonal(d2, np.inf)
            spreads.append(np.sqrt(d2.min(axis=1)).mean())
        assert spreads == sorted(spreads)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            datasets.s_set(5)

    def test_15_clusters_expected(self):
        assert datasets.s_set(2).expected_k == 15

