"""Experiment-harness tests: table shapes, protocol invariants, and the
scaling mechanisms behind Figures 7/8/9 (figures are out of scope, their
mechanisms are not)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro import datasets, experiments
from repro.core.exdpc import ex_dpc
from repro.core.types import DPCParams, DPCResult


TINY = 0.02  # cardinality multiplier for harness tests


class TestSelectDeltaMin:
    def test_picks_the_gap(self):
        delta = np.concatenate([[1000.0, 900.0, 800.0], np.full(97, 10.0)])
        res = DPCResult(
            rho=np.full(100, 50.0),
            delta=delta,
            dep=np.zeros(100, np.int64),
            centers=np.empty(0, np.int64),
            noise=np.zeros(100, bool),
            labels=np.zeros(100, np.int64),
        )
        dm, k = experiments.select_delta_min(res, expected_k=3)
        assert k == 3
        assert 10.0 < dm < 800.0

    def test_handles_inf(self):
        delta = np.concatenate([[np.inf, 900.0], np.full(98, 10.0)])
        res = DPCResult(
            rho=np.full(100, 50.0),
            delta=delta,
            dep=np.zeros(100, np.int64),
            centers=np.empty(0, np.int64),
            noise=np.zeros(100, bool),
            labels=np.zeros(100, np.int64),
        )
        dm, k = experiments.select_delta_min(res, expected_k=2)
        assert np.isfinite(dm) and k == 2


class TestGroundTruth:
    def test_chosen_k_near_expected(self):
        ds = datasets.load("s1")
        gt, params = experiments.ground_truth(ds)
        assert gt.n_clusters == ds.expected_k
        assert params.delta_min > params.d_cut  # Definition 5 requirement

    def test_refinalize_reuses_rho_delta(self):
        ds = datasets.load("household", n=2000)
        res = ex_dpc(ds.points, DPCParams(d_cut=ds.d_cut, rho_min=ds.rho_min))
        re = experiments.refinalize(res, DPCParams(d_cut=ds.d_cut, rho_min=ds.rho_min, delta_min=5000.0))
        assert re.rho is res.rho and re.delta is res.delta


class TestTables:
    def test_table2_shape_and_range(self, monkeypatch):
        monkeypatch.setattr(experiments, "_NOISE_RATES", (0.01, 0.08))
        df = experiments.table2(scale=TINY)
        assert list(df.columns) == ["noise_rate", "LSH-DDP", "Approx-DPC", "S-Approx-DPC"]
        assert len(df) == 2
        for c in df.columns[1:]:
            assert df[c].between(0.5, 1.0).all()

    def test_table3_shape(self):
        df = experiments.table3(scale=0.2)
        assert df["dataset"].tolist() == ["S1", "S2", "S3", "S4"]
        assert df["Approx-DPC"].min() >= 0.9

    def test_table4_shape(self):
        df = experiments.table4(scale=TINY)
        assert df["dataset"].tolist() == list(datasets.REAL_LIKE)
        assert df["Approx-DPC"].min() >= 0.8

    def test_table5_shape(self, monkeypatch):
        monkeypatch.setattr(experiments, "_EPS_VALUES", (0.4, 1.0))
        monkeypatch.setattr(experiments, "_TABLE5_DATASETS", ("household",))
        df = experiments.table5(scale=TINY)
        assert len(df) == 2
        assert {"dataset", "eps", "time_s", "rand_index"} <= set(df.columns)

    def test_table6_includes_all_algorithms(self, monkeypatch):
        monkeypatch.setattr(datasets, "REAL_LIKE", ("sensor",))
        df = experiments.table6(scale=TINY)
        assert set(df["algorithm"]) == {
            "Scan", "R-tree + Scan", "LSH-DDP", "CFSFDP-A",
            "Ex-DPC", "Approx-DPC", "S-Approx-DPC",
        }
        assert (df["rho_s"] > 0).all() and (df["delta_s"] >= 0).all()

    def test_table6_reuses_the_ground_truth_run(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return ex_dpc(*args, **kwargs)

        monkeypatch.setattr(experiments, "ex_dpc", spy)
        monkeypatch.setitem(experiments.ALGORITHMS, "Ex-DPC", None)  # calling it fails
        monkeypatch.setattr(datasets, "REAL_LIKE", ("sensor",))
        df = experiments.table6(scale=TINY, include=("Ex-DPC",))
        assert len(calls) == 1  # the ground truth's open-δ_min run
        gt, _ = experiments.ground_truth(experiments._scaled("sensor", TINY))
        assert df["dist_evals"].tolist() == [gt.counters["dist_evals"]]

    def test_table7_from_table6(self, monkeypatch):
        monkeypatch.setattr(datasets, "REAL_LIKE", ("sensor",))
        t7 = experiments.table7(scale=TINY)
        assert "sensor" in t7.columns
        # CFSFDP-A's pivot matrix dominates the other indexes (Table 7 shape)
        mem = t7.set_index("algorithm")["sensor"]
        assert mem["CFSFDP-A"] > mem["Ex-DPC"]

    def test_table7_is_the_pivot_of_table6_without_scan(self, monkeypatch):
        t6 = experiments.table6(scale=TINY)
        keep = [alg for alg in experiments.ALGORITHMS if alg != "Scan"]
        pivot = (
            t6[t6["algorithm"] != "Scan"]
            .pivot(index="algorithm", columns="dataset", values="memory_mb")
            .reindex(keep)
            .reset_index()
        )

        def scan(*args, **kwargs):
            raise AssertionError("Table 7 ran Scan")

        monkeypatch.setitem(experiments.ALGORITHMS, "Scan", scan)
        pd.testing.assert_frame_equal(experiments.table7(scale=TINY), pivot)


# Table 6's phases per algorithm: an index built online ("build") is
# folded into "rho"; CFSFDP-A's pivot phase is not.
_TIMING_KEYS = {
    "Scan": {"rho", "delta", "assign", "total"},
    "CFSFDP-A": {"pivot", "rho", "delta", "assign", "total"},
}
_BUILD_KEYS = {"build", "rho", "delta", "assign", "total"}


@pytest.fixture(scope="module")
def s1_small():
    ds = experiments._scaled("s1", 0.1)
    return ds, experiments.ground_truth(ds)[1]


@pytest.mark.parametrize("alg", list(experiments.ALGORITHMS))
def test_timing_convention(alg, s1_small):
    ds, params = s1_small
    t = experiments.ALGORITHMS[alg](ds, params).timings
    assert set(t) == _TIMING_KEYS.get(alg, _BUILD_KEYS)
    phases = sum(v for k, v in t.items() if k not in ("build", "total"))
    assert phases == pytest.approx(t["total"], abs=1e-5)  # clock-read gaps
    assert t["rho"] >= t.get("build", 0.0)


class TestScalingMechanisms:
    """Figure 7/8 mechanisms via the machine-independent work metric."""

    def test_cardinality_scaling_exdpc_vs_scan(self):
        from repro.core.scan import scan_dpc

        ds_small = datasets.load("household", n=1000)
        ds_big = datasets.load("household", n=4000)
        p = DPCParams(d_cut=ds_small.d_cut)
        for ds in (ds_small, ds_big):
            ex = ex_dpc(ds.points, p)
            sc = scan_dpc(ds.points, p)
            assert ex.counters["dist_evals"] < sc.counters["dist_evals"]
        # Ex-DPC's work grows sub-quadratically; Scan's exactly quadratically
        e1 = ex_dpc(ds_small.points, p).counters["dist_evals"]
        e2 = ex_dpc(ds_big.points, p).counters["dist_evals"]
        assert e2 / e1 < 16.0  # quadratic would be 16x

    def test_dcut_scaling(self):
        ds = datasets.load("household", n=3000)
        lo = ex_dpc(ds.points, DPCParams(d_cut=500.0))
        hi = ex_dpc(ds.points, DPCParams(d_cut=4000.0))
        assert hi.counters["dist_evals"] > lo.counters["dist_evals"]
