"""The paper's shape checks (EXPERIMENTS.md) on the tables themselves.

Each test runs one ``experiments.tableN`` serially at a reduced scale
and asserts the shape the paper reports: the accuracy floors of the
Rand-index tables, S-Approx-DPC's accuracy falling (weakly) in ε, and
the memory ordering of Table 7. Table 6 has no shape of its own to
check here: ``test_experiments.py`` checks its rows and phases.
"""
from __future__ import annotations

from repro import datasets, experiments


def test_table2_approx_dpc_is_accurate_at_every_noise_rate():
    df = experiments.table2(scale=0.1)
    assert len(df) == 5
    assert df["Approx-DPC"].min() >= 0.9


def test_table3_approx_dpc_is_robust_to_cluster_overlap():
    df = experiments.table3(scale=1.0)
    assert df["dataset"].tolist() == ["S1", "S2", "S3", "S4"]
    assert df["Approx-DPC"].min() >= 0.95


def test_table4_approx_dpc_beats_lsh_ddp():
    df = experiments.table4(scale=0.1)
    assert df["dataset"].tolist() == list(datasets.REAL_LIKE)
    assert (df["Approx-DPC"] >= df["LSH-DDP"] - 0.01).all()


def test_table5_accuracy_falls_weakly_in_eps():
    df = experiments.table5(scale=0.25)
    assert len(df) == 10
    for _, sub in df.groupby("dataset"):
        ri = sub.sort_values("eps")["rand_index"].to_numpy()
        assert all(ri[i] >= ri[i + 1] - 0.02 for i in range(len(ri) - 1))


def test_table7_memory_ordering():
    mem = experiments.table7(scale=0.1).set_index("algorithm")
    for ds in mem.columns:
        # CFSFDP-A's pivot table dwarfs every index; Ex-DPC is leaner
        # than Approx-DPC
        assert mem.loc["CFSFDP-A", ds] == mem[ds].max()
        assert mem.loc["Ex-DPC", ds] <= mem.loc["Approx-DPC", ds]
