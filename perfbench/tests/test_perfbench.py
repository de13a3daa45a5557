"""The benchmark's own tests.

    python -m pytest perfbench/tests -q

They sit outside the repository's pytest ``testpaths`` (``tests``,
``benchmarks``), so the tier-1 suite does not collect them. The smoke
tests start Spark and take a few minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import gate, run
from perfbench.spans import PER_LAYER, Tracer, instrument, write_spans
from perfbench.workloads import WORKLOADS, dataset_seeds, make_dataset, set_up

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_contract_matches_the_code():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    p = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
              "--trace", str(trace), "--tiny"])
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (6 if trace else 3)
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
        assert any(line.startswith(f"# {m['name']} ") and m["unit"] in line for line in lines)
    if trace:
        # Under Spark too: the query kernels are traced inside the workers.
        for name in ("index.kdtree.range_count.calls", "index.kdtree.range_query.s",
                     "index.kdtree.nn_with_bound.calls", "core.distutil.sq_dists.calls"):
            assert result["metrics"][name]["value"] > 0, name
    if not trace:
        assert result["metrics"]["gate_pass_frac"]["value"] == 1.0


def test_seed_changes_the_inputs():
    assert set(dataset_seeds(1)).isdisjoint(dataset_seeds(2))
    for w in WORKLOADS.values():
        a, b = make_dataset(w, 1, tiny=True), make_dataset(w, 2, tiny=True)
        assert a.points.shape == b.points.shape
        assert not np.array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.points, make_dataset(w, 1, tiny=True).points)


def _serial_setup():
    setup = set_up(WORKLOADS["airline-serial"], 5, None, tiny=True, log=lambda m: None)
    assert setup.errors == []
    return setup


def test_corrupted_and_raising_calls_count_as_failed():
    setup = _serial_setup()
    algs = run.algorithms()
    good_approx = algs["approx_dpc"]

    def corrupt(ds, p, spark):
        res = good_approx(ds, p, spark)
        res.rho = res.rho.copy()
        res.rho[0] += 1
        return res

    def boom(ds, p, spark):
        raise RuntimeError("deliberate")

    algs["approx_dpc"], algs["s_approx_dpc"] = corrupt, boom
    for trace in (False, True):
        calls, rows, _ = run.measure(setup, algs, 0.0, trace)
        by_alg = {a: [c["ok"] for c in calls if c["alg"] == a] for a in run.ALGS}
        assert all(by_alg["ex_dpc"])
        assert not any(by_alg["approx_dpc"]) and not any(by_alg["s_approx_dpc"])
        assert rows == []  # no per-layer row from a cycle with a failed call
    metrics = run.end_to_end_metrics(setup, calls)
    assert metrics["gate_pass_frac"] == pytest.approx(1 / 3)


def test_gate_rejects_wrong_results():
    setup = _serial_setup()
    ds, gt, params = setup.data[0]
    algs = run.algorithms()
    res = algs["ex_dpc"](ds, params, None)
    assert gate.check("ex_dpc", res, gt)[0] == []
    res.delta = np.nextafter(res.delta, np.inf)
    assert gate.check("ex_dpc", res, gt)[0]
    res = algs["s_approx_dpc"](ds, params, None)
    assert gate.check("s_approx_dpc", res, gt)[0] == []
    res.labels = np.zeros(len(res.labels) - 1, dtype=np.int64)
    assert gate.check("s_approx_dpc", res, gt)[0]


def test_self_time_subtracts_direct_children(tmp_path):
    now = [0.0]
    t = Tracer(clock=lambda: now[0])
    with t.span("a"):
        now[0] += 1
        with t.span("b"):
            now[0] += 2
            with t.span("c"):
                now[0] += 4
        with t.span("b"):
            now[0] += 8
    assert t.totals() == {"a": (1, 15.0, 1.0), "b": (2, 14.0, 10.0), "c": (1, 4.0, 4.0)}
    write_spans(tmp_path / "spans.npz", [t, t], seed=9)
    f = np.load(tmp_path / "spans.npz")
    assert list(f["names"][f["name"]]) == ["a", "b", "c", "b"] * 2
    assert list(f["parent"]) == [-1, 0, 1, 0, -1, 4, 5, 4]
    assert list(f["cycle"]) == [0] * 4 + [1] * 4 and int(f["seed"]) == 9


def test_instrument_patches_and_restores():
    from repro.core import depexact, exdpc
    from repro.index.kdtree import KDTree
    from repro.par import spark_map

    orig_rt, orig_rc = spark_map.run_tasks, KDTree.range_count
    t = Tracer()
    with instrument(t):
        assert exdpc.run_tasks is not orig_rt and depexact.run_tasks is exdpc.run_tasks
        KDTree(np.random.default_rng(0).random((50, 2))).range_count(np.zeros(2), 0.5)
    assert exdpc.run_tasks is orig_rt and depexact.run_tasks is orig_rt
    assert KDTree.range_count is orig_rc
    assert {"index.kdtree.build", "index.kdtree.range_count"} <= set(t.totals())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(["--workload", "airline-serial", "--seed", "1", "--seconds", "1",
              "--trace", "0"], cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
