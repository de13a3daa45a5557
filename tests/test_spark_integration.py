"""Serial (driver) vs Spark-parallel equality for every algorithm, plus
run_tasks/run_phase/Shared substrate behaviour under Spark and
run_phase's driver-or-stage placement.

The equality tests fix the placement to a Spark stage (the ``place``
fixture): the recorded stage costs would put these small inputs on the
driver, and the test would then compare the driver with itself.
"""
from __future__ import annotations

import importlib
import os
from types import SimpleNamespace

import numpy as np
import pytest
from pyspark import SparkContext

from repro.baselines.cfsfdp_a import cfsfdp_a
from repro.baselines.lsh_ddp import lsh_ddp
from repro.baselines.rtree_scan import rtree_scan_dpc
from repro.core.approx_dpc import approx_dpc
from repro.core.depexact import exact_dependent
from repro.core.exdpc import ex_dpc, joint_range_rho
from repro.core.s_approx_dpc import s_approx_dpc
from repro.core.scan import scan_dpc
from repro.core.types import DPCParams, tiebreak
from repro.index.grid import UniformGrid, cell_side
from repro.index.kdtree import KDTree
from repro.par import spark_map
from repro.par.spark_map import Shared, run_phase, run_tasks
from tests.conftest import make_blobs

ALGOS = [
    ("scan", scan_dpc),
    ("exdpc", ex_dpc),
    ("rtree_scan", rtree_scan_dpc),
    ("cfsfdp_a", cfsfdp_a),
    ("approx_dpc", approx_dpc),
    ("lsh_ddp", lsh_ddp),
]


def s_approx(pts, params, **kw):
    return s_approx_dpc(pts, params, 0.4, **kw)


ALL_SEVEN = ALGOS + [("s_approx_dpc", s_approx)]


@pytest.fixture(scope="module")
def data():
    pts = make_blobs(n_per=120, k=3, n_noise=20, seed=0)
    return pts, DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)


@pytest.fixture
def set_tasks(monkeypatch):
    """Set the task count, which ``run_tasks`` reads from the session."""
    return lambda n: monkeypatch.setattr(SparkContext, "defaultParallelism", n)


def _col(n):
    """``n`` one-column work items ``(x,)``, x = 0..n-1."""
    return np.arange(n, dtype=np.int64)[:, None]


@pytest.mark.parametrize("name,fn", ALGOS, ids=[a for a, _ in ALGOS])
def test_parallel_equals_serial(spark, data, place, name, fn):
    pts, params = data
    a = fn(pts, params)
    staged = place(on_driver=False)
    b = fn(pts, params, spark=spark)
    assert staged and all(staged), name
    assert np.array_equal(a.rho, b.rho), name
    assert np.array_equal(a.delta, b.delta), name
    assert np.array_equal(a.dep, b.dep), name
    assert np.array_equal(a.centers, b.centers), name
    assert np.array_equal(a.labels, b.labels), name


@pytest.mark.parametrize("eps", [0.4, 1.0])
def test_s_approx_parallel_equals_serial(spark, data, place, eps):
    pts, params = data
    a = s_approx_dpc(pts, params, eps)
    staged = place(on_driver=False)
    b = s_approx_dpc(pts, params, eps, spark=spark)
    assert staged == [True, True]  # ρ and phase 2
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.labels, b.labels)


@pytest.fixture(scope="module")
def serial_runs(data):
    pts, params = data
    return {name: fn(pts, params) for name, fn in ALL_SEVEN}


@pytest.mark.parametrize("n_tasks", [1, 3, 7, 16])
def test_task_count_invariant(spark, data, serial_runs, set_tasks, place, n_tasks):
    # Every algorithm gives its serial result whatever the task count.
    pts, params = data
    set_tasks(n_tasks)
    staged = place(on_driver=False)
    for name, fn in ALL_SEVEN:
        staged.clear()
        base, res = serial_runs[name], fn(pts, params, spark=spark)
        assert staged and all(staged), name
        for field in ("labels", "rho", "delta", "dep"):
            assert np.array_equal(getattr(base, field), getattr(res, field)), (name, field)


class TestRunTasks:
    def test_serial_mode_single_call(self):
        calls = []

        def kernel(items):
            calls.append(len(items))
            return {"out": items[:, 0] * 2}

        out = run_tasks(None, kernel, _col(10), np.ones(10))
        assert calls == [10]
        assert out["out"].tolist() == list(range(0, 20, 2))

    def test_parallel_covers_all_items(self, spark, set_tasks):
        def kernel(items):
            return {"out": items[:, 0] + 1}

        set_tasks(7)
        out = run_tasks(spark, kernel, _col(100), np.ones(100))
        assert list(out) == ["out"] and out["out"].dtype == np.int64
        assert sorted(out["out"].tolist()) == list(range(1, 101))

    def test_costs_drive_grouping(self, spark, set_tasks):
        # kernel records group sizes; with one giant item, LPT isolates it
        def kernel(items):
            return {"size": np.array([len(items)])}

        costs = np.array([100.0] + [1.0] * 30)
        set_tasks(4)
        out = run_tasks(spark, kernel, _col(31), costs)
        assert 1 in out["size"].tolist()  # the giant item sits alone

    def test_empty_items(self, spark):
        def kernel(items):
            return {"x": items[:, 0]}

        out = run_tasks(spark, kernel, _col(0), np.ones(0))
        assert len(out["x"]) == 0

    def test_session_conf_untouched(self, spark):
        # A session of its own: its SQL conf is isolated from other tests'.
        session = spark.newSession()
        before = session.conf.getAll
        run_tasks(session, lambda it: {"x": it[:, 0]}, _col(20), np.ones(20))
        assert session.conf.getAll == before

    @staticmethod
    def _shape_kernel(items):
        # One entry per kernel call, describing the group it was given.
        return {"size": np.array([len(items)]), "width": np.array([items.shape[1]])}

    @pytest.mark.parametrize("n_items,n_tasks", [(40, 4), (40, 7), (4, 4), (3, 8)])
    def test_one_nonempty_group_per_task(self, spark, set_tasks, n_items, n_tasks):
        x = np.arange(n_items, dtype=np.int64)
        set_tasks(n_tasks)
        out = run_tasks(spark, self._shape_kernel, np.column_stack([x, -x, 2 * x]), np.ones(n_items))
        assert len(out["size"]) == min(n_items, n_tasks)  # one kernel call per group
        assert (out["size"] > 0).all()
        assert out["size"].sum() == n_items
        assert (out["width"] == 3).all()  # every group is whole rows of items

    def test_deterministic_concat_order(self, spark, set_tasks):
        def kernel(items):
            return {"x": items[:, 0], "out": items[:, 0] * 3}

        items = _col(100)
        costs = np.arange(100, dtype=np.float64) % 7 + 1
        set_tasks(5)
        a = run_tasks(spark, kernel, items, costs)
        b = run_tasks(spark, kernel, items, costs)
        assert list(a) == list(b) == ["x", "out"]
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_shared_serial_and_spark(self, spark):
        s1 = Shared({"v": 42}, None)
        assert s1.get()["v"] == 42
        s2 = Shared({"v": 43}, spark)
        assert s2.get()["v"] == 43
        s2.destroy()


class TestRunPhase:
    @pytest.fixture(autouse=True)
    def staged(self, place):
        return place(on_driver=False)

    @staticmethod
    def _scale_kernel(items, p):
        x = items[:, 0]
        return {"x": x, "out": x * p["k"]}

    def test_serial_equals_spark(self, spark, set_tasks, staged):
        items = _col(50)
        a = run_phase(None, self._scale_kernel, items, {"k": 3})
        set_tasks(4)
        b = run_phase(spark, self._scale_kernel, items, {"k": 3}, costs=np.arange(50.0))
        assert staged == [False, True]
        o = np.argsort(b["x"])
        assert np.array_equal(a["x"], b["x"][o])
        assert np.array_equal(a["out"], b["out"][o])

    @pytest.mark.parametrize("on_spark", [False, True])
    def test_kernel_receives_payload(self, spark, set_tasks, staged, on_spark):
        payload = {"v": np.arange(5), "tag": "p"}

        def kernel(items, p):
            return {"tag": np.array([p["tag"]]), "v": np.array([p["v"].sum()])}

        set_tasks(4)
        out = run_phase(spark if on_spark else None, kernel, _col(8), payload)
        assert staged == [on_spark]
        assert len(out["tag"]) == (4 if on_spark else 1)
        assert (out["tag"] == "p").all() and (out["v"] == 10).all()

    @pytest.mark.parametrize("on_spark", [False, True])
    def test_broadcast_destroyed_when_kernel_raises(self, spark, monkeypatch, staged, on_spark):
        destroyed = []
        orig = Shared.destroy

        def destroy(self):
            destroyed.append(self)
            orig(self)

        monkeypatch.setattr(Shared, "destroy", destroy)

        def kernel(items, p):
            raise RuntimeError("kernel failed")

        with pytest.raises(Exception, match="kernel failed"):
            run_phase(spark if on_spark else None, kernel, _col(4), {"v": 1})
        assert staged == [on_spark]
        assert len(destroyed) == 1
        assert (destroyed[0]._bc is not None) == on_spark

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_payload_file_left(self, spark, staged, fails):
        # Shared.destroy removes the driver's pickled payload file, not only
        # the executors' copies, also when a task fails.
        temp_dir = spark.sparkContext._temp_dir
        before = set(os.listdir(temp_dir))

        def kernel(items, p):
            if fails:
                raise RuntimeError("kernel failed")
            return {"x": items[:, 0] + len(p["blob"])}

        for _ in range(3):
            try:
                run_phase(spark, kernel, _col(8), {"blob": bytes(2**20)})
            except Exception as exc:
                assert fails and "kernel failed" in str(exc)
        assert staged == [True] * 3
        assert set(os.listdir(temp_dir)) == before


@pytest.mark.parametrize("on_spark", [False, True])
@pytest.mark.parametrize("name,fn", ALL_SEVEN, ids=[a for a, _ in ALL_SEVEN])
def test_every_kernel_returns_flat_arrays(spark, data, monkeypatch, name, fn, on_spark):
    # Every phase of every algorithm comes back as a dict of 1-D arrays.
    outs = []

    def spy(*args, **kwargs):
        outs.append(run_tasks(*args, **kwargs))
        return outs[-1]

    monkeypatch.setattr(spark_map, "run_tasks", spy)
    pts, params = data
    fn(pts, params, spark=spark if on_spark else None)
    assert outs, name
    for out in outs:
        assert isinstance(out, dict) and out, name
        assert all(isinstance(v, np.ndarray) and v.ndim == 1 for v in out.values()), name


def test_joint_range_rho_array_outputs(spark, data, set_tasks, place):
    # p*(c) and N(c) come back as flat int64 arrays, equal serially and on Spark.
    pts, params = data
    tree = KDTree(pts)
    grid = UniformGrid(pts, cell_side(params.d_cut, pts.shape[1]))
    kw = dict(groups=(grid.order, grid.offsets), cell_of=grid.cell_of,
              jitter=tiebreak(len(pts), params.seed))
    rho_a, pstar_a, (pc_a, pn_a), nde_a = joint_range_rho(pts, tree, params.d_cut, **kw)
    set_tasks(3)
    staged = place(on_driver=False)
    rho_b, pstar_b, (pc_b, pn_b), nde_b = joint_range_rho(
        pts, tree, params.d_cut, **kw, spark=spark
    )
    assert staged == [True]
    assert np.array_equal(rho_a, rho_b)
    assert np.array_equal(pstar_a, pstar_b)
    assert len(pc_a) and pc_b.dtype == pn_b.dtype == np.int64
    assert np.array_equal(pc_a, pc_b) and np.array_equal(pn_a, pn_b)
    assert nde_a == nde_b


@pytest.mark.parametrize("n_tasks", [None, 4])
def test_exact_dependent_serial_equals_spark(spark, data, set_tasks, place, n_tasks):
    # Every point is a query, so blocks holding cluster peaks (which scan
    # most leaves) and the global peak land in different tasks.
    pts, params = data
    tree = KDTree(pts, leaf_size=8)
    key = approx_dpc(pts, params).rho + tiebreak(len(pts), params.seed)
    qids = np.arange(len(pts))
    a = exact_dependent(pts, tree, key, qids)
    if n_tasks is not None:
        set_tasks(n_tasks)
    staged = place(on_driver=False)
    b = exact_dependent(pts, tree, key, qids, spark=spark)
    assert staged == [True]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("on_driver", [False, True])
@pytest.mark.parametrize("name,fn", [("exdpc", ex_dpc), ("approx_dpc", approx_dpc),
                                     ("s_approx_dpc", s_approx)])
def test_placement_leaves_outputs_unchanged(spark, data, place, serial_runs, name, fn, on_driver):
    # The paper's three algorithms give their serial outputs and dist_evals
    # whichever side every phase is placed on.
    pts, params = data
    staged = place(on_driver)
    res, base = fn(pts, params, spark=spark), serial_runs[name]
    assert staged and all(s != on_driver for s in staged), name
    for field in ("rho", "delta", "dep", "centers", "labels"):
        assert np.array_equal(getattr(base, field), getattr(res, field)), (name, field)
    assert res.counters["dist_evals"] == base.counters["dist_evals"], name


class TestPlacement:
    """``_on_driver``: a phase runs on the driver only when this
    application's recorded stage overhead and the kernel's recorded rate
    predict that a stage would not finish sooner."""

    @pytest.fixture(autouse=True)
    def fresh_records(self, monkeypatch):
        monkeypatch.setattr(spark_map, "_RECORDS", {})

    @staticmethod
    def _kernel(items, p):
        return {"x": items[:, 0]}

    @staticmethod
    def _sc(app="app-1", tasks=4):
        return SimpleNamespace(applicationId=app, defaultParallelism=tasks)

    def _stage(self, sc, overhead, rate, n=100, tasks=4):
        """Record one stage: ``n`` unit-cost items in ``tasks`` equal tasks."""
        secs = np.full(tasks, rate * n / tasks)
        spark_map._record(sc, self._kernel, np.ones(n), overhead + secs.max(), secs, True)

    def test_no_record_runs_a_stage(self):
        sc, costs = self._sc(), np.ones(10)
        assert not spark_map._on_driver(sc, self._kernel, costs)
        # a driver run records the rate but no stage overhead
        spark_map._record(sc, self._kernel, costs, 0.01, np.array([0.01]), False)
        assert not spark_map._on_driver(sc, self._kernel, costs)
        # a stage of another kernel records the application's overhead
        spark_map._record(sc, lambda it, p: {}, costs, 0.5, np.full(4, 0.01), True)
        assert spark_map._on_driver(sc, self._kernel, costs)

    def test_overhead_above_the_saving_runs_on_the_driver(self):
        # 100 items at 1 ms: 0.1 s on the driver, 0.3 + 0.025 s as a stage
        sc = self._sc()
        self._stage(sc, overhead=0.3, rate=1e-3)
        assert spark_map._on_driver(sc, self._kernel, np.ones(100))

    def test_large_work_runs_a_stage(self):
        # 10,000 items at 1 ms: 10 s on the driver, 0.3 + 2.5 s as a stage
        sc = self._sc()
        self._stage(sc, overhead=0.3, rate=1e-3)
        assert not spark_map._on_driver(sc, self._kernel, np.ones(10_000))
        # one item holding all the work gains nothing from a stage
        assert spark_map._on_driver(sc, self._kernel, np.array([1e4, 1.0]))

    def test_smallest_overhead_and_latest_rate_are_kept(self):
        sc = self._sc()
        self._stage(sc, overhead=0.3, rate=1e-3)
        self._stage(sc, overhead=0.9, rate=1e-4)
        rec = spark_map._RECORDS[sc.applicationId]
        assert rec.overhead == pytest.approx(0.3)
        assert rec.rate[self._kernel] == pytest.approx(1e-4)

    def test_zero_costs_divide_nothing(self):
        sc = self._sc()
        spark_map._record(sc, self._kernel, np.zeros(8), 0.5, np.full(4, 0.01), True)
        assert self._kernel not in spark_map._RECORDS[sc.applicationId].rate
        self._stage(sc, overhead=0.3, rate=1e-3)
        assert spark_map._on_driver(sc, self._kernel, np.zeros(8))
        assert spark_map._on_driver(sc, self._kernel, np.zeros(0))

    def test_records_are_per_application(self):
        a, b = self._sc("app-a"), self._sc("app-b")
        self._stage(a, overhead=0.3, rate=1e-3)
        assert spark_map._on_driver(a, self._kernel, np.ones(100))
        assert not spark_map._on_driver(b, self._kernel, np.ones(100))

    def test_run_phase_records_both_sides(self, spark, place):
        sc = spark.sparkContext
        place(on_driver=False)
        run_phase(spark, self._kernel, _col(40), None)
        rec = spark_map._RECORDS[sc.applicationId]
        overhead = rec.overhead
        assert overhead > 0 and rec.rate[self._kernel] > 0
        place(on_driver=True)
        rec.rate[self._kernel] = -1.0
        run_phase(spark, self._kernel, _col(40), None)
        assert rec.overhead == overhead and rec.rate[self._kernel] >= 0

    def test_driver_placement_starts_nothing(self, spark, place, monkeypatch):
        # No broadcast and no job: the kernel runs once, on the driver.
        def refuse(*a, **kw):
            raise AssertionError("a driver placement used Spark")

        monkeypatch.setattr(SparkContext, "broadcast", refuse)
        monkeypatch.setattr(SparkContext, "parallelize", refuse)
        staged = place(on_driver=True)
        out = run_phase(spark, lambda it, p: {"n": np.array([len(it)]), "k": np.array([p])},
                        _col(40), 7)
        assert staged == [False]
        assert out["n"].tolist() == [40] and out["k"].tolist() == [7]


def test_scan_kernels_are_costed_in_distance_evaluations(data, monkeypatch):
    # Scan and LSH-DDP share rho_kernel and delta_kernel, and so share the
    # rate run_phase records per kernel: both must cost a row by the
    # distances it evaluates, or one would misplace the other's phases.
    lsh_mod = importlib.import_module("repro.baselines.lsh_ddp")
    scan_mod = importlib.import_module("repro.core.scan")
    calls = []

    def spy(spark, kernel, items, payload, *, costs=None):
        calls.append((kernel, items, costs))
        return run_phase(spark, kernel, items, payload, costs=costs)

    for mod in (scan_mod, lsh_mod):
        monkeypatch.setattr(mod, "run_phase", spy)
    pts, params = data
    scan_dpc(pts, params)
    lsh_ddp(pts, params)
    assert {k for k, _, _ in calls} == {scan_mod.rho_kernel, scan_mod.delta_kernel}
    for _, items, costs in calls:
        s, e, cs, ce = items.T
        assert costs is not None and np.array_equal(costs, (e - s) * (ce - cs))
