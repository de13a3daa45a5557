"""Serial (driver) vs Spark-parallel equality for every algorithm, plus
run_tasks/run_phase/Shared substrate behaviour under Spark."""
from __future__ import annotations

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
def test_parallel_equals_serial(spark, data, name, fn):
    pts, params = data
    a = fn(pts, params)
    b = fn(pts, params, spark=spark)
    assert np.array_equal(a.rho, b.rho), name
    assert np.array_equal(a.delta, b.delta), name
    assert np.array_equal(a.dep, b.dep), name
    assert np.array_equal(a.centers, b.centers), name
    assert np.array_equal(a.labels, b.labels), name


@pytest.mark.parametrize("eps", [0.4, 1.0])
def test_s_approx_parallel_equals_serial(spark, data, eps):
    pts, params = data
    a = s_approx_dpc(pts, params, eps)
    b = s_approx_dpc(pts, params, eps, spark=spark)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.labels, b.labels)


@pytest.fixture(scope="module")
def serial_runs(data):
    pts, params = data
    return {name: fn(pts, params) for name, fn in ALL_SEVEN}


@pytest.mark.parametrize("n_tasks", [1, 3, 7, 16])
def test_task_count_invariant(spark, data, serial_runs, set_tasks, n_tasks):
    # Every algorithm gives its serial result whatever the task count.
    pts, params = data
    set_tasks(n_tasks)
    for name, fn in ALL_SEVEN:
        base, res = serial_runs[name], fn(pts, params, spark=spark)
        for field in ("labels", "rho", "delta", "dep"):
            assert np.array_equal(getattr(base, field), getattr(res, field)), (name, field)


class TestRunTasks:
    def test_serial_mode_single_call(self):
        calls = []

        def kernel(items):
            calls.append(len(items))
            return {"out": items[:, 0] * 2}

        out = run_tasks(None, kernel, _col(10))
        assert calls == [10]
        assert out["out"].tolist() == list(range(0, 20, 2))

    def test_parallel_covers_all_items(self, spark, set_tasks):
        def kernel(items):
            return {"out": items[:, 0] + 1}

        set_tasks(7)
        out = run_tasks(spark, kernel, _col(100))
        assert list(out) == ["out"] and out["out"].dtype == np.int64
        assert sorted(out["out"].tolist()) == list(range(1, 101))

    def test_costs_drive_grouping(self, spark, set_tasks):
        # kernel records group sizes; with one giant item, LPT isolates it
        def kernel(items):
            return {"size": np.array([len(items)])}

        costs = np.array([100.0] + [1.0] * 30)
        set_tasks(4)
        out = run_tasks(spark, kernel, _col(31), costs=costs)
        assert 1 in out["size"].tolist()  # the giant item sits alone

    def test_empty_items(self, spark):
        def kernel(items):
            return {"x": items[:, 0]}

        out = run_tasks(spark, kernel, _col(0))
        assert len(out["x"]) == 0

    def test_session_conf_untouched(self, spark):
        # A session of its own: its SQL conf is isolated from other tests'.
        session = spark.newSession()
        before = session.conf.getAll
        run_tasks(session, lambda it: {"x": it[:, 0]}, _col(20))
        assert session.conf.getAll == before

    @staticmethod
    def _shape_kernel(items):
        # One entry per kernel call, describing the group it was given.
        return {"size": np.array([len(items)]), "width": np.array([items.shape[1]])}

    @pytest.mark.parametrize("n_items,n_tasks", [(40, 4), (40, 7), (4, 4), (3, 8)])
    def test_one_nonempty_group_per_task(self, spark, set_tasks, n_items, n_tasks):
        x = np.arange(n_items, dtype=np.int64)
        set_tasks(n_tasks)
        out = run_tasks(spark, self._shape_kernel, np.column_stack([x, -x, 2 * x]))
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
        a = run_tasks(spark, kernel, items, costs=costs)
        b = run_tasks(spark, kernel, items, costs=costs)
        assert list(a) == list(b) == ["x", "out"]
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_shared_serial_and_spark(self, spark):
        s1 = Shared({"v": 42})
        assert s1.get()["v"] == 42
        s2 = Shared({"v": 43}, spark)
        assert s2.get()["v"] == 43
        s2.destroy()


class TestRunPhase:
    @staticmethod
    def _scale_kernel(items, p):
        x = items[:, 0]
        return {"x": x, "out": x * p["k"]}

    def test_serial_equals_spark(self, spark, set_tasks):
        items = _col(50)
        a = run_phase(None, self._scale_kernel, items, {"k": 3})
        set_tasks(4)
        b = run_phase(spark, self._scale_kernel, items, {"k": 3}, costs=np.arange(50.0))
        o = np.argsort(b["x"])
        assert np.array_equal(a["x"], b["x"][o])
        assert np.array_equal(a["out"], b["out"][o])

    @pytest.mark.parametrize("on_spark", [False, True])
    def test_kernel_receives_payload(self, spark, set_tasks, on_spark):
        payload = {"v": np.arange(5), "tag": "p"}

        def kernel(items, p):
            return {"tag": np.array([p["tag"]]), "v": np.array([p["v"].sum()])}

        set_tasks(4)
        out = run_phase(spark if on_spark else None, kernel, _col(8), payload)
        assert len(out["tag"]) == (4 if on_spark else 1)
        assert (out["tag"] == "p").all() and (out["v"] == 10).all()

    @pytest.mark.parametrize("on_spark", [False, True])
    def test_broadcast_destroyed_when_kernel_raises(self, spark, monkeypatch, on_spark):
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
        assert len(destroyed) == 1
        assert (destroyed[0]._bc is not None) == on_spark


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


def test_joint_range_rho_array_outputs(spark, data, set_tasks):
    # p*(c) and N(c) come back as flat int64 arrays, equal serially and on Spark.
    pts, params = data
    tree = KDTree(pts)
    grid = UniformGrid(pts, cell_side(params.d_cut, pts.shape[1]))
    kw = dict(groups=(grid.order, grid.offsets), cell_of=grid.cell_of,
              jitter=tiebreak(len(pts), params.seed))
    rho_a, pstar_a, (pc_a, pn_a), nde_a = joint_range_rho(pts, tree, params.d_cut, **kw)
    set_tasks(3)
    rho_b, pstar_b, (pc_b, pn_b), nde_b = joint_range_rho(
        pts, tree, params.d_cut, **kw, spark=spark
    )
    assert np.array_equal(rho_a, rho_b)
    assert np.array_equal(pstar_a, pstar_b)
    assert len(pc_a) and pc_b.dtype == pn_b.dtype == np.int64
    assert np.array_equal(pc_a, pc_b) and np.array_equal(pn_a, pn_b)
    assert nde_a == nde_b


@pytest.mark.parametrize("n_tasks", [None, 4])
def test_exact_dependent_serial_equals_spark(spark, data, set_tasks, n_tasks):
    # Every point is a query, so blocks holding cluster peaks (which scan
    # most leaves) and the global peak land in different tasks.
    pts, params = data
    tree = KDTree(pts, leaf_size=8)
    key = approx_dpc(pts, params).rho + tiebreak(len(pts), params.seed)
    qids = np.arange(len(pts))
    a = exact_dependent(pts, tree, key, qids)
    if n_tasks is not None:
        set_tasks(n_tasks)
    b = exact_dependent(pts, tree, key, qids, spark=spark)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
