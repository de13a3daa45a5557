"""The benchmark's workloads and their set-up.

Each workload is one dataset at one scale, run either on the driver
alone (``spark=None``) or through a Spark ``local[4]`` session that the
benchmark owns. The workload seed sets the dataset generator's ``seed``
(three generator seeds per workload seed, see :func:`dataset_seeds`);
the algorithms receive only the points and ``DPCParams``.

Set-up, timed as ``setup_s``, is Spark session start plus warm-up, then
dataset generation and the Ex-DPC ground truth with δ_min chosen by
``experiments.ground_truth``, checked against a brute-force pass on a
seeded sample of points.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import experiments
from repro.core.distutil import sq_dists
from repro.core.types import DPCParams, tiebreak

__all__ = ["Workload", "WORKLOADS", "LocalSpark", "Setup", "make_dataset",
           "dataset_seeds", "set_up", "check_ground_truth"]

MASTER = "local[4]"
DRIVER_MEM = "2g"  # the inputs are a few MB; keep the JVM small
TINY_SCALE = 0.001  # 500 points, for the benchmark's own tests
GT_SAMPLE = 64  # points of the ground truth checked by brute force
DATASETS = 3  # datasets per benchmark seed, see dataset_seeds


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    spark: bool


# Why each workload exists is recorded in BENCHMARK.json. Airline runs at
# 0.1 of its bench cardinality, not 0.25: there one cycle of the three
# algorithms takes about 16 s serially, too long for several cycles in a
# 36 s run, and single calls vary by up to 20% on a shared 4-core host.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("airline-serial", "airline", 0.1, False),
        Workload("airline-local4", "airline", 0.1, True),
    )
}


def make_dataset(w: Workload, seed: int, *, tiny: bool = False):
    """The workload's dataset, generated from ``seed``."""
    return experiments._scaled(w.dataset, TINY_SCALE if tiny else w.scale, seed=seed)


class LocalSpark:
    """A ``local[4]`` SparkSession owned by the benchmark.

    Everything Spark writes stays under ``work_dir``; the Python workers
    get ``python_path`` on their path. ``close`` ends the JVM and waits.
    """

    def __init__(self, python_path: list[Path], work_dir: Path):
        self.python_path = [str(d) for d in python_path]
        self.work_dir = Path(work_dir)
        self.session = None

    def start(self):
        """Start the session; its settings are fixed before the JVM launches."""
        local = self.work_dir / "spark-local"
        shutil.rmtree(local, ignore_errors=True)  # what earlier runs left
        local.mkdir(parents=True)
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(self.python_path + ([path] if path else []))
        os.environ["PYSPARK_PYTHON"] = sys.executable
        os.environ["TMPDIR"] = str(local)
        # Keeps every JVM, the launcher's too, from writing hsperfdata to /tmp.
        os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
        os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEM}",
            f"--driver-java-options '-Djava.io.tmpdir={local}'",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf 'spark.local.dir={local}'",
            "pyspark-shell",
        ])
        from pyspark.sql import SparkSession

        # The same session settings as the repo's jobs (jobs/_common.py).
        self.session = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.session.sparkContext.setLogLevel("ERROR")
        return self.session

    def close(self) -> None:
        """Stop the session, then end the JVM and wait for it."""
        if self.session is None:
            return
        self.session.stop()
        self.session = None
        from pyspark import SparkContext

        gw = SparkContext._gateway
        if gw is None:
            return
        proc = getattr(gw, "proc", None)
        gw.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def check_ground_truth(ds, gt, params, rng: np.random.Generator) -> list[str]:
    """Brute-force check of the ground truth on a seeded sample of points.

    ρ is counted with ``sq_dists`` against all points; δ and dep are
    searched among the higher-density points only, O(k·n) in all.
    Returns the problems found (empty when the ground truth holds).
    """
    pts = ds.points
    n = len(pts)
    sample = rng.choice(n, size=min(GT_SAMPLE, n), replace=False)
    d2 = sq_dists(pts[sample], pts)
    rho = (d2 < params.d_cut * params.d_cut).sum(axis=1) - 1
    errors = []
    bad = np.flatnonzero(rho != gt.rho[sample])
    if len(bad):
        errors.append(f"ground truth rho differs from brute force at {sample[bad][:5]}")
    key = gt.rho + tiebreak(n, params.seed)
    for row, i in enumerate(sample):
        higher = np.flatnonzero(key > key[i])
        if len(higher) == 0:
            if gt.dep[i] != -1 or np.isfinite(gt.delta[i]):
                errors.append(f"ground truth peak {i} has a dependent point")
            continue
        delta = np.sqrt(d2[row, higher].min())
        j = gt.dep[i]
        ok = (
            np.isclose(gt.delta[i], delta, rtol=1e-12, atol=0.0)
            and 0 <= j < n
            and key[j] > key[i]
            and np.isclose(np.sqrt(d2[row, j]), delta, rtol=1e-12, atol=0.0)
        )
        if not ok:
            errors.append(f"ground truth delta/dep wrong at point {i}")
    return errors


@dataclass
class Setup:
    data: list  # (dataset, ground truth, params), one per generator seed
    spark: object  # SparkSession or None
    spark_s: float  # session start plus warm-up, 0 when serial
    data_s: list[float]  # dataset generation plus checked ground truth, each
    errors: list[str]

    @property
    def seconds(self) -> float:
        """``setup_s``: Spark start and warm-up plus the median data set-up."""
        return self.spark_s + float(np.median(self.data_s))


def dataset_seeds(seed: int) -> list[int]:
    """Generator seeds of the datasets one benchmark seed stands for.

    Run time follows the work a dataset's cluster layout implies (Ex-DPC's
    dist_evals differ by over 20% between generator seeds), so each run
    spreads its calls over several layouts; distinct seeds never share one.
    """
    return [seed * DATASETS + k for k in range(DATASETS)]


def _warm_up(w: Workload, seed: int, spark) -> None:
    """Pay JVM and Python-worker start-up before anything is timed.

    One call of each algorithm on a 500-point version of the workload
    runs every kind of stage that the timed calls run.
    """
    from repro.core.approx_dpc import approx_dpc
    from repro.core.exdpc import ex_dpc
    from repro.core.s_approx_dpc import s_approx_dpc

    ds = make_dataset(w, seed, tiny=True)
    params = DPCParams(d_cut=ds.d_cut, rho_min=ds.rho_min)
    ex_dpc(ds.points, params, spark=spark)
    approx_dpc(ds.points, params, spark=spark)
    s_approx_dpc(ds.points, params, ds.eps_default, spark=spark)


def set_up(w: Workload, seed: int, spark_owner: LocalSpark | None,
           *, tiny: bool = False, log=print) -> Setup:
    """Start Spark once, then set up each dataset of ``dataset_seeds(seed)``.

    The JVM cannot be relaunched within one process, so session start
    and warm-up are paid once; ``setup_s`` adds the median of the
    per-dataset set-ups (generation plus the checked ground truth).
    """
    spark, spark_s = None, 0.0
    if w.spark:
        t0 = time.perf_counter()
        spark = spark_owner.start()
        _warm_up(w, seed, spark)
        spark_s = time.perf_counter() - t0
        log(f"spark start + warm-up: {spark_s:.3f} s")
    data, data_s, errors = [], [], []
    for gen_seed in dataset_seeds(seed):
        t0 = time.perf_counter()
        ds = make_dataset(w, gen_seed, tiny=tiny)
        gt, params = experiments.ground_truth(ds)
        errors += check_ground_truth(ds, gt, params, np.random.default_rng(gen_seed))
        data_s.append(time.perf_counter() - t0)
        data.append((ds, gt, params))
        log(f"data set-up, generator seed {gen_seed}: {data_s[-1]:.3f} s, n={ds.n}, d={ds.d}")
    return Setup(data, spark, spark_s, data_s, errors)
