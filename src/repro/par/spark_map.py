"""Spark task fan-out: the multicore substrate (DESIGN.md §2).

Every parallel phase of every algorithm is expressed as

    run_phase(spark, kernel, items, payload, costs=...)

where ``items`` is a 2-D int64 numpy array with one row per work item,
such as a ``(start, end)`` range or Scan's ``(start, end, cstart,
cend)``; a kernel unpacks its rows (``for s, e in items.tolist()``). The
driver splits the rows into cost-balanced task groups with Graham's
greedy LPT (``par.partition``) and ships each non-empty group as exactly
one RDD partition: one Spark stage of at most ``defaultParallelism``
tasks, so one wave on local[*], with no shuffle and no change to the
caller's session configuration. The task count is the session's, read
in one place (``run_tasks``). The read-only ``payload`` (points,
kd-trees, grids) rides along as a Spark broadcast via :class:`Shared`,
which ``run_phase`` creates and destroys around the stage; ``run_tasks``
is the bare fan-out underneath.

A stage is only worth its fixed cost when the phase is big enough, as
with OpenMP's ``parallel if(…)``. So ``run_phase`` places each phase
itself, on the driver or as a stage, from what this Spark application's
phases have measured: the smallest fixed overhead of a stage (its wall
time minus its slowest task's compute) and, per kernel, the latest
seconds per unit of ``costs``. A phase runs on the driver when
``rate·Σcosts`` is no more than ``overhead + rate·(largest LPT group)``;
until both are on record, it runs as a stage. The records live in this
module, one per ``applicationId``, never on the caller's session.

Every kernel has one output contract: it returns a ``dict`` of 1-D
numpy arrays (a per-task or per-item count such as ``nde`` as a
length-1 array), and ``run_phase`` returns the same keys, each the
tasks' arrays concatenated in group order (``concat``). No DataFrame
comes back: the caller reads ``out[key]`` directly.

With ``spark=None``, or when a phase is placed on the driver, the kernel
runs once on the driver over all items — the serial mode used by unit
tests and serial-vs-parallel equality tests. Kernels therefore must be
pure functions of (items, payload), and a phase's output is the same
wherever it runs.
"""
from __future__ import annotations

import functools
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.par.partition import lpt_assign

__all__ = ["Shared", "concat", "run_phase", "run_tasks"]

_SECS = "secs"  # each kernel call's compute seconds, added by _timed


class Shared:
    """A read-only payload, broadcast under Spark, plain reference otherwise.

    Only the broadcast *handle* is pickled into task closures, so the
    payload ships to each executor once, not once per task.
    """

    def __init__(self, payload, spark):
        if spark is not None:
            self._bc = spark.sparkContext.broadcast(payload)
            self._payload = None
        else:
            self._bc = None
            self._payload = payload

    def get(self):
        return self._bc.value if self._bc is not None else self._payload

    def destroy(self) -> None:
        """Release the broadcast: its JVM blocks and the driver's payload file."""
        if self._bc is not None:
            self._bc.destroy()


def concat(parts: list[dict]) -> dict[str, np.ndarray]:
    """Kernel outputs joined key by key, in order."""
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def run_tasks(spark, kernel, items: np.ndarray, costs: np.ndarray) -> dict[str, np.ndarray]:
    """Run ``kernel(rows) -> dict of 1-D arrays`` over groups balanced by ``costs``.

    The groups are the LPT tasks in task order, each holding its rows in
    their ``items`` order; the outputs are concatenated key by key in
    group order. Serial mode (``spark=None``) calls the kernel once.
    """
    if spark is None or len(items) == 0:
        return kernel(items)
    sc = spark.sparkContext
    task = lpt_assign(costs, sc.defaultParallelism)
    cuts = np.cumsum(np.bincount(task))[:-1]
    groups = [g for g in np.split(items[np.argsort(task, kind="stable")], cuts) if len(g)]
    return concat(sc.parallelize(groups, len(groups)).map(kernel).collect())


@dataclass
class _Record:
    """What one Spark application's phases have measured."""

    # smallest fixed cost of a stage, s: the first stage also starts the
    # Python workers and a busy host only adds, so the floor is the estimate
    overhead: float | None = None
    # kernel -> its latest seconds per unit of cost, on either side
    rate: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary)


_RECORDS: dict[str, _Record] = {}  # applicationId -> its record


def _on_driver(sc, kernel, costs: np.ndarray) -> bool:
    """Whether ``kernel`` over ``costs`` is predicted to finish no later
    on the driver than as a stage of ``sc``; False without both records."""
    rec = _RECORDS.get(sc.applicationId)
    rate = rec.rate.get(kernel) if rec is not None else None
    if rate is None or rec.overhead is None:
        return False
    task = lpt_assign(costs, sc.defaultParallelism)
    longest = np.bincount(task, weights=costs).max() if len(costs) else 0.0
    return rate * costs.sum() <= rec.overhead + rate * longest


def _record(sc, kernel, costs: np.ndarray, wall: float, secs: np.ndarray, staged: bool) -> None:
    """Add one phase's costs: ``wall`` seconds in all, ``secs`` per kernel call."""
    rec = _RECORDS.setdefault(sc.applicationId, _Record())
    total = float(costs.sum())
    if total > 0:
        rec.rate[kernel] = float(secs.sum()) / total
    if staged:
        fixed = wall - float(secs.max())
        rec.overhead = fixed if rec.overhead is None else min(rec.overhead, fixed)


def _timed(kernel, shared: Shared, items: np.ndarray) -> dict[str, np.ndarray]:
    """``kernel(items, payload)`` with its compute seconds as ``_SECS``."""
    payload = shared.get()
    t0 = time.perf_counter()
    out = kernel(items, payload)
    return {**out, _SECS: np.array([time.perf_counter() - t0])}


def run_phase(
    spark,
    kernel,
    items: np.ndarray,
    payload,
    *,
    costs: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """One parallel phase: ``kernel(rows, payload)`` over balanced groups.

    Under Spark the phase runs on the driver, broadcasting nothing, when
    the recorded costs predict that a stage would not finish sooner (see
    the module docstring); otherwise ``payload`` is broadcast for the
    stage and released afterwards, also when a task fails.
    """
    costs = np.ones(len(items)) if costs is None else np.asarray(costs, dtype=np.float64)
    sc = spark.sparkContext if spark is not None else None
    # no items start no job, so they would record a stage with no overhead
    if sc is not None and (len(items) == 0 or _on_driver(sc, kernel, costs)):
        spark = None
    t0 = time.perf_counter()
    shared = Shared(payload, spark)
    try:
        out = run_tasks(spark, functools.partial(_timed, kernel, shared), items, costs)
    finally:
        shared.destroy()
    secs = out.pop(_SECS)
    if sc is not None:
        _record(sc, kernel, costs, time.perf_counter() - t0, secs, staged=spark is not None)
    return out
