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

Every kernel has one output contract: it returns a ``dict`` of 1-D
numpy arrays (a per-task or per-item count such as ``nde`` as a
length-1 array), and ``run_phase`` returns the same keys, each the
tasks' arrays concatenated in group order (``concat``). No DataFrame
comes back: the caller reads ``out[key]`` directly.

With ``spark=None`` the kernel runs once on the driver over all items —
the serial mode used by unit tests and serial-vs-parallel equality
tests. Kernels therefore must be pure functions of (items, payload).
"""
from __future__ import annotations

import numpy as np

from repro.par.partition import lpt_assign

__all__ = ["Shared", "concat", "run_phase", "run_tasks"]


class Shared:
    """A read-only payload, broadcast under Spark, plain reference otherwise.

    Only the broadcast *handle* is pickled into task closures, so the
    payload ships to each executor once, not once per task.
    """

    def __init__(self, payload, spark=None):
        if spark is not None:
            self._bc = spark.sparkContext.broadcast(payload)
            self._payload = None
        else:
            self._bc = None
            self._payload = payload

    def get(self):
        return self._bc.value if self._bc is not None else self._payload

    def destroy(self) -> None:
        if self._bc is not None:
            self._bc.unpersist()


def concat(parts: list[dict]) -> dict[str, np.ndarray]:
    """Kernel outputs joined key by key, in order."""
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def run_tasks(
    spark,
    kernel,
    items: np.ndarray,
    *,
    costs: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Run ``kernel(rows) -> dict of 1-D arrays`` over balanced groups.

    The groups are the LPT tasks in task order, each holding its rows in
    their ``items`` order; the outputs are concatenated key by key in
    group order. Serial mode (``spark=None``) calls the kernel once.
    """
    if spark is None or len(items) == 0:
        return kernel(items)
    sc = spark.sparkContext
    if costs is None:
        costs = np.ones(len(items))
    task = lpt_assign(np.asarray(costs), sc.defaultParallelism)
    cuts = np.cumsum(np.bincount(task))[:-1]
    groups = [g for g in np.split(items[np.argsort(task, kind="stable")], cuts) if len(g)]
    return concat(sc.parallelize(groups, len(groups)).map(kernel).collect())


def run_phase(
    spark,
    kernel,
    items: np.ndarray,
    payload,
    *,
    costs: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """One parallel phase: ``kernel(rows, payload)`` over balanced groups.

    ``payload`` is broadcast for the phase and released afterwards, also
    when a task fails.
    """
    shared = Shared(payload, spark)
    try:
        return run_tasks(spark, lambda it: kernel(it, shared.get()), items, costs=costs)
    finally:
        shared.destroy()
