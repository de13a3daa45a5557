"""In-memory span tracer and the layer instrumentation of the traced run.

Spans are recorded from outside the program: :func:`instrument` swaps the
public functions and methods of each layer for thin wrappers while a
traced cycle runs, and puts the originals back afterwards. Because the
algorithm modules bind their helpers with ``from … import``, a function
is rebound in every ``repro.*`` module that holds it, not only where it
is defined. Methods are patched on their class.

Under Spark the query kernels run inside Python workers. There the
``par.run_tasks`` wrapper ships each task's kernel inside
:func:`_in_worker`, which traces the same index and core entry points in
the worker and leaves its per-name totals in a file; :func:`instrument`
adds them to the tracer when it ends. Worker calls and seconds are summed
over all workers, so under ``local[4]`` a layer's seconds can exceed the
wall time of the call that made them.

A span records a name, a start, an end and the id of the span that was
open when it started; spans of one cycle share a tracer, and the cycle
number is written beside them. Single-threaded use only: the open-span
stack is not shared between threads.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import shutil
import sys
import time
import uuid
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["Tracer", "instrument", "layer_metrics", "write_spans", "PER_LAYER"]

ALG_SPANS = {"ex_dpc": "core.exdpc", "approx_dpc": "core.approx_dpc",
             "s_approx_dpc": "core.s_approx_dpc"}

# (name, unit) of every per-layer metric, in output order. LPT's own time
# is a span in the spans file but no metric: serial runs never call it.
PER_LAYER: list[tuple[str, str]] = [
    ("par.run_tasks.calls", "count"),
    ("par.run_tasks.s", "s"),
    ("par.run_tasks.self_s", "s"),
    ("par.run_tasks.items", "count"),
    ("par.shared.s", "s"),
    ("par.shared.bytes", "bytes"),
    ("par.lpt.imbalance", "ratio"),
    ("index.kdtree.build.calls", "count"),
    ("index.kdtree.build.s", "s"),
    ("index.kdtree.range_count.calls", "count"),
    ("index.kdtree.range_count.s", "s"),
    ("index.kdtree.range_query.calls", "count"),
    ("index.kdtree.range_query.s", "s"),
    ("index.kdtree.nn_with_bound.calls", "count"),
    ("index.kdtree.nn_with_bound.s", "s"),
    ("index.ikdtree.insert.calls", "count"),
    ("index.ikdtree.insert.s", "s"),
    ("index.ikdtree.nn.calls", "count"),
    ("index.ikdtree.nn.s", "s"),
    ("index.grid.build.s", "s"),
    *[
        (f"{span}.{m}", "s")
        for span in ALG_SPANS.values()
        for m in ("rho.s", "delta.s", "self_s")
    ],
    ("core.depexact.exact_dependent.s", "s"),
    ("core.labels.finalize.s", "s"),
    ("core.distutil.sq_dists.calls", "count"),
    ("core.distutil.sq_dists.s", "s"),
    ("core.exdpc.dist_evals", "count"),
    ("core.approx_dpc.dist_evals", "count"),
    ("core.s_approx_dpc.dist_evals", "count"),
    ("core.approx_dpc.n_cells", "count"),
    ("core.approx_dpc.n_pprime", "count"),
    ("core.s_approx_dpc.n_roots", "count"),
    *[(f"trace.{alg}_s.overhead", "s") for alg in ALG_SPANS],
]

# Entry points traced wherever they run, on the driver and in Spark's
# Python workers: functions, rebound in every ``repro.*`` module that holds
# them, and methods, patched on their class; each with its span name.
KERNEL_FUNCS = (
    ("repro.core.depexact", "exact_dependent", "core.depexact.exact_dependent"),
    ("repro.core.labels", "finalize", "core.labels.finalize"),
    ("repro.core.distutil", "sq_dists", "core.distutil.sq_dists"),
)
KERNEL_METHODS = (
    ("repro.index.kdtree", "KDTree", "__init__", "index.kdtree.build"),
    ("repro.index.kdtree", "KDTree", "range_count", "index.kdtree.range_count"),
    ("repro.index.kdtree", "KDTree", "range_query", "index.kdtree.range_query"),
    ("repro.index.kdtree", "KDTree", "nn_with_bound", "index.kdtree.nn_with_bound"),
    ("repro.index.kdtree", "IncrementalKDTree", "insert", "index.ikdtree.insert"),
    ("repro.index.kdtree", "IncrementalKDTree", "nn", "index.ikdtree.nn"),
    ("repro.index.grid", "UniformGrid", "__init__", "index.grid.build"),
)


class Tracer:
    """Spans of one traced cycle, kept in memory as flat columns."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open = [-1]
        self.counters: dict[str, list[float]] = defaultdict(list)
        # name -> [calls, seconds] of spans recorded in Spark workers
        self.remote: dict[str, list] = defaultdict(lambda: [0, 0.0])

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def count(self, name: str, value: float) -> None:
        self.counters[name].append(float(value))

    def collect(self, worker_dir) -> None:
        """Add the span totals that workers left in ``worker_dir``; remove them."""
        for f in sorted(Path(worker_dir).glob("*.json")):
            for name, (calls, secs) in json.loads(f.read_text()).items():
                self.remote[name][0] += calls
                self.remote[name][1] += secs
            f.unlink()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of the spans
        directly inside it (children of one span never overlap here).
        """
        n = len(self.name)
        if n == 0:
            return {}
        cols = self.columns()
        name, parent = cols["name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {
            nm: (int(calls[i]), float(total[i]), float(selfs[i]))
            for i, nm in enumerate(self.names)
        }

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }


def _traced(tracer: Tracer, name: str, fn, record=None):
    """``fn`` inside a span; ``record(tracer, args, result)`` adds counters.

    Recording runs in its own span, so its cost stays out of every
    layer's self time. The repo calls these entry points positionally.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if record is not None:
            with tracer.span("trace.record"):
                record(tracer, args, result)
        return result

    return wrapper


def _record_items(tracer: Tracer, args, result) -> None:
    tracer.count("par.run_tasks.items", len(args[2]))  # (spark, kernel, items, ...)


def _record_imbalance(tracer: Tracer, args, assign) -> None:
    costs, n_tasks = np.asarray(args[0], dtype=np.float64), max(1, int(args[1]))
    if len(costs) and costs.sum() > 0:
        load = np.bincount(assign, weights=costs, minlength=n_tasks)
        tracer.count("par.lpt.imbalance", load.max() / load.mean())


def _record_payload(tracer: Tracer, args, result) -> None:
    # (self, payload, spark): the bytes a broadcast of the payload ships.
    tracer.count("par.shared.bytes", len(pickle.dumps(args[1], pickle.HIGHEST_PROTOCOL)))


def _rebind(orig, wrapper, undo: list) -> None:
    """Point every ``repro.*`` module binding of ``orig`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)


def _patch_kernels(tracer: Tracer, undo: list) -> None:
    """Trace the index and core entry points into ``tracer``; see ``undo``."""
    for mod, fn, name in KERNEL_FUNCS:
        orig = getattr(importlib.import_module(mod), fn)
        _rebind(orig, _traced(tracer, name, orig), undo)
    for mod, cls, attr, name in KERNEL_METHODS:
        klass = getattr(importlib.import_module(mod), cls)
        orig = klass.__dict__[attr]
        undo.append((klass, attr, orig))
        setattr(klass, attr, _traced(tracer, name, orig))


def _undo(undo: list) -> None:
    for obj, attr, orig in reversed(undo):
        setattr(obj, attr, orig)


def _in_worker(kernel, worker_dir: str, items):
    """Run one task's ``kernel`` in a Spark worker with its layers traced.

    The span totals go to a file of their own in ``worker_dir``.
    """
    tracer, undo = Tracer(), []
    try:
        _patch_kernels(tracer, undo)
        out = kernel(items)
    finally:
        _undo(undo)
    totals = {name: [c, s] for name, (c, s, _) in tracer.totals().items()}
    path = Path(worker_dir, f"{os.getpid()}-{uuid.uuid4().hex}.json")
    path.write_text(json.dumps(totals))
    return out


def _ship_tracing(run_tasks, worker_dir: Path):
    """``run_tasks`` that runs its kernel under :func:`_in_worker` on Spark."""
    @functools.wraps(run_tasks)
    def wrapper(spark, kernel, *args, **kwargs):
        if spark is not None:
            kernel = functools.partial(_in_worker, kernel, str(worker_dir))
        return run_tasks(spark, kernel, *args, **kwargs)

    return wrapper


@contextmanager
def instrument(tracer: Tracer, worker_dir=None):
    """Trace the layers' public entry points into ``tracer`` while active.

    With ``worker_dir``, calls inside Spark's Python workers are traced
    too; the workers need this package importable.
    """
    from repro.par import partition, spark_map

    run_tasks = spark_map.run_tasks
    if worker_dir is not None:
        shutil.rmtree(worker_dir, ignore_errors=True)  # what a killed run left
        Path(worker_dir).mkdir(parents=True)
        run_tasks = _ship_tracing(run_tasks, worker_dir)
    undo: list = []
    try:
        _rebind(spark_map.run_tasks,
                _traced(tracer, "par.run_tasks", run_tasks, _record_items), undo)
        _rebind(partition.lpt_assign, _traced(tracer, "par.lpt_assign",
                                              partition.lpt_assign, _record_imbalance), undo)
        for attr, name, record in (("__init__", "par.shared.create", _record_payload),
                                   ("destroy", "par.shared.destroy", None)):
            orig = spark_map.Shared.__dict__[attr]
            undo.append((spark_map.Shared, attr, orig))
            setattr(spark_map.Shared, attr, _traced(tracer, name, orig, record))
        _patch_kernels(tracer, undo)
        yield tracer
    finally:
        _undo(undo)
        if worker_dir is not None:
            tracer.collect(worker_dir)
            shutil.rmtree(worker_dir, ignore_errors=True)


def layer_metrics(tracer: Tracer, results: dict) -> dict[str, float]:
    """Per-layer values of one traced cycle.

    ``results`` maps each algorithm name of :data:`ALG_SPANS` to the
    ``DPCResult`` of its traced call; phase times and work counts come
    from the program's own ``timings`` and ``counters``.
    """
    tot = tracer.totals()

    def calls(n):
        return tot.get(n, (0, 0.0, 0.0))[0] + tracer.remote.get(n, (0, 0.0))[0]

    def secs(n):
        return tot.get(n, (0, 0.0, 0.0))[1] + tracer.remote.get(n, (0, 0.0))[1]

    def own(n):
        return tot.get(n, (0, 0.0, 0.0))[2]

    c = tracer.counters
    # No LPT call means one group on the driver: perfectly balanced.
    out = {
        "par.run_tasks.calls": calls("par.run_tasks"),
        "par.run_tasks.s": secs("par.run_tasks"),
        "par.run_tasks.self_s": own("par.run_tasks"),
        "par.run_tasks.items": sum(c["par.run_tasks.items"]),
        "par.shared.s": secs("par.shared.create") + secs("par.shared.destroy"),
        "par.shared.bytes": sum(c["par.shared.bytes"]),
        "par.lpt.imbalance": max(c["par.lpt.imbalance"], default=1.0),
    }
    for layer in ("kdtree.build", "kdtree.range_count", "kdtree.range_query",
                  "kdtree.nn_with_bound", "ikdtree.insert", "ikdtree.nn"):
        out[f"index.{layer}.calls"] = calls(f"index.{layer}")
        out[f"index.{layer}.s"] = secs(f"index.{layer}")
    out["index.grid.build.s"] = secs("index.grid.build")
    for alg, span in ALG_SPANS.items():
        res = results[alg]
        out[f"{span}.rho.s"] = float(res.timings["rho"])
        out[f"{span}.delta.s"] = float(res.timings["delta"])
        out[f"{span}.self_s"] = own(span)
        out[f"{span}.dist_evals"] = int(res.counters["dist_evals"])
    out["core.depexact.exact_dependent.s"] = secs("core.depexact.exact_dependent")
    out["core.labels.finalize.s"] = secs("core.labels.finalize")
    out["core.distutil.sq_dists.calls"] = calls("core.distutil.sq_dists")
    out["core.distutil.sq_dists.s"] = secs("core.distutil.sq_dists")
    out["core.approx_dpc.n_cells"] = int(results["approx_dpc"].counters["n_cells"])
    out["core.approx_dpc.n_pprime"] = int(results["approx_dpc"].counters["n_pprime"])
    out["core.s_approx_dpc.n_roots"] = int(results["s_approx_dpc"].counters["n_roots"])
    return out


def write_spans(path, tracers: list[Tracer], seed: int) -> None:
    """Write the spans of all traced cycles as columns to an ``.npz`` file.

    ``names`` is the name table; per span ``name`` indexes it, ``parent``
    indexes the rows (-1 for none) and ``cycle`` numbers the traced cycle.
    """
    names = sorted({n for t in tracers for n in t.names})
    idx = {n: i for i, n in enumerate(names)}
    cols = {"name": [], "start": [], "end": [], "parent": [], "cycle": []}
    offset = 0
    for k, t in enumerate(tracers):
        c = t.columns()
        remap = np.array([idx[n] for n in t.names] or [0], dtype=np.int64)
        cols["name"].append(remap[c["name"]])
        cols["start"].append(c["start"])
        cols["end"].append(c["end"])
        cols["parent"].append(np.where(c["parent"] >= 0, c["parent"] + offset, -1))
        cols["cycle"].append(np.full(len(c["name"]), k, dtype=np.int64))
        offset += len(c["name"])
    np.savez(path, names=np.array(names), seed=seed,
             **{k: np.concatenate(v) for k, v in cols.items()})
