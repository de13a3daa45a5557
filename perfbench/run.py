"""Benchmark of the paper's three DPC algorithms, end to end and per layer.

    python3 perfbench/run.py --workload airline-serial --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The load is a closed loop with one
client: after set-up, one driver process calls Ex-DPC, Approx-DPC and
S-Approx-DPC one after another, each call waiting for the previous one,
and repeats the cycle until ``--seconds`` would be exceeded (at least one
cycle, three with ``--trace 1``). Cycle k uses dataset k mod 3 of the
seed's three (with ``--trace 1``, cycles come in threes that share one).
Every timed call passes through the correctness gate
(``perfbench/gate.py``); a call that raises or fails it counts in
``failed`` and lowers ``gate_pass_frac``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs cycles in threes, untraced, traced and untraced, and
reports the per-layer metrics of the traced ones (``perfbench/spans.py``).
The first untraced cycle of a three absorbs what warm-up left undone; the
tracing overhead per algorithm is the traced wall time minus that of the
untraced cycle just after it, on the same dataset.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table and the machine and config record. Progress
goes to standard error. The full run record and the spans are written
under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER_DIR = OUT / "worker-spans"  # span totals left by Spark workers

ALGS = ("ex_dpc", "approx_dpc", "s_approx_dpc")

# (name, unit) of every end-to-end metric, in output order.
END_TO_END = [
    ("setup_s", "s"),
    *[(f"{a}_s", "s") for a in ALGS],
    *[(f"{a}_index_mb", "MB") for a in ALGS],
    ("peak_rss_mb", "MB"),
    ("approx_dpc_rand", "ratio"),
    ("s_approx_dpc_rand", "ratio"),
    ("gate_pass_frac", "ratio"),
]


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def algorithms() -> dict:
    """The timed calls: algorithm name -> fn(dataset, params, spark)."""
    from repro.core.approx_dpc import approx_dpc
    from repro.core.exdpc import ex_dpc
    from repro.core.s_approx_dpc import s_approx_dpc

    return {
        "ex_dpc": lambda ds, p, spark: ex_dpc(ds.points, p, spark=spark),
        "approx_dpc": lambda ds, p, spark: approx_dpc(ds.points, p, spark=spark),
        "s_approx_dpc": lambda ds, p, spark: s_approx_dpc(
            ds.points, p, ds.eps_default, spark=spark
        ),
    }


def measure(setup, algs: dict, seconds: float, trace: bool):
    """Run the closed loop; return (calls, per-layer rows, tracers)."""
    from perfbench import gate
    from perfbench.spans import ALG_SPANS, Tracer, instrument, layer_metrics

    calls, rows, tracers = [], [], []
    period = 3 if trace else 1  # untraced, traced, untraced control
    t_start = time.perf_counter()
    cycle = 0
    while True:
        traced = trace and cycle % period == 1
        control = trace and cycle % period == 2
        ds, gt, params = setup.data[(cycle // period) % len(setup.data)]
        tracer = Tracer() if traced else None
        results = {}
        for alg, fn in algs.items():
            gc.collect()
            res, errors = None, []
            with instrument(tracer, WORKER_DIR) if traced else nullcontext():
                t0 = time.perf_counter()
                try:
                    with tracer.span(ALG_SPANS[alg]) if traced else nullcontext():
                        res = fn(ds, params, setup.spark)
                except Exception as exc:  # a failed call is counted, not fatal
                    errors = [f"{alg} raised {exc!r}"]
                    log(traceback.format_exc())
                secs = time.perf_counter() - t0
            rand = float("nan")
            if res is not None:
                try:
                    errors, rand = gate.check(alg, res, gt)
                except Exception as exc:
                    errors = [f"{alg}: gate could not read the result: {exc!r}"]
            for e in errors:
                log(f"FAILED {e}")
            calls.append({
                "alg": alg, "cycle": cycle, "traced": traced, "control": control,
                "dataset": ds.seed,
                "secs": secs,
                "ok": not errors, "errors": errors, "rand": rand,
                "index_mb": res.memory_bytes / 2**20 if res is not None else float("nan"),
            })
            results[alg] = res
            log(f"cycle {cycle} {'traced ' if traced else ''}{alg}: {secs:.3f} s"
                f"{'' if not errors else ' FAILED'}")
        if traced:
            tracers.append(tracer)
            if all(c["ok"] for c in calls if c["cycle"] == cycle):
                rows.append(layer_metrics(tracer, results))
        cycle += 1
        elapsed = time.perf_counter() - t_start
        if cycle >= period and elapsed * (cycle + 1) / cycle > seconds:
            return calls, rows, tracers


def _median(xs) -> float:
    xs = [x for x in xs if x == x]  # drop NaN
    return float(statistics.median(xs)) if xs else float("nan")


def end_to_end_metrics(setup, calls) -> dict[str, float]:
    plain = [c for c in calls if not c["traced"]]
    out = {"setup_s": setup.seconds}
    for a in ALGS:
        out[f"{a}_s"] = _median(c["secs"] for c in plain if c["alg"] == a)
    for a in ALGS:
        out[f"{a}_index_mb"] = _median(c["index_mb"] for c in plain if c["alg"] == a)
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for a in ("approx_dpc", "s_approx_dpc"):
        out[f"{a}_rand"] = _median(c["rand"] for c in plain if c["alg"] == a)
    out["gate_pass_frac"] = sum(c["ok"] for c in calls) / len(calls)
    return out


def per_layer_metrics(calls, rows) -> dict[str, float]:
    from perfbench.spans import PER_LAYER

    out = {name: _median(r[name] for r in rows) for name, _ in PER_LAYER
           if not name.startswith("trace.")}
    for a in ALGS:
        t = _median(c["secs"] for c in calls if c["traced"] and c["alg"] == a)
        u = _median(c["secs"] for c in calls if c["control"] and c["alg"] == a)
        out[f"trace.{a}_s.overhead"] = t - u
    return out


def _java_version() -> str:
    home = os.environ.get("JAVA_HOME")
    java = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if java is None:
        return "none"
    try:
        p = subprocess.run([java, "-XX:-UsePerfData", "-version"], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = (p.stderr or p.stdout).strip().splitlines()
    return lines[0] if lines else "unknown"


def machine_record(args, w, setup) -> dict:
    import numpy
    import pyspark

    from perfbench.workloads import dataset_seeds

    mem_kb = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    spark = setup.spark
    ds = setup.data[0][0]
    return {
        "cores": os.cpu_count(),
        "memory_gb": round(mem_kb / 2**20, 1),
        "spark_master": spark.sparkContext.master if spark is not None else "none (serial)",
        "spark_default_parallelism": (
            spark.sparkContext.defaultParallelism if spark is not None else None
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "java": _java_version(),
        "platform": platform.platform(),
        "workload": w.name,
        "dataset": w.dataset,
        "scale": w.scale if not args.tiny else "tiny",
        "seed": args.seed,
        "generator_seeds": dataset_seeds(args.seed),
        "n": ds.n,
        "d": ds.d,
        "d_cut": ds.d_cut,
        "seconds": args.seconds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="500-point inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no src/repro under {ROOT}: run from a checkout of the repository")
        return 2
    for p in (str(SRC), str(ROOT)):
        if p not in sys.path:
            sys.path.insert(0, p)
    from perfbench.spans import PER_LAYER, write_spans
    from perfbench.workloads import WORKLOADS, LocalSpark, set_up

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    w = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    # The workers import the program and, in a traced run, perfbench.spans.
    worker_path = [SRC, ROOT] if args.trace else [SRC]
    owner = LocalSpark(worker_path, OUT) if w.spark else None
    try:
        setup = set_up(w, args.seed, owner, tiny=args.tiny, log=log)
        calls, rows, tracers = measure(
            setup, algorithms(), args.seconds, bool(args.trace)
        )
        record = machine_record(args, w, setup)
    finally:
        if owner is not None:
            owner.close()

    if args.trace:
        values, units = per_layer_metrics(calls, rows), dict(PER_LAYER)
    else:
        values, units = end_to_end_metrics(setup, calls), dict(END_TO_END)
    # A metric is NaN only when every call feeding it failed; the result
    # line stays valid JSON and the run is reported incorrect.
    missing = [name for name in units if not math.isfinite(values[name])]
    for name in missing:
        log(f"FAILED no value for {name}: every call feeding it failed")
    metrics = {
        name: {"value": values[name] if name not in missing else 0.0, "unit": unit}
        for name, unit in units.items()
    }
    failed = sum(not c["ok"] for c in calls)
    result = {
        "correct": failed == 0 and not setup.errors and not missing,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }
    for e in setup.errors:
        log(f"FAILED {e}")

    run_record = {"config": record, "spark_start_s": setup.spark_s,
                  "data_setup_s": setup.data_s,
                  "ground_truth_errors": setup.errors, "calls": calls, "result": result}
    (OUT / f"run-{w.name}-trace{args.trace}.json").write_text(
        json.dumps(run_record, indent=1, default=str)
    )
    if tracers:
        write_spans(OUT / f"spans-{w.name}.npz", tracers, args.seed)

    print(f"# config {json.dumps(record)}")
    for name, m in metrics.items():
        print(f"# {name:36s} {m['value']:>16.6g} {m['unit']}")
    if args.trace and w.spark:
        print("# index.* and core.distutil.* include the calls made in Spark's Python "
              "workers, their seconds summed over the workers")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
