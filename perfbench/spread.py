"""Run the benchmark on several seeds and summarise every metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--record LABEL]

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median: the figures
the bounds in BENCHMARK.json are judged by. ``--record`` appends the
summary, with the machine and config record of the first run of each
workload, to ``perfbench/trajectory.json`` under LABEL.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, config record) of one benchmark run."""
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    config = next(
        (json.loads(line[len("# config "):]) for line in lines if line.startswith("# config ")),
        {},
    )
    return json.loads(lines[-1]), config


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("nan"), "values": values}


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}

    summary = {}
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        config, failed, attempted, incorrect = {}, 0, 0, 0
        t0 = time.perf_counter()
        for seed in seeds:
            result, cfg = run_once(wl, seed, contract["run_seconds"], args.trace)
            config = config or cfg
            failed += result["failed"]
            attempted += result["attempted"]
            incorrect += not result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        wall = time.perf_counter() - t0
        rows = {name: {**summarise(v), "unit": units[name]} for name, v in values.items()}
        summary[wl] = {"config": config, "seeds": seeds, "attempted": attempted,
                       "failed": failed, "incorrect_runs": incorrect, "wall_s": wall,
                       "metrics": rows}
        print(f"== {wl}: {len(seeds)} runs in {wall:.0f} s; {failed} of {attempted} "
              f"calls failed; {incorrect} runs not correct")
        for name, r in rows.items():
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None else (
                "  ok" if r["spread"] <= bound / 3 else
                "  within bound" if r["spread"] <= bound else "  OVER BOUND")
            print(f"{name:36s} median {r['median']:>12.6g} {r['unit']:6s} "
                  f"q1 {r['q1']:>12.6g} q3 {r['q3']:>12.6g} spread {r['spread']:.3f}"
                  f"{'' if bound is None else f' (bound {bound})'}{flag}")

    if args.record:
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        points.append({"label": args.record, "date": time.strftime("%Y-%m-%d"),
                       "trace": args.trace, "run_seconds": contract["run_seconds"],
                       "workloads": summary})
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
