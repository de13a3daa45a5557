"""The paper's tables as fixed points: Tables 2–6 at scale 0.02, serial.

``golden_tables.json`` holds each table's non-timing columns (Table 5
without ``time_s``, Table 6 without its phase times) and, for every
algorithm run the tables make, in call order, the cluster count and
digests of ρ, δ, dep, centers and labels. Rand indices, cluster counts
and digests must match exactly. The work counters ``dist_evals`` and
``memory_mb`` are compared exactly too: they move only together with a
regenerated file, written by

    PYTHONPATH=src python -m tests.test_golden
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import experiments

GOLDEN = Path(__file__).with_name("golden_tables.json")
SCALE = 0.02
_TIMING = ("time_s", "rho_s", "delta_s", "total_s")


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def _record(runs: list, table: str, dataset: str, alg: str, res) -> None:
    runs.append({
        "table": table, "dataset": dataset, "algorithm": alg, "k": len(res.centers),
        **{f: _digest(getattr(res, f)) for f in ("rho", "delta", "dep", "centers", "labels")},
    })


def _cell(v):
    v = v.item() if isinstance(v, np.generic) else v
    return None if isinstance(v, float) and math.isnan(v) else v


def compute() -> dict:
    """Run Tables 2–6 serially at ``SCALE``; the golden file's content."""
    runs: list[dict] = []
    ctx = {"table": "", "dataset": ""}
    ground_truth = experiments.ground_truth
    s_approx = experiments.s_approx_dpc

    def gt_spy(ds, **kw):
        ctx["dataset"] = ds.name
        gt, params = ground_truth(ds, **kw)
        _record(runs, ctx["table"], ds.name, "Ex-DPC (ground truth)", gt)
        return gt, params

    def alg_spy(alg, fn):
        def run(ds, params, **kw):
            res = fn(ds, params, **kw)
            _record(runs, ctx["table"], ds.name, alg, res)
            return res
        return run

    # Table 5 calls s_approx_dpc directly, ALGORITHMS["S-Approx-DPC"] through it
    def s_approx_spy(points, params, eps, **kw):
        res = s_approx(points, params, eps, **kw)
        _record(runs, ctx["table"], ctx["dataset"], f"S-Approx-DPC eps={eps}", res)
        return res

    tables = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "ground_truth", gt_spy)
        mp.setattr(experiments, "s_approx_dpc", s_approx_spy)
        for alg, fn in list(experiments.ALGORITHMS.items()):
            if alg != "S-Approx-DPC":
                mp.setitem(experiments.ALGORITHMS, alg, alg_spy(alg, fn))
        for t in ("table2", "table3", "table4", "table5", "table6"):
            ctx["table"] = t
            df = getattr(experiments, t)(scale=SCALE)
            df = df.drop(columns=[c for c in _TIMING if c in df.columns])
            tables[t] = [{k: _cell(v) for k, v in row.items()} for row in df.to_dict("records")]
    return {"scale": SCALE, "tables": tables, "runs": runs}


def _diff(want, got, path="") -> list[str]:
    """Paths at which two JSON-shaped values differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        keys = sorted(set(want) | set(got), key=str)
        return [d for k in keys for d in _diff(want.get(k), got.get(k), f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in _diff(w, g, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: golden {want!r}, now {got!r}"]


def test_tables_are_fixed_points():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(compute()))  # the file's own round trip
    diffs = _diff(want, got)
    assert not diffs, f"{len(diffs)} cells moved:\n" + "\n".join(diffs[:40])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")
