"""Noise / cluster-center selection and label propagation (§2.1 step 4).

``finalize`` turns (rho, delta, dep) into centers, noise mask and labels
with the paper's semantics: noise points have raw rho < rho_min; cluster
centers are non-noise points with delta >= delta_min; every other point
gets the label of the first center on its chain of dependent points,
found for all points at once by pointer jumping over the dependency
forest. Propagation passes *through* noise points (they sit on
dependency chains) and they are relabelled -1 afterwards; points whose
chain meets no center (it ends at a root that is not one, or loops, as
approximate dependent points can, e.g. LSH-DDP cycles) also stay -1.

Every algorithm returns through :func:`result`, which runs ``finalize``
as the "assign" phase of a :class:`PhaseClock` and owns Table 6's timing
rule: building an index online counts as ρ time.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.types import DPCParams, DPCResult

__all__ = ["PhaseClock", "finalize", "propagate_labels", "result", "select_centers"]


def select_centers(
    rho_raw: np.ndarray, delta: np.ndarray, params: DPCParams
) -> tuple[np.ndarray, np.ndarray]:
    """Return (centers ids ascending, noise bool mask)."""
    noise = rho_raw < params.rho_min
    centers = np.flatnonzero(~noise & (delta >= params.delta_min))
    return centers.astype(np.int64), noise


def propagate_labels(
    dep: np.ndarray, centers: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Label each point with the first center on its chain of dependent points.

    Center i gets label equal to its position in ``centers`` (so labels
    are stable across algorithms that agree on centers). Noise is -1.
    Pointer jumping: ``up`` starts as ``dep``, with every center and
    root pointing to itself, and ``up = up[up]`` doubles the steps each
    round until it stops changing; ⌊log₂ n⌋ + 1 rounds reach the end of
    any chain that has one (a chain that loops without a center may
    never settle, and ends on a non-center). A center below another
    center stops the chain, so no center's tree absorbs another's.
    """
    n = len(dep)
    cid = np.full(n, -1, dtype=np.int64)
    cid[centers] = np.arange(len(centers), dtype=np.int64)
    up = np.where((dep < 0) | (cid >= 0), np.arange(n), dep)
    for _ in range(n.bit_length()):
        nxt = up[up]
        if np.array_equal(nxt, up):
            break
        up = nxt
    labels = cid[up]
    labels[noise] = -1
    return labels


def finalize(
    rho_raw: np.ndarray,
    delta: np.ndarray,
    dep: np.ndarray,
    params: DPCParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, noise, labels) from the three DPC quantities."""
    centers, noise = select_centers(rho_raw, delta, params)
    labels = propagate_labels(dep, centers, noise)
    return centers, noise, labels


class PhaseClock:
    """Wall time per phase of one run.

    The clock starts when it is made; ``mark(name)`` ends the phase that
    began at the previous mark (or at the start).
    """

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.phases: dict[str, float] = {}

    def mark(self, phase: str) -> None:
        now = time.perf_counter()
        self.phases[phase] = now - self.last
        self.last = now


def result(
    rho: np.ndarray,
    delta: np.ndarray,
    dep: np.ndarray,
    params: DPCParams,
    clock: PhaseClock,
    *,
    counters: dict,
    memory_bytes: int = 0,
) -> DPCResult:
    """The :class:`DPCResult` of one run, with ``finalize`` timed as "assign".

    A "build" phase is also folded into "rho" (Table 6 counts the online
    index build as ρ time); "total" runs from the clock's start.
    """
    centers, noise, labels = finalize(rho, delta, dep, params)
    clock.mark("assign")
    timings = dict(clock.phases)
    if "build" in timings:
        timings["rho"] += timings["build"]
    timings["total"] = clock.last - clock.start
    return DPCResult(
        rho=rho,
        delta=delta,
        dep=dep,
        centers=centers,
        noise=noise,
        labels=labels,
        timings=timings,
        counters=counters,
        memory_bytes=memory_bytes,
    )
