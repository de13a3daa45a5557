"""Correctness gate applied to every timed call.

* Ex-DPC: ρ, δ, dep (and so centers and labels) bit-equal to the serial
  ground truth computed in set-up; on a Spark workload this is also the
  serial-versus-Spark agreement check.
* Approx-DPC: ρ and cluster centers identical to Ex-DPC (Theorem 4).
* S-Approx-DPC: one integer label per point, and a Rand index against
  the ground truth at or above :data:`S_APPROX_RAND_FLOOR`.
"""
from __future__ import annotations

import numpy as np

from repro.core.rand_index import rand_index

__all__ = ["check", "S_APPROX_RAND_FLOOR"]

# S-Approx-DPC trades accuracy for speed (paper Table 5: Rand 0.99+ at the
# chosen ε on every dataset). A result below this floor is a failure.
S_APPROX_RAND_FLOOR = 0.95


def _labels_ok(labels, n) -> bool:
    return (
        isinstance(labels, np.ndarray)
        and labels.shape == (n,)
        and np.issubdtype(labels.dtype, np.integer)
    )


def check(alg: str, res, gt) -> tuple[list[str], float]:
    """(problems, Rand index against the ground truth) of one result."""
    n = len(gt.rho)
    errors = []
    if not _labels_ok(res.labels, n):
        return [f"{alg}: labels are not one integer per point"], float("nan")
    ri = rand_index(res.labels, gt.labels)
    if alg == "ex_dpc":
        for field in ("rho", "delta", "dep", "centers", "labels"):
            if not np.array_equal(getattr(res, field), getattr(gt, field)):
                errors.append(f"ex_dpc: {field} differs from the ground truth")
    elif alg == "approx_dpc":
        for field in ("rho", "centers"):
            if not np.array_equal(getattr(res, field), getattr(gt, field)):
                errors.append(f"approx_dpc: {field} differs from Ex-DPC (Theorem 4)")
    elif alg == "s_approx_dpc":
        if not ri >= S_APPROX_RAND_FLOOR:
            errors.append(f"s_approx_dpc: Rand index {ri:.4f} < {S_APPROX_RAND_FLOOR}")
    else:
        raise KeyError(alg)
    return errors, ri
