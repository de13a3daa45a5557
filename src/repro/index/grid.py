"""Uniform grid over non-empty cells (§4.1 / §5 data structure).

Approx-DPC uses side length ``d_cut/sqrt(d)`` (so any two points in the
same cell are within ``d_cut``); S-Approx-DPC scales it by its
approximation parameter ε. Only non-empty cells materialise — the grid
is built "online" from the data exactly as in the paper, via a
vectorised ``np.unique`` over integer cell coordinates.
"""
from __future__ import annotations

import numpy as np

__all__ = ["UniformGrid", "cell_side", "group_by", "take_groups"]


def group_by(labels: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Counting sort: ``order[offsets[g]:offsets[g + 1]]`` are the ids
    labelled ``g``, ascending."""
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=n_groups)
    return order, np.concatenate([[0], np.cumsum(counts)])


def take_groups(order: np.ndarray, offsets: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The members ``order[offsets[g]:offsets[g + 1]]`` of each group in
    ``groups``, concatenated in that order, in one gather."""
    lens = offsets[groups + 1] - offsets[groups]
    ends = np.cumsum(lens)
    return order[np.arange(lens.sum()) + np.repeat(offsets[groups] - ends + lens, lens)]


def cell_side(d_cut: float, d: int, eps: float = 1.0) -> float:
    """Side length of a grid cell: eps * d_cut / sqrt(d)."""
    return eps * d_cut / np.sqrt(d)


class UniformGrid:
    """Maps each point to its non-empty cell; cells are 0..m-1.

    Attributes
    ----------
    cell_of : (n,) int64 — cell index of each point.
    m : number of non-empty cells.
    order, offsets : ``order[offsets[c]:offsets[c + 1]]`` are the point
        ids in cell ``c``, ascending (``members(c)``).
    """

    def __init__(self, points: np.ndarray, side: float):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if side <= 0:
            raise ValueError("side must be positive")
        self.side = float(side)
        self.n, self.d = points.shape
        scaled = points / self.side
        # int64 cell coordinates, with a margin below the cast's 2**63 overflow
        if np.abs(scaled).max() >= 2.0**62:
            raise ValueError("points are too far from the origin for cells of this side")
        icoords = np.floor(scaled).astype(np.int64)
        uniq, inverse = np.unique(icoords, axis=0, return_inverse=True)
        self.cell_of = inverse.astype(np.int64)
        self.m = len(uniq)
        self.order, self.offsets = group_by(self.cell_of, self.m)

    def members(self, c: int) -> np.ndarray:
        s, e = self.offsets[c], self.offsets[c + 1]
        return self.order[s:e]

    def memory_bytes(self) -> int:
        return self.cell_of.nbytes + self.order.nbytes + self.offsets.nbytes
