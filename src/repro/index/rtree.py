"""STR-bulk-loaded R-tree (Qi et al. [28] style baseline substrate).

Only the operation the "R-tree + Scan" baseline needs is implemented:
``range_count`` (local density). Leaves hold contiguous point slices
(scanned vectorised); inner nodes hold child MBRs and prune with
mindist / maxdist against the query ball, including the
"MBR fully inside the ball → add subtree count without distance
evaluations" shortcut.
"""
from __future__ import annotations

import numpy as np

__all__ = ["RTree"]

_LEAF_SIZE = 64  # points per leaf
_FANOUT = 16  # children per inner node


def _str_order(points: np.ndarray, idx: np.ndarray, n_groups: int, dim: int) -> np.ndarray:
    """Sort-Tile-Recursive ordering: returns ``idx`` permuted so that
    consecutive runs of ``ceil(len/n_groups)`` indices form spatially
    compact tiles."""
    d = points.shape[1]
    if n_groups <= 1 or dim >= d - 1:
        return idx[np.argsort(points[idx, min(dim, d - 1)], kind="stable")]
    order = idx[np.argsort(points[idx, dim], kind="stable")]
    n_slabs = int(np.ceil(n_groups ** (1.0 / (d - dim))))
    slab = int(np.ceil(len(order) / n_slabs))
    parts = []
    for s in range(0, len(order), slab):
        sub = order[s : s + slab]
        g = max(1, int(round(n_groups * len(sub) / max(1, len(order)))))
        parts.append(_str_order(points, sub, g, dim + 1))
    return np.concatenate(parts)


class RTree:
    """R-tree with STR bulk loading.

    Parameters
    ----------
    points : (n, d) float array; row index is the point id.
    """

    def __init__(self, points: np.ndarray):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self.n, self.d = points.shape
        self.points = points
        self.dist_evals = 0

        n_leaves = int(np.ceil(self.n / _LEAF_SIZE))
        perm = _str_order(points, np.arange(self.n, dtype=np.int64), n_leaves, 0)
        self.perm = perm
        self.ppts = points[perm]

        # Level 0: leaves over contiguous slices of ppts.
        starts = np.arange(0, self.n, _LEAF_SIZE)
        ends = np.minimum(starts + _LEAF_SIZE, self.n)
        bmin = np.stack([self.ppts[s:e].min(axis=0) for s, e in zip(starts, ends)])
        bmax = np.stack([self.ppts[s:e].max(axis=0) for s, e in zip(starts, ends)])
        counts = (ends - starts).astype(np.int64)
        # node records: (bmin, bmax, children or (start, end), count, is_leaf)
        self._bmin: list[np.ndarray] = list(bmin)
        self._bmax: list[np.ndarray] = list(bmax)
        self._children: list[list[int] | None] = [None] * len(starts)
        self._slice: list[tuple[int, int] | None] = list(zip(starts.tolist(), ends.tolist()))
        self._count: list[int] = counts.tolist()

        level = list(range(len(starts)))
        while len(level) > 1:
            centers = np.stack(
                [(self._bmin[i] + self._bmax[i]) * 0.5 for i in level]
            )
            n_groups = int(np.ceil(len(level) / _FANOUT))
            order = _str_order(centers, np.arange(len(level), dtype=np.int64), n_groups, 0)
            nxt = []
            for s in range(0, len(order), _FANOUT):
                kids = [level[j] for j in order[s : s + _FANOUT]]
                nid = len(self._bmin)
                self._bmin.append(np.min([self._bmin[k] for k in kids], axis=0))
                self._bmax.append(np.max([self._bmax[k] for k in kids], axis=0))
                self._children.append(kids)
                self._slice.append(None)
                self._count.append(sum(self._count[k] for k in kids))
                nxt.append(nid)
            level = nxt
        self.root = level[0]

    def range_count(self, q: np.ndarray, r: float) -> int:
        """Number of indexed points with dist(q, p) < r (strict)."""
        r2 = r * r
        stack = [self.root]
        cnt = 0
        nde = 0
        bmin, bmax = self._bmin, self._bmax
        children, slc, count = self._children, self._slice, self._count
        ppts = self.ppts
        while stack:
            nid = stack.pop()
            lo, hi = bmin[nid], bmax[nid]
            gap = np.maximum(lo - q, 0.0) + np.maximum(q - hi, 0.0)
            if float(gap @ gap) >= r2:
                continue
            far = np.maximum(np.abs(q - lo), np.abs(q - hi))
            if float(far @ far) < r2:
                cnt += count[nid]  # MBR fully inside the open ball
                continue
            kids = children[nid]
            if kids is None:
                s, e = slc[nid]
                diff = ppts[s:e] - q
                dd = np.einsum("ij,ij->i", diff, diff)
                cnt += int(np.count_nonzero(dd < r2))
                nde += e - s
            else:
                stack.extend(kids)
        self.dist_evals += nde
        return cnt

    @property
    def n_nodes(self) -> int:
        return len(self._bmin)

    def memory_bytes(self) -> int:
        per_node = 8 * (2 * self.d + 3)  # two MBR corners + count + 2 slots
        return self.n_nodes * per_node + self.perm.nbytes + self.ppts.nbytes
