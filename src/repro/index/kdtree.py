"""The kd-tree of DPC (Bentley [8] style), static and refillable.

* :class:`KDTree` — bulk-built, used for range searches. The local
  density of Ex-DPC / Approx-DPC / S-Approx-DPC is one ``block_query``
  per block of query points that lie in one leaf (``leaf_blocks``): one
  traversal for the whole block, then one vectorised distance matrix.
  Approx-DPC's exact δ reads the leaves directly (``leaf_starts``,
  ``perm``, ``ppts``) and traverses nothing.
  Median split on the widest dimension, points permuted into contiguous
  leaf slices so leaf scans are numpy-vectorised; internal traversal is
  Python-level with split-plane pruning. Each leaf holds its ids in
  ascending order.

* :class:`IncrementalKDTree` — the same tree emptied and refilled one
  point at a time for Ex-DPC's dependent-point phase (§3: "destroy K",
  then re-insert in descending density order, one NN query per point).

Both answer NN queries with one traversal and one tie rule: nearest,
then smallest id. A subtree is pruned only when its split plane is
*farther* than the best so far (an equally near, smaller id may lie
behind a plane at exactly that distance), and ``argmin`` over a leaf's
id-sorted slice picks the smallest id among equally near points.

Both count ``dist_evals`` — the number of point-point distance
evaluations — which experiments report as a machine-independent cost.
"""
from __future__ import annotations

import numpy as np

from repro.core.distutil import sq_dists
from repro.index.grid import group_by

__all__ = ["KDTree", "IncrementalKDTree"]

_INF = float("inf")


class KDTree:
    """Static kd-tree over an (n, d) float array.

    Parameters
    ----------
    points : np.ndarray
        (n, d) float64 coordinates. Row index is the point id.
    leaf_size : int
        Max points per leaf; leaves are scanned vectorised.
    """

    def __init__(self, points: np.ndarray, leaf_size: int = 32):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self.n, self.d = points.shape
        self.leaf_size = int(leaf_size)
        self.dist_evals = 0

        perm = np.arange(self.n, dtype=np.int64)
        # Node arrays; axis == -1 marks a leaf.
        axis: list[int] = []
        split: list[float] = []
        left: list[int] = []
        right: list[int] = []
        start: list[int] = []
        end: list[int] = []

        # Iterative build: stack of (start, end, parent, is_right); the
        # parent's child slot is patched with the new node id.
        stack = [(0, self.n, -1, False)]
        while stack:
            s, e, parent, is_right = stack.pop()
            nid = len(axis)
            if parent >= 0:
                if is_right:
                    right[parent] = nid
                else:
                    left[parent] = nid
            left.append(-1)
            right.append(-1)
            start.append(s)
            end.append(e)
            if e - s <= self.leaf_size:
                perm[s:e] = np.sort(perm[s:e])  # argmin picks the smallest id
                axis.append(-1)
                split.append(0.0)
                continue
            sl = points[perm[s:e]]
            ax = int(np.argmax(sl.max(axis=0) - sl.min(axis=0)))
            mid = (s + e) // 2
            order = np.argpartition(sl[:, ax], mid - s)
            perm[s:e] = perm[s:e][order]
            axis.append(ax)
            split.append(float(points[perm[mid], ax]))
            stack.append((s, mid, nid, False))
            stack.append((mid, e, nid, True))

        self._axis = axis
        self._split = split
        self._left = left
        self._right = right
        self._start = start
        self._end = end
        self._count = [e - s for s, e in zip(start, end)]
        self.perm = perm
        self.ppts = points[perm]  # contiguous leaf slices

    # -- queries ---------------------------------------------------------

    def range_count(self, q: np.ndarray, r: float) -> int:
        """Number of indexed points with dist(q, p) < r (strict)."""
        return len(self.range_query(q, r))

    def range_query(self, q: np.ndarray, r: float) -> np.ndarray:
        """Ids of indexed points with dist(q, p) < r (strict), unsorted."""
        r2 = r * r
        axis, split = self._axis, self._split
        left, right = self._left, self._right
        start, end, ppts, perm = self._start, self._end, self.ppts, self.perm
        stack = [0]
        hits: list[np.ndarray] = []
        nde = 0
        while stack:
            nid = stack.pop()
            ax = axis[nid]
            if ax < 0:
                s, e = start[nid], end[nid]
                diff = ppts[s:e] - q
                dd = np.einsum("ij,ij->i", diff, diff)
                m = dd < r2
                if m.any():
                    hits.append(perm[s:e][m])
                nde += e - s
                continue
            sp = split[nid]
            qa = q[ax]
            if qa - r < sp:
                stack.append(left[nid])
            if qa + r >= sp:
                stack.append(right[nid])
        self.dist_evals += nde
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(hits)

    def block_query(
        self, points: np.ndarray, block: np.ndarray, r: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """One range search for a block of indexed points: (ids, within).

        ``points`` is the array the tree was built on and ``block`` the ids
        of the query points; ``within[i, j]`` is dist(block[i], ids[j]) < r.
        One ``range_query`` at the centre of the block's bounding box, with
        radius r plus the block's radius, returns a superset of every
        member's ball (padded by a relative 1e-9: it filters on rounded
        ``sqrt`` distances); one ``sq_dists`` matrix then tests each pair.
        """
        q = points[block]
        centre = (q.min(axis=0) + q.max(axis=0)) / 2
        rad = float(np.sqrt(sq_dists(centre[None, :], q).max()))
        ids = self.range_query(centre, (r + rad) * (1.0 + 1e-9))
        within = sq_dists(q, points[ids]) < r * r
        self.dist_evals += within.size
        return ids, within

    def leaf_blocks(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``ids`` grouped by the leaf holding each id.

        ``order[bounds[b]:bounds[b + 1]]`` are the positions, ascending, of
        the ids in the b-th non-empty leaf. The layout is built per call;
        the tree keeps no per-point array but ``perm``.
        """
        slot = np.empty(self.n, dtype=np.int64)
        slot[self.perm] = np.arange(self.n, dtype=np.int64)
        starts = self.leaf_starts()
        leaf = np.searchsorted(starts, slot[ids], side="right") - 1
        order, offsets = group_by(leaf, len(starts))
        return order, np.unique(offsets)

    def leaf_starts(self) -> np.ndarray:
        """First slot of each leaf, ascending; leaves are never empty."""
        return np.sort([s for s, ax in zip(self._start, self._axis) if ax < 0])

    def nn_with_bound(self, q: np.ndarray, bound2: float) -> tuple[int, float]:
        """Nearest point with squared distance below ``bound2`` (exclusive).

        Subtrees farther than the bound are pruned. Returns (id, squared
        distance), the smallest id among equally near points, or
        (-1, bound2) if nothing beats the bound.
        """
        best_id, best2, nde = self._nn(q, bound2, self._count, None)
        self.dist_evals += nde
        return best_id, best2

    def _nn(self, q, best2: float, count: list, live) -> tuple[int, float, int]:
        """The one NN traversal: (id, squared distance, dist_evals).

        Searches the slots ``live`` marks (all slots when None) in the
        subtrees whose ``count`` is positive, for a point nearer than
        ``best2``; ties go to the smallest id.
        """
        q = np.asarray(q, dtype=np.float64)
        ql = q.tolist()
        axis, split = self._axis, self._split
        left, right = self._left, self._right
        start, end, ppts, perm = self._start, self._end, self.ppts, self.perm
        best_id = -1
        stack = [(0, 0.0)]
        nde = 0
        while stack:
            nid, b2 = stack.pop()
            if b2 > best2 or not count[nid]:
                continue
            ax = axis[nid]
            while ax >= 0:
                diff = ql[ax] - split[nid]
                if diff < 0.0:
                    near, far = left[nid], right[nid]
                else:
                    near, far = right[nid], left[nid]
                b2 = diff * diff
                if b2 <= best2 and count[far]:
                    stack.append((far, b2))
                nid = near
                if not count[nid]:
                    break
                ax = axis[nid]
            else:
                s, e = start[nid], end[nid]
                diff = ppts[s:e] - q
                dd = np.einsum("ij,ij->i", diff, diff)
                nde += count[nid]  # live points only: empty slots cost nothing
                if count[nid] < e - s:
                    dd[~live[s:e]] = _INF
                i = int(np.argmin(dd))
                d2 = float(dd[i])
                if d2 < best2 or (d2 == best2 and perm[s + i] < best_id):
                    best2 = d2
                    best_id = int(perm[s + i])
        return best_id, best2, nde

    # -- accounting ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._axis)

    def memory_bytes(self) -> int:
        """Approximate resident size of the structure (excl. the input)."""
        per_node = 8 * 7  # axis/split/left/right/start/end/count 64-bit slots
        return self.n_nodes * per_node + self.perm.nbytes + self.ppts.nbytes


class IncrementalKDTree:
    """A :class:`KDTree` emptied, then refilled one point at a time.

    Only the points inserted so far are searched: a live count per node
    lets the shared NN traversal skip empty subtrees, and a live mask
    per slot masks the empty slots of partly filled leaves. The tree's
    shape is the static tree's, so no insertion order can unbalance it.
    """

    def __init__(self, tree: KDTree):
        self.tree = tree
        self.dist_evals = 0
        self._count = [0] * tree.n_nodes
        self._live = np.zeros(tree.n, dtype=bool)
        self._slot = np.empty(tree.n, dtype=np.int64)  # point id -> slot
        self._slot[tree.perm] = np.arange(tree.n, dtype=np.int64)

    def __len__(self) -> int:
        return self._count[0]

    def insert(self, point_id: int) -> None:
        """Insert indexed point ``point_id``; O(depth)."""
        t = self.tree
        axis, left, right, end = t._axis, t._left, t._right, t._end
        count = self._count
        slot = int(self._slot[point_id])
        self._live[slot] = True
        nid = 0
        count[0] += 1
        while axis[nid] >= 0:
            lo = left[nid]
            nid = lo if slot < end[lo] else right[nid]
            count[nid] += 1

    def nn(self, q) -> tuple[int, float]:
        """Nearest inserted point to ``q``: (id, squared distance).

        Ties go to the smallest id; (-1, inf) if the tree is empty.
        """
        best_id, best2, nde = self.tree._nn(q, _INF, self._count, self._live)
        self.dist_evals += nde
        return best_id, best2

    def memory_bytes(self) -> int:
        """Counts, live mask and id→slot map; the nodes are the tree's."""
        return 8 * len(self._count) + self._live.nbytes + self._slot.nbytes
