"""The kd-tree of DPC (Bentley [8] style), static and refillable.

* :class:`KDTree` — bulk-built: median split on the widest dimension,
  points permuted into contiguous leaf slices, ids ascending per leaf.
  Its *leaf table* (each leaf's slot range and bounding box) serves
  every ρ phase (``leaf_join``) and the exact δ of Approx-DPC's P′ and
  S-Approx-DPC's roots (``core.depexact``) without a traversal:
  ``box_lower_bounds`` bounds query boxes against every leaf
  box, as in dual-tree search at leaf granularity (Gray & Moore 2000).
  ``range_query``, ``range_count`` and ``nn_with_bound`` are traversals
  no algorithm calls; the benchmark's tracer looks them up by name.

* :class:`IncrementalKDTree` — the same tree emptied and refilled one
  point at a time for Ex-DPC's dependent-point phase (§3: "destroy K",
  then re-insert in descending density order, one NN query per point).
  Emptying sets the tree's own slots to +inf, so an empty slot is
  simply infinitely far; ``refill`` runs the whole insert/NN loop.

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
from repro.index.grid import group_by, take_groups

__all__ = ["KDTree", "IncrementalKDTree", "box_lower_bounds", "leaf_join"]

_INF = float("inf")


def box_lower_bounds(qlo, qhi, lo, hi) -> np.ndarray:
    """(queries, leaves) squared distances from box ``qlo[i]``..``qhi[i]`` (a point
    if equal) to leaf box ``lo[:, b]``..``hi[:, b]``: a lower bound for their points,
    summed in another order than ``sq_dists``, so filters pad it by a relative 1e-9."""
    lb = np.zeros((len(qlo), lo.shape[1]))
    for k in range(len(lo)):  # one dimension at a time
        g = np.maximum(lo[k] - qhi[:, k, None], qlo[:, k, None] - hi[k])
        np.maximum(g, 0.0, out=g)
        lb += g * g
    return lb


def leaf_join(p: dict, block: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(ids, within): the points of every leaf of ``p`` (``leaf_table`` + ``pts``) whose box
    is within r of ``block``'s box, and within[i, j] = dist(block[i], ids[j]) < r."""
    q = p["pts"][block]
    lb = box_lower_bounds(q.min(axis=0)[None], q.max(axis=0)[None], p["lo"], p["hi"])[0]
    ids = take_groups(p["perm"], p["edges"], np.flatnonzero(lb < r * r * (1.0 + 1e-9)))
    return ids, sq_dists(q, p["pts"][ids]) < r * r


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
        self.points = points  # the input, by reference
        self.ppts = points[perm]  # contiguous leaf slices
        # The leaf table: leaf b holds slots edges[b]:edges[b + 1] and its
        # box spans lo[:, b]..hi[:, b] (one row per dimension).
        starts = np.sort([s for s, ax in zip(start, axis) if ax < 0])
        self.edges = np.append(starts, self.n)
        self.lo = np.minimum.reduceat(self.ppts, starts).T.copy()
        self.hi = np.maximum.reduceat(self.ppts, starts).T.copy()

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

    def leaf_blocks(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``ids`` grouped by the leaf holding each id.

        ``order[bounds[b]:bounds[b + 1]]`` are the positions, ascending, of
        the ids in the b-th non-empty leaf.
        """
        slot = np.empty(self.n, dtype=np.int64)
        slot[self.perm] = np.arange(self.n, dtype=np.int64)
        leaf = np.searchsorted(self.edges, slot[ids], side="right") - 1
        order, offsets = group_by(leaf, len(self.edges) - 1)
        return order, np.unique(offsets)

    def leaf_table(self) -> dict:
        """The leaf table as plain arrays, for a kernel's payload: ``perm``
        (slot -> id), ``edges``, ``lo`` and ``hi``."""
        return {"perm": self.perm, "edges": self.edges, "lo": self.lo, "hi": self.hi}

    def nn_with_bound(self, q: np.ndarray, bound2: float) -> tuple[int, float]:
        """Nearest point with squared distance below ``bound2`` (exclusive).

        Subtrees farther than the bound are pruned. Returns (id, squared
        distance), the smallest id among equally near points, or
        (-1, bound2) if nothing beats the bound.
        """
        best_id, best2, nde = self._nn(q, bound2, self._count)
        self.dist_evals += nde
        return best_id, best2

    def _nn(self, q, best2: float, count: list) -> tuple[int, float, int]:
        """The one NN traversal: (id, squared distance, dist_evals).

        Searches the subtrees whose ``count`` is positive for a point
        nearer than ``best2``; ties go to the smallest id. An emptied
        slot holds +inf coordinates, so it is never nearer than anything
        and costs no ``dist_evals``: a leaf counts ``count`` points.
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
                s = start[nid]
                diff = ppts[s:end[nid]] - q
                dd = np.einsum("ij,ij->i", diff, diff)
                nde += count[nid]
                i = dd.argmin()
                d2 = dd.item(i)
                if d2 < best2 or (d2 == best2 and perm.item(s + i) < best_id):
                    best2 = d2
                    best_id = perm.item(s + i)
        return best_id, best2, nde

    # -- accounting ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._axis)

    def memory_bytes(self) -> int:
        """Approximate resident size of the structure (excl. the input)."""
        per_node = 8 * 7  # axis/split/left/right/start/end/count 64-bit slots
        table = self.edges.nbytes + self.lo.nbytes + self.hi.nbytes
        return self.n_nodes * per_node + self.perm.nbytes + self.ppts.nbytes + table


class IncrementalKDTree:
    """A :class:`KDTree` emptied, then refilled one point at a time.

    Emptying the tree ("destroy K") sets every slot of its own ``ppts``
    to +inf, so an empty slot is simply infinitely far: the shared NN
    traversal never returns it and needs no mask. ``insert`` writes the
    point's coordinates back from ``tree.points`` and bumps a count per
    node, which lets the traversal skip empty subtrees and count
    ``dist_evals`` over inserted points only. The tree keeps the static
    tree's shape, so no insertion order can unbalance it, and once every
    point is back its ``ppts`` is bit-equal to the static tree's.
    """

    def __init__(self, tree: KDTree):
        self.tree = tree
        self.dist_evals = 0
        self._count = [0] * tree.n_nodes
        self._slot = np.empty(tree.n, dtype=np.int64)  # point id -> slot
        self._slot[tree.perm] = np.arange(tree.n, dtype=np.int64)
        tree.ppts[:] = _INF

    def __len__(self) -> int:
        return self._count[0]

    def insert(self, point_id: int) -> None:
        """Insert indexed point ``point_id``; O(depth)."""
        t = self.tree
        axis, left, right, end = t._axis, t._left, t._right, t._end
        count = self._count
        slot = int(self._slot[point_id])
        t.ppts[slot] = t.points[point_id]
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
        best_id, best2, nde = self.tree._nn(q, _INF, self._count)
        self.dist_evals += nde
        return best_id, best2

    def refill(self, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insert the points of ``order`` one by one, each after an NN query
        against the points inserted before it (Ex-DPC's dependent points).

        Returns (dep, d2) over all point ids: the nearest earlier point and
        its squared distance, as :meth:`nn` would give; (-1, inf) for
        points not queried or queried against an empty tree.
        """
        dep = np.full(self.tree.n, -1, dtype=np.int64)
        d2 = np.full(self.tree.n, _INF)
        points, count, nn, insert = self.tree.points, self._count, self.nn, self.insert
        for i in order.tolist():
            if count[0]:
                dep[i], d2[i] = nn(points[i])
            insert(i)
        return dep, d2

    def memory_bytes(self) -> int:
        """Counts per node and the id→slot map; nodes and slots are the tree's."""
        return 8 * len(self._count) + self._slot.nbytes
