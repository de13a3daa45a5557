"""Spatial index substrates built from scratch (no scipy).

The paper's algorithms depend on a kd-tree (bulk-built, then emptied
and refilled for Ex-DPC's δ phase), an R-tree baseline, and uniform
grids; all are implemented here with numpy-vectorised leaf scans and
Python-level traversal, and each tracks ``dist_evals`` (point-point
distance evaluations) so experiments can report a machine-independent
work metric alongside wall clock.
"""
from repro.index.grid import UniformGrid
from repro.index.kdtree import IncrementalKDTree, KDTree
from repro.index.rtree import RTree

__all__ = ["KDTree", "IncrementalKDTree", "RTree", "UniformGrid"]
