"""Parallelization substrate: load balancing + Spark task fan-out."""
from repro.par.partition import lpt_assign
from repro.par.spark_map import run_phase, run_tasks

__all__ = ["lpt_assign", "run_phase", "run_tasks"]
