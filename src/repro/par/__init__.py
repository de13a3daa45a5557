"""Parallelization substrate: load balancing + Spark task fan-out."""
