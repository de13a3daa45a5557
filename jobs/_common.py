"""Shared plumbing for the per-table spark-submit entrypoints.

Each ``jobs/tableN.py`` reproduces one evaluation table: it builds (or
reuses, under spark-submit) a local SparkSession, calls the matching
``repro.experiments.tableN`` function and prints the table. ``--serial``
skips Spark entirely; ``--scale`` shrinks the dataset cardinalities for
quick runs.
"""
from __future__ import annotations

import argparse
import os
import sys


def get_spark():
    """A local[*] SparkSession configured like the test fixture."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("repro-jobs")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def run_table(table_fn, description: str, **extra):
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--scale", type=float, default=1.0, help="cardinality multiplier")
    ap.add_argument("--serial", action="store_true", help="run without Spark")
    args = ap.parse_args()
    spark = None if args.serial else get_spark()
    df = table_fn(scale=args.scale, spark=spark, **extra)
    print(df.to_string(index=False, float_format=lambda v: f"{v:.4f}"))
    if spark is not None:
        spark.stop()
    return df


def main_guard(table_fn, description: str, **extra):
    try:
        run_table(table_fn, description, **extra)
    except BrokenPipeError:  # piping into head etc.
        sys.exit(0)
