"""Shared SparkSession builder for the job entrypoints.

Jobs run under ``spark-submit`` (which provides the session config) or
directly via ``python jobs/<name>.py`` (local[*] fallback). Mirrors the
conftest fixture settings so job results match test results, including the
shuffle/state partition count, which ``size_partitions`` derives from the
cores Spark has.
"""
from __future__ import annotations

import os

# Must be set before the JVM launches (see conftest.py for the AVX-512
# SIGSEGV rationale). No-op under spark-submit, which sets this itself.
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] --driver-java-options -XX:UseAVX=2 pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402

from repro.streaming import size_partitions  # noqa: E402


def get_session(app: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    size_partitions(spark)
    return spark
