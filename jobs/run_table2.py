#!/usr/bin/env python
"""Reproduce Table 2: streaming throughput/memory vs seasonality.

Usage: spark-submit jobs/run_table2.py [run_seconds] [s1,s2,...]

Runs the stateful Structured Streaming query (the Flink deployment's Spark
equivalent) at each seasonality and prints measured rows next to the
paper's. Default sweep is the paper's {10, 100, 1000, 10000};
run_seconds <= 0 uses per-seasonality defaults (longer for longer warm-ups).
"""
import sys

from _session import get_session

from repro.experiments import format_table2, run_table2


def main() -> None:
    run_seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 0.0
    if run_seconds <= 0:
        run_seconds = None
    seasonalities = (
        [int(s) for s in sys.argv[2].split(",")] if len(sys.argv) > 2 else None
    )
    spark = get_session("table2-streaming-throughput")
    try:
        rows = run_table2(
            spark, seasonalities=seasonalities, run_seconds=run_seconds
        )
        print(
            f"cores (defaultParallelism): {spark.sparkContext.defaultParallelism}, "
            f"shuffle/state partitions: {spark.conf.get('spark.sql.shuffle.partitions')}"
        )
        print(format_table2(rows))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
