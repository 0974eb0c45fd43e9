"""Throughput / memory measurement for the distributed deployment (Table 2).

The paper measures, per seasonality, Flink's steady-state throughput per
task slot, JVM heap, and total events/s on a 128-CPU instance with 100K
keys and checkpointing off. Here the same stateful operator runs on Spark
``local[*]``: the rate source outruns the operator (back-pressure via
``maxOffsetsPerTrigger``-free rate batches), we let the query run for a
fixed wall-clock duration, and derive steady-state rows/s from
``StreamingQueryProgress`` excluding warm-up batches. Memory is reported
three ways: the bytes stored per live key (the encoded state blob — the
quantity behind the paper's "memory grows sub-linearly in seasonality"
claim), the state store's own ``memoryUsedBytes / numRowsTotal`` from the
last progress, and the driver JVM heap in use.
"""
from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.online_stl import OnlineSTL
from repro.streaming.keyed_decompose import streaming_decompose
from repro.streaming.source import rate_events
from repro.streaming.state_codec import KeyState, encode


@dataclass
class ThroughputResult:
    """Steady-state measurement for one (seasonality, key-count) setting."""

    seasonality: int
    n_keys: int
    cores: int
    total_rows_per_sec: float
    rows_per_sec_per_core: float
    state_bytes_per_key: int
    state_store_bytes_per_key: float
    total_state_mb: float
    jvm_heap_mb: float
    batches_measured: int


def state_bytes_per_key(period: int, gamma: float = 0.7) -> int:
    """Bytes of the encoded state of one live key, as the operator stores it."""
    model = OnlineSTL([period], gamma=gamma)
    model.initialize(np.zeros(model.window))
    return len(encode(KeyState(periods=[period], gamma=gamma, model=model)))


def _jvm_heap_mb(spark: SparkSession) -> float:
    rt = spark._jvm.java.lang.Runtime.getRuntime()  # noqa: SLF001
    return float(rt.totalMemory() - rt.freeMemory()) / (1 << 20)


def measure_streaming_throughput(
    spark: SparkSession,
    *,
    seasonality: int,
    n_keys: int,
    run_seconds: float = 25.0,
    rows_per_batch: int = 200_000,
) -> ThroughputResult:
    """Run the stateful streaming query and measure steady-state throughput.

    Uses the back-pressure-safe ``rate-micro-batch`` source (fixed rows per
    trigger). Batches that fall inside the warm-up phase — before every key
    has received its 4m initialization points — are excluded: they are
    dominated by per-key offline init, whereas the paper measures
    steady-state (its Flink jobs run for a year; this query runs seconds).
    Raises ``RuntimeError`` when no steady batch finished within
    ``run_seconds``, so a run too short to measure never reads as a rate.
    """
    events = rate_events(
        spark,
        n_keys=n_keys,
        rows_per_batch=rows_per_batch,
        period=seasonality,
    )
    decomposed = streaming_decompose(events, [seasonality])
    # The checkpoint only serves this run (a m=10^4 one reaches ~100 MB).
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as checkpoint:
        query = (
            decomposed.writeStream.format("noop")
            .option("checkpointLocation", checkpoint)
            .outputMode("append")
            .start()
        )
        try:
            time.sleep(run_seconds)
            progress = [p for p in query.recentProgress if p is not None]
        finally:
            try:
                query.stop()
            except Exception:  # noqa: BLE001 — stop() interrupting a mid-batch
                pass  # commit raises spuriously; measurements are already taken
    warmup_rows = 4 * seasonality * n_keys
    seen = 0
    rates = []
    for p in progress:
        rows = p["numInputRows"]
        dur_ms = p["batchDuration"]
        if seen >= warmup_rows and rows and dur_ms:
            rates.append(rows / (dur_ms / 1000.0))
        seen += rows or 0
    if not rates:
        raise RuntimeError(
            f"no steady batch measured at seasonality {seasonality}: "
            f"{len(progress)} batches finished in {run_seconds} s, none after "
            f"the {warmup_rows}-row warm-up"
        )
    cores = min(spark.sparkContext.defaultParallelism, n_keys)
    total = sum(rates) / len(rates)
    spk = state_bytes_per_key(seasonality)
    # The state store's own memory per key, from the last batch that has it.
    ops = [p.stateOperators[0] for p in progress if p.stateOperators]
    store = ops[-1].memoryUsedBytes / max(ops[-1].numRowsTotal, 1) if ops else 0.0
    return ThroughputResult(
        seasonality=seasonality,
        n_keys=n_keys,
        cores=cores,
        total_rows_per_sec=total,
        rows_per_sec_per_core=total / cores,
        state_bytes_per_key=spk,
        state_store_bytes_per_key=store,
        total_state_mb=spk * n_keys / (1 << 20),
        jvm_heap_mb=_jvm_heap_mb(spark),
        batches_measured=len(rates),
    )
