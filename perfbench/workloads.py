"""The stream workloads, ``stream-fanout`` and ``stream-bigstate``.

Pre-generated parquet chunks are replayed through the file source into
``streaming_decompose`` with ``trigger(availableNow=True)``, one chunk per
micro-batch: a warm-up chunk of 4m points per key, then equal steady
chunks. ``--seconds`` sets the amount of work, not a deadline: the number
of keys and of steady batches are fixed functions of it. (``core-weekly`` lives in
:mod:`perfbench.core_weekly`.)
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from perfbench import data, gate, layers, progress
from perfbench.tracing import read_spans, traced_operator

GAMMA = 0.7
SETUP_REPS = 3  # input preparation is repeated and its median used in setup_s
SAMPLED_KEYS = 4  # stream keys checked against decompose_series


STEADY_BATCH_SECONDS = 10.0  # rough steady batch time at 64 partitions, for sizing
KEYS_SECONDS = 20.0  # the --seconds at which a stream runs all of its n_keys


@dataclass(frozen=True)
class Stream:
    n_keys: int  # keys at --seconds KEYS_SECONDS; fewer below it, so tiny runs stay tiny
    period: int
    per_batch: int  # points per key in each steady chunk


STREAMS = {
    "stream-fanout": Stream(n_keys=2048, period=10, per_batch=8),
    "stream-bigstate": Stream(n_keys=128, period=1000, per_batch=16),
}
WORKLOADS = ["core-weekly", *STREAMS]


def _median_setup(prep_s: list[float]) -> float:
    return statistics.median(prep_s) - sum(prep_s)


# ---------------------------------------------------------------- stream
def _stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway  # noqa: SLF001
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # a JVM that ignores EOF is killed
            proc.kill()
            proc.wait(timeout=30)


def fingerprint_spark(spark) -> dict:
    conf = spark.conf
    return {
        "defaultParallelism": spark.sparkContext.defaultParallelism,
        "master": spark.sparkContext.master,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "state_store_provider": conf.get("spark.sql.streaming.stateStore.providerClass"),
    }


def _replay(spark, cfg: Stream, src: str, work: str, tag: str, span_dir: str | None, deadline: float):
    """One availableNow replay of the chunks in ``src``. Returns the batch
    records, the raw progress and the collected output."""
    from repro.streaming import EVENT_SCHEMA, streaming_decompose

    events = (
        spark.readStream.schema(EVENT_SCHEMA).option("maxFilesPerTrigger", 1).parquet(src)
    )
    ctx = traced_operator(span_dir) if span_dir else contextlib.nullcontext()
    with ctx:
        out = streaming_decompose(events, [cfg.period], gamma=GAMMA)
    name = f"perfbench_{tag}_{os.getpid()}"
    query = (
        out.writeStream.format("memory")
        .queryName(name)
        .outputMode("append")
        .option("checkpointLocation", os.path.join(work, f"ckpt-{tag}"))
        .trigger(availableNow=True)
        .start()
    )
    try:
        done = query.awaitTermination(max(1.0, deadline - time.monotonic()))
        if not done:
            raise TimeoutError("stream replay did not finish before the deadline")
        raw = [json.loads(p.json) for p in query.recentProgress]
    finally:
        query.stop()
    records = [progress.batch_record(p) for p in raw]
    tasks = progress.task_ms_by_batch(spark, str(query.runId))
    for r in records:
        if r["batch_id"] in tasks:
            r["task_ms"] = tasks[r["batch_id"]]
    output = spark.table(name).toPandas()
    spark.catalog.dropTempView(name)
    return records, raw, output


def _check_stream(values: np.ndarray, records: list[dict], output, period: int, seed: int) -> dict:
    from repro.core.online_stl import Decomposition, decompose_series

    rows = gate.batch_row_failures(records)
    identity = gate.frame_identity_failures(output, 1)
    rng = np.random.default_rng(seed + 1)
    keys = rng.choice(values.shape[0], size=min(SAMPLED_KEYS, values.shape[0]), replace=False)
    ref = 0
    for key in keys:
        got = output[output["series_id"] == key].sort_values("ts")
        want = decompose_series(values[key], [period], gamma=GAMMA)
        ref += gate.reference_failures(
            Decomposition(
                trend=got["trend"].to_numpy(),
                seasonal=[got["seasonal_0"].to_numpy()],
                residual=got["residual"].to_numpy(),
            ),
            want,
        )
    return {
        "row_mismatch": rows,
        "identity": identity,
        "reference": ref,
        "sampled_keys": [int(k) for k in keys],
    }


def run_stream(
    name: str, seed: int, seconds: float, trace: bool, t0: float, work: str, deadline: float
) -> dict:
    cfg = STREAMS[name]
    n_keys = max(2, round(cfg.n_keys * min(1.0, seconds / KEYS_SECONDS)))
    n_steady = max(2, round(seconds / STEADY_BATCH_SECONDS))
    window = 4 * cfg.period
    bounds = data.chunk_bounds(window, n_steady, cfg.per_batch)
    n_points = bounds[-1][1]
    src = os.path.join(work, "input")
    # Loaded once before the timed preparations, so that each of them does
    # the same work and the import is counted in setup_s in full.
    import pandas  # noqa: F401

    prep_s = []
    for _ in range(SETUP_REPS):
        tp = time.perf_counter()
        shutil.rmtree(src, ignore_errors=True)
        values = data.series_matrix(seed, n_keys, n_points, [cfg.period])
        data.write_chunks(values, bounds, src)
        prep_s.append(time.perf_counter() - tp)

    from _session import get_session

    spark = get_session(f"perfbench-{name}")
    try:
        env = fingerprint_spark(spark)
        cores = spark.sparkContext.defaultParallelism
        if trace:
            # The base of the tracing overhead: an untraced replay of the
            # same chunks in this session, before the traced one.
            base, _, _ = _replay(spark, cfg, src, work, "base", None, deadline)
            untraced_rows_per_s = progress.end_to_end(base)["rows_per_s"]
        span_dir = os.path.join(work, "spans") if trace else None
        if span_dir:
            os.makedirs(span_dir, exist_ok=True)
        records, raw, output = _replay(spark, cfg, src, work, "run", span_dir, deadline)
        t_collected = time.time()
    finally:
        _stop_spark(spark)

    e2e = progress.end_to_end(records)
    e2e["setup_s"] = records[0]["start_s"] - t0 + _median_setup(prep_s)
    checks = _check_stream(values, records, output, cfg.period, seed)
    timeline = {
        "prep_s": prep_s,
        "last_batch_end_s": records[-1]["start_s"] + records[-1]["wall_ms"] / 1e3 - t0,
        "collected_s": t_collected - t0,
        "checked_s": time.time() - t0,
    }
    failed = checks["row_mismatch"] + checks["identity"] + checks["reference"]
    engine = progress.engine_layers(records, cores)
    result = {
        "attempted": sum(r["rows_in"] for r in records),
        "failed": failed,
        "e2e": e2e,
        "engine": engine,
        "checks": checks,
        "env_spark": env,
        "sizes": {
            "keys": n_keys,
            "period": cfg.period,
            "warmup_points_per_key": window,
            "steady_batches": n_steady,
            "steady_points_per_key": cfg.per_batch,
        },
        "timeline": timeline,
        "records": records,
        "progress": raw,
    }
    if trace:
        spans = read_spans(span_dir)
        metrics, split = layers.stream_layers(records, spans, cores)
        metrics.update(engine)
        metrics["coverage.share"] = split["total"]
        metrics["trace.overhead_share"] = untraced_rows_per_s / e2e["rows_per_s"] - 1.0
        result["layers"] = metrics
        result["coverage"] = split
        result["spans"] = spans
    return result
