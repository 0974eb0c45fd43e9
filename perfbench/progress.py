"""Engine and state-store numbers read from what Spark already reports.

``StreamingQueryProgress`` gives each micro-batch's driver-side phases
(``durationMs``) and the state operator's task-time sums and store sizes
(``stateOperators``). Task time per batch, for the busy share, comes from
the application status store that backs ``SparkContext.statusTracker``.
"""
from __future__ import annotations

import re
import statistics
from datetime import datetime, timezone


def _epoch_s(timestamp: str) -> float:
    return (
        datetime.strptime(timestamp, "%Y-%m-%dT%H:%M:%S.%fZ")
        .replace(tzinfo=timezone.utc)
        .timestamp()
    )


def batch_record(progress: dict) -> dict:
    """Flatten one progress dict (``json.loads(p.json)``) into the fields
    the benchmark uses. Times are milliseconds, sizes bytes."""
    dur = progress.get("durationMs") or {}
    ops = progress.get("stateOperators") or [{}]
    op = ops[0]
    custom = op.get("customMetrics") or {}
    hits = custom.get("loadedMapCacheHitCount", 0)
    misses = custom.get("loadedMapCacheMissCount", 0)
    sink = progress.get("sink") or {}
    return {
        "batch_id": int(progress["batchId"]),
        "start_s": _epoch_s(progress["timestamp"]),
        "rows_in": int(progress.get("numInputRows", 0)),
        "rows_out": int(sink.get("numOutputRows", -1)),
        "wall_ms": float(dur.get("triggerExecution", 0)),
        "add_batch_ms": float(dur.get("addBatch", 0)),
        "planning_ms": float(dur.get("queryPlanning", 0)),
        "checkpoint_ms": float(dur.get("walCommit", 0) + dur.get("commitOffsets", 0)),
        "source_ms": float(dur.get("latestOffset", 0) + dur.get("getBatch", 0)),
        "updates_ms": float(op.get("allUpdatesTimeMs", 0)),
        "commit_ms": float(op.get("commitTimeMs", 0)),
        "memory_bytes": float(op.get("memoryUsedBytes", 0)),
        "rows_total": float(op.get("numRowsTotal", 0)),
        "version_bytes": float(custom.get("stateOnCurrentVersionSizeBytes", 0)),
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "state_partitions": int(op.get("numShufflePartitions", 0)),
    }


def end_to_end(records: list[dict]) -> dict[str, float]:
    """User-visible numbers of one replay: batch 0 is the warm-up chunk,
    the rest are steady chunks of equal size."""
    warm, steady = records[0], records[1:]
    if not steady:
        raise ValueError("need the warm-up batch and at least one steady batch")
    steady_ms = sum(r["wall_ms"] for r in steady)
    last = records[-1]
    return {
        "points_per_s": sum(r["rows_in"] for r in records)
        / (sum(r["wall_ms"] for r in records) / 1e3),
        "rows_per_s": sum(r["rows_in"] for r in steady) / (steady_ms / 1e3),
        "batch_p50_s": statistics.median(r["wall_ms"] for r in steady) / 1e3,
        "warmup_s": warm["wall_ms"] / 1e3,
        "state_bytes_per_key": last["memory_bytes"] / max(last["rows_total"], 1.0),
    }


def engine_layers(records: list[dict], cores: int) -> dict[str, float]:
    """Per-layer engine and state numbers: medians over the steady batches
    (sizes from the last batch). ``task_ms`` must already be attached to
    each record for the busy share; it is left out when unknown."""
    steady = records[1:]
    last = records[-1]

    def med(field: str) -> float:
        return float(statistics.median(r[field] for r in steady))

    out = {
        "engine.updates_ms": med("updates_ms"),
        "engine.add_batch_ms": med("add_batch_ms"),
        "engine.planning_ms": med("planning_ms"),
        "engine.checkpoint_ms": med("checkpoint_ms"),
        "engine.source_ms": med("source_ms"),
        "engine.state_partitions": float(last["state_partitions"]),
        "state.commit_ms": med("commit_ms"),
        "state.memory_bytes": last["memory_bytes"],
        "state.version_bytes": last["version_bytes"],
        "state.rows_total": last["rows_total"],
        "state.cache_hit_ratio": med("cache_hit_ratio"),
    }
    if all("task_ms" in r for r in steady):
        out["engine.busy_share"] = float(
            statistics.median(
                r["task_ms"] / (max(r["add_batch_ms"], 1.0) * cores) for r in steady
            )
        )
    return out


_BATCH_RE = re.compile(r"batch = (\d+)")


def task_ms_by_batch(spark, run_id: str) -> dict[int, float]:
    """Executor run time (ms) summed over every stage of each micro-batch of
    the query run ``run_id``, keyed by batch id. Streaming jobs carry
    ``runId = ...`` and ``batch = N`` in their description."""
    store = spark.sparkContext._jsc.sc().statusStore()  # noqa: SLF001
    out: dict[int, float] = {}
    jobs = store.jobsList(None)
    for i in range(jobs.size()):
        job = jobs.apply(i)
        desc = job.description()
        text = desc.get() if desc.isDefined() else ""
        match = _BATCH_RE.search(text)
        if run_id not in text or match is None:
            continue
        ids = job.stageIds()
        batch = int(match.group(1))
        out[batch] = out.get(batch, 0.0) + sum(
            float(store.lastStageAttempt(ids.apply(k)).executorRunTime())
            for k in range(ids.size())
        )
    return out
