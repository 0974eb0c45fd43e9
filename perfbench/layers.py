"""Layer arithmetic: turn batch records and worker spans into per-layer
metrics and a coverage split of steady batch wall time.

Span and state-operator times are task-time sums over all partitions of a
batch; they become wall-time shares by dividing by the cores Spark runs
tasks on. Driver phases (planning, source, checkpoint) are wall time.

Two parts of a stream batch's split are residuals, not measurements: engine
transfer (``allUpdatesTimeMs`` minus the per-key function) and other task
time (task time minus ``allUpdatesTimeMs`` and commit). Together they take
up all task time that no layer measures, so the stream total is the busy
share of the cores plus the driver phases. The split therefore also
reports the measured and the residual parts on their own.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# Per-layer metrics every traced run prints, in BENCHMARK.json order.
PER_LAYER = [
    ("core.update_us", "us"),
    ("core.updates", "count"),
    ("core.loop_us", "us"),
    ("core.init_ms", "ms"),
    ("codec.decode_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.blob_bytes", "bytes"),
    ("operator.fn_ms", "ms"),
    ("operator.self_ms", "ms"),
    ("operator.groups", "count"),
    ("engine.updates_ms", "ms"),
    ("engine.transfer_ms", "ms"),
    ("engine.add_batch_ms", "ms"),
    ("engine.planning_ms", "ms"),
    ("engine.checkpoint_ms", "ms"),
    ("engine.source_ms", "ms"),
    ("engine.busy_share", "share"),
    ("engine.state_partitions", "count"),
    ("state.commit_ms", "ms"),
    ("state.memory_bytes", "bytes"),
    ("state.version_bytes", "bytes"),
    ("state.rows_total", "count"),
    ("state.cache_hit_ratio", "share"),
    ("coverage.share", "share"),
    ("trace.overhead_share", "share"),
]


def _ms(spans: list[dict], *fields: str) -> float:
    return sum(s.get(f + "_ns", 0) for s in spans for f in fields) / 1e6


def _per_call_us(spans: list[dict], field: str) -> float:
    n = sum(s.get(field + "_n", 0) for s in spans)
    return _ms(spans, field) * 1e3 / n if n else 0.0


def stream_layers(records: list[dict], spans: list[dict], cores: int) -> tuple[dict, dict]:
    """Per-layer metrics (medians over steady batches) and the coverage
    split of steady batch wall time, from one traced stream replay."""
    by_batch: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        by_batch[s["batch"]].append(s)
    steady = records[1:]
    steady_spans = [s for r in steady for s in by_batch.get(r["batch_id"], [])]
    rows = []
    for r in steady:
        ss = by_batch.get(r["batch_id"], [])
        fn = _ms(ss, "fn")
        core = _ms(ss, "init", "update")
        codec = _ms(ss, "decode", "encode")
        task = r.get("task_ms", r["updates_ms"] + r["commit_ms"])
        wall = max(r["wall_ms"], 1.0)
        shares = {
            "core": core / cores / wall,
            "codec": codec / cores / wall,
            "operator_self": (fn - core - codec) / cores / wall,
            "engine_transfer": (r["updates_ms"] - fn) / cores / wall,
            "state_commit": r["commit_ms"] / cores / wall,
            "engine_other_tasks": (task - r["updates_ms"] - r["commit_ms"]) / cores / wall,
            "engine_driver": (r["planning_ms"] + r["source_ms"] + r["checkpoint_ms"]) / wall,
        }
        rows.append(
            {
                "fn": fn,
                "self": fn - core - codec,
                "groups": len(ss),
                "updates": sum(s.get("update_n", 0) for s in ss),
                "transfer": r["updates_ms"] - fn,
                "shares": shares,
            }
        )
    last = by_batch.get(records[-1]["batch_id"], [])
    n_enc = sum(s.get("encode_n", 0) for s in last)
    metrics = {
        "core.update_us": _per_call_us(steady_spans, "update"),
        "core.updates": float(statistics.median(r["updates"] for r in rows)),
        "core.loop_us": 0.0,
        "core.init_ms": _per_call_us(spans, "init") / 1e3,
        "codec.decode_us": _per_call_us(steady_spans, "decode"),
        "codec.encode_us": _per_call_us(steady_spans, "encode"),
        "codec.blob_bytes": sum(s.get("encode_bytes", 0) for s in last) / n_enc if n_enc else 0.0,
        "operator.fn_ms": float(statistics.median(r["fn"] for r in rows)),
        "operator.self_ms": float(statistics.median(r["self"] for r in rows)),
        "operator.groups": float(statistics.median(r["groups"] for r in rows)),
        "engine.transfer_ms": float(statistics.median(r["transfer"] for r in rows)),
    }
    split = {
        k: float(statistics.median(r["shares"][k] for r in rows)) for k in rows[0]["shares"]
    }
    split["total"] = sum(split.values())
    split["residual"] = split["engine_transfer"] + split["engine_other_tasks"]
    split["measured"] = split["total"] - split["residual"]
    return metrics, split


def core_layers(
    decompose_ns: int, acc: dict[str, int], n_points: int
) -> tuple[dict, dict]:
    """Per-layer metrics and the split of ``decompose_series`` wall time
    from the core timers accumulated during one traced call."""
    init_ns = acc.get("init_ns", 0)
    update_ns = acc.get("update_ns", 0)
    n_upd = acc.get("update_n", 0)
    metrics = {
        "core.update_us": update_ns / n_upd / 1e3 if n_upd else 0.0,
        "core.updates": float(n_upd),
        "core.loop_us": (decompose_ns - init_ns - update_ns) / n_points / 1e3,
        "core.init_ms": init_ns / max(acc.get("init_n", 0), 1) / 1e6,
    }
    split = {
        "core_init": init_ns / decompose_ns,
        "core_update": update_ns / decompose_ns,
    }
    split["total"] = split["core_init"] + split["core_update"]
    return metrics, split
