"""Table 2 — distributed streaming throughput/memory vs seasonality.

The paper runs OnlineSTL on Flink (128-CPU EC2, 100K keys, parallelism
120, checkpointing off) and reports throughput per task slot, JVM heap and
total events/s for seasonality ∈ {10, 100, 1000, 10000}. Here the same
stateful operator runs as a Structured Streaming query on ``local[*]``;
key counts are scaled to the box (warm-up needs 4·m points per key) and
state size per key is reported as stored: the encoded blob and the state
store's memory per row (see DESIGN.md substitutions).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.streaming.throughput import ThroughputResult, measure_streaming_throughput

# Paper Table 2 rows: seasonality -> (throughput/task slot, JVM heap, total events/s)
PAPER_TABLE2 = {
    10: ("85K", "24GB", "10.1M"),
    100: ("69K", "28GB", "8.3M"),
    1000: ("25K", "36GB", "3.0M"),
    10000: ("3.6K", "108GB", "440K"),
}

# Keys scaled down from the paper's 100K so per-key warm-up (4m points)
# completes within a short measured run on a few cores.
DEFAULT_KEYS = {10: 512, 100: 256, 1000: 64, 10000: 8}

# Micro-batch sizes shrink as seasonality grows (throughput falls with it);
# a steady batch takes ~2-5 s on a 4-core box. Run lengths clear warm-up
# (4·m points × keys) and still measure several steady batches.
DEFAULT_ROWS_PER_BATCH = {10: 200_000, 100: 200_000, 1000: 100_000, 10000: 40_000}
DEFAULT_RUN_SECONDS = {10: 30.0, 100: 20.0, 1000: 20.0, 10000: 45.0}


@dataclass
class Table2Row:
    result: ThroughputResult
    paper_throughput_per_slot: str
    paper_heap: str
    paper_total: str


def run_table2(
    spark: SparkSession,
    *,
    seasonalities: list[int] | None = None,
    run_seconds: float | None = None,
    keys: dict[int, int] | None = None,
) -> list[Table2Row]:
    """Measure the streaming query at each seasonality. ``run_seconds=None``
    uses the per-seasonality defaults (longer runs for longer warm-ups)."""
    keys = keys or DEFAULT_KEYS
    rows = []
    for s in seasonalities or sorted(PAPER_TABLE2):
        res = measure_streaming_throughput(
            spark,
            seasonality=s,
            n_keys=keys[s],
            run_seconds=run_seconds or DEFAULT_RUN_SECONDS[s],
            rows_per_batch=DEFAULT_ROWS_PER_BATCH[s],
        )
        paper = PAPER_TABLE2[s]
        rows.append(Table2Row(res, paper[0], paper[1], paper[2]))
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    lines = [
        f"{'seasonality':>11} {'keys':>5} {'rows/s/core':>12} {'total rows/s':>13} "
        f"{'state/key':>10} {'store/key':>10} {'heap MB':>8} {'batches':>7}   "
        "paper: per-slot / heap / total",
    ]
    for r in rows:
        t = r.result
        lines.append(
            f"{t.seasonality:>11} {t.n_keys:>5} {t.rows_per_sec_per_core:>12.0f} "
            f"{t.total_rows_per_sec:>13.0f} {t.state_bytes_per_key:>10} "
            f"{t.state_store_bytes_per_key:>10.0f} "
            f"{t.jvm_heap_mb:>8.0f} {t.batches_measured:>7}   "
            f"{r.paper_throughput_per_slot} / "
            f"{r.paper_heap} / {r.paper_total}"
        )
    return "\n".join(lines)
