"""Distributed keyed OnlineSTL decomposition — the Flink deployment's
Spark Structured Streaming equivalent (paper §6, DESIGN.md substitutions).

Both paths run one per-key function, ``_advance``: it buffers a key's
first 4m points, then hands them plus every later point to
``OnlineSTL.run``.

* :func:`streaming_decompose` — unbounded: ``groupBy(key)`` +
  ``applyInPandasWithState``; the key's state (warm-up buffer or live
  model) is kept between micro-batches as the versioned binary blob of
  :mod:`repro.streaming.state_codec`. This is the paper's "stateful keyed
  map function".
* :func:`batch_decompose` — bounded: ``groupBy(key).applyInPandas``
  applying the same function to a fresh state per key, parallel across
  keys. Used by correctness tests (its output is oracle-checked and must
  equal the streaming path and the single-threaded core exactly).
* :func:`size_partitions` — the one rule for how many shuffle and state
  partitions a session gives both paths: one per core Spark has.

Rows are sorted by timestamp inside each (key, micro-batch) group, so
intra-batch disorder is tolerated — the Flink deployment makes the same
event-time assumption. Cross-batch late data would need watermarked
re-ordering, which neither the paper's operator nor this one attempts.
"""
from __future__ import annotations

import warnings
from typing import Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import (
    BinaryType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.online_stl import Decomposition, OnlineSTL
from repro.streaming.state_codec import KeyState, decode, encode

# pyspark's own all-NA padding of each applyInPandasWithState batch
# (sql/pandas/serializers.py, construct_record_batch) makes pandas warn on
# every stateful batch; the operator's frames are not involved. Workers
# import this module to unpickle the operator, so the filter reaches them.
warnings.filterwarnings(
    "ignore",
    message="The behavior of DataFrame concatenation with empty or all-NA entries",
    category=FutureWarning,
    module=r"pyspark\.sql\.pandas\.serializers",
)


def output_schema(n_periods: int) -> StructType:
    """Decomposition row schema: one scalar seasonal column per period
    (scalar so the DuckDB oracle can sort/compare rows)."""
    fields = [
        StructField("series_id", LongType()),
        StructField("ts", LongType()),
        StructField("value", DoubleType()),
        StructField("trend", DoubleType()),
    ]
    fields += [
        StructField(f"seasonal_{j}", DoubleType()) for j in range(n_periods)
    ]
    fields.append(StructField("residual", DoubleType()))
    return StructType(fields)


STATE_SCHEMA = StructType([StructField("blob", BinaryType())])


def _rows(
    series_id: int, ts: np.ndarray, values: np.ndarray, d: Decomposition
) -> pd.DataFrame:
    cols: dict[str, np.ndarray] = {
        "series_id": np.full(len(ts), series_id, dtype=np.int64),
        "ts": np.asarray(ts, dtype=np.int64),
        "value": values,
        "trend": d.trend,
    }
    for j, s in enumerate(d.seasonal):
        cols[f"seasonal_{j}"] = s
    cols["residual"] = d.residual
    return pd.DataFrame(cols)


def _advance(
    state: KeyState, ts: np.ndarray, vals: np.ndarray, series_id: int
) -> pd.DataFrame:
    """Feed ordered points through a KeyState; return emitted decomposition
    rows. The one per-key function of both paths: points are buffered until
    4m are held, then the buffer plus the rest go to ``OnlineSTL.run`` (init
    emits the warm-up batch; each later point is one O(m) online update)."""
    if state.model is None:
        state.buffer_ts += ts.tolist()
        state.buffer_vals += vals.tolist()
        if len(state.buffer_vals) < 4 * max(state.periods):
            e, k = np.empty(0), len(state.periods)
            return _rows(series_id, ts[:0], e, Decomposition(e, [e] * k, e))
        ts = np.asarray(state.buffer_ts, dtype=np.int64)
        vals = np.asarray(state.buffer_vals)
        state.model = OnlineSTL(state.periods, gamma=state.gamma)
        state.buffer_ts, state.buffer_vals = [], []
    return _rows(series_id, ts, vals, state.model.run(vals))


def size_partitions(spark: SparkSession) -> int:
    """Set ``spark.sql.shuffle.partitions`` on ``spark`` to the cores Spark
    has (``defaultParallelism``) and return that count.

    The shuffle partitions are also the state partitions of
    :func:`streaming_decompose`, and every micro-batch visits each of them
    whether it holds keys or not, so partitions beyond the cores add a
    fixed cost per batch that no key needs (a stateful batch of 128 keys
    at m=1000 took ~9 s over 64 partitions on 4 cores, ~1.5 s over 4).
    A query restarted from a checkpoint keeps the partition count the
    checkpoint was written with; this setting only applies to new queries.
    """
    n = spark.sparkContext.defaultParallelism
    spark.conf.set("spark.sql.shuffle.partitions", n)
    return n


def streaming_decompose(
    events: DataFrame,
    periods: list[int],
    gamma: float = 0.7,
) -> DataFrame:
    """Stateful keyed decomposition of an unbounded (series_id, ts, value)
    stream. Returns the streaming DataFrame of decomposition rows. A key
    restored from a checkpoint written with other periods or γ raises
    ``ValueError`` rather than continuing with the old configuration."""
    periods = [int(p) for p in periods]
    gamma = float(gamma)
    schema = output_schema(len(periods))

    def fn(
        key: tuple, pdfs: Iterable[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        (series_id,) = key
        if state.exists:
            ks = decode(bytes(state.get[0]))
            if (ks.periods, ks.gamma) != (periods, gamma):
                raise ValueError(
                    f"key {series_id} was checkpointed with periods {ks.periods}, "
                    f"gamma {ks.gamma}; this query has periods {periods}, gamma {gamma}"
                )
        else:
            ks = KeyState(periods=list(periods), gamma=gamma)
        chunks = [p for p in pdfs if len(p)]
        if chunks:
            pdf = pd.concat(chunks, ignore_index=True).sort_values("ts")
            out = _advance(
                ks,
                pdf["ts"].to_numpy(np.int64),
                pdf["value"].to_numpy(np.float64),
                int(series_id),
            )
            state.update((encode(ks),))
            if len(out):
                yield out

    return (
        events.groupBy("series_id")
        .applyInPandasWithState(
            fn,
            outputStructType=schema,
            stateStructType=STATE_SCHEMA,
            outputMode="append",
            timeoutConf=GroupStateTimeout.NoTimeout,
        )
    )


def batch_decompose(
    events: DataFrame,
    periods: list[int],
    gamma: float = 0.7,
) -> DataFrame:
    """Bounded keyed decomposition: the streaming per-key function applied
    to a fresh state per key via ``applyInPandas`` (keys run in parallel
    across cores). Keys with fewer than 4m points cannot be initialized and
    emit no rows."""

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("ts")
        return _advance(
            KeyState(periods=list(periods), gamma=gamma),
            pdf["ts"].to_numpy(np.int64),
            pdf["value"].to_numpy(np.float64),
            int(pdf["series_id"].iloc[0]),
        )

    return events.groupBy("series_id").applyInPandas(
        fn, schema=output_schema(len(periods))
    )
