"""Tests for the unbounded Structured Streaming path: the stateful keyed
operator must produce byte-identical results to the bounded path, across
micro-batch boundaries, with state round-tripping through the codec."""
import shutil

import numpy as np
import pandas as pd
import pytest

from repro.streaming import (
    EVENT_SCHEMA,
    KeyState,
    batch_decompose,
    decode,
    encode,
    replay_files,
    streaming_decompose,
)
from repro.streaming.keyed_decompose import _advance
from repro.core import OnlineSTL, decompose_series
from repro.core.kernels import kernel
from repro.synth_data import metric_events_pdf

PERIODS = [10]
WINDOW = 4 * 10


class TestStateCodec:
    def test_roundtrip_empty(self):
        ks = KeyState(periods=[7], gamma=0.7)
        out = decode(encode(ks))
        assert out.periods == [7]
        assert out.model is None
        assert out.buffer_vals == []

    def test_roundtrip_with_buffer(self):
        ks = KeyState(periods=[7], gamma=0.7, buffer_ts=[0, 1], buffer_vals=[1.0, 2.0])
        out = decode(encode(ks))
        assert out.buffer_ts == [0, 1]
        assert out.buffer_vals == [1.0, 2.0]
        # The decoded buffer must continue into the same decomposition.
        ts, vals = np.arange(2, 40), np.random.default_rng(3).normal(size=38)
        pd.testing.assert_frame_equal(
            _advance(ks, ts, vals, 0), _advance(out, ts, vals, 0), check_exact=True
        )

    @pytest.mark.parametrize("n_updates", [0, 1, 37])
    @pytest.mark.parametrize("periods", [[5], [5, 12]])
    def test_roundtrip_with_live_model(self, periods, n_updates):
        """Ring heads are derived from ``n_seen``; round trips at several
        wrap points of every ring must continue the sequence bit for bit."""
        rng = np.random.default_rng(0)
        model = OnlineSTL(periods)
        model.initialize(rng.normal(size=model.window))
        for x in rng.normal(size=n_updates):
            model.update(x)
        out = decode(encode(KeyState(periods=periods, gamma=0.7, model=model)))
        assert out.model.n_seen == model.n_seen
        for x in rng.normal(size=60):
            assert model.update(x) == out.model.update(x)

    def test_blob_is_explicit_state(self):
        """The blob holds the model's 5m + 5·Σm_p state floats plus a small
        header — no kernels, no ring cursors, no object graph."""
        rng = np.random.default_rng(1)
        model = OnlineSTL([1000])
        model.initialize(rng.normal(size=model.window))
        model.update(0.5)
        blob = encode(KeyState(periods=[1000], gamma=0.7, model=model))
        # Header (version, k, n_seen, b) and one period; γ and the state.
        assert len(blob) == 8 * 5 + 8 * (1 + model.state_floats())
        assert kernel(4000)[0].tobytes() not in blob
        warm = KeyState(
            periods=[1000],
            gamma=0.7,
            buffer_ts=list(range(3999)),
            buffer_vals=rng.normal(size=3999).tolist(),
        )
        # Each buffered point is one int64 ts and one float64 value.
        assert len(encode(warm)) <= 8 * 2 * 3999 + 256

    def test_version_guard(self):
        blob = bytearray(encode(KeyState(periods=[5], gamma=0.7)))
        blob[:8] = np.int64(999).tobytes()
        with pytest.raises(ValueError):
            decode(bytes(blob))

    def test_layout_2_checkpoint_names_remedy(self):
        """A blob of the previous layout (2: header version, k, n_seen, b,
        periods, ring cursors; int64 ts; float64 γ, state, values) — here a
        warm-up key with two buffered points — fails with a message naming
        both versions and the remedy."""
        header = np.array([2, 1, 0, 2, 5, 0, 1], dtype=np.int64)
        blob = header.tobytes() + np.array([0.7, 1.0, 2.0]).tobytes()
        with pytest.raises(ValueError, match=r"version 2 != expected 3.*fresh checkpoint"):
            decode(blob)

    def test_type_guard(self):
        """Truncated or garbage blobs raise instead of decoding."""
        model = OnlineSTL([5])
        model.initialize(np.arange(20.0))
        blob = encode(KeyState(periods=[5], gamma=0.7, model=model))
        bad = [blob[:-8], blob[:20], blob + b"\0" * 8, b"", b"garbage!" * 4]
        rng = np.random.default_rng(2)
        bad += [rng.bytes(len(blob)), blob[:8] + rng.bytes(len(blob) - 8)]
        for b in bad:
            with pytest.raises(ValueError):
                decode(b)


class TestAdvance:
    """The shared per-key kernel, exercised without Spark."""

    def _events(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return np.arange(n), rng.normal(size=n) + 5.0

    def test_buffers_until_window(self):
        ks = KeyState(periods=PERIODS, gamma=0.7)
        ts, vals = self._events(WINDOW - 1)
        out = _advance(ks, ts, vals, 0)
        assert len(out) == 0
        assert ks.model is None
        assert len(ks.buffer_vals) == WINDOW - 1

    def test_emits_warmup_batch_on_init(self):
        ks = KeyState(periods=PERIODS, gamma=0.7)
        ts, vals = self._events(WINDOW)
        out = _advance(ks, ts, vals, 0)
        assert len(out) == WINDOW
        assert ks.model is not None
        assert ks.buffer_vals == []

    def test_incremental_equals_oneshot(self):
        """Feeding points in arbitrary chunkings gives identical output."""
        ts, vals = self._events(WINDOW + 30, seed=1)
        one = KeyState(periods=PERIODS, gamma=0.7)
        out_one = _advance(one, ts, vals, 0)
        chunked = KeyState(periods=PERIODS, gamma=0.7)
        outs = []
        for lo, hi in [(0, 13), (13, WINDOW + 2), (WINDOW + 2, WINDOW + 30)]:
            o = _advance(chunked, ts[lo:hi], vals[lo:hi], 0)
            if len(o):
                outs.append(o)
        out_chunked = pd.concat(outs, ignore_index=True)
        pd.testing.assert_frame_equal(out_one, out_chunked)

    def test_matches_decompose_series(self):
        ts, vals = self._events(WINDOW + 25, seed=2)
        ks = KeyState(periods=PERIODS, gamma=0.7)
        out = _advance(ks, ts, vals, 7)
        d = decompose_series(vals, PERIODS)
        np.testing.assert_allclose(out["trend"].to_numpy(), d.trend, atol=1e-9)
        np.testing.assert_allclose(
            out["seasonal_0"].to_numpy(), d.seasonal[0], atol=1e-9
        )
        assert (out["series_id"] == 7).all()


@pytest.mark.spark
class TestStreamingEndToEnd:
    def _run_stream(self, spark, events, tmpdir, n_chunks=4, sort=True):
        stream = replay_files(
            spark, events, str(tmpdir / "in"), n_chunks=n_chunks, sort=sort
        )
        name = f"dec_{abs(hash(str(tmpdir))) % 10**8}"
        q = (
            streaming_decompose(stream, PERIODS)
            .writeStream.format("memory")
            .queryName(name)
            .outputMode("append")
            .option("checkpointLocation", str(tmpdir / "ckpt"))
            .start()
        )
        try:
            q.processAllAvailable()
        finally:
            q.stop()
        return (
            spark.table(name)
            .toPandas()
            .sort_values(["series_id", "ts"])
            .reset_index(drop=True)
        )

    def test_stream_equals_batch(self, spark, tmp_path):
        events = metric_events_pdf(
            n_keys=3, points_per_key=WINDOW + 30, periods=PERIODS, seed=4
        )
        got = self._run_stream(spark, events, tmp_path)
        want = (
            batch_decompose(spark.createDataFrame(events), PERIODS)
            .toPandas()
            .sort_values(["series_id", "ts"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)

    def test_state_survives_many_microbatches(self, spark, tmp_path):
        """8 chunks → ≥8 micro-batches → state round-trips repeatedly."""
        events = metric_events_pdf(
            n_keys=2, points_per_key=WINDOW + 16, periods=PERIODS, seed=5
        )
        got = self._run_stream(spark, events, tmp_path, n_chunks=8)
        assert len(got) == len(events)
        lhs = got["value"].to_numpy()
        rhs = (got["trend"] + got["seasonal_0"] + got["residual"]).to_numpy()
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_restart_with_other_periods_raises(self, spark, tmp_path):
        """State checkpointed under one config is not silently continued
        under another with the same number of periods."""
        events = metric_events_pdf(
            n_keys=1, points_per_key=WINDOW + 10, periods=PERIODS, seed=7
        )

        def run(periods, n_chunks):
            stream = replay_files(
                spark, events, str(tmp_path / "in"), n_chunks=n_chunks
            )
            q = (
                streaming_decompose(stream, periods)
                .writeStream.format("noop")
                .option("checkpointLocation", str(tmp_path / "ckpt"))
                .start()
            )
            try:
                q.processAllAvailable()
            finally:
                q.stop()

        run(PERIODS, 1)
        # chunk-000 is already in the checkpoint; chunk-001 is a new file
        # whose batch must restore the key's state.
        with pytest.raises(Exception, match="checkpointed with periods"):
            run([12], 2)

    @pytest.mark.parametrize(
        "first_partitions, k",
        [(None, 2), (64, 1)],
        ids=["same-config", "from-64-partitions"],
    )
    def test_restart_is_exact(self, spark, tmp_path, first_partitions, k):
        """Stopping after chunk k and restarting from the checkpoint gives
        the same rows as one uninterrupted run. With ``first_partitions``
        the checkpoint is written under that shuffle-partition count and
        restarted under the session's sized one: the restarted query keeps
        the checkpoint's count and still continues every key exactly."""
        events = metric_events_pdf(
            n_keys=3, points_per_key=WINDOW + 30, periods=PERIODS, seed=8
        )
        # 3 chunks of ~23 points per key: the key models go live in chunk 1,
        # so a restart at chunk 2 restores live models and one at chunk 1
        # restores warm-up buffers.
        replay_files(spark, events, str(tmp_path / "chunks"), n_chunks=3)
        chunks = sorted((tmp_path / "chunks").iterdir())

        def run(name, files):
            """Add ``files`` to the query's input and run it to the end from
            its checkpoint; return the state partition counts it used."""
            src = tmp_path / name / "in"
            src.mkdir(parents=True, exist_ok=True)
            for f in files:  # copy2 keeps the chunks' mtime order
                shutil.copy2(f, src / f.name)
            stream = (
                spark.readStream.schema(EVENT_SCHEMA)
                .option("maxFilesPerTrigger", 1)
                .parquet(str(src))
            )
            q = (
                streaming_decompose(stream, PERIODS)
                .writeStream.format("parquet")
                .option("path", str(tmp_path / name / "out"))
                .option("checkpointLocation", str(tmp_path / name / "ckpt"))
                .outputMode("append")
                .start()
            )
            try:
                q.processAllAvailable()
            finally:
                q.stop()
            return {
                op.numShufflePartitions
                for p in q.recentProgress
                for op in p.stateOperators
            }

        def rows(name):
            return (
                spark.read.parquet(str(tmp_path / name / "out"))
                .toPandas()
                .sort_values(["series_id", "ts"])
                .reset_index(drop=True)
            )

        sized = spark.conf.get("spark.sql.shuffle.partitions")
        run("whole", chunks)
        if first_partitions:
            spark.conf.set("spark.sql.shuffle.partitions", first_partitions)
        try:
            before = run("restarted", chunks[:k])
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", sized)
        after = run("restarted", chunks[k:])
        assert before == after == {first_partitions or int(sized)}
        want = rows("whole")
        assert len(want) == len(events)
        pd.testing.assert_frame_equal(rows("restarted"), want, check_exact=True)

    def test_intra_batch_disorder_tolerated(self, spark, tmp_path):
        """Rows shuffled within chunks (the operator sorts by ts per batch)."""
        events = metric_events_pdf(
            n_keys=2, points_per_key=WINDOW + 12, periods=PERIODS, seed=6
        )
        # Shuffle rows within each time-half so each chunk is internally
        # disordered, while chunk boundaries still respect per-key time
        # order (cross-batch late data is out of scope, as for Flink).
        events = events.sort_values("ts", kind="stable").reset_index(drop=True)
        half = len(events) // 2
        events = pd.concat(
            [
                events.iloc[:half].sample(frac=1.0, random_state=0),
                events.iloc[half:].sample(frac=1.0, random_state=1),
            ],
            ignore_index=True,
        )
        got = self._run_stream(spark, events, tmp_path, n_chunks=2, sort=False)
        want = (
            batch_decompose(spark.createDataFrame(events), PERIODS)
            .toPandas()
            .sort_values(["series_id", "ts"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)
