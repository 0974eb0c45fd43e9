"""Self-tests of the benchmark: progress parsing, layer arithmetic, the
correctness gate, the tracing wrapper, and a tiny run of each workload,
which must leave no process behind.

    python -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from perfbench import gate, layers, progress
from perfbench.tracing import process_recorder, read_spans, traced_operator_fn
from repro.core.online_stl import Decomposition, decompose_series

ROOT = Path(__file__).resolve().parents[2]


def _progress(batch_id, rows, wall, add, updates, commit, mem, rows_total, out=None):
    return {
        "id": "q",
        "runId": "r",
        "batchId": batch_id,
        "timestamp": f"2026-01-01T00:00:{batch_id:02d}.250Z",
        "numInputRows": rows,
        "durationMs": {
            "addBatch": add,
            "commitOffsets": 3,
            "getBatch": 1,
            "latestOffset": 4,
            "queryPlanning": 10,
            "triggerExecution": wall,
            "walCommit": 5,
        },
        "stateOperators": [
            {
                "operatorName": "flatMapGroupsInPandasWithState",
                "numRowsTotal": rows_total,
                "allUpdatesTimeMs": updates,
                "commitTimeMs": commit,
                "memoryUsedBytes": mem,
                "numShufflePartitions": 64,
                "customMetrics": {
                    "loadedMapCacheHitCount": 3,
                    "loadedMapCacheMissCount": 1,
                    "stateOnCurrentVersionSizeBytes": 1000,
                },
            }
        ],
        "sink": {"description": "MemorySink", "numOutputRows": rows if out is None else out},
    }


CANNED = [
    _progress(0, 400, 5000, 4900, 12000, 2000, 4096, 10),
    _progress(1, 80, 2000, 1900, 6000, 1000, 8192, 10),
    _progress(2, 80, 3000, 2900, 8000, 1200, 8192, 10),
    _progress(3, 80, 2500, 2400, 7000, 1100, 10240, 10),
]


class TestProgress:
    def test_batch_record(self):
        r = progress.batch_record(CANNED[1])
        assert r["batch_id"] == 1
        assert r["rows_in"] == r["rows_out"] == 80
        assert r["wall_ms"] == 2000 and r["add_batch_ms"] == 1900
        assert r["checkpoint_ms"] == 8 and r["source_ms"] == 5
        assert r["cache_hit_ratio"] == 0.75
        assert r["version_bytes"] == 1000 and r["state_partitions"] == 64
        assert r["start_s"] == pytest.approx(1767225601.25)

    def test_end_to_end(self):
        e = progress.end_to_end([progress.batch_record(p) for p in CANNED])
        assert e["warmup_s"] == 5.0
        assert e["batch_p50_s"] == 2.5
        assert e["rows_per_s"] == pytest.approx(240 / 7.5)
        assert e["points_per_s"] == pytest.approx(640 / 12.5)
        assert e["state_bytes_per_key"] == 1024.0

    def test_engine_layers_and_busy_share(self):
        recs = [progress.batch_record(p) for p in CANNED]
        for r, task in zip(recs, (0, 7600, 11600, 9600)):
            r["task_ms"] = task
        e = progress.engine_layers(recs, cores=4)
        assert e["engine.updates_ms"] == 7000
        assert e["state.commit_ms"] == 1100
        assert e["state.memory_bytes"] == 10240
        assert e["engine.busy_share"] == pytest.approx(1.0)

    def test_needs_a_steady_batch(self):
        with pytest.raises(ValueError):
            progress.end_to_end([progress.batch_record(CANNED[0])])


class TestLayers:
    def test_stream_split(self):
        recs = [progress.batch_record(p) for p in CANNED[:2]]
        recs[1]["task_ms"] = 7600
        spans = [
            {"batch": 0, "fn_ns": 9e6, "init_ns": 4e6, "init_n": 2},
            {"batch": 1, "fn_ns": 400e6, "update_ns": 100e6, "update_n": 40,
             "decode_ns": 50e6, "decode_n": 2, "encode_ns": 30e6, "encode_n": 2,
             "encode_bytes": 2000},
            {"batch": 1, "fn_ns": 400e6, "update_ns": 100e6, "update_n": 40},
        ]
        m, split = layers.stream_layers(recs, spans, cores=4)
        assert m["operator.fn_ms"] == pytest.approx(800)
        assert m["operator.self_ms"] == pytest.approx(800 - 200 - 80)
        assert m["operator.groups"] == 2
        assert m["core.updates"] == 80
        assert m["core.update_us"] == pytest.approx(2500)
        assert m["core.init_ms"] == pytest.approx(2)
        assert m["codec.decode_us"] == pytest.approx(25000)
        assert m["codec.blob_bytes"] == 1000
        assert m["engine.transfer_ms"] == pytest.approx(6000 - 800)
        # Task time 7600 ms on 4 cores is 1900 ms of the 2000 ms batch;
        # driver phases (planning 10, source 5, checkpoint 8) add 23 ms.
        assert split["total"] == pytest.approx((1900 + 23) / 2000)
        parts = sum(v for k, v in split.items() if k not in ("total", "measured", "residual"))
        assert parts == pytest.approx(split["total"])
        # Measured: core 200, codec 80, operator self 520 and commit 1000 ms
        # of task time on 4 cores, plus the 23 ms of driver phases.
        assert split["measured"] == pytest.approx((1800 / 4 + 23) / 2000)
        assert split["measured"] + split["residual"] == pytest.approx(split["total"])

    def test_core_split(self):
        m, split = layers.core_layers(
            1_000_000, {"init_ns": 100_000, "init_n": 1, "update_ns": 800_000, "update_n": 8}, 10
        )
        assert m["core.update_us"] == 100
        assert m["core.loop_us"] == 10
        assert m["core.init_ms"] == 0.1
        assert split["total"] == pytest.approx(0.9)


class TestGate:
    def _decomp(self, n=400):
        rng = np.random.default_rng(0)
        x = rng.normal(size=n) + np.sin(np.arange(n) / 3)
        return x, decompose_series(x, [10])

    def test_clean_output_passes(self):
        x, d = self._decomp()
        assert gate.identity_failures(x, d.trend, d.seasonal, d.residual) == 0
        assert gate.reference_failures(d, d) == 0

    def test_corrupted_output_is_caught(self):
        x, d = self._decomp()
        bad = Decomposition(trend=d.trend.copy(), seasonal=[s.copy() for s in d.seasonal],
                            residual=d.residual.copy())
        bad.residual[5] += 1e-6
        bad.seasonal[0][7] = np.nan
        assert gate.identity_failures(x, bad.trend, bad.seasonal, bad.residual) == 2
        assert gate.reference_failures(bad, d) == 2
        short = Decomposition(trend=d.trend[:-3], seasonal=[d.seasonal[0][:-3]],
                              residual=d.residual[:-3])
        assert gate.reference_failures(short, d) == 3

    def test_frame_and_row_checks(self):
        x, d = self._decomp()
        frame = pd.DataFrame({"value": x, "trend": d.trend, "seasonal_0": d.seasonal[0],
                              "residual": d.residual})
        assert gate.frame_identity_failures(frame, 1) == 0
        frame.loc[3, "trend"] = np.inf
        assert gate.frame_identity_failures(frame, 1) == 1
        recs = [progress.batch_record(p) for p in CANNED]
        assert gate.batch_row_failures(recs) == 0
        recs = [progress.batch_record(_progress(1, 80, 1, 1, 1, 1, 1, 1, out=77))]
        assert gate.batch_row_failures(recs) == 3


class TestTracing:
    def test_wrapper_times_operator_codec_and_core(self, tmp_path):
        from repro.core.online_stl import OnlineSTL
        from repro.streaming.state_codec import KeyState, decode, encode

        # A per-key function resolving encode/decode from its own globals,
        # as the streaming operator's function does.
        scope = {"decode": decode, "encode": encode, "KeyState": KeyState,
                 "OnlineSTL": OnlineSTL, "np": np, "pd": pd}
        exec(
            "def fn(key, pdfs, state):\n"
            "    ks = decode(encode(KeyState(periods=[5], gamma=0.7)))\n"
            "    m = OnlineSTL([5]); m.initialize(np.arange(20.0)); m.update(1.0)\n"
            "    rows = sum(len(p) for p in pdfs)\n"
            "    yield pd.DataFrame({'rows': [rows], 'blob': [len(encode(ks))]})\n",
            scope,
        )
        traced = traced_operator_fn(scope["fn"], str(tmp_path))
        try:
            out = list(traced((7,), iter([pd.DataFrame({"a": [1, 2, 3]})]), None))
        finally:
            process_recorder().uninstall_core()
        assert len(out) == 1 and out[0]["rows"][0] == 3
        assert not hasattr(OnlineSTL.update, "perfbench_wrapped")
        (span,) = read_spans(str(tmp_path))
        assert span["key"] == 7 and span["batch"] == -1
        assert span["rows_in"] == 3 and span["rows_out"] == 1
        assert span["decode_n"] == 1 and span["encode_n"] == 2
        assert span["init_n"] == 1 and span["update_n"] == 1
        assert span["encode_bytes"] > 0
        assert span["fn_ns"] >= span["init_ns"] + span["update_ns"]


def _in_session(sid):
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.getsid(int(entry)) == sid:
                pids.append(int(entry))
        except OSError:  # it has ended meanwhile
            pass
    return pids


def _run(args, cwd, timeout=170):
    """Run the benchmark in a session of its own. ``left_behind`` lists the
    processes still in that session once it has exited."""
    env = {k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"}
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        proc.kill()
        proc.wait()
    result = subprocess.CompletedProcess(proc.args, proc.returncode, out, err)
    result.left_behind = _in_session(proc.pid)
    return result


@pytest.mark.parametrize("workload", ["core-weekly", "stream-fanout", "stream-bigstate"])
def test_tiny_run(workload):
    # --seconds sets the amount of work: 0.2 s is 20 stream-fanout keys,
    # 2 stream-bigstate keys and a 600-update core-weekly call.
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.left_behind == []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_core_run():
    proc = _run(["--workload", "core-weekly", "--seed", "3", "--seconds", "0.2",
                 "--trace", "1"], ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.left_behind == []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert result["metrics"]["core.updates"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "core-weekly", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
