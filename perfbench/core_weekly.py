"""The ``core-weekly`` workload: the core alone, without Spark.

One minutely series with daily and weekly periods (1440, 10080). Each of
:data:`WORKERS` processes, one per core of a 4-core machine, runs the same
seeded work:

1. one ``decompose_series`` call over the 4m init window followed by
   ``3000 × seconds`` updates (60 000 at ``--seconds 20``), so the call's
   time is almost all in ``update``;
2. :data:`ROUNDS` rounds of ``OnlineSTL.initialize`` on a fresh model (the
   cold-start cost) and one batch of ``100 × seconds`` ``update`` calls
   that continues a single replay model.

Every metric is a median over all workers, or all (worker, round) samples;
``setup_s`` is the median of :data:`SETUP_REPS` start-ups of the workers.
Single-core speed on a shared VM drifts by tens of percent between cores
and over seconds; the median over concurrent copies is what keeps the
numbers steady.
"""
from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

from perfbench import data, gate, layers
from perfbench.tracing import process_recorder

GAMMA = 0.7
PERIODS = [1440, 10080]
WORKERS = 4
ROUNDS = 10
# Worker start-ups per run; setup_s counts their median. Four processes
# starting at once on idle cores are slow and erratic the first few times
# (0.2-0.7 s), then steady.
SETUP_REPS = 5
CALL_UPDATES_PER_SECOND = 3000  # updates in the decompose_series call, per --seconds
BATCH_UPDATES_PER_SECOND = 100  # updates in each replay batch, per --seconds


def sizes(seconds: float) -> dict:
    window = 4 * max(PERIODS)
    call_updates = max(1, round(CALL_UPDATES_PER_SECOND * seconds))
    batch_updates = max(1, round(BATCH_UPDATES_PER_SECOND * seconds))
    return {
        "window": window,
        "call_points": window + call_updates,
        "batch_updates": batch_updates,
        "replay_points": window + ROUNDS * batch_updates,
        "rounds": ROUNDS,
        "workers": WORKERS,
    }


def _worker(seed: int, size: dict, cpu: int | None, trace: bool) -> None:
    """One worker process: prepares, prints ``ready <time>``, waits for a
    line on standard input and, if that line is ``go``, runs the work and
    prints its result as JSON."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    from repro.core.online_stl import Decomposition, OnlineSTL, decompose_series

    window, n_call, per_batch = size["window"], size["call_points"], size["batch_updates"]
    n = size["replay_points"]
    values = data.series_matrix(seed, 1, max(n, n_call), PERIODS)[0]
    rec = process_recorder()
    if trace:
        rec.install_core()
    print(f"ready {time.time()!r}", flush=True)
    if sys.stdin.readline() != "go\n":  # a set-up repetition, or the benchmark has gone
        return

    rec.reset()
    t = time.perf_counter_ns()
    dec = decompose_series(values[:n_call], PERIODS, gamma=GAMMA)
    call_ns = time.perf_counter_ns() - t
    acc = rec.reset()

    k = len(PERIODS)
    trend, residual = np.empty(n), np.empty(n)
    seasonal = [np.empty(n) for _ in range(k)]
    model = None
    init_s, batch_s = [], []
    for r in range(ROUNDS):
        fresh = OnlineSTL(PERIODS, gamma=GAMMA)
        t = time.perf_counter()
        head = fresh.initialize(values[:window])
        init_s.append(time.perf_counter() - t)
        if model is None:
            model = fresh
            trend[:window] = head.trend
            for j in range(k):
                seasonal[j][:window] = head.seasonal[j]
            residual[:window] = head.residual

        lo = window + r * per_batch
        t = time.perf_counter()
        for i in range(lo, lo + per_batch):
            pt = model.update(values[i])
            trend[i] = pt.trend
            for j in range(k):
                seasonal[j][i] = pt.seasonal[j]
            residual[i] = pt.residual
        batch_s.append(time.perf_counter() - t)
    if trace:
        rec.uninstall_core()

    # Imported only now: the package import pulls in pyspark, which would
    # dominate and blur setup_s.
    from repro.streaming.state_codec import KeyState, decode, encode

    blob = encode(KeyState(periods=list(PERIODS), gamma=GAMMA, model=model))
    t = time.perf_counter_ns()
    decode(blob)
    decode_ns = time.perf_counter_ns() - t
    t = time.perf_counter_ns()
    encode(KeyState(periods=list(PERIODS), gamma=GAMMA, model=model))
    encode_ns = time.perf_counter_ns() - t

    # The replay and the call share their first min(n, n_call) points.
    m = min(n, n_call)
    replay = Decomposition(trend=trend[:m], seasonal=[x[:m] for x in seasonal], residual=residual[:m])
    call = Decomposition(
        trend=dec.trend[:m], seasonal=[x[:m] for x in dec.seasonal], residual=dec.residual[:m]
    )
    failed = (
        gate.identity_failures(values[:n_call], dec.trend, dec.seasonal, dec.residual)
        + gate.identity_failures(values[:n], trend, seasonal, residual)
        + gate.reference_failures(replay, call)
    )
    print(json.dumps(
        {
            "attempted": n_call + n,
            "failed": failed,
            "call_ns": call_ns,
            "init_s": init_s,
            "batch_s": batch_s,
            "acc": acc,
            "blob_bytes": len(blob),
            "encode_ns": encode_ns,
            "decode_ns": decode_ns,
        }
    ), flush=True)


def _die_with_parent() -> None:
    """Run in the child before it starts: the kernel kills it if the
    benchmark process ends first, so no worker outlives a killed run."""
    import ctypes
    import signal

    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def _ready_at(proc: subprocess.Popen, deadline: float) -> float:
    """Read a worker's ``ready <time>`` line; raises once the worker has
    failed or the deadline has passed, instead of waiting for a line that
    never comes."""
    fd = proc.stdout
    if not select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
        raise TimeoutError("core-weekly workers did not get ready in time")
    line = fd.readline().decode()
    if not line.startswith("ready "):
        raise RuntimeError(f"a core-weekly worker failed (exit code {proc.poll()})")
    return float(line.split()[1])


def run(seed: int, seconds: float, trace: bool, t0: float, deadline: float) -> dict:
    size = sizes(seconds)
    cpus = sorted(os.sched_getaffinity(0))
    pins = cpus[:WORKERS] if len(cpus) >= WORKERS else [None] * WORKERS
    # Plain child processes on pipes, so that every process this starts is
    # one it waits for (multiprocessing would leave its resource tracker
    # running past the end of the run).
    arg = [json.dumps({"seed": seed, "size": size, "cpu": cpu, "trace": trace}) for cpu in pins]
    started, startup_s = [], []  # every process started, for the clean-up
    t_first = time.time()
    try:
        for r in range(SETUP_REPS):
            t_spawn = time.time()
            procs = [
                subprocess.Popen(
                    [sys.executable, "-m", "perfbench.core_weekly", a],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
                    preexec_fn=_die_with_parent,
                )
                for a in arg
            ]
            started += procs
            ready_at = [_ready_at(p, deadline) for p in procs]
            startup_s.append(statistics.median(ready_at) - t_spawn)
            if r < SETUP_REPS - 1:
                for p in procs:
                    p.communicate(b"stop\n", timeout=max(1.0, deadline - time.monotonic()))
        for p in procs:
            p.stdin.write(b"go\n")
        outs = []
        for p in procs:
            out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if p.returncode != 0:
                raise RuntimeError(f"a core-weekly worker failed (exit code {p.returncode})")
            outs.append(json.loads(out.splitlines()[-1]))
    finally:
        for p in started:
            if p.poll() is None:
                p.kill()
            p.wait()

    call_ns = [o["call_ns"] for o in outs]
    batch_s = [b for o in outs for b in o["batch_s"]]
    batch_p50 = statistics.median(batch_s)
    e2e = {
        "points_per_s": size["call_points"] / (statistics.median(call_ns) / 1e9),
        "rows_per_s": size["batch_updates"] / batch_p50,
        "batch_p50_s": batch_p50,
        "warmup_s": statistics.median(s for o in outs for s in o["init_s"]),
        "state_bytes_per_key": float(outs[0]["blob_bytes"]),
        "setup_s": t_first - t0 + statistics.median(startup_s),
    }
    result = {
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "e2e": e2e,
        "sizes": dict(size, periods=PERIODS),
        "timeline": {
            "startup_s": startup_s,
            **{k: [o[k] for o in outs] for k in ("call_ns", "init_s", "batch_s")},
        },
    }
    if trace:
        acc: dict[str, int] = {}
        for o in outs:
            for key, v in o["acc"].items():
                acc[key] = acc.get(key, 0) + v
        metrics, split = layers.core_layers(sum(call_ns), acc, size["call_points"] * len(call_ns))
        metrics.update(
            {
                "codec.decode_us": statistics.median(o["decode_ns"] for o in outs) / 1e3,
                "codec.encode_us": statistics.median(o["encode_ns"] for o in outs) / 1e3,
                "codec.blob_bytes": float(outs[0]["blob_bytes"]),
                "coverage.share": split["total"],
            }
        )
        result["layers"] = metrics
        result["coverage"] = split
    return result


if __name__ == "__main__":
    _args = json.loads(sys.argv[1])
    _worker(_args["seed"], _args["size"], _args["cpu"], _args["trace"])
