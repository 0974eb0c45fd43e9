"""Spans for the traced run, recorded from outside the program.

Only public entry points are wrapped:

* ``core``: ``OnlineSTL.initialize`` and ``OnlineSTL.update`` (class
  attributes, so every model in the process is timed);
* ``codec``: the ``encode``/``decode`` names the per-key function resolves
  when it runs;
* ``operator``: the per-key function itself, wrapped where it is handed to
  ``GroupedData.applyInPandasWithState``.

The wrapped per-key function is pickled to Spark's Python workers, so each
worker process installs the core and codec timers the first time it runs
and appends one JSON line per call to ``spans-<pid>.jsonl`` in the span
directory. A worker process has no end the benchmark can hook, so lines are
written as calls finish rather than buffered to exit.
"""
from __future__ import annotations

import contextlib
import glob
import json
import os
import time
from collections import defaultdict


class Recorder:
    """Per-process accumulator of time spent in wrapped calls."""

    def __init__(self) -> None:
        self.acc: dict[str, int] = defaultdict(int)
        self._core_installed = False

    def reset(self) -> dict[str, int]:
        acc, self.acc = self.acc, defaultdict(int)
        return dict(acc)

    def timed(self, name: str, func, size_of_result: bool = False):
        """Wrap ``func`` so each call adds its duration to ``<name>_ns``,
        its count to ``<name>_n`` and, optionally, ``len(result)`` to
        ``<name>_bytes``."""

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                self.acc[name + "_ns"] += time.perf_counter_ns() - t0
                self.acc[name + "_n"] += 1
            if size_of_result:
                self.acc[name + "_bytes"] += len(result)
            return result

        wrapper.perfbench_wrapped = func
        return wrapper

    def install_core(self) -> None:
        """Time ``OnlineSTL.initialize``/``update`` for this process."""
        if self._core_installed:
            return
        from repro.core.online_stl import OnlineSTL

        OnlineSTL.initialize = self.timed("init", OnlineSTL.initialize)
        OnlineSTL.update = self.timed("update", OnlineSTL.update)
        self._core_installed = True

    def uninstall_core(self) -> None:
        if not self._core_installed:
            return
        from repro.core.online_stl import OnlineSTL

        OnlineSTL.initialize = OnlineSTL.initialize.perfbench_wrapped
        OnlineSTL.update = OnlineSTL.update.perfbench_wrapped
        self._core_installed = False

    def install_codec(self, fn) -> None:
        """Time the codec calls ``fn`` makes by rebinding the names in the
        globals it resolves at call time."""
        g = fn.__globals__
        if "decode" in g and not hasattr(g["decode"], "perfbench_wrapped"):
            g["decode"] = self.timed("decode", g["decode"])
        if "encode" in g and not hasattr(g["encode"], "perfbench_wrapped"):
            g["encode"] = self.timed("encode", g["encode"], size_of_result=True)


_PROCESS: dict[str, Recorder] = {}


def process_recorder() -> Recorder:
    """The recorder of the current process (one per worker process, since
    the timers it installs are process-wide)."""
    if "rec" not in _PROCESS:
        _PROCESS["rec"] = Recorder()
    return _PROCESS["rec"]


def _batch_id() -> int:
    from pyspark import TaskContext

    ctx = TaskContext.get()
    value = ctx.getLocalProperty("streaming.sql.batchId") if ctx else None
    return int(value) if value is not None else -1


def traced_operator_fn(fn, span_dir: str):
    """Wrap a per-key ``applyInPandasWithState`` function. The input
    iterator is drained before the ``fn`` span opens, so reading Arrow
    batches into pandas counts as engine time, not operator time."""

    def traced(key, pdfs, state):
        rec = process_recorder()
        rec.install_core()
        rec.install_codec(fn)
        t0 = time.perf_counter_ns()
        chunks = list(pdfs)
        t1 = time.perf_counter_ns()
        rec.reset()
        outs = list(fn(key, iter(chunks), state))
        t2 = time.perf_counter_ns()
        span = rec.reset()
        span.update(
            pid=os.getpid(),
            batch=_batch_id(),
            key=int(key[0]),
            input_ns=t1 - t0,
            fn_ns=t2 - t1,
            rows_in=sum(len(c) for c in chunks),
            rows_out=sum(len(o) for o in outs),
        )
        with open(os.path.join(span_dir, f"spans-{os.getpid()}.jsonl"), "a") as f:
            f.write(json.dumps(span) + "\n")
        yield from outs

    return traced


@contextlib.contextmanager
def traced_operator(span_dir: str):
    """While active, every ``applyInPandasWithState`` call built in this
    process gets its per-key function wrapped by :func:`traced_operator_fn`."""
    from pyspark.sql.group import GroupedData

    original = GroupedData.applyInPandasWithState

    def patched(self, func, *args, **kwargs):
        return original(self, traced_operator_fn(func, span_dir), *args, **kwargs)

    GroupedData.applyInPandasWithState = patched
    try:
        yield
    finally:
        GroupedData.applyInPandasWithState = original


def read_spans(span_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans
