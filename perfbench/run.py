#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload core-weekly --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes a separate traced run and prints the
per-layer metrics. Every metric is printed with its unit, then the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result, with the raw progress of every
micro-batch, the spans and an environment fingerprint, is saved under
``.perfbench/results/``. The exit code is 1 when the correctness gate
fails and 2 when the checkout lacks the program.
"""
from __future__ import annotations

import time

T0 = time.time()  # process start, for setup_s

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / ".perfbench"
END_TO_END = [
    ("points_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("batch_p50_s", "s"),
    ("warmup_s", "s"),
    ("state_bytes_per_key", "bytes"),
    ("setup_s", "s"),
    ("ok_share", "share"),
]
DEADLINE_S = 170.0


def _program_present() -> bool:
    return (ROOT / "src" / "repro" / "core" / "online_stl.py").is_file() and (
        ROOT / "jobs" / "_session.py"
    ).is_file()


def _prepare_environment() -> None:
    """Make the program importable here and in Spark's Python workers, and
    keep Spark's and the JVM's scratch files inside the checkout."""
    for p in (ROOT / "jobs", ROOT / "src", ROOT):
        sys.path.insert(0, str(p))
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    tmp = BENCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"


def _become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process rather than
    to init: Spark's launcher leaves a finished shell behind its JVM, and
    Python workers can outlive the JVM by a moment. ``_reap_descendants``
    then waits for all of them."""
    ctypes.CDLL(None, use_errno=True).prctl(36, 1)  # PR_SET_CHILD_SUBREAPER


def _children() -> list[int]:
    me, pids = os.getpid(), []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:  # it has ended meanwhile
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap_descendants(timeout: float = 5.0) -> None:
    """Wait until no child of this process is left; kill what is still
    running after ``timeout`` seconds."""
    end = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > end:
            for child in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.05)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for base in ("src", "jobs", "perfbench"):
        for path in sorted((ROOT / base).rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(seed: int, spark_env: dict | None) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "spark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        **(spark_env or {
            "defaultParallelism": None,
            "shuffle_partitions": None,
            "state_store_provider": None,
        }),
    }


def _save(workload: str, seed: int, trace: int, result: dict) -> Path:
    out = BENCH / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload}-trace{trace}-seed{seed}-{int(T0 * 1000)}.json.gz"
    with gzip.open(path, "wt") as f:
        json.dump(result, f)
    return path


def _print_report(result: dict, names: list[tuple[str, str]]) -> None:
    for name, unit in names:
        print(f"{name:28s} {result['metrics'][name]['value']:>16.6g} {unit}")
    if "coverage" in result:
        print("layer split of measured wall time:")
        for k, v in result["coverage"].items():
            print(f"  {k:26s} {v:8.1%}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _program_present():
        print(f"program sources not found under {ROOT}", file=sys.stderr)
        return 2
    _prepare_environment()
    _become_subreaper()
    from perfbench import core_weekly, layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S - (time.time() - T0)
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = bool(args.trace)
    try:
        if args.workload == "core-weekly":
            res = core_weekly.run(args.seed, args.seconds, trace, T0, deadline)
            if trace:
                # The base of the tracing overhead: the same work, untraced.
                base = core_weekly.run(args.seed, args.seconds, False, T0, deadline)
                res["layers"]["trace.overhead_share"] = (
                    base["e2e"]["rows_per_s"] / res["e2e"]["rows_per_s"] - 1.0
                )
        else:
            res = workloads.run_stream(
                args.workload, args.seed, args.seconds, trace, T0, str(work), deadline
            )
    finally:
        _reap_descendants()
        shutil.rmtree(work, ignore_errors=True)

    e2e = res.pop("e2e")
    e2e["ok_share"] = 1.0 - res["failed"] / res["attempted"]
    if trace:
        layer = res.pop("layers")
        names = layers.PER_LAYER
        values = {n: float(layer.get(n, 0.0)) for n, _ in names}
    else:
        names = END_TO_END
        values = e2e
    out = {
        "correct": res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }
    full = dict(out, workload=args.workload, trace=args.trace, seconds=args.seconds,
                env=fingerprint(args.seed, res.pop("env_spark", None)),
                end_to_end=e2e, **res)
    path = _save(args.workload, args.seed, args.trace, full)
    _print_report(full, names)
    print(f"result saved to {path.relative_to(ROOT)}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
