"""Seeded inputs for the benchmark workloads.

Every series is a DevOps-style metric: level + slope + one sine wave per
period (random amplitude and phase per key) + Gaussian noise. The program
under test only ever sees the generated values; the seed alone decides them.
"""
from __future__ import annotations

import os

import numpy as np


def series_matrix(
    seed: int, n_keys: int, n_points: int, periods: list[int]
) -> np.ndarray:
    """``(n_keys, n_points)`` float64 values, deterministic in ``seed``."""
    g = np.random.default_rng(seed)
    t = np.arange(n_points, dtype=np.float64)
    base = g.uniform(10.0, 100.0, (n_keys, 1))
    slope = g.uniform(-0.01, 0.01, (n_keys, 1))
    out = base + slope * t
    for p in periods:
        amp = g.uniform(0.5, 3.0, (n_keys, 1))
        phase = g.uniform(0.0, 2.0 * np.pi, (n_keys, 1))
        out = out + amp * np.sin(2.0 * np.pi * t / p + phase)
    return out + g.normal(0.0, 0.3, (n_keys, n_points))


def chunk_bounds(warmup_points: int, steady_batches: int, per_batch: int) -> list[tuple[int, int]]:
    """``[start, end)`` point ranges of the warm-up chunk and each steady chunk."""
    bounds = [(0, warmup_points)]
    for i in range(steady_batches):
        start = warmup_points + i * per_batch
        bounds.append((start, start + per_batch))
    return bounds


def write_chunks(values: np.ndarray, bounds: list[tuple[int, int]], directory: str) -> None:
    """Write one parquet file per chunk, rows ordered by (ts, series_id).

    The file source replays unseen files in modification-time order, so the
    chunks get strictly increasing mtimes one second apart instead of
    relying on write timing.
    """
    import pandas as pd  # here, so that core-weekly workers never load it

    os.makedirs(directory, exist_ok=True)
    n_keys = values.shape[0]
    keys = np.arange(n_keys, dtype=np.int64)
    for i, (start, end) in enumerate(bounds):
        n = end - start
        frame = pd.DataFrame(
            {
                "series_id": np.tile(keys, n),
                "ts": np.repeat(np.arange(start, end, dtype=np.int64), n_keys),
                "value": values[:, start:end].T.reshape(-1),
            }
        )
        path = os.path.join(directory, f"chunk-{i:04d}.parquet")
        frame.to_parquet(path, index=False)
        os.utime(path, (1_000_000_000 + i, 1_000_000_000 + i))
