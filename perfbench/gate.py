"""Correctness gate. Every check returns a count of failed operations, so
mismatches feed ``failed`` and ``ok_share`` instead of aborting the run."""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # core-weekly workers import this module and never load pandas
    import pandas as pd

TOL = 1e-9  # the tolerance the repo's stream == batch == core tests use


def identity_failures(
    value: np.ndarray, trend: np.ndarray, seasonal: list[np.ndarray], residual: np.ndarray
) -> int:
    """Points whose output is non-finite or breaks X = T + ΣS + R."""
    parts = np.vstack([trend, *seasonal, residual])
    finite = np.isfinite(parts).all(axis=0) & np.isfinite(value)
    err = np.abs(value - trend - np.sum(seasonal, axis=0) - residual)
    return int(np.count_nonzero(~finite | ~(err <= TOL)))


def frame_identity_failures(out: pd.DataFrame, n_periods: int) -> int:
    """:func:`identity_failures` over an operator output frame."""
    return identity_failures(
        out["value"].to_numpy(np.float64),
        out["trend"].to_numpy(np.float64),
        [out[f"seasonal_{j}"].to_numpy(np.float64) for j in range(n_periods)],
        out["residual"].to_numpy(np.float64),
    )


def batch_row_failures(records: list[dict]) -> int:
    """Rows lost or duplicated between a batch's input and its sink."""
    return sum(abs(r["rows_in"] - r["rows_out"]) for r in records)


def reference_failures(got, want) -> int:
    """Points where ``got`` differs from the reference decomposition ``want``
    (both have ``trend``, ``seasonal`` and ``residual``) by more than
    :data:`TOL` in any component; missing or extra points all fail."""
    n_want = len(want.trend)
    n_got = len(got.trend)
    n = min(n_got, n_want)
    bad = np.zeros(n, dtype=bool)
    pairs = [(got.trend, want.trend), (got.residual, want.residual)]
    pairs += list(zip(got.seasonal, want.seasonal))
    for a, b in pairs:
        bad |= ~(np.abs(np.asarray(a[:n]) - np.asarray(b[:n])) <= TOL)
    return int(np.count_nonzero(bad)) + abs(n_want - n_got)
