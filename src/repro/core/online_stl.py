"""OnlineSTL — the paper's core contribution (§5, Algorithm 1).

One instance decomposes one time series. Lifecycle:

1. ``initialize(first_4m_points)`` — the offline phase (§5.2). Runs the
   STL-skeleton pipeline (symmetric trend filter → cyclic-subseries
   exponential smoothing, twice, per period) to seed the state arrays
   A, K_p, E_{p,S}, E_{p,T}, D.
2. ``update(x)`` per arriving point — the O(1)-per-point online phase
   (§5.3 / Algorithm 1): alternating non-symmetric tri-cube trend filters
   and single-slot exponential seasonal updates, one pass per period.

``run(values)`` drives both phases over a run of points and returns aligned
arrays; ``decompose_series`` and the streaming operator both go through it.

The state is one float64 array, ``OnlineSTL.state``, holding only the
windows Algorithm 1 reads, in this order: A (4m), K_1..K_k (3·m_p each),
D (m), E_{1,S}..E_{k,S}, E_{1,T}..E_{k,T} (m_p each) — 5m + 5·Σm_p floats
for max period m, independent of the number of points seen, as the paper
requires of a streaming algorithm. The rings are views of that array; each
advances once per update, so its head is ``(n_seen − 4m) % capacity`` and
is not stored. The tri-cube kernels are constants of their windows, shared
process-wide (:func:`repro.core.kernels.kernel`), and are not state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.circular import CircularArray
from repro.core.filters import (
    seasonal_smooth,
    symmetric_trend_filter,
    trend_filter,
)
from repro.core.kernels import kernel


@dataclass
class DecompPoint:
    """Decomposition of a single point: X = trend + sum(seasonal) + residual."""

    trend: float
    seasonal: tuple[float, ...]  # one component per period, in period order
    residual: float


@dataclass
class Decomposition:
    """Batch-shaped decomposition output (arrays aligned with the input)."""

    trend: np.ndarray
    seasonal: list[np.ndarray]  # one array per period, in period order
    residual: np.ndarray


class OnlineSTL:
    """Online seasonal-trend decomposition for one series (Algorithm 1)."""

    def __init__(self, periods: list[int] | tuple[int, ...], gamma: float = 0.7):
        if not periods:
            raise ValueError("at least one seasonality period is required")
        if any(p < 2 for p in periods):
            raise ValueError(f"periods must be >= 2, got {periods}")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.periods = [int(p) for p in periods]
        self.gamma = float(gamma)
        self.m = max(self.periods)
        self.window = 4 * self.m
        self.n_seen = 0
        self.initialized = False
        self.state = np.empty(0)  # the flat state; _bind() gives its layout

    # ---------------------------------------------------------------- init
    def initialize(self, values: np.ndarray) -> Decomposition:
        """Offline phase (§5.2) over exactly the first ``4m`` points.

        Per period p, on the progressively deseasonalized working series
        (see DESIGN.md ambiguity #3):
          * subtract a symmetric trend filter of window 2·m_p  → T1,
          * exponentially smooth T1's cyclic subseries           → K_p, E_{p,S},
          * subtract a symmetric trend (window 3·m_p/2) of K_p from T1 → D5,
          * exponentially smooth D5's cyclic subseries           → E_{p,T},
          * deseasonalize the working series by the smoothed D5 series.
        Finally D := last m points of the working series.

        Returns the decomposition of the initial batch so callers (e.g. the
        streaming operator) can emit output for warm-up points too.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size != self.window:
            raise ValueError(
                f"initialize() needs exactly 4m={self.window} points, got {values.size}"
            )
        if self.initialized:
            raise RuntimeError("initialize() called twice")
        working = values.copy()
        K, E_S, E_T, seasonal_out = [], [], [], []  # per period, in period order
        for p in self.periods:
            t1_series = symmetric_trend_filter(working, 2 * p)
            T1 = working - t1_series
            k_series = seasonal_smooth(T1, p, self.gamma)
            K.append(k_series[-3 * p :])  # update reads only K_p's last 3p
            E_S.append(self._last_phase_values(k_series, p))
            trend_of_seas = symmetric_trend_filter(k_series, max(1, (3 * p) // 2))
            D5 = T1 - trend_of_seas
            s_series = seasonal_smooth(D5, p, self.gamma)
            E_T.append(self._last_phase_values(s_series, p))
            seasonal_out.append(s_series)
            working = working - s_series
        self._bind(np.concatenate([values, *K, working[-self.m :], *E_S, *E_T]), self.window)
        # Decomposition for the warm-up batch: final trend is a symmetric
        # smooth (window m) of the fully deseasonalized series.
        trend = symmetric_trend_filter(working, self.m)
        residual = values - trend - np.sum(seasonal_out, axis=0)
        return Decomposition(trend=trend, seasonal=seasonal_out, residual=residual)

    @classmethod
    def from_state(
        cls, periods: list[int], gamma: float, n_seen: int, floats: np.ndarray
    ) -> "OnlineSTL":
        """Restore a model that has seen ``n_seen`` points from (a copy of)
        its ``state``; raises ``ValueError`` if ``floats`` does not fit."""
        model = cls(periods, gamma=gamma)
        model._bind(np.array(floats, dtype=np.float64), n_seen)
        return model

    def _bind(self, state: np.ndarray, n_seen: int) -> None:
        """Make ``state`` the model's state after ``n_seen`` points: the
        windows become views of it, each ring's head derived from ``n_seen``."""
        k = len(self.periods)
        # The layout: A, K_1..K_k, D, E_{1..k,S}, E_{1..k,T}.
        sizes = [self.window, *(3 * p for p in self.periods), self.m, *self.periods * 2]
        if n_seen < self.window or state.size != sum(sizes):
            raise ValueError(
                f"{state.size} state floats after {n_seen} points do not fit "
                f"periods {self.periods}"
            )
        parts = np.split(state, np.cumsum(sizes)[:-1])
        # Every ring is full at initialize() and takes one value per update.
        rings = [CircularArray(b, (n_seen - self.window) % b.size) for b in parts[: k + 2]]
        self.A, self.K, self.D = rings[0], rings[1:-1], rings[-1]
        self.E_S, self.E_T = parts[k + 2 : 2 * k + 2], parts[2 * k + 2 :]
        self.state, self.n_seen, self.initialized = state, n_seen, True

    @staticmethod
    def _last_phase_values(series: np.ndarray, period: int) -> np.ndarray:
        """E_p[r] := last value of the r'th smoothed cyclic subseries."""
        # For each phase r, the last index j < n with j % period == r.
        n = series.size
        return series[n - 1 - (n - 1 - np.arange(period)) % period]

    # -------------------------------------------------------------- update
    def update(self, x: float) -> DecompPoint:
        """Online phase (Algorithm 1) for one arriving point ``X_i``."""
        if not self.initialized:
            raise RuntimeError("update() before initialize()")
        self.n_seen += 1
        i = self.n_seen  # 1-based timestamp of this point
        self.A.append(float(x))
        b = float(x)
        seasonal: list[float] = []
        for idx, p in enumerate(self.periods):
            k4, l4 = kernel(4 * p)
            t1 = trend_filter(k4, l4, self.A.view_last(4 * p))
            d1 = b - t1
            r = (i - 1) % p
            g = self.gamma
            self.E_S[idx][r] = g * d1 + (1.0 - g) * self.E_S[idx][r]
            self.K[idx].append(self.E_S[idx][r])
            k3, l3 = kernel(3 * p)
            t4 = trend_filter(k3, l3, self.K[idx].view_last(3 * p))
            d5 = b - t1 - t4
            self.E_T[idx][r] = g * d5 + (1.0 - g) * self.E_T[idx][r]
            s = self.E_T[idx][r]
            seasonal.append(s)
            b -= s  # deseasonalize for the next period
        self.D.append(b)
        km, lm = kernel(self.m)
        trend = trend_filter(km, lm, self.D.view_last(self.m))
        residual = float(x) - trend - float(np.sum(seasonal))
        return DecompPoint(trend=trend, seasonal=tuple(seasonal), residual=residual)

    # ----------------------------------------------------------------- run
    def run(self, values: np.ndarray) -> Decomposition:
        """Decompose the next points of the series into aligned arrays.

        An uninitialized model first initializes on the leading 4m points
        (``initialize`` raises if there are fewer); every later point is one
        ``update``.
        """
        values = np.asarray(values, dtype=np.float64)
        # Rows: trend, one seasonal component per period, residual.
        out = np.empty((len(self.periods) + 2, values.size))
        start = 0
        if not self.initialized:
            start = self.window
            head = self.initialize(values[:start])
            out[:, :start] = [head.trend, *head.seasonal, head.residual]
        for t in range(start, values.size):
            pt = self.update(values[t])
            out[:, t] = (pt.trend, *pt.seasonal, pt.residual)
        return Decomposition(trend=out[0], seasonal=list(out[1:-1]), residual=out[-1])

    # ------------------------------------------------------------- helpers
    def state_floats(self) -> int:
        """Number of float64 slots held, 5m + 5·Σm_p once initialized — the
        space claim (§3.2)."""
        return self.state.size


def decompose_series(
    values: np.ndarray, periods: list[int], gamma: float = 0.7
) -> Decomposition:
    """Run OnlineSTL over a bounded series: init on the first 4m points,
    then one online update per remaining point."""
    model = OnlineSTL(periods, gamma=gamma)
    if len(values) < model.window:
        raise ValueError(
            f"series of length {len(values)} is shorter than 4m={model.window}; "
            "OnlineSTL needs one full window to initialize"
        )
    return model.run(values)
