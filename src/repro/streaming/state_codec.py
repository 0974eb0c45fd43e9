"""Serialization of per-key OnlineSTL state for Spark's state store.

The streaming operator keeps one ``KeyState`` per series: either a warm-up
buffer (until 4m points have arrived) or a live :class:`OnlineSTL` model.
State crosses the Python-worker boundary as a single ``BinaryType`` blob in
an explicit versioned layout (native byte order):

* int64 header: version, number of periods k, ``n_seen`` (0 until the
  model is initialized), buffer length b, the k periods, then — for a
  live model — the ``(head, filled)`` cursors of the rings A, K_1..K_k, D;
* int64[b]: the buffered timestamps;
* float64 payload: γ, then — for a live model — the rings A, K_1..K_k, D,
  E_{1,S}..E_{k,S}, E_{1,T}..E_{k,T}; then the b buffered values.

Kernels are not state: they are rebuilt from the periods. The version
guards against reading a stale layout after a code change; the exact
length check rejects truncated or garbage blobs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.circular import CircularArray
from repro.core.online_stl import OnlineSTL

_VERSION = 2
_FIXED = 4  # version, k, n_seen, b


@dataclass
class KeyState:
    """Streaming state for one series key."""

    periods: list[int]
    gamma: float
    buffer_ts: list[int] = field(default_factory=list)
    buffer_vals: list[float] = field(default_factory=list)
    model: OnlineSTL | None = None


def encode(state: KeyState) -> bytes:
    """Serialize a KeyState to a versioned binary blob."""
    model = state.model
    n_seen = model.n_seen if model is not None else 0  # 0 until initialized
    header = [_VERSION, len(state.periods), n_seen, len(state.buffer_vals)]
    header += state.periods
    floats = [np.array([state.gamma])]
    if model is not None:
        for ring in [model.A, *model.K, model.D]:
            buf, head, filled = ring.raw_state()
            header += [head, filled]
            floats.append(buf)
        floats += model.E_S + model.E_T
    floats.append(np.asarray(state.buffer_vals, dtype=np.float64))
    ts = np.asarray(state.buffer_ts, dtype=np.int64)
    return b"".join([np.array(header, dtype=np.int64), ts, *floats])


def decode(blob: bytes) -> KeyState:
    """Deserialize; raises ``ValueError`` on a version mismatch or a blob
    whose length does not match its header, rather than guessing."""
    words = np.frombuffer(blob, dtype=np.int64)  # ValueError unless whole words
    version, k, n_seen, n_buf = words[:_FIXED].tolist()
    if version != _VERSION:
        raise ValueError(f"state version {version} != expected {_VERSION}")
    live = n_seen > 0
    periods = words[_FIXED : _FIXED + k].tolist()
    cursors = words[_FIXED + k : _FIXED + k + 2 * (k + 2) * live].reshape(-1, 2)
    start = _FIXED + k + cursors.size
    m = max(periods)
    n_model = live * (4 * m * (k + 1) + m + 2 * sum(periods))
    if words.size != start + n_buf + 1 + n_model + n_buf:
        raise ValueError(f"state blob of {len(blob)} bytes does not match its header")
    floats = words[start + n_buf :].view(np.float64)
    state = KeyState(
        periods=periods,
        gamma=float(floats[0]),
        buffer_ts=words[start : start + n_buf].tolist(),
        buffer_vals=floats[1 + n_model :].tolist(),
    )
    if live:
        model = state.model = OnlineSTL(periods, gamma=state.gamma)
        sizes = [4 * m] * (k + 1) + [m] + periods * 2  # A, K_1..K_k, D, E_S, E_T
        parts = np.split(floats[1 : 1 + n_model], np.cumsum(sizes)[:-1])
        rings = [CircularArray.from_state(b, *c) for b, c in zip(parts, cursors)]
        model.A, model.K, model.D = rings[0], rings[1:-1], rings[-1]
        model.E_S = [e.copy() for e in parts[k + 2 : 2 * k + 2]]
        model.E_T = [e.copy() for e in parts[2 * k + 2 :]]
        model.n_seen = n_seen
        model.initialized = True
    return state
