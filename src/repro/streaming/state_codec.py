"""Serialization of per-key OnlineSTL state for Spark's state store.

The streaming operator keeps one ``KeyState`` per series: either a warm-up
buffer (until 4m points have arrived) or a live :class:`OnlineSTL` model.
State crosses the Python-worker boundary as a single ``BinaryType`` blob in
an explicit versioned layout (layout 3, native byte order):

* int64 header: version, number of periods k, ``n_seen`` (0 until the
  model is initialized), buffer length b, then the k periods;
* int64[b]: the buffered timestamps;
* float64 payload: γ, then — for a live model — ``model.state`` (its flat
  8·(5m + 5·Σm_p)-byte state, laid out by :class:`OnlineSTL`), then the b
  buffered values.

The model's layout and its ring heads (derived from ``n_seen``) are
:class:`OnlineSTL`'s; this module only frames its state array. Kernels are
not state: they are rebuilt from the periods. The version guards against
reading a stale layout after a code change; the length checks here and in
``OnlineSTL.from_state`` reject truncated or garbage blobs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.online_stl import OnlineSTL

_VERSION = 3
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
    n_seen, floats = (model.n_seen, model.state) if model else (0, np.empty(0))
    header = [_VERSION, len(state.periods), n_seen, len(state.buffer_vals)]
    # Arrays, not a Python list of floats: model.state can be ~10^5 floats.
    return b"".join([
        np.array(header + state.periods, dtype=np.int64),
        np.asarray(state.buffer_ts, dtype=np.int64),
        np.array([state.gamma]),
        floats,
        np.asarray(state.buffer_vals, dtype=np.float64),
    ])


def decode(blob: bytes) -> KeyState:
    """Deserialize; raises ``ValueError`` on a version mismatch or a blob
    whose length does not match its header, rather than guessing."""
    words = np.frombuffer(blob, dtype=np.int64)  # ValueError unless whole words
    version, k, n_seen, n_buf = words[:_FIXED].tolist()
    if version != _VERSION:
        raise ValueError(
            f"state layout version {version} != expected {_VERSION}: this "
            "checkpoint was written by another version of the operator and "
            "cannot be resumed; start the query from a fresh checkpoint"
        )
    start = _FIXED + k
    n_model = words.size - start - 2 * n_buf - 1  # floats left for model.state
    if min(k, n_seen, n_buf, n_model) < 0 or (n_seen == 0) != (n_model == 0):
        raise ValueError(f"state blob of {len(blob)} bytes does not match its header")
    floats = words[start + n_buf :].view(np.float64)
    state = KeyState(
        periods=words[_FIXED:start].tolist(),
        gamma=float(floats[0]),
        buffer_ts=words[start : start + n_buf].tolist(),
        buffer_vals=floats[1 + n_model :].tolist(),
    )
    if n_seen:
        state.model = OnlineSTL.from_state(
            state.periods, state.gamma, n_seen, floats[1 : 1 + n_model]
        )
    return state
