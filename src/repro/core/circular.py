"""Circular (ring) array with O(1) append — the paper's UPDATEARRAY(X, y).

OnlineSTL maintains fixed-size sliding windows (A, K_p, D). UPDATEARRAY
"replaces the oldest element with y" (notation item 9). A ring is always
full: it is built over a buffer that already holds one window, and writes
into that buffer in place, so the buffer stays the window's stored state.
A write cursor makes append O(1); ``view_last(w)`` materializes the most
recent ``w`` elements in time order for the trend-filter dot products.
"""
from __future__ import annotations

import numpy as np


class CircularArray:
    """Full fixed-capacity ring of float64 with oldest-overwrite append."""

    def __init__(self, buf: np.ndarray, head: int = 0) -> None:
        """Ring over ``buf`` (not copied) whose oldest element is at
        ``buf[head]``, so the newest is at ``buf[head - 1]``."""
        if buf.size < 1:
            raise ValueError("a ring needs a buffer of at least one element")
        self.capacity = buf.size
        self._buf = buf
        self._head = head  # index of the oldest element / next write slot

    def append(self, y: float) -> None:
        """UPDATEARRAY: overwrite the oldest element with ``y``."""
        self._buf[self._head] = y
        self._head = (self._head + 1) % self.capacity

    def view_last(self, w: int) -> np.ndarray:
        """The most recent ``w <= capacity`` elements, oldest→newest (a copy)."""
        if w > self.capacity:
            raise ValueError(f"requested last {w} of {self.capacity} elements")
        start = self._head - w
        if start >= 0:
            return self._buf[start : self._head].copy()
        return np.concatenate([self._buf[start:], self._buf[: self._head]])
