"""Unit tests for the circular array (the paper's UPDATEARRAY primitive)."""
import collections

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.circular import CircularArray


class TestConstruction:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CircularArray(np.empty(0))

    def test_init_full(self):
        """A new ring holds its whole buffer, oldest at ``head``."""
        buf = np.array([1.0, 2.0, 3.0])
        assert CircularArray(buf).view_last(3).tolist() == [1.0, 2.0, 3.0]
        assert CircularArray(buf, head=1).view_last(3).tolist() == [2.0, 3.0, 1.0]


class TestAppendAndView:
    def test_view_last_order(self):
        c = CircularArray(np.array([1.0, 2.0, 3.0, 4.0]))
        c.append(5.0)  # overwrites 1.0
        assert c.view_last(4).tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_view_last_partial(self):
        c = CircularArray(np.array([1.0, 2.0, 3.0, 4.0]))
        c.append(5.0)
        c.append(6.0)
        assert c.view_last(2).tolist() == [5.0, 6.0]

    def test_view_more_than_held_raises(self):
        c = CircularArray(np.ones(5))
        with pytest.raises(ValueError):
            c.view_last(6)

    def test_view_is_copy(self):
        c = CircularArray(np.array([1.0, 2.0, 3.0]))
        v = c.view_last(3)
        v[0] = 99.0
        assert c.view_last(3)[0] == 1.0

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=20),
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=100),
    )
    def test_matches_deque_reference(self, init, xs):
        """Property: a ring built over ``init`` behaves exactly like a
        deque of maxlen ``len(init)`` that starts out holding ``init``."""
        cap = len(init)
        c = CircularArray(np.array(init))
        ref = collections.deque(init, maxlen=cap)
        for x in xs:
            c.append(x)
            ref.append(x)
            for w in range(1, cap + 1):
                assert c.view_last(w).tolist() == list(ref)[cap - w :]


class TestStateRoundtrip:
    """A ring's state is its buffer plus its head, which its owner derives."""

    def test_appends_write_through_to_buffer(self):
        buf = np.array([1.0, 2.0, 3.0])
        c = CircularArray(buf)
        c.append(4.0)
        assert buf.tolist() == [4.0, 2.0, 3.0]

    def test_roundtrip_preserves_future_appends(self):
        buf = np.array([1.0, 2.0, 3.0])
        c = CircularArray(buf)
        c.append(4.0)
        c2 = CircularArray(buf.copy(), head=1)  # one append since the init
        assert c2.view_last(3).tolist() == c.view_last(3).tolist()
        c.append(5.0)
        c2.append(5.0)
        assert c.view_last(3).tolist() == c2.view_last(3).tolist()
