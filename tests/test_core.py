"""Load-state bookkeeping: the rank order read from the loads vs. a sorted()
oracle."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binlab.core import LoadState, new_state, tie_blocks
from binlab.processes import _snapshot
from binlab.rng import make_generator


def _oracle(state):
    """(sorted_index, rank_of) by a full sort: heaviest first, ties by id."""
    loads = state.loads.tolist()
    order = sorted(range(state.n), key=lambda b: (-loads[b], b))
    rank = [0] * state.n
    for r, b in enumerate(order):
        rank[b] = r
    return order, rank


def _assert_ranked(state):
    """The state's order, its inverse and every ``rank(b)`` match the oracle."""
    order, rank = _oracle(state)
    assert [state.rank(b) for b in range(state.n)] == rank
    assert state.sorted_index.tolist() == order
    assert state.rank_of.tolist() == rank


@pytest.fixture
def rng():
    return make_generator(1234, 0)


def test_new_state_flat():
    st_ = new_state(5)
    assert st_.n == 5
    assert list(st_.loads) == [0.0] * 5
    assert st_.gap() == 0.0
    assert list(st_.sorted_index) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("n", [0, -3])
def test_invalid_n_rejected(n):
    with pytest.raises(ValueError):
        new_state(n)


def test_apply_allocation_validates():
    st_ = new_state(4)
    with pytest.raises(ValueError):
        st_.apply_allocation(4, 1.0)
    with pytest.raises(ValueError):
        st_.apply_allocation(-1, 1.0)
    with pytest.raises(ValueError):
        st_.apply_allocation(0, -0.5)
    assert st_.step == 0 and list(st_.loads) == [0.0] * 4


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_incremental_matches_resort(seed):
    rng = make_generator(seed, 7)
    n = int(rng.integers(2, 64))
    st_ = new_state(n)
    for _ in range(10_000):
        b = int(rng.integers(0, n))
        w = float(rng.choice([0.0, 1.0, 2.0, rng.random()]))
        st_.apply_allocation(b, w)
        if b == 0:
            _assert_ranked(st_)  # the cached order is dropped by the next ball
    _assert_ranked(st_)


def test_weight_conservation(rng):
    st_ = new_state(8)
    total = 0.0
    for _ in range(300):
        w = float(rng.random())
        st_.apply_allocation(int(rng.integers(0, 8)), w)
        total += w
    assert st_.total_weight == pytest.approx(total, abs=1e-9)
    assert st_.step == 300
    assert float(np.sum(st_.normalized())) == pytest.approx(0.0, abs=1e-7)


def test_tie_ranks_ascend_by_id():
    st_ = LoadState.from_loads([7, 3, 7, 3, 7, 1])
    # heaviest block: ids 0, 2, 4; middle: 1, 3; lightest: 5
    assert list(st_.sorted_index) == [0, 2, 4, 1, 3, 5]
    assert tie_blocks(st_) == [(0, 3), (3, 5), (5, 6)]


def test_rank_tracks_after_tie_break():
    st_ = LoadState.from_loads([2, 2, 2])
    st_.apply_allocation(1, 1)
    # bin 1 is now strictly heaviest; 0 and 2 stay tied in id order
    assert list(st_.sorted_index) == [1, 0, 2]
    st_.apply_allocation(2, 1)
    assert list(st_.sorted_index) == [1, 2, 0]


def test_from_loads_copies_its_input():
    src = np.array([1.5, 0.25, 3.0])
    a = LoadState.from_loads(src)
    a.apply_allocation(1, 10.0)
    assert src[1] == 0.25
    assert a.loads[1] == 10.25
    assert list(a.sorted_index) == [1, 2, 0]
    with pytest.raises(ValueError):
        a.loads[0] = 7.0  # handed out read-only


@pytest.mark.parametrize("loads,as_array", [
    ([2.5, 1.0, 2.5, 0.0, 1.0, 2.5, 0.0], False),
    ([0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300], False),
    ([-0.0, 0.0], False),
    ([3.25], False),
    ([4, 1, 4, 4, 0, 1, 0, 7], True),
    ([0, 0, 0], True),
    ([5], True),
])
def test_from_loads_order_is_heaviest_first_ties_by_id(loads, as_array):
    # as_array: an integer array, as the engines and rng.integers hand over
    st_ = LoadState.from_loads(np.array(loads) if as_array else loads)
    assert st_.loads.dtype == np.float64
    # repr tells -0.0 from 0.0, which == does not: the values are kept
    assert repr(st_.loads.tolist()) == repr([float(v) for v in loads])
    assert st_.total_weight == sum(float(v) for v in loads)
    _assert_ranked(st_)


def test_gap_and_max_abs():
    st_ = LoadState.from_loads([6, 0, 0, 0])
    # mean 1.5: normalized (4.5, -1.5, -1.5, -1.5)
    assert st_.gap() == pytest.approx(4.5)
    assert st_.sorted_normalized() == pytest.approx([4.5, -1.5, -1.5, -1.5])
    # a probe row's max |y| (the sweeps' max_abs_y) takes the larger side
    row = _snapshot(st_.loads, 6, None, 0)
    assert (row.gap, row.max_abs) == (4.5, 4.5)
    row = _snapshot(LoadState.from_loads([0, 2, 2, 2]).loads, 6, None, 0)
    assert (row.gap, row.max_abs) == (0.5, 1.5)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 4)),
                min_size=0, max_size=80))
def test_property_incremental_always_sorted(allocs):
    state = new_state(10)
    for b, w in allocs:
        state.apply_allocation(b, w)
    loads = state.loads.tolist()
    assert state.sorted_index.tolist() == sorted(range(10), key=lambda b: (-loads[b], b))
    _assert_ranked(state)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 50, allow_nan=False), min_size=2, max_size=12))
def test_property_normalized_sums_to_zero(loads):
    state = LoadState.from_loads(loads)
    assert float(np.sum(state.normalized())) == pytest.approx(0.0, abs=1e-9)
    assert state.gap() >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300, -1e-300]),
                min_size=1, max_size=12))
def test_property_from_loads_ranked_with_signed_zeros(loads):
    # -0.0 and 0.0 are one load: they tie, and rank by id
    state = LoadState.from_loads(loads)
    assert state.sorted_index.tolist() == sorted(range(len(loads)),
                                                 key=lambda b: (-loads[b], b))
    _assert_ranked(state)
