"""Load-state bookkeeping: incremental ranking vs. a full re-sort oracle."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binlab.core import (LoadState, check_sorted_invariant, new_state, resorted,
                         tie_blocks)
from binlab.rng import make_generator


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
    ex = new_state(4, exact=True)
    with pytest.raises(ValueError):
        ex.apply_allocation(0, 0.5)
    ex.apply_allocation(0, 3)
    assert ex.loads[0] == 3 and isinstance(ex.loads[0], int)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_incremental_matches_resort(seed):
    rng = make_generator(seed, 7)
    n = int(rng.integers(2, 64))
    st_ = new_state(n)
    for _ in range(10_000):
        b = int(rng.integers(0, n))
        w = float(rng.choice([0.0, 1.0, 2.0, rng.random()]))
        st_.apply_allocation(b, w)
    idx, rank = resorted(st_)
    assert list(st_.sorted_index) == idx
    assert list(st_.rank_of) == rank
    check_sorted_invariant(st_)


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


def test_from_loads_and_copy_are_independent():
    a = LoadState.from_loads([1.5, 0.25, 3.0])
    b = a.copy()
    b.apply_allocation(1, 10.0)
    assert a.loads[1] == 0.25
    assert b.loads[1] == 10.25
    assert list(a.sorted_index) == [2, 0, 1]


@pytest.mark.parametrize("loads,exact", [
    ([2.5, 1.0, 2.5, 0.0, 1.0, 2.5, 0.0], False),
    ([0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300], False),
    ([-0.0, 0.0], False),
    ([3.25], False),
    ([4, 1, 4, 4, 0, 1, 0, 7], True),
    ([0, 0, 0], True),
    ([5], True),
])
def test_from_loads_order_is_heaviest_first_ties_by_id(loads, exact):
    st_ = LoadState.from_loads(loads, exact=exact)
    vals = st_.loads
    assert st_.sorted_index == sorted(range(len(vals)), key=lambda b: (-vals[b], b))
    assert [st_.rank_of[b] for b in st_.sorted_index] == list(range(len(vals)))
    # repr tells -0.0 from 0.0, which == does not
    assert repr(st_._neg_loads) == repr([-vals[b] for b in st_.sorted_index])
    check_sorted_invariant(st_)


def test_gap_and_max_abs():
    st_ = LoadState.from_loads([6, 0, 0, 0])
    # mean 1.5: normalized (4.5, -1.5, -1.5, -1.5)
    assert st_.gap() == pytest.approx(4.5)
    assert st_.max_abs_normalized() == pytest.approx(4.5)
    assert st_.sorted_normalized() == pytest.approx([4.5, -1.5, -1.5, -1.5])


def test_exact_mode_keeps_integers():
    st_ = new_state(3, exact=True)
    for k in range(30):
        st_.apply_allocation(k % 3, 2)
    assert all(isinstance(v, int) for v in st_.loads)
    assert st_.total_weight == 60


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 4)),
                min_size=0, max_size=80))
def test_property_incremental_always_sorted(allocs):
    state = new_state(10)
    for b, w in allocs:
        state.apply_allocation(b, w)
    idx, rank = resorted(state)
    assert list(state.sorted_index) == idx
    assert list(state.rank_of) == rank


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 50, allow_nan=False), min_size=2, max_size=12))
def test_property_normalized_sums_to_zero(loads):
    state = LoadState.from_loads(loads)
    assert float(np.sum(state.normalized())) == pytest.approx(0.0, abs=1e-9)
    assert state.gap() >= 0.0
