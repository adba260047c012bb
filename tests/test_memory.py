"""Slot arena allocator."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.memory import OutOfDeviceMemory, SlotArena


def test_slot_count_from_budget():
    arena = SlotArena(capacity_bytes=1000, slot_bytes=64)
    assert arena.num_slots == 15


def test_allocate_returns_distinct_offsets():
    arena = SlotArena(640, 64)
    offsets = [arena.allocate() for _ in range(10)]
    assert len(set(offsets)) == 10


def test_exhaustion_raises():
    arena = SlotArena(128, 64)
    arena.allocate()
    arena.allocate()
    with pytest.raises(OutOfDeviceMemory):
        arena.allocate()


def test_free_recycles():
    arena = SlotArena(128, 64)
    a = arena.allocate()
    arena.allocate()
    arena.free(a)
    assert arena.allocate() == a


def test_used_bytes_accounting():
    arena = SlotArena(1024, 64)
    arena.allocate()
    arena.allocate()
    assert arena.used_bytes == 128
    assert arena.used_slots == 2
    assert arena.free_slots == 14


def test_allocate_many_atomic():
    arena = SlotArena(256, 64)
    with pytest.raises(OutOfDeviceMemory):
        arena.allocate_many(5)
    # Nothing was leaked by the failed bulk allocation.
    assert arena.used_slots == 0
    assert len(arena.allocate_many(4)) == 4


def test_double_free_rejected():
    arena = SlotArena(128, 64)
    a = arena.allocate()
    arena.free(a)
    with pytest.raises(ValueError):
        arena.free(a)


def test_free_unallocated_rejected():
    arena = SlotArena(128, 64)
    with pytest.raises(ValueError):
        arena.free(0)


def test_reset_clears_everything():
    arena = SlotArena(256, 64)
    arena.allocate_many(3)
    arena.reset()
    assert arena.used_slots == 0
    assert len(arena.allocate_many(4)) == 4


def test_zero_capacity_arena():
    arena = SlotArena(0, 64)
    assert arena.num_slots == 0
    with pytest.raises(OutOfDeviceMemory):
        arena.allocate()


def test_rejects_bad_slot_size():
    with pytest.raises(ValueError):
        SlotArena(100, 0)


def test_rejects_negative_capacity():
    with pytest.raises(ValueError):
        SlotArena(-1, 8)


class TestBatchedArena:
    def _state(self, arena):
        # Observable state: occupancy plus the order later allocations
        # would hand slots out in.
        probe = copy.deepcopy(arena)
        return arena.used_slots, [probe.allocate() for _ in range(probe.free_slots)]

    @pytest.mark.parametrize(
        "offsets, message",
        [
            ([1, 3, 1], "double free of slot 1"),  # duplicate within the batch
            ([0, 2], "double free of slot 2"),  # already free
            ([1, 7], "offset 7 was never allocated"),
            ([-1], "offset -1 was never allocated"),
        ],
    )
    def test_free_many_rejects_and_frees_nothing(self, offsets, message):
        arena = SlotArena(16 * 64, 64)
        arena.allocate_many(5)
        arena.free(2)
        before = self._state(arena)
        with pytest.raises(ValueError, match=message):
            arena.free_many(np.array(offsets))
        assert self._state(arena) == before

    def test_free_many_matches_repeated_free(self):
        batched, looped = SlotArena(16 * 64, 64), SlotArena(16 * 64, 64)
        for arena in (batched, looped):
            arena.allocate_many(10)
        batched.free_many(np.array([7, 2, 5]))
        for offset in (7, 2, 5):
            looped.free(offset)
        assert self._state(batched) == self._state(looped)

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 6)), max_size=30
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_allocate_many_matches_repeated_allocate(self, ops, seed):
        rng = np.random.default_rng(seed)
        batched, looped = SlotArena(24 * 8, 8), SlotArena(24 * 8, 8)
        live: list[int] = []
        for alloc, count in ops:
            if alloc:
                count = min(count, batched.free_slots)
                got = batched.allocate_many(count)
                assert got.tolist() == [looped.allocate() for _ in range(count)]
                live.extend(got.tolist())
            elif live:
                picks = rng.permutation(len(live))[: min(count, len(live))]
                offsets = [live[i] for i in picks]
                batched.free_many(np.array(offsets, dtype=np.int64))
                for offset in offsets:
                    looped.free(offset)
                live = [s for s in live if s not in offsets]
            assert batched.used_slots == looped.used_slots == len(live)
        assert self._state(batched) == self._state(looped)

    def test_allocate_many_rejection_changes_nothing(self):
        arena = SlotArena(4 * 64, 64)
        arena.allocate_many(3)
        arena.free(1)
        before = self._state(arena)
        with pytest.raises(OutOfDeviceMemory):
            arena.allocate_many(3)
        assert self._state(arena) == before
