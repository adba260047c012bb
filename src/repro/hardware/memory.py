"""Device memory arena used to back per-GPU cache storage.

The real system carves cache slots out of GPU HBM; here an arena tracks a
byte budget and hands out fixed-size *slots* (one embedding entry each).
The Filler and Refresher allocate and free slots through this interface, so
capacity accounting — the ``Cap_j`` constraint of the solver — is enforced
at runtime, not just at planning time.
"""

from __future__ import annotations

import numpy as np


class OutOfDeviceMemory(RuntimeError):
    """Raised when an allocation does not fit in the arena's budget."""


class SlotArena:
    """Fixed-slot allocator over a byte budget.

    Slots are identified by integer offsets (0-based slot indices), matching
    the paper's per-GPU hashtable values ``<GPU_i, Offset>``.  Freed slots
    are recycled LIFO so long-running refresh cycles do not fragment.

    A per-slot free bitmap keeps every misuse check O(1) per slot (a
    batch adds one popcount of the bitmap to catch a slot listed twice);
    the batched :meth:`allocate_many` / :meth:`free_many` hand out and take
    back exactly the slots the one-at-a-time calls would, in the same
    order, and change nothing when they reject.
    """

    def __init__(self, capacity_bytes: int, slot_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if slot_bytes <= 0:
            raise ValueError("slot size must be positive")
        self._slot_bytes = slot_bytes
        self._num_slots = capacity_bytes // slot_bytes
        self._next_fresh = 0
        self._free_list: list[int] = []
        #: True for slots on the free list (handed out once, then freed).
        self._is_free = np.zeros(self._num_slots, dtype=bool)

    @property
    def num_slots(self) -> int:
        """Total slots the arena can ever hold."""
        return self._num_slots

    @property
    def slot_bytes(self) -> int:
        return self._slot_bytes

    @property
    def used_slots(self) -> int:
        return self._next_fresh - len(self._free_list)

    @property
    def free_slots(self) -> int:
        return self._num_slots - self.used_slots

    @property
    def used_bytes(self) -> int:
        return self.used_slots * self._slot_bytes

    def allocate(self) -> int:
        """Claim one slot; returns its offset."""
        if self._free_list:
            offset = self._free_list.pop()
            self._is_free[offset] = False
            return offset
        if self._next_fresh >= self._num_slots:
            raise OutOfDeviceMemory(
                f"arena exhausted: {self._num_slots} slots of {self._slot_bytes} B"
            )
        offset = self._next_fresh
        self._next_fresh += 1
        return offset

    def allocate_many(self, count: int) -> np.ndarray:
        """Claim ``count`` slots atomically (all or nothing).

        Returns the offsets in the order ``count`` calls to
        :meth:`allocate` would: most recently freed first, then fresh.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > self.free_slots:
            raise OutOfDeviceMemory(
                f"requested {count} slots, only {self.free_slots} free"
            )
        recycled = min(count, len(self._free_list))
        reused = np.array(
            self._free_list[len(self._free_list) - recycled:][::-1],
            dtype=np.int64,
        )
        del self._free_list[len(self._free_list) - recycled:]
        self._is_free[reused] = False
        fresh = np.arange(
            self._next_fresh, self._next_fresh + count - recycled, dtype=np.int64
        )
        self._next_fresh += len(fresh)
        return np.concatenate((reused, fresh))

    def free(self, offset: int) -> None:
        """Release a slot previously returned by :meth:`allocate`."""
        if not 0 <= offset < self._next_fresh:
            raise ValueError(f"offset {offset} was never allocated")
        if self._is_free[offset]:
            raise ValueError(f"double free of slot {offset}")
        self._is_free[offset] = True
        self._free_list.append(offset)

    def free_many(self, offsets: np.ndarray) -> None:
        """Release several slots, in order, atomically (all or nothing).

        Rejects a never-allocated offset, an already-free slot and a slot
        listed twice in ``offsets``; a rejected call frees nothing.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return
        bad = (offsets < 0) | (offsets >= self._next_fresh)
        if bad.any():
            raise ValueError(f"offset {offsets[bad][0]} was never allocated")
        already = self._is_free[offsets]
        if already.any():
            raise ValueError(f"double free of slot {offsets[already][0]}")
        self._is_free[offsets] = True
        # A slot listed twice sets one bit for two listings, so the
        # bitmap's popcount falls short of the free list it must mirror.
        if np.count_nonzero(self._is_free) != len(self._free_list) + len(offsets):
            self._is_free[offsets] = False
            slots, counts = np.unique(offsets, return_counts=True)
            raise ValueError(f"double free of slot {slots[counts > 1][0]}")
        self._free_list.extend(offsets.tolist())

    def reset(self) -> None:
        """Release every slot (used by full cache refills)."""
        self._next_fresh = 0
        self._free_list.clear()
        self._is_free[:] = False
