"""Filler: materialize a placement into per-GPU cache storage (§4).

The Filler copies the chosen embedding entries from the host-resident table
into each GPU's slot arena and produces the offset maps the Extractor's
hashtable needs (``<GPU_i, Offset>``).  The Refresher reuses the diff
helpers to evict/insert incrementally without a full refill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checksum import row_checksums
from repro.core.policy import Placement
from repro.hardware.memory import OutOfDeviceMemory, SlotArena

_NO_ENTRIES = np.empty(0, dtype=np.int64)


@dataclass
class GpuCacheStore:
    """One GPU's cache content: a slot arena plus the entry→slot map."""

    gpu: int
    arena: SlotArena
    #: dense storage, shape (num_slots, dim)
    data: np.ndarray
    #: entry id → slot offset, -1 if not cached
    offset_of: np.ndarray
    #: per-slot content checksum, maintained at fill/insert time (the
    #: anti-entropy scrubber's record of what the slot *should* hold);
    #: free slots sit at 0.
    checksums: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.checksums is None:
            self.checksums = np.zeros(len(self.data), dtype=np.uint64)

    def cached_entries(self) -> np.ndarray:
        return np.flatnonzero(self.offset_of >= 0)

    def insert(self, entry: int, values: np.ndarray) -> int:
        """Cache one entry; returns its slot offset."""
        return int(self.insert_many([entry], np.reshape(values, (1, -1)))[0])

    def evict(self, entry: int) -> None:
        """Drop one entry, freeing its slot."""
        self.evict_many([entry])

    def check_insertable(
        self, entries: np.ndarray, freeing: np.ndarray = _NO_ENTRIES
    ) -> None:
        """Raise unless ``entries`` could be inserted once ``freeing`` (a
        batch about to be evicted) is gone; changes nothing."""
        entries = np.asarray(entries, dtype=np.int64)
        cached = self.offset_of[entries] >= 0
        if cached.any() and len(freeing):
            cached &= ~np.isin(entries, freeing)
        if cached.any():
            raise ValueError(
                f"entry {entries[cached][0]} already cached on GPU {self.gpu}"
            )
        if len(entries) > 1:
            ordered = np.sort(entries)
            twice = ordered[1:] == ordered[:-1]
            if twice.any():
                raise ValueError(
                    f"entry {ordered[1:][twice][0]} inserted twice on GPU "
                    f"{self.gpu}"
                )
        free = self.arena.free_slots + len(freeing)
        if len(entries) > free:
            raise OutOfDeviceMemory(
                f"GPU {self.gpu}: {len(entries)} inserts, only {free} slots free"
            )

    def insert_many(
        self,
        entries: np.ndarray,
        values: np.ndarray,
        checksums: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cache a batch of entries (all or nothing); returns their slots.

        ``values`` holds one row per entry; ``checksums`` may carry
        ``row_checksums(values)`` when the caller has already computed
        it.  Slots are handed out exactly as one :meth:`insert` per entry,
        in order, would hand them out.
        """
        entries = np.asarray(entries, dtype=np.int64)
        if np.shape(values) != (len(entries),) + self.data.shape[1:]:
            raise ValueError(
                f"GPU {self.gpu}: need one {self.data.shape[1:]} value row "
                f"per inserted entry, got {np.shape(values)}"
            )
        self.check_insertable(entries)
        if checksums is None:
            checksums = row_checksums(values)
        slots = self.arena.allocate_many(len(entries))
        self.data[slots] = values
        self.checksums[slots] = checksums
        self.offset_of[entries] = slots
        return slots

    def evict_many(self, entries: np.ndarray) -> None:
        """Drop a batch of entries (all or nothing), freeing their slots."""
        entries = np.asarray(entries, dtype=np.int64)
        slots = self.offset_of[entries]
        missing = slots < 0
        if missing.any():
            raise ValueError(
                f"entry {entries[missing][0]} not cached on GPU {self.gpu}"
            )
        # Atomic: rejects a slot (hence an entry) listed twice.
        self.arena.free_many(slots)
        self.checksums[slots] = 0
        self.offset_of[entries] = -1

    def read(self, entries: np.ndarray) -> np.ndarray:
        """Gather cached values for ``entries`` (all must be cached)."""
        slots = self.offset_of[entries]
        if (slots < 0).any():
            missing = np.asarray(entries)[slots < 0][:5]
            raise KeyError(f"entries not cached on GPU {self.gpu}: {missing}...")
        return self.data[slots]


def fill_gpu(
    gpu: int,
    table: np.ndarray,
    entry_ids: np.ndarray,
    capacity_entries: int | None = None,
) -> GpuCacheStore:
    """Build one GPU's cache store holding ``entry_ids`` from ``table``."""
    num_entries, dim = table.shape
    capacity = capacity_entries if capacity_entries is not None else len(entry_ids)
    if len(entry_ids) > capacity:
        raise ValueError(
            f"GPU {gpu}: {len(entry_ids)} entries exceed capacity {capacity}"
        )
    entry_ids = np.asarray(entry_ids, dtype=np.int64)
    slot_bytes = dim * table.itemsize
    store = GpuCacheStore(
        gpu=gpu,
        arena=SlotArena(capacity * slot_bytes, slot_bytes),
        data=np.zeros((capacity, dim), dtype=table.dtype),
        offset_of=np.full(num_entries, -1, dtype=np.int64),
    )
    store.insert_many(entry_ids, table[entry_ids])
    return store


def fill_all(
    table: np.ndarray,
    placement: Placement,
    capacity_entries: int | None = None,
) -> list[GpuCacheStore]:
    """Fill every GPU's cache according to ``placement``."""
    if placement.num_entries != table.shape[0]:
        raise ValueError("placement and table disagree on the entry universe")
    return [
        fill_gpu(i, table, ids, capacity_entries)
        for i, ids in enumerate(placement.per_gpu)
    ]


@dataclass(frozen=True)
class PlacementDiff:
    """Per-GPU evictions and insertions to move between two placements."""

    evictions: tuple[np.ndarray, ...]
    insertions: tuple[np.ndarray, ...]

    def total_changes(self) -> int:
        return int(
            sum(len(e) for e in self.evictions) + sum(len(a) for a in self.insertions)
        )


def placement_diff(old: Placement, new: Placement) -> PlacementDiff:
    """Entries each GPU must evict / insert to reach ``new`` from ``old``."""
    if old.num_gpus != new.num_gpus or old.num_entries != new.num_entries:
        raise ValueError("placements are not comparable")
    evictions = []
    insertions = []
    for old_ids, new_ids in zip(old.per_gpu, new.per_gpu):
        old_set = np.asarray(old_ids)
        new_set = np.asarray(new_ids)
        evictions.append(np.setdiff1d(old_set, new_set))
        insertions.append(np.setdiff1d(new_set, old_set))
    return PlacementDiff(evictions=tuple(evictions), insertions=tuple(insertions))


def apply_diff_step(
    store: GpuCacheStore,
    table: np.ndarray,
    evict: np.ndarray,
    insert: np.ndarray,
) -> None:
    """Apply one small-batch update on one GPU: one batched eviction, then
    one batched insertion (so slots recycle and capacity is never exceeded
    mid-refresh).

    The step is atomic.  Every check that can reject it and every new
    row's checksum runs before the first change to the store, and the
    eviction validates its whole batch before it frees a slot, so a step
    that raises leaves the store exactly as it found it.
    """
    evict = np.asarray(evict, dtype=np.int64)
    insert = np.asarray(insert, dtype=np.int64)
    store.check_insertable(insert, freeing=evict)
    values = table[insert]
    checksums = row_checksums(values)
    store.evict_many(evict)
    store.insert_many(insert, values, checksums)
