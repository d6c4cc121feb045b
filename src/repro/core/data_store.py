"""Maya's decoupled data store (packed struct-of-arrays).

The data store is a plain array of line-sized entries, smaller than the
tag store (192K entries vs 480K tags at full scale).  Each entry keeps
a reverse pointer (RPTR) to its owning priority-1 tag so *global random
data eviction* - pick a uniformly random data entry, demote its tag -
is O(1).  A free list serves fills while the store is warming up.

Storage: the RPTRs live in a single flat column (free entries hold
``NO_TAG``); :meth:`entry` materializes a :class:`DataEntry`
snapshot for introspection but the engines read :meth:`rptr_of`
directly.  Behaviour - including the RNG draw order of
:meth:`random_victim` - is identical to the object-model reference in
``repro.reference.data_store``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.errors import SimulationError
from ..common.rng import make_rng

#: RPTR value meaning "entry is free".
NO_TAG = -1


@dataclass
class DataEntry:
    """One data-store entry (the 512 data bits are not materialized)."""

    rptr: int = NO_TAG

    @property
    def valid(self) -> bool:
        return self.rptr != NO_TAG


class DataStore:
    """Fixed-size data array with O(1) allocate / free / random-victim."""

    def __init__(self, entries: int, seed: Optional[int] = None):
        if entries <= 0:
            raise SimulationError(f"data store needs a positive size, got {entries}")
        self._rptr = [NO_TAG] * entries
        self._free = list(range(entries - 1, -1, -1))
        self._rng = make_rng(seed)
        # randrange(n) is a thin wrapper over _randbelow(n); calling the
        # latter directly draws the identical value from the same stream.
        self._randbelow = self._rng._randbelow

    @property
    def capacity(self) -> int:
        return len(self._rptr)

    @property
    def used(self) -> int:
        return len(self._rptr) - len(self._free)

    @property
    def full(self) -> bool:
        return not self._free

    def entry(self, idx: int) -> DataEntry:
        """A :class:`DataEntry` snapshot of slot ``idx`` (not live)."""
        return DataEntry(rptr=self._rptr[idx])

    def rptr_of(self, idx: int) -> int:
        """The raw RPTR of slot ``idx`` (``NO_TAG`` when free)."""
        return self._rptr[idx]

    def allocate(self, rptr: int) -> int:
        """Take a free entry, point it at tag ``rptr``, return its index."""
        if not self._free:
            raise SimulationError("data store full: evict before allocating")
        idx = self._free.pop()
        self._rptr[idx] = rptr
        return idx

    def free(self, idx: int) -> None:
        """Release an entry back to the free list."""
        if self._rptr[idx] == NO_TAG:
            raise SimulationError("freeing an already-free data entry")
        self._rptr[idx] = NO_TAG
        self._free.append(idx)

    def random_victim(self) -> int:
        """Uniformly random *valid* entry (global random data eviction).

        In steady state the store is full, so this is a single draw; the
        warm-up case rejects free entries, which stays cheap because the
        policy is only invoked when the store is full anyway.
        """
        if self.used == 0:
            raise SimulationError("no valid data entries to evict")
        rptr = self._rptr
        n = len(rptr)
        randbelow = self._randbelow
        while True:
            idx = randbelow(n)
            if rptr[idx] != NO_TAG:
                return idx

    def retarget(self, idx: int, rptr: int) -> None:
        """Repoint an entry's RPTR (tag relocation support)."""
        if self._rptr[idx] == NO_TAG:
            raise SimulationError("retargeting a free data entry")
        self._rptr[idx] = rptr

    def check_invariants(self, expected_rptrs) -> None:
        """Verify RPTR/free-list consistency against the tag store.

        ``expected_rptrs`` maps data index -> tag index for every
        priority-1 tag; everything else must be free.
        """
        free_set = set(self._free)
        if len(free_set) != len(self._free):
            raise SimulationError("duplicate entries on the data free list")
        for idx, rptr in enumerate(self._rptr):
            if idx in free_set:
                if rptr != NO_TAG:
                    raise SimulationError(f"data entry {idx} on free list but valid")
            elif rptr != expected_rptrs.get(idx):
                raise SimulationError(
                    f"data entry {idx} RPTR {rptr} != tag {expected_rptrs.get(idx)}"
                )
        if len(expected_rptrs) != self.used:
            raise SimulationError("data-store used count disagrees with priority-1 tags")
