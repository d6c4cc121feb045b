"""A true fully-associative cache with random replacement.

The reference point the secure designs approximate: any line can live
anywhere, the victim is uniformly random, so an eviction leaks nothing
about addresses.  Impractical to build at LLC sizes (the paper's
motivation); here it serves as the security yardstick for the
occupancy-attack comparison (Fig. 8) and as a teaching example.

Resident lines occupy the dense slot prefix ``0 .. occupancy-1`` of
packed columns (address, SDID, core, dirty and reused bits); a removal
moves the last slot into the hole (swap-remove), and the random victim
is a uniform slot draw.  The hot path is
``FullyAssociativeCache.access_fast``, a hand-written closure built
once per instance (``ACC_*`` flag protocol, victim published via the
``victim_*`` fields).  Behaviour, slot order included, is bit-identical
to the object-model reference in ``repro.reference.fully_assoc``.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

from ..cache.line import (
    ACC_EVICTED,
    ACC_EVICTED_DIRTY,
    ACC_HIT,
    AccessResult,
    EvictedLine,
    access_result,
)
from ..cache.stats import CacheStats
from ..common.errors import SimulationError
from ..common.rng import make_rng
from .interface import LLCache

#: Location-map keys pack ``(line_addr << 16) | sdid``.
_SDID_SHIFT = 16


class FullyAssociativeCache(LLCache):
    """Fully-associative, random-replacement cache of ``capacity_lines``."""

    extra_lookup_latency = 0

    def __init__(self, capacity_lines: int, seed: Optional[int] = None):
        if capacity_lines <= 0:
            raise SimulationError("capacity must be positive")
        self.capacity_lines = capacity_lines
        self._rng = make_rng(seed)
        self._addr = [0] * capacity_lines
        self._sdid = [0] * capacity_lines
        self._core = [-1] * capacity_lines
        self._dirty = bytearray(capacity_lines)
        self._reused = bytearray(capacity_lines)
        #: packed (line_addr << 16 | sdid) -> slot; its size is the
        #: occupancy, so slots ``0 .. len - 1`` are the resident lines.
        self._where: Dict[int, int] = {}
        self.stats = CacheStats()
        # Victim fields of the access_fast protocol (valid until the
        # next access after a result with ACC_EVICTED set).
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False
        self.access_fast = self._build_step()

    def _build_step(self):
        """Build the per-access step bound as ``self.access_fast``.

        ``access_fast(line_addr, is_write=False, core_id=0,
        is_writeback=False, sdid=0)`` is one access with no allocation;
        it returns ``ACC_*`` flags and publishes any victim in the
        ``victim_*`` fields.  A fill into a full cache draws the victim
        slot through ``_rng._randbelow`` (what ``randrange`` calls),
        moves the last slot into it and fills the last slot - the
        reference's pop-then-append, without the list resizes.

        Columns, stats and the capacity are closure locals read once
        here.  The instance is reached only through a weak proxy, so the
        step in the instance dict forms no reference cycle with it.
        """
        llc = weakref.proxy(self)
        st = self.stats
        addr_col = self._addr
        sdid_col = self._sdid
        core_col = self._core
        dirty_col = self._dirty
        reused_col = self._reused
        where = self._where
        where_get = where.get
        randbelow = self._rng._randbelow
        capacity = self.capacity_lines

        def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
            """One access; returns ``ACC_*`` flags (see ``_build_step``)."""
            key = (line_addr << 16) | sdid
            pos = where_get(key)
            st.accesses += 1
            if pos is not None:
                st.hits += 1
                if is_writeback:
                    st.writebacks_received += 1
                    dirty_col[pos] = 1
                else:
                    st.demand_accesses += 1
                    st.demand_hits += 1
                    reused_col[pos] = 1
                    if is_write:
                        dirty_col[pos] = 1
                return ACC_HIT
            st.misses += 1
            if is_writeback:
                st.writebacks_received += 1
            else:
                st.demand_accesses += 1
                pcm = st.per_core_misses
                pcm[core_id] = pcm.get(core_id, 0) + 1
            flags = 0
            pos = len(where)
            if pos >= capacity:
                pos -= 1  # the new line lands in the last slot
                vpos = randbelow(capacity)
                vaddr = addr_col[vpos]
                vsd = sdid_col[vpos]
                vcore = core_col[vpos]
                vdirty = dirty_col[vpos]
                vreused = reused_col[vpos]
                llc.victim_addr = vaddr
                llc.victim_core = vcore
                llc.victim_sdid = vsd
                llc.victim_reused = True if vreused else False
                st.evictions += 1
                if vdirty:
                    st.dirty_evictions += 1
                    flags = ACC_EVICTED | ACC_EVICTED_DIRTY
                else:
                    flags = ACC_EVICTED
                if not vreused:
                    st.dead_evictions += 1
                if vcore >= 0 and core_id >= 0 and vcore != core_id:
                    st.interference_evictions += 1
                del where[(vaddr << 16) | vsd]
                if vpos != pos:
                    laddr = addr_col[pos]
                    lsd = sdid_col[pos]
                    addr_col[vpos] = laddr
                    sdid_col[vpos] = lsd
                    core_col[vpos] = core_col[pos]
                    dirty_col[vpos] = dirty_col[pos]
                    reused_col[vpos] = reused_col[pos]
                    where[(laddr << 16) | lsd] = vpos
            addr_col[pos] = line_addr
            sdid_col[pos] = sdid
            core_col[pos] = core_id
            dirty_col[pos] = 1 if is_write or is_writeback else 0
            reused_col[pos] = 0
            where[key] = pos
            st.fills += 1
            st.data_fills += 1
            return flags

        return access_fast

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        return access_result(
            self, self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        )

    def _remove_at(self, pos: int, filler_core: int) -> EvictedLine:
        """Drop the line in slot ``pos`` and move the last slot into it
        (maintenance path; the ``victim_*`` fields keep the last
        access's victim)."""
        addr = self._addr[pos]
        sdid = self._sdid[pos]
        core = self._core[pos]
        dirty = bool(self._dirty[pos])
        reused = bool(self._reused[pos])
        self.stats.record_eviction(
            dirty=dirty,
            was_reused=reused,
            cross_core=core >= 0 and filler_core >= 0 and core != filler_core,
        )
        where = self._where
        del where[(addr << _SDID_SHIFT) | sdid]
        last = len(where)
        if pos < last:
            laddr = self._addr[last]
            lsd = self._sdid[last]
            self._addr[pos] = laddr
            self._sdid[pos] = lsd
            self._core[pos] = self._core[last]
            self._dirty[pos] = self._dirty[last]
            self._reused[pos] = self._reused[last]
            where[(laddr << _SDID_SHIFT) | lsd] = pos
        return EvictedLine(
            line_addr=addr, dirty=dirty, core_id=core, sdid=sdid, was_reused=reused
        )

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        pos = self._where.get((line_addr << _SDID_SHIFT) | sdid)
        if pos is None:
            return None
        return self._remove_at(pos, filler_core=-1)

    def flush_all(self) -> int:
        count = len(self._where)
        for pos in range(count - 1, -1, -1):
            self._remove_at(pos, filler_core=-1)
        return count

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return ((line_addr << _SDID_SHIFT) | sdid) in self._where

    @property
    def occupancy(self) -> int:
        return len(self._where)

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        core = self._core
        for pos in range(len(self._where)):
            counts[core[pos]] = counts.get(core[pos], 0) + 1
        return counts
