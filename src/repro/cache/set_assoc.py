"""A conventional set-associative cache (packed struct-of-arrays).

This single class serves as the private L1/L2 levels, the non-secure
baseline LLC (16-way SRRIP, Table V), and the building block inside
the partitioned secure designs.  It is a *functional* model - hits,
misses, fills, evictions, and writebacks are exact; timing is accounted
by the hierarchy layer.

Storage layout: instead of a ``CacheLine`` dataclass per way, the cache
keeps one flat column per field (coherence state, line address, owning
core, SDID, reused bit, replacement state, fill epoch), indexed by
``set * ways + way``.  The hot path is ``access_fast``, a hand-written
closure built once per instance (:meth:`SetAssociativeCache._build_step`),
which returns an ``ACC_*`` flag int and publishes any victim through
the ``victim_*`` instance fields - no per-access allocation.  The
public :meth:`access` wraps it in the historical :class:`AccessResult`
API.  Behaviour is bit-identical to the object-model reference in
``repro.reference.set_assoc`` (enforced by the differential tests).
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

from ..common.config import CacheGeometry
from ..common.errors import SimulationError
from .line import (
    ACC_EVICTED,
    ACC_EVICTED_DIRTY,
    ACC_HIT,
    AccessResult,
    CacheLine,
    CoherenceState,
    EvictedLine,
    access_result,
)
from .replacement import PackedLRUPolicy, ReplacementPolicy, make_packed_policy
from .stats import CacheStats

#: Coherence-state byte values used in the packed state column.  The
#: encoding is ``CoherenceState(value)``; 0 is INVALID and values >= 3
#: (OWNED, MODIFIED) are dirty, so validity and dirtiness are integer
#: compares instead of enum property calls.
_INVALID = CoherenceState.INVALID.value
_EXCLUSIVE = CoherenceState.EXCLUSIVE.value
_MODIFIED = CoherenceState.MODIFIED.value
_DIRTY_MIN = CoherenceState.OWNED.value


class SetAssociativeCache:
    """Set-associative cache with pluggable (packed) replacement.

    Parameters
    ----------
    geometry:
        Sets / ways / line size.
    policy:
        Replacement policy name (see
        :func:`repro.cache.replacement.make_packed_policy`).  Object
        :class:`ReplacementPolicy` instances are not accepted - they
        operate on ``CacheLine`` lists, which the packed engine does not
        keep; use ``repro.reference.set_assoc`` for that interface.
    name:
        Label used in reports ("L1D", "LLC", ...).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str = "lru",
        seed: Optional[int] = None,
        name: str = "cache",
    ):
        self.geometry = geometry
        self.name = name
        if isinstance(policy, ReplacementPolicy):
            raise TypeError(
                "object-model ReplacementPolicy instances drive CacheLine lists; "
                "the packed engine takes a policy *name* "
                "(use repro.reference.set_assoc.SetAssociativeCache for the object interface)"
            )
        self._policy = policy if not isinstance(policy, str) else make_packed_policy(policy, seed=seed)
        self._ways = geometry.ways
        self._set_mask = geometry.sets - 1
        total = geometry.sets * geometry.ways
        self._total_lines = total
        self._state = bytearray(total)
        # Integer columns are plain lists: stores keep a reference to
        # the caller's int (CEASER's full 64-bit encrypted tags
        # included) and reads skip the array-type box/unbox, which the
        # LRU victim scan pays min()-times per fill.
        self._addr = [0] * total
        self._core = [-1] * total
        self._sdid = [0] * total
        self._reused = bytearray(total)
        self._repl = [0] * total
        self._epoch = [0] * total
        #: line_addr -> flat index (set * ways + way) for O(1) lookup.
        self._where: Dict[int, int] = {}
        self.stats = CacheStats()
        # Victim fields of the access_fast protocol (valid until the
        # next access after a result with ACC_EVICTED set).
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False
        self.access_fast = self._build_step()

    # -- lookup ---------------------------------------------------------

    def _set_of(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def contains(self, line_addr: int) -> bool:
        """Non-mutating presence probe (attack harness helper)."""
        return line_addr in self._where

    def _find_way(self, set_idx: int, line_addr: int) -> Optional[int]:
        """O(1) location via the address map (models the associative probe)."""
        packed = self._where.get(line_addr)
        if packed is None:
            return None
        return packed - set_idx * self._ways

    # -- main access path -------------------------------------------------

    def _build_step(self):
        """Build the per-access step bound as ``self.access_fast``.

        ``access_fast(line_addr, is_write=False, core_id=0,
        is_writeback=False, sdid=0)`` is one access with no allocation;
        it returns ``ACC_*`` flags and publishes any victim in the
        ``victim_*`` fields.  Writeback accesses (``is_writeback=True``)
        model dirty evictions arriving from an upper level: a hit marks
        the line dirty, a miss allocates a dirty line (non-inclusive LLC
        behaviour).  LRU (every private L1/L2) runs inline, with the
        policy object's clock authoritative; other policies go through
        the packed policy hooks.

        Columns, stats and config values are closure locals read once
        here.  The instance is reached only through a weak proxy, so
        the step in the instance dict forms no reference cycle with it.
        """
        cache = weakref.proxy(self)
        st = self.stats
        state = self._state
        addr_col = self._addr
        core_col = self._core
        sdid_col = self._sdid
        reused_col = self._reused
        repl = self._repl
        epoch_col = self._epoch
        where = self._where
        where_get = where.get
        policy = self._policy
        lru = type(policy) is PackedLRUPolicy
        on_hit = policy.on_hit
        on_fill = policy.on_fill
        victim = policy.victim
        ways = self._ways
        set_mask = self._set_mask
        total_lines = self._total_lines
        fill_epoch = 0

        def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
            """One access; returns ``ACC_*`` flags (see ``_build_step``)."""
            nonlocal fill_epoch
            idx = where_get(line_addr, -1)
            st.accesses += 1
            if idx >= 0:
                st.hits += 1
                if is_writeback:
                    st.writebacks_received += 1
                    # A writeback is the line's own dirty data returning,
                    # not a reuse; only demand hits count for dead-block
                    # stats.
                    state[idx] = _MODIFIED
                else:
                    st.demand_accesses += 1
                    st.demand_hits += 1
                    reused_col[idx] = 1
                    if is_write:
                        state[idx] = _MODIFIED
                if lru:
                    policy._clock = clock = policy._clock + 1
                    repl[idx] = clock
                else:
                    on_hit(repl, idx)
                return ACC_HIT
            st.misses += 1
            if is_writeback:
                st.writebacks_received += 1
            else:
                st.demand_accesses += 1
                pcm = st.per_core_misses
                pcm[core_id] = pcm.get(core_id, 0) + 1
            base = (line_addr & set_mask) * ways
            if len(where) == total_lines:
                idx = -1  # every line valid: the invalid-way scan cannot hit
            else:
                idx = state.find(_INVALID, base, base + ways)
            flags = 0
            if idx < 0:
                if lru:
                    window = repl[base : base + ways]
                    idx = base + window.index(min(window))
                else:
                    idx = victim(repl, base, ways)
                # _evict_fast without the state reset (the fill below
                # overwrites the slot).
                vstate = state[idx]
                addr = addr_col[idx]
                vcore = core_col[idx]
                vreused = reused_col[idx]
                cache.victim_addr = addr
                cache.victim_core = vcore
                cache.victim_sdid = sdid_col[idx]
                cache.victim_reused = True if vreused else False
                st.evictions += 1
                if vstate >= _DIRTY_MIN:
                    st.dirty_evictions += 1
                    flags = ACC_EVICTED | ACC_EVICTED_DIRTY
                else:
                    flags = ACC_EVICTED
                if not vreused:
                    st.dead_evictions += 1
                if vcore >= 0 and vcore != core_id:
                    st.interference_evictions += 1
                del where[addr]
            state[idx] = _MODIFIED if is_write or is_writeback else _EXCLUSIVE
            addr_col[idx] = line_addr
            core_col[idx] = core_id
            sdid_col[idx] = sdid
            reused_col[idx] = 0
            fill_epoch += 1
            epoch_col[idx] = fill_epoch
            where[line_addr] = idx
            if lru:
                policy._clock = clock = policy._clock + 1
                repl[idx] = clock
            else:
                on_fill(repl, base, ways, idx)
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
        """Perform one access; fills on miss (allocate-on-miss).

        Boundary wrapper over ``access_fast`` returning the historical
        :class:`AccessResult` dataclass.
        """
        return access_result(
            self, self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        )

    def _evict_fast(self, idx: int, filler_core: int) -> None:
        """Drop the valid line in slot ``idx`` (maintenance path).

        Leaves the ``victim_*`` fields alone: they belong to the last
        ``access_fast`` result, which a wrapper may still be reading
        (CEASER's remap flushes right after the access that evicted).
        """
        state = self._state[idx]
        if not state:
            raise SimulationError("evicting an invalid line")
        core = self._core[idx]
        st = self.stats
        st.evictions += 1
        if state >= _DIRTY_MIN:
            st.dirty_evictions += 1
        if not self._reused[idx]:
            st.dead_evictions += 1
        if core >= 0 and core != filler_core:
            st.interference_evictions += 1
        self._where.pop(self._addr[idx], None)
        # Only the state column is cleared: every reader gates on it (or
        # on ``_where``), and a refill overwrites the other columns, so
        # resetting them here would be wasted stores on the hot path.
        self._state[idx] = _INVALID

    # -- maintenance operations -------------------------------------------

    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        """Flush one line (clflush); returns writeback info if dirty."""
        idx = self._where.get(line_addr, -1)
        if idx < 0:
            return None
        evicted = EvictedLine(
            line_addr=self._addr[idx],
            dirty=self._state[idx] >= _DIRTY_MIN,
            core_id=self._core[idx],
            sdid=self._sdid[idx],
            was_reused=bool(self._reused[idx]),
        )
        self._evict_fast(idx, filler_core=-1)
        return evicted

    def flush_all(self) -> int:
        """Invalidate the whole cache; returns the number of lines dropped."""
        count = 0
        state = self._state
        for idx in range(len(state)):
            if state[idx]:
                self._evict_fast(idx, filler_core=-1)
                count += 1
        return count

    # -- introspection ------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of valid lines resident."""
        return len(self._where)

    def occupancy_by_core(self) -> Dict[int, int]:
        """Valid-line counts keyed by owning core (occupancy attacks)."""
        counts: Dict[int, int] = {}
        core = self._core
        for idx in self._where.values():
            counts[core[idx]] = counts.get(core[idx], 0) + 1
        return counts

    def set_occupancy(self, set_idx: int) -> int:
        """Valid lines in one set (eviction-set attack probes)."""
        base = set_idx * self._ways
        state = self._state
        return sum(1 for i in range(base, base + self._ways) if state[i])

    def line_snapshot(self, idx: int) -> CacheLine:
        """A :class:`CacheLine` copy of the flat slot ``idx`` (not live)."""
        return CacheLine(
            line_addr=self._addr[idx],
            state=CoherenceState(self._state[idx]),
            core_id=self._core[idx],
            sdid=self._sdid[idx],
            reused=bool(self._reused[idx]),
            fill_epoch=self._epoch[idx],
            repl_state=self._repl[idx],
        )

    def resident_lines(self):
        """Iterate over (set index, way, line snapshot) for valid lines.

        The yielded :class:`CacheLine` objects are copies of the packed
        columns; mutating them does not write back into the cache.
        """
        ways = self._ways
        state = self._state
        for idx in range(len(state)):
            if state[idx]:
                yield idx // ways, idx % ways, self.line_snapshot(idx)

    def resident_unreused(self) -> int:
        """Valid lines never (demand-)reused since fill - still-resident
        dead blocks, for Fig. 1's inserted-blocks accounting."""
        state = self._state
        reused = self._reused
        return sum(1 for i in range(len(state)) if state[i] and not reused[i])
