"""Skewed randomized LLCs: CEASER-S and Scatter-Cache.

Both split the cache into two skews with independent keyed hashes and
pick a random skew on fill; they differ in that Scatter-Cache mixes the
security-domain ID into the hash (per-domain mappings) while CEASER-S
relies on remapping alone.  These designs reduce, but do not eliminate,
set conflicts - eviction-set attacks remain possible at reduced rate
(Section II-B), which the attack benchmarks demonstrate against Maya's
zero-SAE behaviour.

The array is stored as packed columns (coherence state, address, core,
SDID, reused bit) indexed by slot ``(skew * sets + set) * ways + way``,
and the hot path is ``SkewedRandomizedCache.access_fast``, a
hand-written closure built once per instance
(:meth:`SkewedRandomizedCache._build_step`; ``ACC_*`` flag protocol,
victim published via the ``victim_*`` fields).  Behaviour is
bit-identical to the object-model reference in
``repro.reference.skewed``.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

from ..cache.line import (
    ACC_EVICTED,
    ACC_EVICTED_DIRTY,
    ACC_HIT,
    AccessResult,
    CoherenceState,
    EvictedLine,
    access_result,
)
from ..cache.stats import CacheStats
from ..common.config import CacheGeometry
from ..common.errors import ConfigurationError
from ..common.rng import derive_seed, make_rng
from ..crypto.randomizer import IndexRandomizer
from .interface import LLCache

#: Coherence-state byte values of the packed state column (the
#: set-associative cache's encoding): 0 is invalid, >= OWNED is dirty.
_INVALID = CoherenceState.INVALID.value
_EXCLUSIVE = CoherenceState.EXCLUSIVE.value
_MODIFIED = CoherenceState.MODIFIED.value
_DIRTY_MIN = CoherenceState.OWNED.value

#: Location-map keys pack ``(line_addr << 16) | hash_sdid``.
_SDID_SHIFT = 16


class SkewedRandomizedCache(LLCache):
    """Two-skew randomized LLC with random skew selection.

    Parameters
    ----------
    geometry:
        Total geometry; ways are split evenly across ``skews``.
    use_sdid_in_hash:
        ``True`` gives Scatter-Cache semantics (per-domain mapping),
        ``False`` gives CEASER-S semantics.
    remap_period:
        Fills between re-keys (``None`` disables remapping).
    """

    extra_lookup_latency = 3

    def __init__(
        self,
        geometry: CacheGeometry,
        skews: int = 2,
        use_sdid_in_hash: bool = True,
        remap_period: Optional[int] = None,
        seed: Optional[int] = None,
        hash_algorithm: str = "prince",
    ):
        if geometry.ways % skews:
            raise ConfigurationError(f"{geometry.ways} ways do not split across {skews} skews")
        self.geometry = geometry
        self.skews = skews
        self.ways_per_skew = geometry.ways // skews
        self.sets_per_skew = geometry.sets
        self.use_sdid_in_hash = use_sdid_in_hash
        self.remap_period = remap_period
        self._randomizer = IndexRandomizer(
            skews, geometry.sets, seed=derive_seed(seed, 21), algorithm=hash_algorithm
        )
        self._rng = make_rng(derive_seed(seed, 22))
        total = skews * geometry.sets * self.ways_per_skew
        self._state = bytearray(total)
        self._addr = [0] * total
        self._core = [-1] * total
        self._sdid = [0] * total
        self._reused = bytearray(total)
        #: packed (line_addr << 16 | hash SDID) -> slot.
        self._where: Dict[int, int] = {}
        self.stats = CacheStats()
        #: Fills since the last remap (counted only when remapping is on).
        self._fills_since_remap = 0
        self.remaps = 0
        # Victim fields of the access_fast protocol (valid until the
        # next access after a result with ACC_EVICTED set).
        self.victim_addr = 0
        self.victim_core = -1
        self.victim_sdid = 0
        self.victim_reused = False
        self.access_fast = self._build_step()

    @property
    def index_randomizer(self):
        """The :class:`~repro.crypto.randomizer.IndexRandomizer` in use."""
        return self._randomizer

    def _hash_sdid(self, sdid: int) -> int:
        return sdid if self.use_sdid_in_hash else 0

    def _build_step(self):
        """Build the per-access step bound as ``self.access_fast``.

        ``access_fast(line_addr, is_write=False, core_id=0,
        is_writeback=False, sdid=0)`` is one access with no allocation;
        it returns ``ACC_*`` flags and publishes any victim in the
        ``victim_*`` fields.  Inline: the hit path, the statistics
        counters, ``IndexRandomizer._lookup``, the random skew draw, the
        first-invalid-way scan, the random victim way and the remap
        countdown (the remap itself is :meth:`remap`).

        Columns, stats and config values are closure locals read once
        here (flush and rekey mutate every structure in place).  The
        instance is reached only through a weak proxy, so the step in
        the instance dict forms no reference cycle with it.
        """
        llc = weakref.proxy(self)
        st = self.stats
        state = self._state
        addr_col = self._addr
        core_col = self._core
        sdid_col = self._sdid
        reused_col = self._reused
        where = self._where
        where_get = where.get
        rand = self._randomizer
        memo = rand._memo
        memo_pop = memo.pop
        precomputed_get = rand._precomputed.get
        raw_indices = rand._raw_indices
        memo_capacity = rand._memo_capacity
        # randrange(n) is a thin wrapper over _randbelow(n): the same
        # draw from the same stream, minus the wrapper cost.
        randbelow = self._rng._randbelow
        skews = self.skews
        sets = self.sets_per_skew
        ways = self.ways_per_skew
        use_sdid = self.use_sdid_in_hash
        remap_period = self.remap_period

        def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
            """One access; returns ``ACC_*`` flags (see ``_build_step``)."""
            hsd = sdid if use_sdid else 0
            key = (line_addr << 16) | hsd
            slot = where_get(key)
            st.accesses += 1
            if slot is not None:
                st.hits += 1
                if is_writeback:
                    st.writebacks_received += 1
                    state[slot] = _MODIFIED
                else:
                    st.demand_accesses += 1
                    st.demand_hits += 1
                    reused_col[slot] = 1
                    if is_write:
                        state[slot] = _MODIFIED
                return ACC_HIT
            st.misses += 1
            if is_writeback:
                st.writebacks_received += 1
            else:
                st.demand_accesses += 1
                pcm = st.per_core_misses
                pcm[core_id] = pcm.get(core_id, 0) + 1
            # IndexRandomizer._lookup inline (same memo LRU discipline
            # and counters as the Maya and Mirage steps).
            mkey = (line_addr, hsd)
            indices = memo_pop(mkey, None)
            if indices is None:
                rand.cache_misses += 1
                indices = precomputed_get(mkey)
                if indices is None:
                    indices = raw_indices(line_addr, hsd)
                if len(memo) >= memo_capacity:
                    del memo[next(iter(memo))]
            else:
                rand.cache_hits += 1
            memo[mkey] = indices
            skew = randbelow(skews)
            base = (skew * sets + indices[skew]) * ways
            slot = state.find(_INVALID, base, base + ways)
            flags = 0
            if slot < 0:
                slot = base + randbelow(ways)
                vstate = state[slot]
                vaddr = addr_col[slot]
                vcore = core_col[slot]
                vsd = sdid_col[slot]
                vreused = reused_col[slot]
                llc.victim_addr = vaddr
                llc.victim_core = vcore
                llc.victim_sdid = vsd
                llc.victim_reused = True if vreused else False
                st.evictions += 1
                if vstate >= _DIRTY_MIN:
                    st.dirty_evictions += 1
                    flags = ACC_EVICTED | ACC_EVICTED_DIRTY
                else:
                    flags = ACC_EVICTED
                if not vreused:
                    st.dead_evictions += 1
                if vcore >= 0 and core_id >= 0 and vcore != core_id:
                    st.interference_evictions += 1
                del where[(vaddr << 16) | (vsd if use_sdid else 0)]
            state[slot] = _MODIFIED if is_write or is_writeback else _EXCLUSIVE
            addr_col[slot] = line_addr
            core_col[slot] = core_id
            sdid_col[slot] = sdid
            reused_col[slot] = 0
            where[key] = slot
            st.fills += 1
            st.data_fills += 1
            if remap_period is not None:
                llc._fills_since_remap = fills = llc._fills_since_remap + 1
                if fills >= remap_period:
                    llc.remap()
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
            self,
            self.access_fast(line_addr, is_write, core_id, is_writeback, sdid),
            self.extra_lookup_latency,
        )

    def _evict(self, slot: int, filler_core: int) -> EvictedLine:
        """Drop the valid line in ``slot`` (maintenance path); the
        ``victim_*`` fields keep the last access's victim."""
        state = self._state
        dirty = state[slot] >= _DIRTY_MIN
        addr = self._addr[slot]
        core = self._core[slot]
        sdid = self._sdid[slot]
        reused = bool(self._reused[slot])
        self.stats.record_eviction(
            dirty=dirty,
            was_reused=reused,
            cross_core=core >= 0 and filler_core >= 0 and core != filler_core,
        )
        del self._where[(addr << _SDID_SHIFT) | self._hash_sdid(sdid)]
        state[slot] = _INVALID
        return EvictedLine(
            line_addr=addr, dirty=dirty, core_id=core, sdid=sdid, was_reused=reused
        )

    def remap(self) -> None:
        """Re-key both skews (epoch model: flush + new keys)."""
        self.flush_all()
        self._randomizer.rekey()
        self._fills_since_remap = 0
        self.remaps += 1

    def rekey(self) -> None:
        """Uniform probe-surface alias for :meth:`remap`."""
        self.remap()

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        slot = self._where.get((line_addr << _SDID_SHIFT) | self._hash_sdid(sdid))
        if slot is None:
            return None
        return self._evict(slot, filler_core=-1)

    def flush_all(self) -> int:
        # Insertion order of the location map, as the reference model.
        slots = list(self._where.values())
        for slot in slots:
            self._evict(slot, filler_core=-1)
        return len(slots)

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        key = (line_addr << _SDID_SHIFT) | (sdid if self.use_sdid_in_hash else 0)
        return key in self._where

    @property
    def occupancy(self) -> int:
        return len(self._where)

    def occupancy_by_core(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        core = self._core
        for slot in self._where.values():
            counts[core[slot]] = counts.get(core[slot], 0) + 1
        return counts

    def mapped_sets(self, line_addr: int, sdid: int = 0):
        """The per-skew sets an address maps to (analysis helper)."""
        return self._randomizer.all_indices(line_addr, self._hash_sdid(sdid))


def make_ceaser_s(geometry: CacheGeometry, remap_period: Optional[int] = 10_000, seed=None):
    """CEASER-S: skewed, randomized, SDID-less, remapped."""
    return SkewedRandomizedCache(
        geometry, use_sdid_in_hash=False, remap_period=remap_period, seed=seed
    )


def make_scatter_cache(geometry: CacheGeometry, seed=None):
    """Scatter-Cache: skewed, randomized, SDID-aware mapping."""
    return SkewedRandomizedCache(geometry, use_sdid_in_hash=True, remap_period=None, seed=seed)
