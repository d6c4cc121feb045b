"""CEASER: encrypted-address set-associative LLC with periodic remap.

CEASER (Qureshi, MICRO'18) keeps a conventional set-associative array
but indexes it with the PRINCE-encrypted line address, and re-keys the
cipher every *remap period* so an attacker cannot accumulate an
eviction set under one mapping.  The original hardware remaps lines
gradually (a moving pointer relocates a few sets per fill); this model
uses an epoch remap - after ``remap_period`` fills the key is refreshed
and the cache flushed - which is conservative for performance (more
misses after remap) and equivalent for the eviction-set security
experiments, which only care about how many fills share one mapping.

The hot path is ``CeaserCache.access_fast``, a closure built once per
instance: ``encrypt_address``, then the inner packed array's own
``access_fast`` step, then the remap countdown.  The victim of an
access is the inner array's (its ``victim_addr`` is the *encrypted*
line address, as the historical ``AccessResult`` reported it).
Behaviour is bit-identical to the object-model reference in
``repro.reference.ceaser``.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

from ..cache.line import ACC_HIT, AccessResult, EvictedLine, access_result
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import PAPER_BASELINE, CacheGeometry
from ..common.rng import derive_seed
from ..crypto.randomizer import IndexRandomizer, splitmix64
from .interface import InnerArrayVictim, LLCache

_M64 = (1 << 64) - 1


class CeaserCache(InnerArrayVictim, LLCache):
    """CEASER LLC model.

    ``remap_period`` is expressed in LLC fills; the paper's CEASER uses
    a remap rate of 1% (a line moves every 100 fills per set), and
    later analysis [34] shows eviction-rate-based attacks require
    remapping about every 14-39 evictions for the skewed variants.
    """

    extra_lookup_latency = 3  # PRINCE latency, no pointer indirection

    def __init__(
        self,
        geometry: Optional[CacheGeometry] = None,
        remap_period: int = 100_000,
        seed: Optional[int] = None,
        hash_algorithm: str = "prince",
        policy: str = "lru",
    ):
        self.geometry = geometry or PAPER_BASELINE
        self.remap_period = remap_period
        self._randomizer = IndexRandomizer(
            1, self.geometry.sets, seed=derive_seed(seed, 11), algorithm=hash_algorithm
        )
        self._cache = SetAssociativeCache(
            self.geometry, policy=policy, seed=derive_seed(seed, 12), name="CEASER"
        )
        self.stats = self._cache.stats
        self._fills_since_remap = 0
        self.remaps = 0
        self.access_fast = self._build_step()

    @property
    def index_randomizer(self):
        """The :class:`~repro.crypto.randomizer.IndexRandomizer` in use."""
        return self._randomizer

    def _scramble(self, line_addr: int) -> int:
        """Map the line address into the encrypted index space.

        The encrypted address keeps a one-to-one mapping, so storing the
        scrambled address in a conventional array is behaviourally
        identical to storing the plaintext tag at the encrypted index.
        """
        return self._randomizer.encrypt_address(line_addr)

    def _build_step(self):
        """Build the per-access step bound as ``self.access_fast``.

        ``access_fast(line_addr, is_write=False, core_id=0,
        is_writeback=False, sdid=0)`` encrypts the address, runs the
        inner array's step on it and counts a miss towards the remap;
        returns that step's ``ACC_*`` flags.  The inner array's victim
        fields survive the remap flush, so a wrapper reads the
        access's own victim.  The instance is reached through a weak
        proxy (no reference cycle).
        """
        llc = weakref.proxy(self)
        inner = self._cache.access_fast
        rand = self._randomizer
        encrypt = rand.encrypt_address
        # encrypt_address's splitmix branch, one call shallower; the key
        # list is re-read per access because rekey replaces it.
        splitmix = rand.algorithm == "splitmix"
        remap_period = self.remap_period

        def access_fast(line_addr, is_write=False, core_id=0, is_writeback=False, sdid=0):
            """One access; returns ``ACC_*`` flags (see ``_build_step``)."""
            if splitmix:
                tag = splitmix64((line_addr ^ rand._mix_keys[0]) & _M64)
            else:
                tag = encrypt(line_addr)
            flags = inner(tag, is_write, core_id, is_writeback, sdid)
            if not flags & ACC_HIT:
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
        # The inner array's historical result: no extra_latency.
        return access_result(
            self._cache, self.access_fast(line_addr, is_write, core_id, is_writeback, sdid)
        )

    def remap(self) -> None:
        """Refresh the key (and flush, in this epoch-remap model)."""
        self._cache.flush_all()
        self._randomizer.rekey()
        self._fills_since_remap = 0
        self.remaps += 1

    def rekey(self) -> None:
        """Uniform probe-surface alias for :meth:`remap`."""
        self.remap()

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        return self._cache.invalidate(self._scramble(line_addr))

    def flush_all(self) -> int:
        return self._cache.flush_all()

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return self._randomizer.encrypt_address(line_addr) in self._cache._where

    @property
    def occupancy(self) -> int:
        return self._cache.occupancy

    def occupancy_by_core(self) -> Dict[int, int]:
        return self._cache.occupancy_by_core()

    def set_index(self, line_addr: int) -> int:
        """The (secret) set an address currently maps to - for analysis."""
        return self._cache._set_of(self._scramble(line_addr))
