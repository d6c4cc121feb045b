"""Object-model reference of the CEASER LLC (kept verbatim).

Behavioural oracle for ``repro.llc.ceaser.CeaserCache``: the historical
wrapper (scramble, then the inner array's ``access``, then the remap
countdown) over the object-model
:class:`~repro.reference.set_assoc.SetAssociativeCache`.  Identical RNG
draw order and bit-identical statistics are contractual (differential
test layer).  Slow by design - never use it in experiments.

Original module docstring follows.

CEASER: encrypted-address set-associative LLC with periodic remap.

CEASER (Qureshi, MICRO'18) keeps a conventional set-associative array
but indexes it with the PRINCE-encrypted line address, and re-keys the
cipher every *remap period* so an attacker cannot accumulate an
eviction set under one mapping.  The original hardware remaps lines
gradually (a moving pointer relocates a few sets per fill); this model
uses an epoch remap - after ``remap_period`` fills the key is refreshed
and the cache flushed - which is conservative for performance (more
misses after remap) and equivalent for the eviction-set security
experiments, which only care about how many fills share one mapping.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import AccessResult, EvictedLine
from ..common.config import PAPER_BASELINE, CacheGeometry
from ..common.rng import derive_seed
from ..crypto.randomizer import IndexRandomizer
from ..llc.interface import LLCache
from .set_assoc import SetAssociativeCache


class CeaserCache(LLCache):
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

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        result = self._cache.access(
            self._scramble(line_addr),
            is_write=is_write,
            core_id=core_id,
            is_writeback=is_writeback,
            sdid=sdid,
        )
        if not result.hit:
            self._fills_since_remap += 1
            if self._fills_since_remap >= self.remap_period:
                self.remap()
        return result

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
        return self._cache.contains(self._scramble(line_addr))

    @property
    def occupancy(self) -> int:
        return self._cache.occupancy

    def occupancy_by_core(self) -> Dict[int, int]:
        return self._cache.occupancy_by_core()

    def set_index(self, line_addr: int) -> int:
        """The (secret) set an address currently maps to - for analysis."""
        return self._cache._set_of(self._scramble(line_addr))
