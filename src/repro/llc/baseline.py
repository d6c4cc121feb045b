"""The non-secure baseline LLC: 16-way set-associative, SRRIP (Table V)."""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.line import AccessResult, EvictedLine
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import PAPER_BASELINE, CacheGeometry
from .interface import InnerArrayVictim, LLCache


class BaselineLLC(InnerArrayVictim, LLCache):
    """Conventional set-indexed LLC; the paper's comparison baseline.

    Vulnerable by construction: the address-to-set mapping is public,
    so an attacker can build eviction sets directly from addresses.
    """

    extra_lookup_latency = 0

    def __init__(
        self,
        geometry: Optional[CacheGeometry] = None,
        policy: str = "srrip",
        seed: Optional[int] = None,
    ):
        self.geometry = geometry or PAPER_BASELINE
        self._cache = SetAssociativeCache(self.geometry, policy=policy, seed=seed, name="LLC")
        self.stats = self._cache.stats
        # Expose the inner cache's allocation-free step directly (no
        # delegation frame); InnerArrayVictim reads the victim_* fields
        # of the protocol through from the inner cache.
        self.access_fast = self._cache.access_fast

    def access(
        self,
        line_addr: int,
        is_write: bool = False,
        core_id: int = 0,
        is_writeback: bool = False,
        sdid: int = 0,
    ) -> AccessResult:
        return self._cache.access(
            line_addr, is_write=is_write, core_id=core_id, is_writeback=is_writeback, sdid=sdid
        )

    def invalidate(self, line_addr: int, sdid: int = 0) -> Optional[EvictedLine]:
        return self._cache.invalidate(line_addr)

    def flush_all(self) -> int:
        return self._cache.flush_all()

    def contains(self, line_addr: int, sdid: int = 0) -> bool:
        return self._cache.contains(line_addr)

    @property
    def occupancy(self) -> int:
        return self._cache.occupancy

    def occupancy_by_core(self) -> Dict[int, int]:
        return self._cache.occupancy_by_core()

    def set_index(self, line_addr: int) -> int:
        """Public mapping (this is what makes the baseline attackable)."""
        return self._cache._set_of(line_addr)

    def set_occupancy(self, set_idx: int) -> int:
        return self._cache.set_occupancy(set_idx)

    def resident_unreused(self) -> int:
        """Still-resident never-reused lines (Fig. 1 accounting)."""
        return self._cache.resident_unreused()
