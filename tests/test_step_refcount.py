"""The per-instance ``access_fast`` steps must not keep their caches alive.

Each step lives in its cache's instance dict and reaches the instance
only through a weak proxy.  A step that captured the instance (or one
of its bound methods) would form a reference cycle, and every retired
cache - columns, location maps, mapping memos - would then wait for
the cyclic garbage collector instead of being freed by refcount, which
roughly doubles the peak RSS of a grid run.  With the collector
disabled, dropping the last reference must free the cache at once.
"""

import gc
import weakref

import pytest

from repro.common.config import MayaConfig, MirageConfig
from repro.core.maya_cache import MayaCache
from repro.hierarchy.simulator import run_mix
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.mirage import MirageCache
from repro.llc.skewed import SkewedRandomizedCache
from repro.trace.mixes import homogeneous

BUILDERS = {
    "baseline": lambda system: BaselineLLC(system.llc_geometry, seed=3),
    "ceaser": lambda system: CeaserCache(
        system.llc_geometry, remap_period=500, seed=3, hash_algorithm="splitmix"
    ),
    "ceaser_s": lambda system: SkewedRandomizedCache(
        system.llc_geometry, use_sdid_in_hash=False, remap_period=500, seed=3,
        hash_algorithm="splitmix",
    ),
    "scatter": lambda system: SkewedRandomizedCache(
        system.llc_geometry, seed=3, hash_algorithm="splitmix"
    ),
    "fully_assoc": lambda system: FullyAssociativeCache(system.llc_geometry.lines, seed=3),
    "mirage": lambda system: MirageCache(
        MirageConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")
    ),
    "maya": lambda system: MayaCache(
        MayaConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")
    ),
}


@pytest.fixture
def gc_disabled():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _refs(llc):
    """Weak references to the LLC and to the object owning its step."""
    return [weakref.ref(llc), weakref.ref(getattr(llc, "_cache", llc))]


@pytest.mark.parametrize("design", sorted(BUILDERS))
def test_freed_by_refcount_after_access(design, tiny_system, gc_disabled):
    llc = BUILDERS[design](tiny_system)
    for i in range(3000):
        llc.access(i * 7 % 1500, is_write=i % 5 == 0, core_id=i % 2, sdid=i % 2)
    assert llc.stats.evictions > 0
    refs = _refs(llc)
    del llc
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("design", sorted(BUILDERS))
def test_freed_by_refcount_after_run_mix(design, tiny_system, gc_disabled):
    llc = BUILDERS[design](tiny_system)
    result = run_mix(
        llc, homogeneous("mcf", 2), tiny_system,
        accesses_per_core=400, warmup_accesses=100, seed=3, trace_cache=False,
    )
    assert result.specialize_info["replay"] == "opstream-scalar"
    refs = _refs(llc)
    del llc
    assert [ref() for ref in refs] == [None, None]
