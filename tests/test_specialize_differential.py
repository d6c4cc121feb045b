"""Seeded fuzz differential: each design's ``access_fast`` step vs its
``repro.reference`` twin.

Maya, Mirage, the set-associative cache, CEASER, CEASER-S/Scatter and
the fully-associative cache each run one hand-written step (built at
construction and bound as ``access_fast``; the public ``access()``
calls it).  The contract is *bit-identity* with the
object-model reference: for any access stream, the same per-access
results, victim lines, :class:`~repro.cache.stats.CacheStats` and
occupancy - including across mid-stream ``rekey()`` / ``flush_all()``
(which mutate the step's bound columns in place) and SAE storms (which
route through the rare-path methods).  The baseline wrapper compares
against the same wrapper over a
:class:`~repro.reference.ReferenceSetAssociativeCache` inner array.

The lockstep harness is ``replay_pair`` from
``test_differential_engines``; this module adds the adversarial fuzz
streams and the design x replacement-policy sweep.

Marker ``replay``; run with ``-m replay``.
"""

import random

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig
from repro.core.maya_cache import MayaCache
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.mirage import MirageCache
from repro.llc.skewed import SkewedRandomizedCache
from repro.reference import (
    ReferenceCeaserCache,
    ReferenceFullyAssociativeCache,
    ReferenceMayaCache,
    ReferenceMirageCache,
    ReferenceSetAssociativeCache,
    ReferenceSkewedRandomizedCache,
)

from .test_differential_engines import replay_pair

pytestmark = pytest.mark.replay

GEOMETRY = CacheGeometry(sets=32, ways=8)

MAYA = dict(sets_per_skew=16, hash_algorithm="splitmix")
MIRAGE = dict(sets_per_skew=16, hash_algorithm="splitmix")


def _reference_inner(llc, policy, seed):
    """Swap a wrapper design's packed inner array for the reference one."""
    llc._cache = ReferenceSetAssociativeCache(GEOMETRY, policy=policy, seed=seed)
    llc.stats = llc._cache.stats
    vars(llc).pop("access_fast", None)
    return llc


def _baseline(seed, policy, reference):
    llc = BaselineLLC(GEOMETRY, policy=policy, seed=seed)
    return _reference_inner(llc, policy, seed) if reference else llc


def _ceaser(seed, policy, reference):
    cls = ReferenceCeaserCache if reference else CeaserCache
    return cls(GEOMETRY, remap_period=900, seed=seed, hash_algorithm="splitmix", policy=policy)


def _skewed(use_sdid_in_hash, remap_period):
    def build(seed, policy, reference):
        cls = ReferenceSkewedRandomizedCache if reference else SkewedRandomizedCache
        return cls(
            GEOMETRY,
            use_sdid_in_hash=use_sdid_in_hash,
            remap_period=remap_period,
            seed=seed,
            hash_algorithm="splitmix",
        )

    return build


def _fully_assoc(seed, policy, reference):
    cls = ReferenceFullyAssociativeCache if reference else FullyAssociativeCache
    return cls(GEOMETRY.lines // 2, seed=seed)


def _maya(skews=2, **kwargs):
    def build(seed, policy, reference):
        cls = ReferenceMayaCache if reference else MayaCache
        return cls(MayaConfig(rng_seed=seed, skews=skews, **MAYA), **kwargs)

    return build


def _mirage(skews=2, **kwargs):
    def build(seed, policy, reference):
        cls = ReferenceMirageCache if reference else MirageCache
        return cls(MirageConfig(rng_seed=seed, skews=skews, **MIRAGE), **kwargs)

    return build


#: name -> builder(seed, policy, reference)
DESIGNS = {
    "baseline": _baseline,
    "ceaser": _ceaser,
    "ceaser_s": _skewed(False, 700),
    "scatter": _skewed(True, None),
    "fully_assoc": _fully_assoc,
    "mirage": _mirage(),
    "mirage_random": _mirage(skew_policy="random"),
    "mirage_3skews": _mirage(skews=3),
    "maya": _maya(),
    "maya_rekey_on_sae": _maya(on_sae="rekey"),
    "maya_random": _maya(skew_policy="random"),
    "maya_3skews": _maya(skews=3),
}

#: The sweep: every design with a step, the packed-replacement designs
#: crossed against every packed replacement policy.
COMBOS = (
    [("baseline", p) for p in ("lru", "random", "srrip", "brrip", "drrip")]
    + [("ceaser", p) for p in ("lru", "random", "srrip")]
    + [
        ("ceaser_s", None),
        ("scatter", None),
        ("fully_assoc", None),
        ("mirage", None),
        ("mirage_random", None),
        ("mirage_3skews", None),
        ("maya", None),
        ("maya_rekey_on_sae", None),
        ("maya_random", None),
        ("maya_3skews", None),
    ]
)


def fuzz_events(seed, length=1500, addr_space=4096, cores=4, sdids=2):
    """A reproducible adversarial event stream.

    Mostly a hot/cold access mix (reuse + capacity pressure), salted
    with rare whole-cache events: ``flush`` (drop everything),
    ``rekey`` (fresh mapping keys mid-stream), and SAE storms - tight
    bursts of cold installs that overflow sets in the small geometries
    above and force the designs through their SAE handling.
    """
    rng = random.Random(seed)
    hot = [rng.randrange(addr_space) for _ in range(64)]
    events = []
    while len(events) < length:
        roll = rng.random()
        if roll < 0.004:
            events.append(("flush",))
        elif roll < 0.010:
            events.append(("rekey",))
        elif roll < 0.030:  # SAE storm
            events.extend(
                ("access", rng.getrandbits(26), False, rng.randrange(cores),
                 False, rng.randrange(sdids))
                for _ in range(24)
            )
        else:
            addr = rng.choice(hot) if rng.random() < 0.55 else rng.randrange(addr_space)
            kind = rng.random()
            events.append(
                ("access", addr, kind < 0.2, rng.randrange(cores),
                 0.2 <= kind < 0.3, rng.randrange(sdids))
            )
    return events


@pytest.mark.parametrize(
    "design,policy", COMBOS, ids=[f"{d}-{p or 'default'}" for d, p in COMBOS]
)
@pytest.mark.parametrize("stream_seed", [11, 202])
def test_specialized_bit_identical(design, policy, stream_seed):
    """The step and the reference twin must match event for event."""
    build = DESIGNS[design]
    events = fuzz_events(stream_seed * 1000 + len(design))
    packed = build(42, policy, reference=False)
    reference = build(42, policy, reference=True)

    replay_pair(packed, reference, events)

    # The stream must actually have exercised the whole-cache events
    # and (for the secure designs) set-associative evictions.
    assert any(e[0] == "flush" for e in events)
    assert any(e[0] == "rekey" for e in events)
    if design.startswith("maya"):
        assert packed.stats.saes > 0 or packed.stats.tag_evictions > 0
        assert packed.installs == reference.installs
        assert packed.premature_p0_evictions == reference.premature_p0_evictions
    if design.startswith("mirage"):
        # Mirage's extra tags make SAEs astronomically rare by design;
        # capacity pressure shows up as global evictions instead.
        assert packed.stats.evictions > 0
        assert packed.installs == reference.installs
