"""Differential tests: packed SoA engines vs the object-model reference.

The packed struct-of-arrays engines (``repro.cache.set_assoc``,
``repro.core.maya_cache``, ``repro.llc.mirage``, ``repro.llc.ceaser``,
``repro.llc.skewed``, ``repro.llc.fully_assoc``) must be *behaviourally
indistinguishable* from the retained object-model implementations in
``repro.reference``: same seed + same access stream => identical
per-access results, bit-identical statistics, identical occupancy, and
identical RNG draw order.  These tests drive both engines with the same
randomized streams - including invalidates, full flushes, SAE storms,
and rekeying - and fail on the first divergence.

Any failure here is a bug in the packed rewrite (or in an edit that
touched one engine and forgot its twin).
"""

import contextlib
import dataclasses
import random

import pytest

from repro.cache.set_assoc import SetAssociativeCache
from repro.common.config import CacheGeometry, MayaConfig, MirageConfig
from repro.core.maya_cache import MayaCache
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.interface import supports_rekey
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


# -- stream generation ----------------------------------------------------


def make_stream(seed, length, addr_space, cores=4, sdids=1):
    """A reproducible mixed stream: (addr, is_write, core, is_writeback, sdid).

    60% of accesses hit a hot working set (drives promotions, reuse, and
    global evictions); the rest scan cold addresses (drives installs and
    capacity pressure).  ~20% writes, ~10% writebacks.
    """
    rng = random.Random(seed)
    hot = [rng.randrange(addr_space) for _ in range(max(8, addr_space // 8))]
    ops = []
    for _ in range(length):
        addr = rng.choice(hot) if rng.random() < 0.6 else rng.randrange(addr_space)
        kind = rng.random()
        ops.append(
            (
                addr,
                kind < 0.2,  # is_write
                rng.randrange(cores),
                0.2 <= kind < 0.3,  # is_writeback
                rng.randrange(sdids),
            )
        )
    return ops


# -- comparison helpers ---------------------------------------------------


def assert_stats_equal(packed, reference):
    """Full CacheStats dicts must match field for field."""
    ps = dataclasses.asdict(packed.stats)
    rs = dataclasses.asdict(reference.stats)
    assert ps == rs, f"stats diverged:\n packed   ={ps}\n reference={rs}"


def assert_state_equal(packed, reference):
    assert_stats_equal(packed, reference)
    assert packed.occupancy == reference.occupancy
    assert packed.occupancy_by_core() == reference.occupancy_by_core()
    if hasattr(packed, "occupancy_by_domain"):
        assert packed.occupancy_by_domain() == reference.occupancy_by_domain()
    if hasattr(packed, "check_invariants"):
        packed.check_invariants()
    if hasattr(reference, "check_invariants"):
        reference.check_invariants()


def drive_pair(packed, reference, ops, sdid_aware=True, mutate_every=None):
    """Replay ``ops`` on both engines, comparing every AccessResult.

    With ``mutate_every=n``, every n-th access is followed by an
    ``invalidate`` of that address (exercising the flush/invalidate
    paths mid-stream, where lazily-cleared packed columns could leak
    stale state if the readers' gating were wrong).
    """
    for i, (addr, is_write, core, is_writeback, sdid) in enumerate(ops):
        kwargs = {"is_write": is_write, "core_id": core, "is_writeback": is_writeback}
        if sdid_aware:
            kwargs["sdid"] = sdid
        rp = packed.access(addr, **kwargs)
        rr = reference.access(addr, **kwargs)
        assert rp == rr, f"access {i} ({addr=}) diverged:\n packed   ={rp}\n reference={rr}"
        if mutate_every and i % mutate_every == mutate_every - 1:
            if sdid_aware:
                ep = packed.invalidate(addr, sdid=sdid)
                er = reference.invalidate(addr, sdid=sdid)
            else:
                ep = packed.invalidate(addr)
                er = reference.invalidate(addr)
            assert ep == er, f"invalidate after access {i} diverged: {ep} vs {er}"
    assert_state_equal(packed, reference)


# -- Maya -----------------------------------------------------------------


def maya_pair(sets=64, seed=11, **kwargs):
    cfg = dict(sets_per_skew=sets, rng_seed=seed, hash_algorithm="splitmix")
    return (
        MayaCache(MayaConfig(**cfg), **kwargs),
        ReferenceMayaCache(MayaConfig(**cfg), **kwargs),
    )


class TestMayaDifferential:
    def test_mixed_stream_bit_identical(self):
        packed, reference = maya_pair()
        ops = make_stream(seed=1, length=4000, addr_space=4096, cores=4, sdids=3)
        drive_pair(packed, reference, ops, mutate_every=97)
        # The stream must exercise the interesting paths, not tiptoe
        # around them: tag-only hits (promotions), global tag evictions,
        # data evictions, and the premature-P0 window.
        assert packed.stats.tag_only_hits > 0
        assert packed.stats.tag_evictions > 0
        assert packed.stats.evictions > 0
        assert packed.premature_p0_evictions == reference.premature_p0_evictions
        assert packed.installs == reference.installs
        info_p = packed.refresh_mapping_cache_stats()
        info_r = reference.refresh_mapping_cache_stats()
        assert (info_p.hits, info_p.misses) == (info_r.hits, info_r.misses)
        assert_stats_equal(packed, reference)

    def test_flush_all_mid_stream(self):
        packed, reference = maya_pair(seed=23)
        ops = make_stream(seed=2, length=2400, addr_space=2048, sdids=2)
        drive_pair(packed, reference, ops[:1200])
        assert packed.flush_all() == reference.flush_all()
        assert packed.occupancy == 0
        drive_pair(packed, reference, ops[1200:])

    def test_rekey_mid_stream(self):
        packed, reference = maya_pair(seed=31)
        ops = make_stream(seed=3, length=2400, addr_space=2048, sdids=2)
        drive_pair(packed, reference, ops[:1200])
        packed.rekey()
        reference.rekey()
        drive_pair(packed, reference, ops[1200:])

    def test_sae_storm_with_rekey_policy(self):
        # No invalid-way reserve + no global tag eviction => the tag
        # store fills and SAEs (and the resulting rekey-flushes) fire
        # constantly.  Both engines must agree access for access.
        cfg = dict(
            sets_per_skew=4,
            base_ways_per_skew=2,
            reuse_ways_per_skew=1,
            invalid_ways_per_skew=0,
            rng_seed=5,
            hash_algorithm="splitmix",
        )
        packed = MayaCache(MayaConfig(**cfg), on_sae="rekey", global_tag_eviction=False)
        reference = ReferenceMayaCache(
            MayaConfig(**cfg), on_sae="rekey", global_tag_eviction=False
        )
        ops = make_stream(seed=4, length=1500, addr_space=256, cores=2, sdids=2)
        drive_pair(packed, reference, ops)
        assert packed.stats.saes > 0

    def test_random_skew_policy(self):
        packed, reference = maya_pair(seed=47, skew_policy="random")
        ops = make_stream(seed=6, length=2000, addr_space=2048)
        drive_pair(packed, reference, ops)


# -- Mirage ---------------------------------------------------------------


def mirage_pair(seed=13, on_sae="count", skew_policy="load_aware", **cfg_kwargs):
    cfg = dict(sets_per_skew=64, rng_seed=seed, hash_algorithm="splitmix")
    cfg.update(cfg_kwargs)
    return (
        MirageCache(MirageConfig(**cfg), skew_policy=skew_policy, on_sae=on_sae),
        ReferenceMirageCache(MirageConfig(**cfg), skew_policy=skew_policy, on_sae=on_sae),
    )


class TestMirageDifferential:
    def test_mixed_stream_bit_identical(self):
        packed, reference = mirage_pair()
        ops = make_stream(seed=7, length=4000, addr_space=4096, cores=4, sdids=2)
        drive_pair(packed, reference, ops, mutate_every=89)
        assert packed.stats.evictions > 0

    def test_sae_path(self):
        # Zero extra (invalid) tag ways per skew: SAEs are routine.
        packed, reference = mirage_pair(
            seed=17, sets_per_skew=4, base_ways_per_skew=4, extra_ways_per_skew=0
        )
        ops = make_stream(seed=8, length=1500, addr_space=256, cores=2)
        drive_pair(packed, reference, ops)
        assert packed.stats.saes > 0

    def test_flush_all_mid_stream(self):
        packed, reference = mirage_pair(seed=19)
        ops = make_stream(seed=9, length=2400, addr_space=2048)
        drive_pair(packed, reference, ops[:1200])
        assert packed.flush_all() == reference.flush_all()
        drive_pair(packed, reference, ops[1200:])

    def test_mapping_cache_stats_cover_the_window_after_reset(self):
        packed, reference = mirage_pair(seed=31)
        ops = make_stream(seed=12, length=2400, addr_space=2048, sdids=2)
        drive_pair(packed, reference, ops[:1200])
        packed.reset_stats()
        reference.reset_stats()
        drive_pair(packed, reference, ops[1200:])
        info = packed.refresh_mapping_cache_stats()
        assert info == reference.refresh_mapping_cache_stats()
        assert_stats_equal(packed, reference)
        window = packed.stats.randomizer_hits + packed.stats.randomizer_misses
        assert packed.stats.randomizer_hits > 0
        assert 0 < window < info.hits + info.misses  # warm-up excluded

    def test_random_skew_policy(self):
        packed, reference = mirage_pair(seed=29, skew_policy="random")
        ops = make_stream(seed=11, length=2000, addr_space=2048, sdids=2)
        drive_pair(packed, reference, ops, mutate_every=83)
        assert packed.stats.evictions > 0


# -- Set-associative baseline (also the packed L1/L2 substrate) -----------


class TestSetAssocDifferential:
    @pytest.mark.parametrize("policy", ["lru", "random", "srrip", "brrip", "drrip"])
    def test_mixed_stream_bit_identical(self, policy):
        geometry = CacheGeometry(sets=32, ways=4)
        packed = SetAssociativeCache(geometry, policy=policy, seed=21)
        reference = ReferenceSetAssociativeCache(geometry, policy=policy, seed=21)
        ops = make_stream(seed=10, length=3000, addr_space=1024, cores=4)
        drive_pair(packed, reference, ops, sdid_aware=False, mutate_every=101)

    def test_flush_all_mid_stream(self):
        geometry = CacheGeometry(sets=16, ways=8)
        packed = SetAssociativeCache(geometry, policy="lru")
        reference = ReferenceSetAssociativeCache(geometry, policy="lru")
        ops = make_stream(seed=12, length=2000, addr_space=512)
        drive_pair(packed, reference, ops[:1000], sdid_aware=False)
        assert packed.flush_all() == reference.flush_all()
        assert packed.occupancy == 0
        drive_pair(packed, reference, ops[1000:], sdid_aware=False)


# -- CEASER, CEASER-S / Scatter, fully associative --------------------------

RANDOMIZED_GEOMETRY = CacheGeometry(sets=16, ways=8)


def _ceaser(cls, algorithm="splitmix", remap_period=37):
    return lambda seed: cls(
        RANDOMIZED_GEOMETRY, remap_period=remap_period, seed=seed, hash_algorithm=algorithm
    )


def _skewed(cls, use_sdid_in_hash, remap_period):
    return lambda seed: cls(
        RANDOMIZED_GEOMETRY,
        use_sdid_in_hash=use_sdid_in_hash,
        remap_period=remap_period,
        seed=seed,
        hash_algorithm="splitmix",
    )


#: name -> (packed builder, reference builder), each ``f(seed)``.  Small
#: remap periods put epoch remaps (flush + rekey) inside the streams.
RANDOMIZED_DESIGNS = {
    "ceaser": (_ceaser(CeaserCache), _ceaser(ReferenceCeaserCache)),
    "ceaser_prince": (
        _ceaser(CeaserCache, "prince", 53),
        _ceaser(ReferenceCeaserCache, "prince", 53),
    ),
    "ceaser_s": (
        _skewed(SkewedRandomizedCache, False, 41),
        _skewed(ReferenceSkewedRandomizedCache, False, 41),
    ),
    "scatter": (
        _skewed(SkewedRandomizedCache, True, None),
        _skewed(ReferenceSkewedRandomizedCache, True, None),
    ),
    "scatter_remap": (
        _skewed(SkewedRandomizedCache, True, 29),
        _skewed(ReferenceSkewedRandomizedCache, True, 29),
    ),
    "fully_assoc": (
        lambda seed: FullyAssociativeCache(96, seed=seed),
        lambda seed: ReferenceFullyAssociativeCache(96, seed=seed),
    ),
}


def random_ops(seed, length=2500, addr_space=600, cores=3, sdids=3):
    """A seeded op sequence in the ``replay_pair`` format.

    Read, write and writeback accesses over a hot/cold address mix on
    several cores and SDIDs, salted with ``invalidate`` (often of a
    recently touched line), ``flush`` and ``rekey``.
    """
    rng = random.Random(seed)
    hot = [rng.randrange(addr_space) for _ in range(48)]
    recent = []
    ops = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.002:
            ops.append(("flush",))
        elif roll < 0.005:
            ops.append(("rekey",))
        elif roll < 0.06 and recent:
            ops.append(("invalidate",) + rng.choice(recent))
        else:
            addr = rng.choice(hot) if rng.random() < 0.5 else rng.randrange(addr_space)
            sdid = rng.randrange(sdids)
            kind = rng.random()
            ops.append(
                ("access", addr, kind < 0.2, rng.randrange(cores), 0.2 <= kind < 0.3, sdid)
            )
            recent = (recent + [(addr, sdid)])[-16:]
    return ops


def assert_probe_equal(packed, reference, ops, sdids=3):
    """Residency, per-core occupancy, stats and remaps must agree."""
    for op in ops:
        if op[0] == "access":
            for sdid in range(sdids):
                assert packed.contains(op[1], sdid=sdid) == reference.contains(op[1], sdid=sdid)
    assert_state_equal(packed, reference)
    assert getattr(packed, "remaps", None) == getattr(reference, "remaps", None)


class TestRandomizedStepDifferential:
    """CEASER, CEASER-S, Scatter and the fully-associative cache: the
    packed ``access_fast`` step against the object model, op by op."""

    @pytest.mark.parametrize("design", list(RANDOMIZED_DESIGNS))
    @pytest.mark.parametrize("seed", [3, 17, 101])
    def test_random_op_sequence_bit_identical(self, design, seed):
        make_packed, make_reference = RANDOMIZED_DESIGNS[design]
        packed, reference = make_packed(seed), make_reference(seed)
        ops = random_ops(seed * 7 + len(design))
        for start in range(0, len(ops), 250):
            chunk = ops[start : start + 250]
            replay_pair(packed, reference, chunk)
            assert_probe_equal(packed, reference, chunk)
        assert any(op[0] == "invalidate" for op in ops)
        assert packed.stats.evictions > 0
        assert packed.stats.dirty_evictions > 0
        if design.endswith("remap") or design.startswith("ceaser"):
            assert packed.remaps > 0
        randomizer = getattr(packed, "index_randomizer", None)
        if randomizer is not None:
            assert randomizer.cache_info() == reference.index_randomizer.cache_info()


# -- adversarial traffic (attack streams as engine fuzzers) ----------------


def replay_pair(packed, reference, ops):
    """Replay one attack-traffic op stream on both engines in lockstep.

    Same op format as ``repro.security.attacks.traffic.replay``, but
    every mutating call's result is compared across the pair, and a
    ``("rekey",)`` op is applied to *both* sides when the design has a
    real ``rekey`` (Maya, Mirage and CEASER do; the baseline does not).
    """
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "access":
            _, line, is_write, core, is_writeback, sdid = op
            kwargs = {"is_write": is_write, "core_id": core, "is_writeback": is_writeback}
            rp = packed.access(line, sdid=sdid, **kwargs)
            rr = reference.access(line, sdid=sdid, **kwargs)
            assert rp == rr, f"op {i} {op!r} diverged:\n packed   ={rp}\n reference={rr}"
        elif kind == "invalidate":
            _, line, sdid = op
            assert packed.invalidate(line, sdid=sdid) == reference.invalidate(line, sdid=sdid)
        elif kind == "flush":
            assert packed.flush_all() == reference.flush_all()
        elif kind == "rekey":
            if supports_rekey(packed):
                packed.rekey()
                reference.rekey()
        else:
            raise AssertionError(f"unknown traffic op {op!r}")
    assert_state_equal(packed, reference)


class TestAdversarialTraffic:
    """Attack-shaped streams as differential fuzzers.

    Attack harnesses concentrate pressure ordinary benchmark streams
    spread out - flush storms, dense conflict groups, cross-SDID
    interleavings, mid-stream rekeys.  Every stream must leave the
    packed engine and its reference twin bit-identical.
    """

    pytestmark = pytest.mark.security

    def test_eviction_storm_on_maya(self):
        from repro.llc.interface import attack_capacity
        from repro.security.attacks import eviction_storm_ops

        packed, reference = maya_pair(sets=16, seed=43)
        ops = eviction_storm_ops(attack_capacity(packed), rounds=3, seed=51)
        replay_pair(packed, reference, ops)
        assert packed.stats.evictions + packed.stats.tag_evictions > 0
        assert packed.occupancy == 0  # each round ends in a flush

    def test_eviction_storm_on_mirage(self):
        from repro.llc.interface import attack_capacity
        from repro.security.attacks import eviction_storm_ops

        packed, reference = mirage_pair(seed=53, sets_per_skew=16)
        ops = eviction_storm_ops(attack_capacity(packed), rounds=3, seed=51)
        replay_pair(packed, reference, ops)
        assert packed.stats.accesses == sum(1 for op in ops if op[0] == "access")

    def test_prime_probe_with_mid_stream_rekeys_on_maya(self):
        from repro.llc.interface import attack_capacity
        from repro.security.attacks import prime_probe_ops

        packed, reference = maya_pair(sets=16, seed=59)
        ops = prime_probe_ops(
            attack_capacity(packed), trials=8, rekey_period=2, seed=61
        )
        rekeys = sum(1 for op in ops if op[0] == "rekey")
        assert rekeys == 3
        epoch_before = packed.tags.randomizer.epoch
        replay_pair(packed, reference, ops)
        assert packed.tags.randomizer.epoch == epoch_before + rekeys

    def test_prime_probe_with_mid_stream_rekeys_on_mirage(self):
        from repro.llc.interface import attack_capacity
        from repro.security.attacks import prime_probe_ops

        packed, reference = mirage_pair(seed=67, sets_per_skew=16)
        ops = prime_probe_ops(
            attack_capacity(packed), trials=8, rekey_period=4, seed=61
        )
        assert any(op[0] == "rekey" for op in ops)
        replay_pair(packed, reference, ops)

    def test_recorded_ppp_traffic_replays_bit_identical(self):
        """Record a *real* (adaptive) Prime+Prune+Probe run and replay
        its exact traffic through a fresh pair.

        The attack adapts to probe outcomes, so the recording target is
        a packed Maya with the same seed as the pair: same seed, same
        responses, so the recorded stream is exactly what the attack
        would have issued against either twin.
        """
        from repro.core.maya_cache import MayaCache as PackedMaya
        from repro.security.attacks import RecordingLLC, prime_prune_probe

        cfg = dict(sets_per_skew=16, rng_seed=71, hash_algorithm="splitmix")
        recorder = RecordingLLC(PackedMaya(MayaConfig(**cfg)))
        result = prime_prune_probe(
            recorder, target_size=4, max_rounds=3, confirm=1, seed=73
        )
        assert not result.found  # Maya, as ever
        ops = recorder.ops
        assert len(ops) > 100
        assert any(op[0] == "flush" for op in ops)
        assert any(op[0] == "access" and op[5] == 1 for op in ops)  # victim SDID
        packed, reference = maya_pair(sets=16, seed=71)
        replay_pair(packed, reference, ops)
        assert packed.stats.accesses == sum(1 for op in ops if op[0] == "access")


@pytest.mark.replay
class TestVectorEngineSweep:
    """Workload sweep: the op-stream replay vs the per-access drive.

    Drives whole ``run_mix`` protocols on Maya through the replay in
    ``repro.engine.vector`` and through the per-access oracle (the
    ``per_access_drive`` fixture) across workload shapes and a tiny
    mapping memo, so divergences that depend on stream interleaving
    (not on a specific hazard) still get caught.
    """

    @staticmethod
    def _run_pair(per_access_drive, seed, *, bench="mcf", cores=2, memo_capacity=None):
        from repro.common.config import SystemConfig
        from repro.hierarchy.simulator import run_mix
        from repro.trace.mixes import homogeneous

        system = SystemConfig(
            cores=cores,
            l1d_geometry=CacheGeometry(sets=4, ways=4),
            l2_geometry=CacheGeometry(sets=16, ways=8),
            llc_geometry=CacheGeometry(sets=64, ways=16),
        )
        cfg = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")
        if memo_capacity is not None:
            cfg["memo_capacity"] = memo_capacity
        results = []
        for drive in (per_access_drive, contextlib.nullcontext):
            llc = MayaCache(MayaConfig(**cfg))
            with drive():
                r = run_mix(
                    llc, homogeneous(bench, cores), system,
                    accesses_per_core=600, warmup_accesses=200, seed=seed,
                    trace_cache=False,
                )
            results.append((llc, r))
        assert results[0][1].engine_info is None
        assert results[1][1].specialize_info["replay"] == "opstream-scalar"
        return results

    @pytest.mark.parametrize("bench", ["lbm", "omnetpp"])
    def test_workload_sweep_bit_identical(self, per_access_drive, bench):
        (llc_s, r_s), (llc_v, r_v) = self._run_pair(per_access_drive, 11, bench=bench)
        assert vars(llc_v.stats) == vars(llc_s.stats)
        assert r_v.ipcs == r_s.ipcs

    def test_tiny_memo_sweep_bit_identical(self, per_access_drive):
        # Constant memo overflows: most mappings are recomputed through
        # the cipher mid-replay, and the replay must still agree.
        (llc_s, r_s), (llc_v, r_v) = self._run_pair(per_access_drive, 5, memo_capacity=32)
        memo = llc_s.tags.randomizer.cache_info()
        assert memo.size == 32 and memo.misses > 32  # it overflowed
        assert vars(llc_v.stats) == vars(llc_s.stats)
        assert r_v.ipcs == r_s.ipcs
