"""Differential gate: op-stream replay and pretranslation vs their oracles.

``run_mix`` replays the cached per-core op streams through the LLC's
``access_fast`` step (the replay in ``repro.engine.vector``); the
oracle is the per-access drive (the ``per_access_drive`` fixture makes
the replay decline).  Separately, ``run_mix`` pre-translates every
line a compiled trace can touch into the randomizer's precomputed side
table (automatically in PRINCE mode); the oracle is the same run with
``pretranslate=False``.  Each pair must produce *bit-identical*
statistics (the raw ``CacheStats`` counters, not just summary figures)
and identical per-core instruction/cycle counts, including when
SAE-triggered rekeys and memo overflows land mid-run.

The broader replay matrix (every baseline policy, the replay gates)
lives in ``test_opstream_replay.py``; the cases here pin the design,
stream-shape and hazard configurations at their own seeds and lengths.
"""

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig, SystemConfig
from repro.core.maya_cache import MayaCache
from repro.hierarchy.simulator import run_mix
from repro.llc.baseline import BaselineLLC
from repro.llc.mirage import MirageCache
from repro.trace.mixes import Mix, homogeneous


def assert_bit_identical(pair_ref, pair_cmp):
    (llc_ref, r_ref), (llc_cmp, r_cmp) = pair_ref, pair_cmp
    assert vars(llc_cmp.stats) == vars(llc_ref.stats)  # every raw counter
    assert [c.instructions for c in r_cmp.cores] == [c.instructions for c in r_ref.cores]
    assert [c.cycles for c in r_cmp.cores] == [c.cycles for c in r_ref.cores]
    assert r_cmp.ipcs == r_ref.ipcs
    assert r_cmp.llc_mpki == r_ref.llc_mpki
    assert r_cmp.llc_randomizer_hit_rate == r_ref.llc_randomizer_hit_rate


@pytest.fixture()
def system():
    return SystemConfig(
        cores=2,
        l1d_geometry=CacheGeometry(sets=4, ways=4),
        l2_geometry=CacheGeometry(sets=16, ways=8),
        llc_geometry=CacheGeometry(sets=64, ways=16),
    )


MAYA = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")

HETERO = Mix("mcf-lbm", ("mcf", "lbm"), "RATE")


@pytest.fixture()
def run_pair(per_access_drive):
    """``run_pair(make_llc, mix, system, **options)``: the per-access
    oracle and the op-stream replay, each on a fresh LLC."""

    def run(make_llc, mix, system, **kwargs):
        llc_ref, llc_cmp = make_llc(), make_llc()
        with per_access_drive():
            r_ref = run_mix(llc_ref, mix, system, trace_cache=False, **kwargs)
        r_cmp = run_mix(llc_cmp, mix, system, trace_cache=False, **kwargs)
        assert r_ref.engine_info is None  # the oracle walked every access
        assert r_cmp.specialize_info["replay"] == "opstream-scalar", r_cmp.specialize_info
        assert r_cmp.engine_info["scalar_ops"] > 0
        return (llc_ref, r_ref), (llc_cmp, r_cmp)

    return run


class TestDesigns:
    def test_maya(self, run_pair, system):
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert a[0].stats.accesses > 0
        assert_bit_identical(a, b)

    def test_mirage(self, run_pair, system):
        a, b = run_pair(
            lambda: MirageCache(MirageConfig(sets_per_skew=16, rng_seed=7,
                                             hash_algorithm="splitmix")),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert_bit_identical(a, b)

    def test_baseline(self, run_pair, system):
        a, b = run_pair(
            lambda: BaselineLLC(system.llc_geometry),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert_bit_identical(a, b)


class TestStreamShapes:
    def test_write_heavy_stream(self, run_pair, system):
        # lbm: streaming, 45% writes - exercises the writeback path.
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("lbm", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=5,
        )
        assert a[0].stats.writebacks_received > 0
        assert_bit_identical(a, b)

    def test_rekey_during_run(self, run_pair, system):
        # Tag store with no invalid-way reserve + rekey-on-SAE: the
        # mapping keys change mid-replay, which must not desynchronize
        # the replay from the oracle.
        cfg = MayaConfig(
            sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
            invalid_ways_per_skew=0, rng_seed=5, hash_algorithm="splitmix",
        )
        a, b = run_pair(
            lambda: MayaCache(cfg, on_sae="rekey", global_tag_eviction=False),
            homogeneous("mcf", 2), system,
            accesses_per_core=1200, warmup_accesses=300, seed=13,
        )
        assert a[0].stats.saes > 0
        assert_bit_identical(a, b)

    def test_heterogeneous_cores_interleave_identically(self, run_pair, system):
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            HETERO, system,
            accesses_per_core=700, warmup_accesses=300, seed=17,
        )
        assert_bit_identical(a, b)


class TestPretranslate:

    PRINCE = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="prince")

    def test_prince_auto_pretranslate_matches_untranslated_oracle(self, per_access_drive, system):
        # pretranslate defaults to on for prince-mode runs; the same run
        # with pretranslation off is the oracle.  The per-access drive
        # keeps the replay's own side-table fill out of the oracle.
        make = lambda: MayaCache(MayaConfig(**self.PRINCE))  # noqa: E731
        llc_ref, llc_cmp = make(), make()
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11,
                      trace_cache=False)
        with per_access_drive():
            r_ref = run_mix(llc_ref, homogeneous("mcf", 2), system,
                            pretranslate=False, **kwargs)
            r_cmp = run_mix(llc_cmp, homogeneous("mcf", 2), system, **kwargs)
        assert llc_ref.index_randomizer.cache_info().precomputed == 0
        assert llc_cmp.index_randomizer.cache_info().precomputed > 0  # it fired
        assert_bit_identical((llc_ref, r_ref), (llc_cmp, r_cmp))

    def test_pretranslate_on_off_bit_identical(self, per_access_drive, system):
        make = lambda: MayaCache(MayaConfig(**self.PRINCE))  # noqa: E731
        # Per-access drive: the replay batch-fills the precomputed side
        # table itself, which this test uses as its pretranslate-fired
        # signal.
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11,
                      trace_cache=False)
        llc_off, llc_on = make(), make()
        with per_access_drive():
            r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                            pretranslate=False, **kwargs)
            r_on = run_mix(llc_on, homogeneous("mcf", 2), system,
                           pretranslate=True, translate_jobs=1, **kwargs)
        assert llc_off.index_randomizer.cache_info().precomputed == 0
        assert llc_on.index_randomizer.cache_info().precomputed > 0
        assert_bit_identical((llc_off, r_off), (llc_on, r_on))

    def test_splitmix_stays_off_by_default(self, per_access_drive, system):
        # Pinned to the per-access drive: the replay batch-precomputes
        # Maya's set indices by design (an observably free side-table
        # fill), so "no precompute" is a property of the per-access
        # drive loop specifically.
        llc = MayaCache(MayaConfig(**MAYA))
        with per_access_drive():
            run_mix(llc, homogeneous("mcf", 2), system,
                    accesses_per_core=300, warmup_accesses=0, seed=2,
                    trace_cache=False)
        assert llc.index_randomizer.cache_info().precomputed == 0

    def test_rekey_during_run_falls_back_to_live_randomizer(self, per_access_drive, system):
        # SAE-triggered rekeys drop the pretranslated side table mid-
        # run; from then on lookups must hit the live cipher and stay in
        # lockstep with the untranslated oracle.
        cfg = MayaConfig(
            sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
            invalid_ways_per_skew=0, rng_seed=5, hash_algorithm="prince",
        )
        make = lambda: MayaCache(cfg, on_sae="rekey", global_tag_eviction=False)  # noqa: E731
        llc_ref, llc_cmp = make(), make()
        kwargs = dict(accesses_per_core=800, warmup_accesses=200, seed=13,
                      trace_cache=False)
        with per_access_drive():
            r_ref = run_mix(llc_ref, homogeneous("mcf", 2), system,
                            pretranslate=False, **kwargs)
            r_cmp = run_mix(llc_cmp, homogeneous("mcf", 2), system,
                            pretranslate=True, translate_jobs=1, **kwargs)
        assert llc_cmp.stats.saes > 0  # rekeys actually happened
        assert llc_cmp.index_randomizer.epoch > 1
        assert llc_cmp.index_randomizer.cache_info().precomputed == 0  # dropped
        assert_bit_identical((llc_ref, r_ref), (llc_cmp, r_cmp))

    def test_mirage_pretranslate(self, system):
        make = lambda: MirageCache(  # noqa: E731
            MirageConfig(sets_per_skew=16, rng_seed=7, hash_algorithm="prince")
        )
        llc_off, llc_on = make(), make()
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11,
                      trace_cache=False)
        r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                        pretranslate=False, **kwargs)
        r_on = run_mix(llc_on, homogeneous("mcf", 2), system, **kwargs)
        assert llc_on.index_randomizer.cache_info().precomputed > 0
        assert_bit_identical((llc_off, r_off), (llc_on, r_on))


@pytest.mark.replay
class TestVectorEngine:
    """The replay in ``repro.engine.vector`` vs the per-access oracle.

    Whole ``run_mix`` protocols on Maya, with the hazards the replay
    must carry through its live ``access_fast`` step: writebacks, mixed
    per-core streams, memo overflows and the global-tag-eviction
    ablation.
    """

    def test_full_protocol_bit_identical(self, run_pair, system):
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert a[0].stats.tag_evictions > 0
        assert_bit_identical(a, b)

    def test_write_heavy_stream(self, run_pair, system):
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("lbm", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=5,
        )
        assert a[0].stats.writebacks_received > 0
        assert_bit_identical(a, b)

    def test_heterogeneous_mix(self, run_pair, system):
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            HETERO, system,
            accesses_per_core=700, warmup_accesses=300, seed=17,
        )
        assert a[0].stats.writebacks_received > 0  # lbm's write traffic
        assert_bit_identical(a, b)

    def test_memo_capacity_eviction_mid_batch(self, run_pair, system):
        # A 64-entry memo overflows constantly; every overflow evicts a
        # mapping the replay must then recompute through the cipher.
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(memo_capacity=64, **MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=11,
        )
        memo = a[0].tags.randomizer.cache_info()
        assert memo.size == 64 and memo.misses > 64  # it overflowed
        assert_bit_identical(a, b)
        assert b[1].llc_randomizer_hit_rate == a[1].llc_randomizer_hit_rate

    def test_ablation_config_falls_back_to_scalar(self, run_pair, system):
        # The global_tag_eviction=False ablation runs on the scalar-ops
        # replay like every other Maya config.
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA), global_tag_eviction=False),
            homogeneous("mcf", 2), system,
            accesses_per_core=300, warmup_accesses=0, seed=3,
        )
        assert_bit_identical(a, b)
