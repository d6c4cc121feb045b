"""Differential gate: compiled packed replay vs the generator oracle.

``run_mix`` has two drive loops - the default batched replay over
compiled packed columns and the original generator path.  The
generator path is the oracle: for every design and stream shape the
compiled path must produce *bit-identical* statistics (the raw
``CacheStats`` counters, not just summary figures) and identical
per-core instruction/cycle counts.
"""

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig, SystemConfig
from repro.core.maya_cache import MayaCache
from repro.hierarchy.simulator import run_mix
from repro.llc.baseline import BaselineLLC
from repro.llc.mirage import MirageCache
from repro.trace.mixes import homogeneous


def run_pair(make_llc, mix, system, **kwargs):
    """Run both drive loops on fresh LLCs; return their (llc, result)s."""
    llc_gen, llc_cmp = make_llc(), make_llc()
    r_gen = run_mix(llc_gen, mix, system, compiled=False, **kwargs)
    r_cmp = run_mix(llc_cmp, mix, system, compiled=True, trace_cache=False, **kwargs)
    return (llc_gen, r_gen), (llc_cmp, r_cmp)


def assert_bit_identical(pair_gen, pair_cmp):
    (llc_gen, r_gen), (llc_cmp, r_cmp) = pair_gen, pair_cmp
    assert vars(llc_cmp.stats) == vars(llc_gen.stats)  # every raw counter
    assert [c.instructions for c in r_cmp.cores] == [c.instructions for c in r_gen.cores]
    assert [c.cycles for c in r_cmp.cores] == [c.cycles for c in r_gen.cores]
    assert r_cmp.ipcs == r_gen.ipcs
    assert r_cmp.llc_mpki == r_gen.llc_mpki
    assert r_cmp.llc_randomizer_hit_rate == r_gen.llc_randomizer_hit_rate


@pytest.fixture()
def system():
    return SystemConfig(
        cores=2,
        l1d_geometry=CacheGeometry(sets=4, ways=4),
        l2_geometry=CacheGeometry(sets=16, ways=8),
        llc_geometry=CacheGeometry(sets=64, ways=16),
    )


MAYA = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")


class TestDesigns:
    def test_maya(self, system):
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert a[0].stats.accesses > 0
        assert_bit_identical(a, b)

    def test_mirage(self, system):
        a, b = run_pair(
            lambda: MirageCache(MirageConfig(sets_per_skew=16, rng_seed=7,
                                             hash_algorithm="splitmix")),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert_bit_identical(a, b)

    def test_baseline(self, system):
        a, b = run_pair(
            lambda: BaselineLLC(system.llc_geometry),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        assert_bit_identical(a, b)


class TestStreamShapes:
    def test_write_heavy_stream(self, system):
        # lbm: streaming, 45% writes - exercises the writeback path.
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("lbm", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=5,
        )
        assert a[0].stats.writebacks_received > 0
        assert_bit_identical(a, b)

    def test_rekey_during_run(self, system):
        # Tag store with no invalid-way reserve + rekey-on-SAE: the
        # mapping keys change mid-replay, which must not desynchronize
        # the two drive loops.
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

    def test_zero_warmup(self, system):
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=500, warmup_accesses=0, seed=3,
        )
        assert_bit_identical(a, b)

    def test_heterogeneous_cores_interleave_identically(self, system):
        from repro.trace.mixes import Mix

        mix = Mix("mcf-lbm", ("mcf", "lbm"), "RATE")
        a, b = run_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            mix, system,
            accesses_per_core=700, warmup_accesses=300, seed=17,
        )
        assert_bit_identical(a, b)


class TestPretranslate:
    """Ahead-of-time index translation must be invisible in results."""

    PRINCE = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="prince")

    def test_prince_auto_pretranslate_matches_generator_oracle(self, system):
        # pretranslate defaults to on for prince-mode compiled runs; the
        # generator path (no pretranslation possible) is the oracle.
        make = lambda: MayaCache(MayaConfig(**self.PRINCE))  # noqa: E731
        llc_gen, llc_cmp = make(), make()
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11)
        r_gen = run_mix(llc_gen, homogeneous("mcf", 2), system, compiled=False, **kwargs)
        r_cmp = run_mix(llc_cmp, homogeneous("mcf", 2), system,
                        compiled=True, trace_cache=False, **kwargs)
        assert llc_cmp.index_randomizer.cache_info().precomputed > 0  # it fired
        assert_bit_identical((llc_gen, r_gen), (llc_cmp, r_cmp))

    def test_pretranslate_on_off_bit_identical(self, system):
        make = lambda: MayaCache(MayaConfig(**self.PRINCE))  # noqa: E731
        # specialize=False: the specialized replay batch-fills the
        # precomputed side table itself, which this test uses as its
        # pretranslate-fired signal.
        kwargs = dict(accesses_per_core=500, warmup_accesses=200, seed=11,
                      trace_cache=False, specialize=False)
        llc_off, llc_on = make(), make()
        r_off = run_mix(llc_off, homogeneous("mcf", 2), system,
                        pretranslate=False, **kwargs)
        r_on = run_mix(llc_on, homogeneous("mcf", 2), system,
                       pretranslate=True, translate_jobs=1, **kwargs)
        assert llc_off.index_randomizer.cache_info().precomputed == 0
        assert llc_on.index_randomizer.cache_info().precomputed > 0
        assert_bit_identical((llc_off, r_off), (llc_on, r_on))

    def test_splitmix_stays_off_by_default(self, system):
        # Pinned to the generic oracle: the specialized scalar replay
        # batch-precomputes Maya's set indices by design (an observably
        # free side-table fill), so "no precompute" is a property of
        # the generic drive loop specifically.
        llc = MayaCache(MayaConfig(**MAYA))
        run_mix(llc, homogeneous("mcf", 2), system,
                accesses_per_core=300, warmup_accesses=0, seed=2,
                trace_cache=False, specialize=False)
        assert llc.index_randomizer.cache_info().precomputed == 0

    def test_rekey_during_run_falls_back_to_live_randomizer(self, system):
        # SAE-triggered rekeys drop the pretranslated side table mid-
        # replay; from then on lookups must hit the live cipher and the
        # two drive loops must stay in lockstep.
        cfg = MayaConfig(
            sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
            invalid_ways_per_skew=0, rng_seed=5, hash_algorithm="prince",
        )
        make = lambda: MayaCache(cfg, on_sae="rekey", global_tag_eviction=False)  # noqa: E731
        llc_gen, llc_cmp = make(), make()
        kwargs = dict(accesses_per_core=800, warmup_accesses=200, seed=13)
        r_gen = run_mix(llc_gen, homogeneous("mcf", 2), system, compiled=False, **kwargs)
        r_cmp = run_mix(llc_cmp, homogeneous("mcf", 2), system,
                        compiled=True, trace_cache=False, pretranslate=True,
                        translate_jobs=1, **kwargs)
        assert llc_cmp.stats.saes > 0  # rekeys actually happened
        assert llc_cmp.index_randomizer.epoch > 1
        assert llc_cmp.index_randomizer.cache_info().precomputed == 0  # dropped
        assert_bit_identical((llc_gen, r_gen), (llc_cmp, r_cmp))

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


def run_engine_pair(make_llc, mix, system, **kwargs):
    """Run the scalar oracle and the vector engine on fresh LLCs."""
    llc_s, llc_v = make_llc(), make_llc()
    r_s = run_mix(llc_s, mix, system, engine="scalar",
                  trace_cache=False, **kwargs)
    r_v = run_mix(llc_v, mix, system, engine="vector",
                  trace_cache=False, **kwargs)
    return (llc_s, r_s), (llc_v, r_v)


@pytest.mark.vector
class TestVectorEngine:
    """Vector column replay vs the scalar oracle, hazards included.

    Each test drives both engines over the same mix and asserts
    bit-identical raw counters; the hazard tests additionally assert
    that the hazard actually fired *and* that the vector engine
    reported epoch segments (i.e. the scalar-fallback windows ran).
    """

    def _assert_vector_ran(self, r_v):
        assert r_v.engine == "vector", r_v.engine_info
        assert r_v.engine_info["engine"] == "vector"

    def test_full_protocol_bit_identical(self, system):
        a, b = run_engine_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=400, seed=11,
        )
        self._assert_vector_ran(b[1])
        assert b[1].engine_info["segments"] == 0  # hazard-free run
        assert_bit_identical(a, b)

    def test_write_heavy_stream(self, system):
        a, b = run_engine_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            homogeneous("lbm", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=5,
        )
        self._assert_vector_ran(b[1])
        assert a[0].stats.writebacks_received > 0
        assert_bit_identical(a, b)

    def test_heterogeneous_mix(self, system):
        from repro.trace.mixes import Mix

        a, b = run_engine_pair(
            lambda: MayaCache(MayaConfig(**MAYA)),
            Mix("mcf-lbm", ("mcf", "lbm"), "RATE"), system,
            accesses_per_core=700, warmup_accesses=300, seed=17,
        )
        self._assert_vector_ran(b[1])
        assert_bit_identical(a, b)

    def test_prince_hash(self, system):
        a, b = run_engine_pair(
            lambda: MayaCache(MayaConfig(sets_per_skew=16, rng_seed=7,
                                         hash_algorithm="prince")),
            homogeneous("mcf", 2), system,
            accesses_per_core=500, warmup_accesses=200, seed=11,
        )
        self._assert_vector_ran(b[1])
        assert_bit_identical(a, b)

    # -- hazards landing mid-batch ------------------------------------

    SAE_CFG = dict(
        sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
        invalid_ways_per_skew=0, rng_seed=5,
    )

    def test_sae_storm_mid_batch_count_policy(self, system):
        a, b = run_engine_pair(
            lambda: MayaCache(MayaConfig(hash_algorithm="splitmix",
                                         **self.SAE_CFG)),
            homogeneous("mcf", 2), system,
            accesses_per_core=1200, warmup_accesses=300, seed=13,
        )
        self._assert_vector_ran(b[1])
        assert b[0].stats.saes > 0
        assert b[1].engine_info["segments"] > 0
        assert b[1].engine_info["fallback_ops"] > 0
        assert_bit_identical(a, b)

    def test_sae_rekey_mid_batch(self, system):
        # on_sae="rekey": the mapping keys change and the memo/side
        # tables are invalidated mid-replay; the vector engine must
        # drop to the scalar window and resume with the new keys.
        a, b = run_engine_pair(
            lambda: MayaCache(MayaConfig(hash_algorithm="splitmix",
                                         **self.SAE_CFG), on_sae="rekey"),
            homogeneous("mcf", 2), system,
            accesses_per_core=1200, warmup_accesses=300, seed=13,
        )
        self._assert_vector_ran(b[1])
        assert b[0].stats.saes > 0
        assert b[0].tags.randomizer.epoch > 1  # rekeys actually happened
        assert b[1].engine_info["segments"] > 0
        assert_bit_identical(a, b)

    def test_sae_rekey_prince_mid_batch(self, system):
        # Same, under the real cipher: rekey drops the precomputed
        # tables and later installs hit the live PRINCE path.
        a, b = run_engine_pair(
            lambda: MayaCache(MayaConfig(hash_algorithm="prince",
                                         **self.SAE_CFG), on_sae="rekey"),
            homogeneous("mcf", 2), system,
            accesses_per_core=1000, warmup_accesses=200, seed=13,
        )
        self._assert_vector_ran(b[1])
        assert b[0].stats.saes > 0
        assert b[0].tags.randomizer.epoch > 1
        assert_bit_identical(a, b)

    def test_memo_capacity_eviction_mid_batch(self, system):
        # A 64-entry memo overflows constantly; every overflow is a
        # side-table invalidation hazard and opens a scalar window.
        a, b = run_engine_pair(
            lambda: MayaCache(MayaConfig(memo_capacity=64, **MAYA)),
            homogeneous("mcf", 2), system,
            accesses_per_core=800, warmup_accesses=200, seed=11,
        )
        self._assert_vector_ran(b[1])
        assert b[1].engine_info["segments"] > 0
        assert_bit_identical(a, b)

    # -- gating -------------------------------------------------------

    def test_unsupported_design_falls_back_to_scalar(self, system):
        llc = BaselineLLC(system.llc_geometry)
        r = run_mix(llc, homogeneous("mcf", 2), system, engine="vector",
                    accesses_per_core=300, warmup_accesses=0, seed=3,
                    trace_cache=False)
        assert r.engine == "scalar"
        assert "fallback_reason" in r.engine_info

    def test_ablation_config_falls_back_to_scalar(self, system):
        llc = MayaCache(MayaConfig(**MAYA), global_tag_eviction=False)
        r = run_mix(llc, homogeneous("mcf", 2), system, engine="vector",
                    accesses_per_core=300, warmup_accesses=0, seed=3,
                    trace_cache=False)
        assert r.engine == "scalar"
        assert "tag eviction" in r.engine_info["fallback_reason"]

    def test_generator_path_falls_back_to_scalar(self, system):
        llc = MayaCache(MayaConfig(**MAYA))
        r = run_mix(llc, homogeneous("mcf", 2), system, engine="vector",
                    compiled=False, accesses_per_core=300,
                    warmup_accesses=0, seed=3)
        assert r.engine == "scalar"
        assert "generator" in r.engine_info["fallback_reason"]

    def test_env_var_selects_engine(self, system, monkeypatch):
        from repro.engine import ENGINE_ENV

        monkeypatch.setenv(ENGINE_ENV, "vector")
        llc = MayaCache(MayaConfig(**MAYA))
        r = run_mix(llc, homogeneous("mcf", 2), system,
                    accesses_per_core=300, warmup_accesses=0, seed=3,
                    trace_cache=False)
        assert r.engine == "vector"
