"""Differential gate: op-stream replay vs the per-access drive.

With specialization on, ``run_mix`` replays the cached per-core op
streams through the LLC's specialized ``access_fast`` step
(``VectorReplay.phase_scalar``) for every design that has one -
baseline, Mirage and Maya alike.  The oracle is the generic per-access
drive (``specialize=False``): both must produce bit-identical raw
``CacheStats`` counters, per-core instruction and cycle counts, and
MPKI.  Configurations the replay cannot model (``on_sae="raise"``,
the bandwidth model, TLBs, a coherence directory, an LLC without an
``access_fast`` step) must fall back to the per-access drive and say
why.

Marker ``specialize``; run with ``-m specialize``.
"""

import functools

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig, SystemConfig
from repro.core.maya_cache import MayaCache
from repro.hierarchy import simulator
from repro.hierarchy.simulator import run_mix
from repro.hierarchy.system import CacheHierarchy
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.mirage import MirageCache
from repro.trace.mixes import Mix, homogeneous

pytestmark = pytest.mark.specialize

SYSTEM = SystemConfig(
    cores=2,
    l1d_geometry=CacheGeometry(sets=4, ways=4),
    l2_geometry=CacheGeometry(sets=16, ways=8),
    llc_geometry=CacheGeometry(sets=64, ways=16),
)

HETERO = Mix("mcf-lbm", ("mcf", "lbm"), "RATE")

MIRAGE = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")

MAYA = dict(sets_per_skew=16, rng_seed=7, hash_algorithm="splitmix")

#: A Maya tag store with no invalid-way reserve: installs land in full
#: sets, so every run takes SAEs.
MAYA_SAE = dict(
    sets_per_skew=4, base_ways_per_skew=2, reuse_ways_per_skew=1,
    invalid_ways_per_skew=0, rng_seed=5,
)

RUN = dict(accesses_per_core=1500, warmup_accesses=500, seed=11, trace_cache=False)


def _mirage(algorithm="splitmix", **kwargs):
    config = {**MIRAGE, "hash_algorithm": algorithm, **kwargs}
    return lambda: MirageCache(MirageConfig(**config))


def _maya(algorithm="splitmix", on_sae="count", global_tag_eviction=True, **kwargs):
    config = {**MAYA, "hash_algorithm": algorithm, **kwargs}
    return lambda: MayaCache(
        MayaConfig(**config), on_sae=on_sae, global_tag_eviction=global_tag_eviction
    )


def run_both(make_llc, mix, **kwargs):
    """Run the per-access oracle and the specialized drive on fresh LLCs."""
    options = {**RUN, **kwargs}
    llc_ref, llc_fast = make_llc(), make_llc()
    r_ref = run_mix(llc_ref, mix, SYSTEM, specialize=False, **options)
    r_fast = run_mix(llc_fast, mix, SYSTEM, specialize=True, **options)
    return (llc_ref, r_ref), (llc_fast, r_fast)


def assert_bit_identical(ref, fast):
    (llc_ref, r_ref), (llc_fast, r_fast) = ref, fast
    assert vars(llc_fast.stats) == vars(llc_ref.stats)
    assert [c.instructions for c in r_fast.cores] == [c.instructions for c in r_ref.cores]
    assert [c.cycles for c in r_fast.cores] == [c.cycles for c in r_ref.cores]
    assert r_fast.llc_mpki == r_ref.llc_mpki


def assert_replayed(result):
    assert result.specialize_info["replay"] == "opstream-scalar", result.specialize_info
    assert result.specialize_info["replay_reason"] is None
    assert result.engine_info["scalar_ops"] > 0


class TestReplayDifferential:
    @pytest.mark.parametrize("policy", ["srrip", "lru", "random", "brrip", "drrip"])
    def test_baseline_policies(self, policy):
        ref, fast = run_both(
            lambda: BaselineLLC(SYSTEM.llc_geometry, policy=policy, seed=3),
            homogeneous("mcf", 2),
        )
        assert_replayed(fast[1])
        assert ref[0].stats.evictions > 0
        assert_bit_identical(ref, fast)

    @pytest.mark.parametrize("algorithm", ["splitmix", "prince"])
    def test_mirage(self, algorithm):
        ref, fast = run_both(_mirage(algorithm), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.evictions > 0
        assert_bit_identical(ref, fast)

    def test_mirage_saes_counted(self):
        # No extra tag ways: installs land in full sets, so the run
        # takes SAEs (random-victim draws that must stay in lockstep).
        make = _mirage(sets_per_skew=4, base_ways_per_skew=2, extra_ways_per_skew=0)
        ref, fast = run_both(make, homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.saes > 0
        assert_bit_identical(ref, fast)

    @pytest.mark.parametrize(
        "make_llc",
        [lambda: BaselineLLC(SYSTEM.llc_geometry), _mirage(), _maya()],
        ids=["baseline", "mirage", "maya"],
    )
    def test_heterogeneous_mix(self, make_llc):
        ref, fast = run_both(make_llc, HETERO)
        assert_replayed(fast[1])
        assert ref[0].stats.writebacks_received > 0  # lbm's write traffic
        assert_bit_identical(ref, fast)

    # -- Maya: hash modes, stream shapes, and every hazard (SAE storms,
    # SAE-triggered rekeys, memo-capacity evictions) landing mid-stream.

    @pytest.mark.parametrize("algorithm", ["splitmix", "prince"])
    def test_maya(self, algorithm):
        ref, fast = run_both(_maya(algorithm), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.tag_evictions > 0
        assert_bit_identical(ref, fast)

    @pytest.mark.parametrize("bench", ["lbm", "omnetpp"])
    def test_maya_workloads(self, bench):
        # lbm streams with 45% writes; both exercise the writeback ops.
        ref, fast = run_both(_maya(), homogeneous(bench, 2))
        assert_replayed(fast[1])
        assert ref[0].stats.writebacks_received > 0
        assert_bit_identical(ref, fast)

    def test_maya_zero_warmup(self):
        ref, fast = run_both(_maya(), homogeneous("mcf", 2), warmup_accesses=0)
        assert_replayed(fast[1])
        assert_bit_identical(ref, fast)

    def test_maya_saes_counted(self):
        ref, fast = run_both(_maya(**MAYA_SAE), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.saes > 0
        assert_bit_identical(ref, fast)

    @pytest.mark.parametrize("algorithm", ["splitmix", "prince"])
    def test_maya_sae_rekey(self, algorithm):
        # on_sae="rekey": the mapping keys change and the memo and
        # precomputed side tables are dropped mid-replay.
        ref, fast = run_both(
            _maya(algorithm, on_sae="rekey", **MAYA_SAE), homogeneous("mcf", 2)
        )
        assert_replayed(fast[1])
        assert ref[0].stats.saes > 0
        assert ref[0].tags.randomizer.epoch > 1  # rekeys actually happened
        assert_bit_identical(ref, fast)
        assert fast[0].tags.randomizer.epoch == ref[0].tags.randomizer.epoch

    def test_maya_sae_rekey_without_global_tag_eviction(self):
        ref, fast = run_both(
            _maya(on_sae="rekey", global_tag_eviction=False, **MAYA_SAE),
            homogeneous("mcf", 2),
        )
        assert_replayed(fast[1])
        assert ref[0].tags.randomizer.epoch > 1
        assert_bit_identical(ref, fast)

    def test_maya_memo_capacity_evictions(self):
        # A 64-entry mapping memo overflows constantly.
        ref, fast = run_both(_maya(memo_capacity=64), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        memo = ref[0].tags.randomizer.cache_info()
        assert memo.size == 64 and memo.misses > 64  # it overflowed
        assert_bit_identical(ref, fast)
        assert fast[1].llc_randomizer_hit_rate == ref[1].llc_randomizer_hit_rate

    @pytest.mark.parametrize("seed", [1, 2, 3, 23, 1009])
    def test_maya_seed_sweep(self, seed):
        # Divergences that depend on stream interleaving, not on one
        # specific hazard.
        ref, fast = run_both(
            _maya(), homogeneous("mcf", 2),
            accesses_per_core=600, warmup_accesses=200, seed=seed,
        )
        assert_replayed(fast[1])
        assert_bit_identical(ref, fast)
        assert fast[1].ipcs == ref[1].ipcs


def _with_hierarchy(monkeypatch, **options):
    """Make ``run_mix`` build its hierarchy with extra ``options``."""
    monkeypatch.setattr(
        simulator, "CacheHierarchy", functools.partial(CacheHierarchy, **options)
    )


class TestReplayGates:
    def _assert_fell_back(self, result, needle):
        info = result.specialize_info
        assert info["llc"] is not None  # the step itself was installed
        assert info["replay"] is None
        assert needle in info["replay_reason"]

    def test_on_sae_raise(self):
        make = lambda: MirageCache(MirageConfig(**MIRAGE), on_sae="raise")  # noqa: E731
        ref, fast = run_both(make, homogeneous("mcf", 2))
        self._assert_fell_back(fast[1], "on_sae")
        assert_bit_identical(ref, fast)

    def test_model_bandwidth(self):
        ref, fast = run_both(_mirage(), homogeneous("mcf", 2), model_bandwidth=True)
        self._assert_fell_back(fast[1], "model_bandwidth")
        assert_bit_identical(ref, fast)

    def test_tlbs(self, monkeypatch):
        _with_hierarchy(monkeypatch, enable_tlb=True)
        ref, fast = run_both(_mirage(), homogeneous("mcf", 2))
        self._assert_fell_back(fast[1], "TLB")
        assert_bit_identical(ref, fast)

    def test_coherence_directory(self, monkeypatch):
        _with_hierarchy(monkeypatch, enable_coherence=True)
        ref, fast = run_both(_mirage(), homogeneous("mcf", 2))
        self._assert_fell_back(fast[1], "coherence")
        assert_bit_identical(ref, fast)

    def test_llc_without_access_fast_step(self):
        # CEASER's specialized step sits on its inner array; the LLC
        # object itself has no packed step to replay through.
        make = lambda: CeaserCache(SYSTEM.llc_geometry, seed=3)  # noqa: E731
        ref, fast = run_both(make, homogeneous("mcf", 2))
        self._assert_fell_back(fast[1], "CeaserCache has no access_fast step")
        assert fast[1].engine_info is None
        assert ref[0].stats.evictions > 0
        assert_bit_identical(ref, fast)
