"""Differential gate: op-stream replay vs the per-access drive.

``run_mix`` replays the cached per-core op streams through the LLC's
``access_fast`` step (``VectorReplay.phase_scalar``) for every design
that has one - baseline, CEASER, CEASER-S/Scatter, the fully-associative
cache, Mirage and Maya alike, any skew policy.  The
oracle is the per-access drive (the ``per_access_drive`` fixture makes
the replay decline): both must produce bit-identical raw
``CacheStats`` counters, per-core instruction and cycle counts, and
MPKI.  Configurations the replay cannot model (``on_sae="raise"``,
the bandwidth model, TLBs, a coherence directory, an LLC without an
``access_fast`` step) must fall back to the per-access drive and say
why.

Marker ``replay``; run with ``-m replay``.
"""

import contextlib
import functools
import json

import pytest

from repro.common.config import CacheGeometry, MayaConfig, MirageConfig, SystemConfig
from repro.common.errors import ConfigurationError
from repro.core.maya_cache import MayaCache
from repro.harness import runner
from repro.harness.cli import build_tasks
from repro.hierarchy import simulator
from repro.hierarchy.simulator import run_mix
from repro.hierarchy.system import CacheHierarchy
from repro.llc.baseline import BaselineLLC
from repro.llc.ceaser import CeaserCache
from repro.llc.fully_assoc import FullyAssociativeCache
from repro.llc.mirage import MirageCache
from repro.llc.partitioned import WayPartitionedLLC
from repro.llc.skewed import SkewedRandomizedCache
from repro.trace.compiled import trace_cache_info
from repro.trace.mixes import Mix, homogeneous

pytestmark = pytest.mark.replay

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


def _mirage(algorithm="splitmix", skew_policy="load_aware", **kwargs):
    config = {**MIRAGE, "hash_algorithm": algorithm, **kwargs}
    return lambda: MirageCache(MirageConfig(**config), skew_policy=skew_policy)


def _skewed(use_sdid_in_hash, remap_period, algorithm="splitmix"):
    return lambda: SkewedRandomizedCache(
        SYSTEM.llc_geometry,
        use_sdid_in_hash=use_sdid_in_hash,
        remap_period=remap_period,
        seed=3,
        hash_algorithm=algorithm,
    )


def _maya(algorithm="splitmix", on_sae="count", global_tag_eviction=True,
          skew_policy="load_aware", **kwargs):
    config = {**MAYA, "hash_algorithm": algorithm, **kwargs}
    return lambda: MayaCache(
        MayaConfig(**config), skew_policy=skew_policy, on_sae=on_sae,
        global_tag_eviction=global_tag_eviction,
    )


@pytest.fixture
def run_both(per_access_drive):
    """``run_both(make_llc, mix, **options)``: the per-access oracle and
    the default drive, each on a fresh LLC."""

    def run(make_llc, mix, **kwargs):
        options = {**RUN, **kwargs}
        llc_ref, llc_fast = make_llc(), make_llc()
        with per_access_drive():
            r_ref = run_mix(llc_ref, mix, SYSTEM, **options)
        assert r_ref.engine_info is None  # the oracle walked every access
        r_fast = run_mix(llc_fast, mix, SYSTEM, **options)
        return (llc_ref, r_ref), (llc_fast, r_fast)

    return run


def assert_bit_identical(ref, fast):
    (llc_ref, r_ref), (llc_fast, r_fast) = ref, fast
    assert vars(llc_fast.stats) == vars(llc_ref.stats)
    assert [c.instructions for c in r_fast.cores] == [c.instructions for c in r_ref.cores]
    assert [c.cycles for c in r_fast.cores] == [c.cycles for c in r_ref.cores]
    assert r_fast.llc_mpki == r_ref.llc_mpki


def assert_dram_identical(dram_ref, dram_fast):
    for name in ("reads", "writes", "row_hits", "row_misses", "_open_rows"):
        assert getattr(dram_fast, name) == getattr(dram_ref, name), name


def assert_replayed(result):
    assert result.specialize_info["replay"] == "opstream-scalar", result.specialize_info
    assert result.specialize_info["replay_reason"] is None
    assert result.engine_info["scalar_ops"] > 0


class TestReplayDifferential:
    @pytest.mark.parametrize("policy", ["srrip", "lru", "random", "brrip", "drrip"])
    def test_baseline_policies(self, run_both, policy):
        ref, fast = run_both(
            lambda: BaselineLLC(SYSTEM.llc_geometry, policy=policy, seed=3),
            homogeneous("mcf", 2),
        )
        assert_replayed(fast[1])
        assert ref[0].stats.evictions > 0
        assert_bit_identical(ref, fast)

    @pytest.mark.parametrize("algorithm", ["splitmix", "prince"])
    def test_mirage(self, run_both, algorithm):
        ref, fast = run_both(_mirage(algorithm), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.evictions > 0
        assert_bit_identical(ref, fast)

    def test_mirage_randomizer_hit_rate(self, run_both):
        ref, fast = run_both(_mirage(), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[1].llc_randomizer_hit_rate > 0
        assert fast[1].llc_randomizer_hit_rate == ref[1].llc_randomizer_hit_rate
        # The replay's index pre-pass filled the side table.
        assert fast[0].index_randomizer.cache_info().precomputed > 0
        assert ref[0].index_randomizer.cache_info().precomputed == 0

    def test_mirage_memo_capacity_evictions(self, run_both):
        # A 64-entry mapping memo overflows constantly.
        ref, fast = run_both(_mirage(memo_capacity=64), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        memo = ref[0].index_randomizer.cache_info()
        assert memo.size == 64 and memo.misses > 64  # it overflowed
        assert_bit_identical(ref, fast)
        assert fast[1].llc_randomizer_hit_rate == ref[1].llc_randomizer_hit_rate

    def test_mirage_random_skew(self, run_both):
        ref, fast = run_both(_mirage(skew_policy="random"), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.evictions > 0
        assert_bit_identical(ref, fast)

    def test_mirage_saes_counted(self, run_both):
        # No extra tag ways: installs land in full sets, so the run
        # takes SAEs (random-victim draws that must stay in lockstep).
        make = _mirage(sets_per_skew=4, base_ways_per_skew=2, extra_ways_per_skew=0)
        ref, fast = run_both(make, homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.saes > 0
        assert_bit_identical(ref, fast)

    # -- CEASER, CEASER-S / Scatter and the fully-associative cache:
    # small remap periods put epoch remaps (flush + rekey) mid-replay.

    @pytest.mark.parametrize("mix", [homogeneous("mcf", 2), HETERO], ids=["mcf", "mcf-lbm"])
    @pytest.mark.parametrize(
        "make_llc,remaps",
        [
            (lambda: CeaserCache(SYSTEM.llc_geometry, remap_period=10**9, seed=3), False),
            (
                lambda: CeaserCache(
                    SYSTEM.llc_geometry, remap_period=700, seed=3, hash_algorithm="splitmix"
                ),
                True,
            ),
            (_skewed(use_sdid_in_hash=False, remap_period=900), True),
            (_skewed(use_sdid_in_hash=True, remap_period=None), False),
            (_skewed(use_sdid_in_hash=True, remap_period=None, algorithm="prince"), False),
            (lambda: FullyAssociativeCache(SYSTEM.llc_geometry.lines, seed=3), False),
        ],
        ids=["ceaser", "ceaser-remap", "ceaser_s", "scatter", "scatter-prince", "fully_assoc"],
    )
    def test_randomized_designs(self, run_both, make_llc, remaps, mix):
        ref, fast = run_both(make_llc, mix)
        assert_replayed(fast[1])
        assert ref[0].stats.evictions > 0
        assert_bit_identical(ref, fast)
        assert getattr(fast[0], "remaps", 0) == getattr(ref[0], "remaps", 0)
        assert (getattr(ref[0], "remaps", 0) > 0) == remaps

    @pytest.mark.parametrize(
        "make_llc",
        [lambda: BaselineLLC(SYSTEM.llc_geometry), _mirage(), _maya()],
        ids=["baseline", "mirage", "maya"],
    )
    def test_heterogeneous_mix(self, run_both, make_llc):
        ref, fast = run_both(make_llc, HETERO)
        assert_replayed(fast[1])
        assert ref[0].stats.writebacks_received > 0  # lbm's write traffic
        assert_bit_identical(ref, fast)

    @pytest.mark.parametrize("make_llc", [_mirage, _maya], ids=["mirage", "maya"])
    def test_precomputed_side_table_overflow(self, run_both, make_llc):
        # A side table smaller than one core's distinct op addresses:
        # the index pre-pass installs through load_packed, whose FIFO
        # bound evicts entries the replay then derives per miss.
        def make():
            llc = make_llc()()
            llc.index_randomizer._precomputed_capacity = 64
            return llc

        ref, fast = run_both(make, homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert fast[0].index_randomizer.cache_info().precomputed_evictions > 0
        assert_bit_identical(ref, fast)
        assert fast[1].llc_randomizer_hit_rate == ref[1].llc_randomizer_hit_rate

    @pytest.mark.parametrize("mix", [homogeneous("mcf", 2), HETERO], ids=["mcf", "mcf-lbm"])
    @pytest.mark.parametrize(
        "make_llc",
        [lambda: BaselineLLC(SYSTEM.llc_geometry), _mirage(), _maya()],
        ids=["baseline", "mirage", "maya"],
    )
    def test_dram_model(self, run_both, monkeypatch, make_llc, mix):
        # The replay runs the DRAM model inline; its counters and open
        # rows must end where the per-access drive leaves them.
        drams = _capture_drams(monkeypatch)
        ref, fast = run_both(make_llc, mix)
        assert_replayed(fast[1])
        dram_ref, dram_fast = drams
        assert dram_ref.reads > 0 and dram_ref.row_hits > 0 and dram_ref.row_misses > 0
        if mix is HETERO:
            assert dram_ref.writes > 0  # lbm's dirty evictions
        assert_dram_identical(dram_ref, dram_fast)
        assert_bit_identical(ref, fast)

    # -- Maya: hash modes, stream shapes, and every hazard (SAE storms,
    # SAE-triggered rekeys, memo-capacity evictions) landing mid-stream.

    @pytest.mark.parametrize("algorithm", ["splitmix", "prince"])
    def test_maya(self, run_both, algorithm):
        ref, fast = run_both(_maya(algorithm), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.tag_evictions > 0
        assert_bit_identical(ref, fast)

    @pytest.mark.parametrize("bench", ["lbm", "omnetpp"])
    def test_maya_workloads(self, run_both, bench):
        # lbm streams with 45% writes; both exercise the writeback ops.
        ref, fast = run_both(_maya(), homogeneous(bench, 2))
        assert_replayed(fast[1])
        assert ref[0].stats.writebacks_received > 0
        assert_bit_identical(ref, fast)

    def test_maya_random_skew(self, run_both):
        ref, fast = run_both(_maya(skew_policy="random"), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.tag_evictions > 0
        assert_bit_identical(ref, fast)

    def test_maya_three_skews(self, run_both):
        # Off the inline two-skew pick; the replay's batch index
        # precompute fills one column per skew.
        ref, fast = run_both(_maya(skews=3), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.tag_evictions > 0
        assert_bit_identical(ref, fast)

    def test_maya_zero_warmup(self, run_both):
        ref, fast = run_both(_maya(), homogeneous("mcf", 2), warmup_accesses=0)
        assert_replayed(fast[1])
        assert_bit_identical(ref, fast)

    def test_maya_saes_counted(self, run_both):
        ref, fast = run_both(_maya(**MAYA_SAE), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        assert ref[0].stats.saes > 0
        assert_bit_identical(ref, fast)

    @pytest.mark.parametrize("algorithm", ["splitmix", "prince"])
    def test_maya_sae_rekey(self, run_both, algorithm):
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

    def test_maya_sae_rekey_without_global_tag_eviction(self, run_both):
        ref, fast = run_both(
            _maya(on_sae="rekey", global_tag_eviction=False, **MAYA_SAE),
            homogeneous("mcf", 2),
        )
        assert_replayed(fast[1])
        assert ref[0].tags.randomizer.epoch > 1
        assert_bit_identical(ref, fast)

    def test_maya_memo_capacity_evictions(self, run_both):
        # A 64-entry mapping memo overflows constantly.
        ref, fast = run_both(_maya(memo_capacity=64), homogeneous("mcf", 2))
        assert_replayed(fast[1])
        memo = ref[0].tags.randomizer.cache_info()
        assert memo.size == 64 and memo.misses > 64  # it overflowed
        assert_bit_identical(ref, fast)
        assert fast[1].llc_randomizer_hit_rate == ref[1].llc_randomizer_hit_rate

    @pytest.mark.parametrize("seed", [1, 2, 3, 23, 1009])
    def test_maya_seed_sweep(self, run_both, seed):
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


def _capture_drams(monkeypatch):
    """Make ``run_mix`` record each hierarchy's ``DramModel``, in
    construction order."""
    drams = []

    def build(*args, **kwargs):
        hierarchy = CacheHierarchy(*args, **kwargs)
        drams.append(hierarchy.dram)
        return hierarchy

    monkeypatch.setattr(simulator, "CacheHierarchy", build)
    return drams


class TestReplayGates:
    def _assert_fell_back(self, result, needle):
        info = result.specialize_info
        assert info["llc"] is not None  # the step itself was installed
        assert info["replay"] is None
        assert needle in info["replay_reason"]

    def test_on_sae_raise(self, run_both):
        make = lambda: MirageCache(MirageConfig(**MIRAGE), on_sae="raise")  # noqa: E731
        ref, fast = run_both(make, homogeneous("mcf", 2))
        self._assert_fell_back(fast[1], "on_sae")
        assert_bit_identical(ref, fast)

    def test_model_bandwidth(self, run_both):
        ref, fast = run_both(_mirage(), homogeneous("mcf", 2), model_bandwidth=True)
        self._assert_fell_back(fast[1], "model_bandwidth")
        assert_bit_identical(ref, fast)

    def test_tlbs(self, run_both, monkeypatch):
        _with_hierarchy(monkeypatch, enable_tlb=True)
        ref, fast = run_both(_mirage(), homogeneous("mcf", 2))
        self._assert_fell_back(fast[1], "TLB")
        assert_bit_identical(ref, fast)

    def test_coherence_directory(self, run_both, monkeypatch):
        _with_hierarchy(monkeypatch, enable_coherence=True)
        ref, fast = run_both(_mirage(), homogeneous("mcf", 2))
        self._assert_fell_back(fast[1], "coherence")
        assert_bit_identical(ref, fast)

    def test_llc_without_access_fast_step(self, run_both):
        # A partitioned design routes each access to a per-domain slice
        # and has no packed step of its own to replay through.
        make = lambda: WayPartitionedLLC(SYSTEM.llc_geometry, domains=2, seed=3)  # noqa: E731
        ref, fast = run_both(make, homogeneous("mcf", 2))
        info = fast[1].specialize_info
        assert info["llc"] is None
        assert info["llc_reason"] == "WayPartitionedLLC has no access_fast step"
        assert fast[1].engine_info is None
        assert ref[0].stats.evictions > 0
        assert_bit_identical(ref, fast)


class TestRunMixArguments:
    @pytest.mark.parametrize("option", ["warmup_accesses", "accesses_per_core"])
    @pytest.mark.parametrize("drive", ["replay", "per-access"])
    def test_negative_counts_rejected_up_front(self, per_access_drive, option, drive):
        before = trace_cache_info().compiles
        context = per_access_drive() if drive == "per-access" else contextlib.nullcontext()
        with context, pytest.raises(ConfigurationError, match=option):
            run_mix(_maya()(), homogeneous("mcf", 2), SYSTEM, **{**RUN, option: -50})
        assert trace_cache_info().compiles == before  # nothing was compiled

    @pytest.mark.parametrize("drive", ["replay", "per-access"])
    def test_zero_measured_accesses_still_valid(self, per_access_drive, drive):
        context = per_access_drive() if drive == "per-access" else contextlib.nullcontext()
        with context:
            result = run_mix(_maya()(), homogeneous("mcf", 2), SYSTEM,
                             **{**RUN, "accesses_per_core": 0})
        assert result.total_instructions > 0  # each core still steps once
        assert (result.engine_info is None) == (drive == "per-access")


@pytest.mark.slow
def test_canonical_grid_results_identical_on_both_drive_paths(per_access_drive):
    """``fig9 fig10 table7 --fast``: the canonical results bytes are the
    same with the replay on and with every ``run_mix`` on the
    per-access drive."""
    tasks = build_tasks(["fig9", "fig10", "table7"], fast=True)

    def canonical():
        return json.dumps(runner.results_dict(runner.run_tasks(tasks)), indent=2)

    replayed = canonical()
    with per_access_drive():
        walked = canonical()
    assert json.loads(replayed)["ok"]
    assert replayed == walked
