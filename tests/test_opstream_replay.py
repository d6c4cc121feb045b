"""Differential gate: op-stream scalar replay vs the per-access drive.

With specialization on, ``run_mix`` replays the cached per-core op
streams through the LLC's specialized ``access_fast`` step
(``VectorReplay.phase_scalar``) for every design that has one -
baseline, Mirage and Maya alike.  The oracle is the generic per-access
drive (``specialize=False``): both must produce bit-identical raw
``CacheStats`` counters, per-core instruction and cycle counts, and
MPKI.  Configurations the replay cannot model (``on_sae="raise"``,
the bandwidth model, TLBs, a coherence directory) must fall back to
the per-access drive and say why.

Marker ``specialize``; run with ``-m specialize``.
"""

import functools

import pytest

from repro.common.config import CacheGeometry, MirageConfig, SystemConfig
from repro.hierarchy import simulator
from repro.hierarchy.simulator import run_mix
from repro.hierarchy.system import CacheHierarchy
from repro.llc.baseline import BaselineLLC
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

RUN = dict(accesses_per_core=1500, warmup_accesses=500, seed=11, trace_cache=False)


def _mirage(algorithm="splitmix", **kwargs):
    config = {**MIRAGE, "hash_algorithm": algorithm, **kwargs}
    return lambda: MirageCache(MirageConfig(**config))


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
        [lambda: BaselineLLC(SYSTEM.llc_geometry), _mirage()],
        ids=["baseline", "mirage"],
    )
    def test_heterogeneous_mix(self, make_llc):
        ref, fast = run_both(make_llc, HETERO)
        assert_replayed(fast[1])
        assert ref[0].stats.writebacks_received > 0  # lbm's write traffic
        assert_bit_identical(ref, fast)


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

    @pytest.mark.parametrize(
        "make_llc,name",
        [(lambda: BaselineLLC(SYSTEM.llc_geometry), "BaselineLLC"), (_mirage(), "MirageCache")],
        ids=["baseline", "mirage"],
    )
    def test_vector_engine_still_declines(self, make_llc, name):
        result = run_mix(make_llc(), homogeneous("mcf", 2), SYSTEM, engine="vector", **RUN)
        assert result.engine == "scalar"
        assert result.engine_info["fallback_reason"] == (
            f"{name} does not support vector replay"
        )
