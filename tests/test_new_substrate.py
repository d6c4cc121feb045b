"""Tests for the extension substrates: TLB, OPT, DRRIP, trace I/O,
DRAM bandwidth, statistics, channel measurement, fingerprinting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.opt import opt_hit_rate, policy_gap_report, set_associative_opt_hit_rate
from repro.cache.replacement import DRRIPPolicy, make_policy
from repro.cache.set_assoc import SetAssociativeCache
from repro.common.config import CacheGeometry, DramConfig, MayaConfig, SystemConfig
from repro.common.errors import TraceError
from repro.core import MayaCache
from repro.harness.statistics import SeedStudy, across_seeds
from repro.hierarchy.dram import DramModel
from repro.hierarchy.tlb import TlbConfig, TlbHierarchy
from repro.llc import BaselineLLC, FullyAssociativeCache
from repro.security.attacks import fingerprint_accuracy
from repro.security.channel import leakage_curve, mutual_information_binary
from repro.security.victims import ModExpVictim, WebsiteVictim, modexp_key_pair, website_catalog
from repro.trace import MemoryAccess
from repro.trace.io import read_trace, write_trace


class TestTlb:
    def test_hit_after_first_touch(self):
        tlb = TlbHierarchy()
        cold = tlb.translate(0)
        warm = tlb.translate(1)  # same 4 KB page
        assert cold > warm == tlb.config.l1_latency
        assert tlb.page_walks == 1

    def test_stlb_catches_l1_victims(self):
        config = TlbConfig(l1_entries=4, l1_ways=4, stlb_entries=64, stlb_ways=16)
        tlb = TlbHierarchy(config)
        pages = [i * 64 for i in range(8)]  # 8 distinct pages
        for page in pages:
            tlb.translate(page)
        walks_before = tlb.page_walks
        lat = tlb.translate(pages[0])  # evicted from L1, held by STLB
        assert lat == config.l1_latency + config.stlb_latency
        assert tlb.page_walks == walks_before

    def test_validation(self):
        with pytest.raises(ValueError):
            TlbConfig(l1_entries=5, l1_ways=4)

    def test_reset(self):
        tlb = TlbHierarchy()
        tlb.translate(0)
        tlb.reset_stats()
        assert tlb.page_walks == 0 and tlb.l1.stats.accesses == 0


class TestOpt:
    def test_textbook_example(self):
        assert opt_hit_rate([1, 2, 1, 3, 2], capacity_lines=2) == pytest.approx(0.4)

    def test_everything_fits(self):
        trace = [1, 2, 3] * 10
        assert opt_hit_rate(trace, capacity_lines=3) == pytest.approx(27 / 30)

    def test_opt_dominates_lru_and_srrip(self):
        import random
        rng = random.Random(0)
        trace = [rng.randrange(64) for _ in range(3000)]
        geometry = CacheGeometry(sets=4, ways=4)
        report = policy_gap_report(trace, geometry)
        assert report["opt"] >= report["lru"] - 1e-9
        assert report["opt"] >= report["srrip"] - 1e-9
        assert report["opt_fa"] >= report["opt"] - 1e-9

    def test_empty_trace(self):
        assert opt_hit_rate([], 4) == 0.0
        assert set_associative_opt_hit_rate([], CacheGeometry(sets=2, ways=2)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            opt_hit_rate([1], 0)

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_opt_upper_bounds_lru_fully_associative(self, trace):
        """MIN is optimal: no online policy beats it at equal capacity."""
        capacity = 4
        opt = opt_hit_rate(trace, capacity)
        cache = SetAssociativeCache(CacheGeometry(sets=1, ways=capacity), policy="lru")
        lru_hits = sum(1 for addr in trace if cache.access(addr).hit)
        lru = lru_hits / len(trace) if trace else 0.0
        assert opt >= lru - 1e-9


class TestDrrip:
    def test_make_policy(self):
        assert isinstance(make_policy("drrip", seed=1), DRRIPPolicy)

    def test_psel_moves_toward_better_team(self):
        """A thrash pattern (no reuse) should push PSEL toward BRRIP."""
        geometry = CacheGeometry(sets=64, ways=4)
        cache = SetAssociativeCache(geometry, policy="drrip", seed=1)
        for addr in range(20_000):
            cache.access(addr)  # pure scan: BRRIP's home turf
        policy = cache._policy
        assert policy.winning_team in ("srrip", "brrip")
        # Leaders exist on both teams.
        roles = set(policy._roles.values())
        assert {"srrip", "brrip"} <= roles

    def test_behaves_as_cache_policy(self):
        geometry = CacheGeometry(sets=8, ways=4)
        cache = SetAssociativeCache(geometry, policy="drrip", seed=1)
        cache.access(1)
        assert cache.access(1).hit


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.mtrc"
        records = [MemoryAccess(i * 7, i % 2 == 0, i % 5) for i in range(100)]
        assert write_trace(path, records) == 100
        assert list(read_trace(path)) == records

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "t.mtrc.gz"
        records = [MemoryAccess(i, False, 3) for i in range(50)]
        write_trace(path, records)
        assert list(read_trace(path)) == records

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOTATRACE" + b"\x00" * 16)
        with pytest.raises(TraceError):
            list(read_trace(path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.mtrc"
        write_trace(path, [MemoryAccess(1), MemoryAccess(2)])
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TraceError):
            list(read_trace(path))

    def test_address_range_validated(self, tmp_path):
        with pytest.raises(TraceError):
            write_trace(tmp_path / "t.mtrc", [MemoryAccess(1 << 64)])


class TestDramBandwidth:
    def test_queueing_applies_when_now_given(self):
        dram = DramModel(DramConfig(service_cycles=10))
        first = dram.access(0, now=0.0)
        second = dram.access(10_000_000, now=0.0)  # arrives while busy
        assert second > first - dram.config.row_miss_cycles + 5
        assert dram.queue_cycles > 0

    def test_no_queueing_without_now(self):
        dram = DramModel()
        dram.access(0)
        dram.access(10_000_000)
        assert dram.queue_cycles == 0

    def test_idle_channel_no_delay(self):
        dram = DramModel(DramConfig(service_cycles=10))
        dram.access(0, now=0.0)
        lat = dram.access(0, now=1000.0)  # long idle gap, same row
        assert lat == dram.config.row_hit_cycles

    def test_reset_stats_restarts_the_channel_at_zero(self):
        dram = DramModel(DramConfig(service_cycles=10))
        for i in range(100):
            dram.access(i, now=1_000_000.0)  # busy until ~1M cycles
        dram.reset_stats()
        assert dram.access(0, now=0.0) == dram.config.row_hit_cycles  # row stays open
        assert dram.queue_cycles == 0

    def test_measured_window_does_not_queue_behind_warmup(self, monkeypatch):
        # run_mix restarts every core clock at 0 after warm-up; the
        # channel must restart with them.  Before the fix this probe
        # measured 2.62M queue cycles and ~511k core cycles (133k with
        # bandwidth unmodelled).
        from repro.hierarchy import simulator
        from repro.hierarchy.system import CacheHierarchy
        from repro.trace import homogeneous

        drams = []

        def build(*args, **kwargs):
            hierarchy = CacheHierarchy(*args, **kwargs)
            drams.append(hierarchy.dram)
            return hierarchy

        monkeypatch.setattr(simulator, "CacheHierarchy", build)
        system = SystemConfig(
            cores=2,
            l1d_geometry=CacheGeometry(sets=4, ways=4),
            l2_geometry=CacheGeometry(sets=16, ways=8),
            llc_geometry=CacheGeometry(sets=64, ways=16),
        )
        runs = {
            bandwidth: simulator.run_mix(
                BaselineLLC(system.llc_geometry), homogeneous("mcf", 2), system,
                accesses_per_core=1500, warmup_accesses=4000, seed=11,
                model_bandwidth=bandwidth, trace_cache=False,
            )
            for bandwidth in (False, True)
        }
        assert drams[-1].queue_cycles < 20_000
        for free, bounded in zip(runs[False].cores, runs[True].cores):
            assert free.cycles <= bounded.cycles < 1.05 * free.cycles


class TestStatistics:
    def test_seed_study_summary(self):
        study = SeedStudy((1.0, 2.0, 3.0))
        assert study.mean == 2.0
        assert study.median == 2.0
        assert study.std == pytest.approx(1.0)
        low, high = study.confidence_interval()
        assert low < 2.0 < high
        assert "95% CI" in study.describe()

    def test_single_value(self):
        study = SeedStudy((5.0,))
        assert study.confidence_interval() == (5.0, 5.0)

    def test_across_seeds(self):
        study = across_seeds(lambda s: s * 2.0, [1, 2, 3])
        assert study.values == (2.0, 4.0, 6.0)
        with pytest.raises(ValueError):
            across_seeds(lambda s: s, [])

    def test_bad_level(self):
        with pytest.raises(ValueError):
            SeedStudy((1.0, 2.0)).confidence_interval(level=2.0)


class TestChannel:
    def test_perfectly_separable_is_one_bit(self):
        assert mutual_information_binary([0.0] * 64, [1.0] * 64) == pytest.approx(1.0, abs=0.01)

    def test_identical_distributions_zero(self):
        assert mutual_information_binary([3.0] * 64, [3.0] * 64) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mutual_information_binary([], [1.0])

    def test_leakage_curve_monotone_observations(self):
        key_a, key_b = modexp_key_pair(seed=1)
        llc = FullyAssociativeCache(512, seed=1)
        curve = leakage_curve(
            llc,
            lambda: ModExpVictim(key_a, seed=1),
            lambda: ModExpVictim(key_b, seed=2),
            attacker_lines=512,
            observation_counts=(4, 16),
            seed=3,
        )
        assert [p.observations for p in curve] == [4, 16]
        assert all(0.0 <= p.mutual_information_bits <= 1.0 for p in curve)


class TestFingerprinting:
    def test_websites_distinguishable_on_baseline(self):
        result = fingerprint_accuracy(
            lambda: BaselineLLC(CacheGeometry(sets=32, ways=16)),
            website_catalog(seed=1),
            attacker_lines=512,
            training_loads=2,
            test_loads=2,
            seed=2,
        )
        assert result.accuracy > 0.5  # well above the 1/3 chance level

    def test_maya_does_not_hide_occupancy(self):
        """The paper's explicit non-claim: occupancy leaks on Maya too."""
        cfg = MayaConfig(sets_per_skew=32, rng_seed=1, hash_algorithm="splitmix")
        result = fingerprint_accuracy(
            lambda: MayaCache(cfg),
            website_catalog(seed=1),
            attacker_lines=cfg.data_entries,
            training_loads=2,
            test_loads=2,
            seed=2,
        )
        assert result.accuracy > 0.5

    def test_website_victim_validation(self):
        with pytest.raises(ValueError):
            WebsiteVictim(())
