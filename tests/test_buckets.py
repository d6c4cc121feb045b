"""The bucket-and-balls security model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import MayaConfig
from repro.common.errors import ConfigurationError
from repro.security.buckets import BucketAndBallsModel, BucketModelConfig


def small_config(capacity=15, buckets=64, seed=3):
    return BucketModelConfig(buckets_per_skew=buckets, bucket_capacity=capacity, seed=seed)


class TestConfig:
    def test_table_ii_defaults(self):
        cfg = BucketModelConfig()
        assert cfg.total_buckets == 32768
        assert cfg.total_priority0 == 98304  # 96K
        assert cfg.total_priority1 == 196608  # 192K
        assert cfg.average_load == 9

    def test_from_maya(self):
        cfg = BucketModelConfig.from_maya(MayaConfig())
        assert cfg.bucket_capacity == 15
        assert cfg.avg_priority0_per_bucket == 3
        assert cfg.avg_priority1_per_bucket == 6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BucketModelConfig(skews=1)
        with pytest.raises(ConfigurationError):
            BucketModelConfig(bucket_capacity=5)  # below average load
        with pytest.raises(ConfigurationError):
            BucketModelConfig(avg_priority0_per_bucket=0)


class TestInitialization:
    def test_starts_at_steady_state(self):
        model = BucketAndBallsModel(small_config())
        model.check_invariants()
        snapshot = model.occupancy_snapshot()
        assert snapshot == {9: 128}  # every bucket holds exactly A balls


class TestEventTypes:
    def test_demand_tag_miss_conserves_balls(self):
        model = BucketAndBallsModel(small_config())
        for _ in range(500):
            model.demand_tag_miss()
        model.check_invariants()

    def test_tag_hit_conserves_totals_per_bucket_sum(self):
        model = BucketAndBallsModel(small_config())
        before = sum(model._total)
        for _ in range(500):
            model.tag_hit()
        assert sum(model._total) == before
        model.check_invariants()

    def test_writeback_tag_miss_conserves_balls(self):
        model = BucketAndBallsModel(small_config())
        for _ in range(500):
            model.writeback_tag_miss()
        model.check_invariants()

    def test_run_counts_throws(self):
        model = BucketAndBallsModel(small_config())
        result = model.run(100)
        assert result.iterations == 100
        assert result.throws == 200  # two throws per iteration
        model.check_invariants()

    @pytest.mark.parametrize("iterations, sample_every", [(10, 0), (10, -1), (-1, 1)])
    def test_bad_run_arguments_leave_the_model_untouched(self, iterations, sample_every):
        model = BucketAndBallsModel(small_config(capacity=10))
        with pytest.raises(ConfigurationError):
            model.run(iterations, sample_every=sample_every)
        assert (model.iterations_run, model.throws, model.spills) == (0, 0, 0)
        fresh = BucketAndBallsModel(small_config(capacity=10))
        assert model.run(200) == fresh.run(200)
        assert model._p0_balls == fresh._p0_balls
        assert model._p1_balls == fresh._p1_balls


class TestSpills:
    def test_capacity_at_average_spills_often(self):
        model = BucketAndBallsModel(small_config(capacity=9))
        result = model.run(2000)
        assert result.spills > 100
        model.check_invariants()

    def test_spill_rate_decreases_with_capacity(self):
        """Fig. 6's double-exponential shape, qualitatively."""
        spills = {}
        for capacity in (9, 11, 13):
            model = BucketAndBallsModel(small_config(capacity=capacity, buckets=512))
            spills[capacity] = model.run(4000).spills
        assert spills[9] > spills[11] > spills[13]

    def test_unbounded_never_spills(self):
        model = BucketAndBallsModel(small_config(capacity=None))
        result = model.run(2000)
        assert result.spills == 0
        assert result.iterations_per_spill == float("inf")

    def test_capacity_respected(self):
        model = BucketAndBallsModel(small_config(capacity=10))
        model.run(2000)
        model.check_invariants()  # includes the per-bucket capacity check


class TestOccupancyDistribution:
    def test_distribution_sums_to_one(self):
        model = BucketAndBallsModel(small_config(capacity=None))
        result = model.run(500)
        assert sum(result.occupancy_probability.values()) == pytest.approx(1.0)

    def test_distribution_peaks_near_average_load(self):
        model = BucketAndBallsModel(small_config(capacity=None, buckets=512))
        result = model.run(3000)
        mode = max(result.occupancy_probability, key=result.occupancy_probability.get)
        assert 7 <= mode <= 11  # average load is 9

    def test_sampling_interval(self):
        model = BucketAndBallsModel(small_config(capacity=None))
        result = model.run(100, sample_every=10)
        assert model._samples == 10


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6))
@settings(max_examples=10, deadline=None)
def test_conservation_across_configs(reuse, base):
    """Ball populations stay at steady state for any way structure."""
    cfg = BucketModelConfig(
        buckets_per_skew=32,
        avg_priority0_per_bucket=reuse,
        avg_priority1_per_bucket=base,
        bucket_capacity=reuse + base + 4,
        seed=1,
    )
    model = BucketAndBallsModel(cfg)
    model.run(300)
    model.check_invariants()
