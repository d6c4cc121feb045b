"""The batched bucket-and-balls engine matches the reference."""

import hashlib
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.security.buckets import BucketAndBallsModel, BucketModelConfig
from repro.security.buckets_fast import FastBucketAndBallsModel


def configs(cap, **kw):
    return BucketModelConfig(buckets_per_skew=256, bucket_capacity=cap, seed=3, **kw)


class TestFastEngine:
    def test_conservation_and_invariants(self):
        model = FastBucketAndBallsModel(configs(11))
        model.run(5000)
        model.check_invariants()

    def test_unbounded_invariants(self):
        model = FastBucketAndBallsModel(configs(None))
        model.run(5000)
        model.check_invariants()

    def test_spill_rate_matches_reference(self):
        iterations = 60_000
        ref = BucketAndBallsModel(configs(11)).run(iterations, sample_every=64)
        fast = FastBucketAndBallsModel(configs(11)).run(iterations, sample_every=64)
        assert ref.spills > 100 and fast.spills > 100
        ratio = fast.spills / ref.spills
        assert 0.7 < ratio < 1.4, ratio

    def test_occupancy_distribution_matches_reference(self):
        iterations = 30_000
        ref = BucketAndBallsModel(configs(None)).run(iterations, sample_every=16)
        fast = FastBucketAndBallsModel(configs(None)).run(iterations, sample_every=16)
        for n, p_ref in ref.occupancy_probability.items():
            if p_ref > 0.02:
                p_fast = fast.occupancy_probability.get(n, 0.0)
                assert p_fast == pytest.approx(p_ref, rel=0.15), n

    def test_random_skew_policy_spills_more(self):
        fast_la = FastBucketAndBallsModel(configs(12)).run(30_000, sample_every=256)
        fast_rnd = FastBucketAndBallsModel(
            configs(12, skew_policy="random")
        ).run(30_000, sample_every=256)
        assert fast_rnd.spills > fast_la.spills

    def test_throw_accounting(self):
        model = FastBucketAndBallsModel(configs(11))
        result = model.run(1000)
        assert result.iterations == 1000
        assert result.throws == 2000

    @pytest.mark.parametrize("iterations, sample_every", [(10, 0), (10, -1), (-1, 1)])
    def test_bad_run_arguments_leave_the_model_untouched(self, iterations, sample_every):
        model = FastBucketAndBallsModel(configs(10))
        with pytest.raises(ConfigurationError):
            model.run(iterations, sample_every=sample_every)
        assert (model.iterations_run, model.throws, model.spills) == (0, 0, 0)
        fresh = FastBucketAndBallsModel(configs(10))
        assert fingerprint(model, model.run(500)) == fingerprint(fresh, fresh.run(500))
        model.check_invariants()

    def test_invariants_catch_a_stale_slot_index(self):
        model = FastBucketAndBallsModel(configs(10))
        model.run(1000)
        model.check_invariants()
        slots = model._p1_slots[model._p1_balls[0]]
        slots[slots.index(0)] = len(model._p1_balls)
        with pytest.raises(AssertionError, match="slot index"):
            model.check_invariants()

    def test_falls_back_for_other_skew_counts(self):
        cfg = BucketModelConfig(
            skews=4, buckets_per_skew=64, bucket_capacity=12, seed=1
        )
        model = FastBucketAndBallsModel(cfg)
        model.run(500)
        model.check_invariants()


def fingerprint(model, result):
    """Exact outcome of a fast run: aggregates plus a digest of the pools."""
    digest = hashlib.sha256(
        json.dumps([model._p0_balls, model._p1_balls, model._total]).encode()
    ).hexdigest()
    return (
        result.iterations,
        result.throws,
        result.spills,
        result.occupancy_probability,
        digest,
    )


class TestExactStream:
    """Pin the fast engine's exact random stream and pool order.

    Every run is 9,000 or more iterations, so it crosses the 8,192
    iteration ``CHUNK`` refill.  Capacities 9 and 10 spill priority-1
    victims as well as priority-0 ones (819 and 78 of them), so both
    spill branches are covered.  Any change to the draw order, the
    victim choice or the swap-remove shows up here.
    """

    def test_capacity_9_every_sample(self):
        model = FastBucketAndBallsModel(configs(9))
        assert fingerprint(model, model.run(9000)) == (
            9000,
            18000,
            18000,
            {9: 1.0},
            "308e22d99e4fe2b402e9496382e61566f5554a7dd1c45b6bd98eac512d76edfa",
        )
        model.check_invariants()

    def test_capacity_10_sparse_samples(self):
        model = FastBucketAndBallsModel(configs(10))
        assert fingerprint(model, model.run(9000, sample_every=64)) == (
            9000,
            18000,
            2841,
            {
                3: 0.0002232142857142857,
                4: 0.0016183035714285715,
                5: 0.00654296875,
                6: 0.022251674107142856,
                7: 0.06575055803571428,
                8: 0.16866629464285715,
                9: 0.332421875,
                10: 0.4025251116071429,
            },
            "5d7b74acb8d68f6d2a088764b4c431bf840451305048f6bd019ed49e65954269",
        )
        model.check_invariants()

    def test_random_skew_policy(self):
        model = FastBucketAndBallsModel(configs(12, skew_policy="random"))
        assert fingerprint(model, model.run(9000)) == (
            9000,
            18000,
            2439,
            {
                0: 7.877604166666666e-05,
                1: 0.0003461371527777778,
                2: 0.0015813802083333333,
                3: 0.007087239583333333,
                4: 0.01789865451388889,
                5: 0.03685091145833334,
                6: 0.06840125868055555,
                7: 0.10850998263888889,
                8: 0.14441297743055556,
                9: 0.17382725694444445,
                10: 0.15949978298611112,
                11: 0.1434118923611111,
                12: 0.13809375,
            },
            "51d42928820a860477ae754ff103c7558fad60fde2474a527b6811f6bf86de9b",
        )
        model.check_invariants()

    def test_unbounded(self):
        model = FastBucketAndBallsModel(configs(None))
        assert fingerprint(model, model.run(9000, sample_every=64)) == (
            9000,
            18000,
            0,
            {
                2: 1.3950892857142857e-05,
                3: 0.0005580357142857143,
                4: 0.0025390625,
                5: 0.009584263392857144,
                6: 0.03464006696428571,
                7: 0.08899274553571429,
                8: 0.18271484375,
                9: 0.2931361607142857,
                10: 0.26761997767857143,
                11: 0.109375,
                12: 0.010574776785714286,
                13: 0.0002511160714285714,
            },
            "8a6ec5555cb465e2ed36cc770e08a60a2e22c28a234a6c0067aae248af502b11",
        )
        model.check_invariants()

    def test_consecutive_runs_continue_the_stream(self):
        model = FastBucketAndBallsModel(configs(11))
        assert fingerprint(model, model.run(4000)) == (
            4000,
            8000,
            98,
            {
                2: 5.37109375e-06,
                3: 0.0006279296875,
                4: 0.0034033203125,
                5: 0.0091611328125,
                6: 0.0320498046875,
                7: 0.08005322265625,
                8: 0.1803759765625,
                9: 0.3077900390625,
                10: 0.27896826171875,
                11: 0.10756494140625,
            },
            "37c16241449c0255cd472a1ab4933cb73e8f9f32ac8f14faa8124af947125c2c",
        )
        model.check_invariants()
        assert fingerprint(model, model.run(9000, sample_every=64)) == (
            13000,
            26000,
            339,
            {
                2: 5.18820936971746e-06,
                3: 0.0006164536042018836,
                4: 0.0033831841644530306,
                5: 0.009256237170973194,
                6: 0.03211878924172905,
                7: 0.08013236537068341,
                8: 0.18044875181115672,
                9: 0.30721651624003865,
                10: 0.27889926950012073,
                11: 0.1079232446872736,
            },
            "b8e815b35d6e1a23f07bde63d35e1b328bc3fb4b40f550dc2550a0e9bfd0de73",
        )
        model.check_invariants()
