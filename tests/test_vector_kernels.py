"""Element-wise cross-checks: numpy batch kernels vs the scalar paths.

The splitmix index kernel in :mod:`repro.engine.kernels` mirrors the
randomizer's inline scalar mixer (the oracle); these tests drive both
over identical inputs and require exact agreement - any divergence is
a kernel bug, never a tolerance question, because the kernel is a pure
integer pipeline.  The trace column views it consumes must be
zero-copy.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.common.config import MayaConfig
from repro.core.maya_cache import MayaCache
from repro.engine import kernels


class TestSplitmixIndices:
    def test_matches_randomizer_raw_indices(self):
        llc = MayaCache(MayaConfig(sets_per_skew=16, rng_seed=7,
                                   hash_algorithm="splitmix"))
        rand = llc.tags.randomizer
        rng = random.Random(3)
        addrs = [rng.getrandbits(40) for _ in range(2000)]
        for sdid in (0, 3):
            cols = kernels.splitmix_indices(
                addrs, rand._mix_keys, rand.index_bits, sdid=sdid
            )
            for i, addr in enumerate(addrs):
                expected = rand._raw_indices(addr, sdid)
                got = tuple(int(col[i]) for col in cols)
                assert got == expected, (hex(addr), sdid, got, expected)

    def test_matches_after_rekey(self):
        llc = MayaCache(MayaConfig(sets_per_skew=16, rng_seed=7,
                                   hash_algorithm="splitmix"))
        rand = llc.tags.randomizer
        rand.rekey()
        addrs = [random.Random(5).getrandbits(40) for _ in range(500)]
        cols = kernels.splitmix_indices(addrs, rand._mix_keys, rand.index_bits)
        for i, addr in enumerate(addrs):
            assert tuple(int(c[i]) for c in cols) == rand._raw_indices(addr, 0)


class TestColumnExports:
    def test_trace_views_are_zero_copy(self):
        from array import array

        from repro.trace.compiled import CompiledTrace

        trace = CompiledTrace(
            array("Q", [1, 2, 3]), bytearray([0, 1, 0]), array("I", [5, 0, 9])
        )
        addrs, flags, gaps = trace.columns_numpy()
        assert addrs.tolist() == [1, 2, 3]
        assert flags.tolist() == [0, 1, 0]
        assert gaps.tolist() == [5, 0, 9]
        trace.gaps[1] = 42  # views share memory with the columns
        assert gaps[1] == 42

    def test_translated_views(self):
        from array import array

        from repro.trace.translated import TranslatedTrace

        t = TranslatedTrace(
            array("Q", [10, 20]), [array("I", [1, 2]), array("I", [3, 0])]
        )
        addrs, cols = t.columns_numpy()
        assert addrs.tolist() == [10, 20]
        assert [c.tolist() for c in cols] == [[1, 2], [3, 0]]
        t.columns[1][0] = 7
        assert cols[1][0] == 7  # zero-copy
