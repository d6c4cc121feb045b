"""The zero-copy mmap artifact store (repro.store).

Load-bearing properties:

* **Gating** - ``REPRO_MMAP`` tokens select heap loading; unset/blank
  enables the store (on little-endian hosts).
* **Registry** - repeat opens of the same ``(path, key)`` are served by
  one map; an ``os.replace`` by a concurrent writer is detected through
  the file identity and mapped fresh while live views keep serving the
  old inode's bytes.
* **Zero copy** - a disk load under mmap hands out ``memoryview``
  columns over the map (no heap materialization); the heap fallback
  hands out plain ``array``/``bytearray`` columns and never maps.
* **Non-writeable views** - every ``columns_numpy()`` ndarray is
  read-only, whether the backing columns are heap or mapped.
* **Parity** - a full ``run_mix`` over cache-loaded artifacts produces
  bit-identical statistics with the store on and off (the heap path is
  the differential oracle).
"""

import os
import sys
from array import array

import pytest

from repro import store
from repro.common.config import CacheGeometry
from repro.core.maya_cache import MayaCache
from repro.engine import opstream
from repro.hierarchy.simulator import run_mix
from repro.trace import compiled, translated
from repro.trace.compiled import CompiledTrace, compile_workload
from repro.trace.mixes import homogeneous
from repro.trace.record import MemoryAccess

pytestmark = pytest.mark.store


@pytest.fixture(autouse=True)
def clean_store():
    """A fresh registry and zeroed counters around every test."""
    store.clear_registry()
    store.reset_store_stats()
    yield
    store.clear_registry()
    store.reset_store_stats()


@pytest.fixture()
def cache_dirs(tmp_path, monkeypatch):
    """Private trace + opstream disk caches, clean memos and counters.

    The translated cache follows the trace cache's directory, so all
    three artifact kinds land under ``tmp_path``.  The store is pinned
    ON so these tests stay meaningful when the whole suite runs under
    ``REPRO_MMAP=0`` (CI's heap-oracle pass); tests that want the heap
    path set the variable to ``0`` themselves.
    """
    monkeypatch.setenv(store.MMAP_ENV, "1")
    monkeypatch.setenv(compiled.TRACE_CACHE_ENV, str(tmp_path / "tc"))
    monkeypatch.setenv(opstream.OPSTREAM_CACHE_ENV, str(tmp_path / "ops"))
    monkeypatch.delenv(translated.TRANSLATED_CACHE_ENV, raising=False)
    for module in (compiled, translated, opstream):
        module.clear_memory_cache()
    compiled.reset_trace_cache_stats()
    translated.reset_translated_cache_stats()
    opstream.reset_opstream_cache_stats()
    yield tmp_path
    for module in (compiled, translated, opstream):
        module.clear_memory_cache()
    compiled.reset_trace_cache_stats()
    translated.reset_translated_cache_stats()
    opstream.reset_opstream_cache_stats()


def write_artifact(path, key, lines=40, stride=5):
    """Serialize a small valid trace under ``key`` at ``path``."""
    trace = CompiledTrace.from_records(
        [MemoryAccess(a * stride, a % 3 == 0) for a in range(lines)]
    )
    path.write_bytes(trace.to_bytes(key))
    return trace


class TestEnvGate:
    def test_default_and_blank_enable(self, monkeypatch):
        for value in (None, "", "   "):
            if value is None:
                monkeypatch.delenv(store.MMAP_ENV, raising=False)
            else:
                monkeypatch.setenv(store.MMAP_ENV, value)
            assert store.mmap_enabled()

    def test_disable_tokens(self, monkeypatch):
        for token in ("0", "off", "NONE", "False", " disabled "):
            monkeypatch.setenv(store.MMAP_ENV, token)
            assert not store.mmap_enabled()
        for token in ("1", "on", "anything-else"):
            monkeypatch.setenv(store.MMAP_ENV, token)
            assert store.mmap_enabled()

    def test_big_endian_hosts_use_the_heap_path(self, monkeypatch):
        # Zero-copy casts of the little-endian file columns would be
        # wrong on a big-endian host, so the store must refuse there.
        monkeypatch.delenv(store.MMAP_ENV, raising=False)
        monkeypatch.setattr(store.sys, "byteorder", "big")
        assert not store.mmap_enabled()


class TestRegistry:
    def test_missing_file_is_an_ordinary_miss(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            store.map_artifact(tmp_path / "nope.ctrace", "k")
        info = store.store_cache_info()
        assert (info.maps, info.map_errors) == (0, 0)

    def test_empty_file_raises_value_error(self, tmp_path):
        # mmap rejects zero-length files; every artifact has a header,
        # so an empty file is necessarily corrupt (the caches treat the
        # ValueError exactly like a parse failure).
        path = tmp_path / "empty.ctrace"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            store.map_artifact(path, "k")

    def test_repeat_opens_share_one_map(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        first = store.map_artifact(path, "k")
        second = store.map_artifact(path, "k")
        assert second is first
        info = store.store_cache_info()
        assert (info.maps, info.map_reuses) == (1, 1)
        assert info.mapped_bytes == path.stat().st_size
        assert store.registry_size() == 1
        assert store.mapped_bytes_current() == path.stat().st_size

    def test_distinct_keys_map_separately(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k1")
        store.map_artifact(path, "k1")
        store.map_artifact(path, "k2")
        assert store.store_cache_info().maps == 2
        assert store.registry_size() == 2

    def test_replace_evicts_and_remaps(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k", lines=40)
        old = store.map_artifact(path, "k")
        pinned = old.view()[:]  # a live reader's column view
        old_bytes = bytes(pinned)
        tmp = path.with_name("a.new")
        write_artifact(tmp, "k", lines=60)  # different content + size
        os.replace(tmp, path)
        new = store.map_artifact(path, "k")
        assert new is not old
        info = store.store_cache_info()
        assert (info.maps, info.evictions) == (2, 1)
        # The new map serves the new inode; the evicted map's pages
        # survive for the pinned view (the inode lives while mapped).
        assert bytes(new.view()) == path.read_bytes()
        assert bytes(pinned) == old_bytes
        pinned.release()

    def test_in_place_rewrite_is_detected(self, tmp_path):
        # Tests corrupt files with write_bytes() (same inode): identity
        # gating must catch size/mtime changes, not just new inodes.
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k", lines=40)
        store.map_artifact(path, "k")
        write_artifact(path, "k", lines=60)
        new = store.map_artifact(path, "k")
        assert bytes(new.view()) == path.read_bytes()
        assert store.store_cache_info().evictions == 1

    def test_discard_drops_the_entry(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        store.map_artifact(path, "k")
        store.discard(path, "k")
        assert store.registry_size() == 0
        assert store.store_cache_info().evictions == 1
        store.discard(path, "k")  # idempotent on an absent entry
        assert store.store_cache_info().evictions == 1
        store.map_artifact(path, "k")
        assert store.store_cache_info().maps == 2

    def test_clear_registry_reports_pinned_maps(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        artifact = store.map_artifact(path, "k")
        column = artifact.view()[8:16]  # an exported slice pins the map
        assert store.clear_registry() == 1
        assert store.registry_size() == 0
        assert len(bytes(column)) == 8  # the pinned pages stay readable
        column.release()

    def test_validated_flag_survives_reuse(self, tmp_path):
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        first = store.map_artifact(path, "k")
        assert not first.validated
        first.validated = True  # the owning cache's CRC check passed
        assert store.map_artifact(path, "k").validated


class TestZeroCopyLoads:
    KW = dict(workload="mcf", llc_lines=512, length=120, seed=31)

    def test_disk_load_hands_out_mapped_views(self, cache_dirs):
        compile_workload(**self.KW)
        compiled.clear_memory_cache()
        loaded = compile_workload(**self.KW)
        assert isinstance(loaded.line_addrs, memoryview)
        assert isinstance(loaded.write_flags, memoryview)
        assert isinstance(loaded.gaps, memoryview)
        assert store.store_cache_info().maps == 1
        # A second fresh load reuses the map and skips the CRC rescan.
        compiled.clear_memory_cache()
        again = compile_workload(**self.KW)
        assert again == loaded
        info = store.store_cache_info()
        assert (info.maps, info.map_reuses) == (1, 1)

    def test_heap_mode_never_maps(self, cache_dirs, monkeypatch):
        monkeypatch.setenv(store.MMAP_ENV, "0")
        compile_workload(**self.KW)
        compiled.clear_memory_cache()
        loaded = compile_workload(**self.KW)
        assert isinstance(loaded.line_addrs, array)
        assert isinstance(loaded.write_flags, bytearray)
        assert store.store_cache_info().maps == 0

    def test_mapped_and_heap_loads_are_equal(self, cache_dirs, monkeypatch):
        compile_workload(**self.KW)
        compiled.clear_memory_cache()
        mapped = compile_workload(**self.KW)
        monkeypatch.setenv(store.MMAP_ENV, "0")
        compiled.clear_memory_cache()
        heap = compile_workload(**self.KW)
        assert mapped == heap
        assert list(mapped.records()) == list(heap.records())


class TestNonWriteableColumns:
    """Satellite regression: every columns_numpy() view is read-only."""

    def _assert_readonly(self, views):
        for view in views:
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 1

    def test_trace_views(self, cache_dirs):
        built = compile_workload("mcf", 512, 100, seed=32)
        compiled.clear_memory_cache()
        mapped = compile_workload("mcf", 512, 100, seed=32)
        for trace in (built, mapped):
            self._assert_readonly(trace.columns_numpy())

    def test_translated_views(self, cache_dirs):
        from repro.crypto.randomizer import IndexRandomizer

        rand = IndexRandomizer(2, 512, seed=7, algorithm="splitmix")
        trace = compile_workload("mcf", 512, 80, seed=33)
        built = translated.translate_trace(rand, trace)
        translated.clear_memory_cache()
        mapped = translated.translate_trace(rand, trace)
        for t in (built, mapped):
            addrs, columns = t.columns_numpy()
            self._assert_readonly((addrs,) + columns)

    def test_opstream_views(self, cache_dirs):
        trace = compile_workload("mcf", 512, 80, seed=34)
        kwargs = dict(
            offset=0,
            l1_geometry=CacheGeometry(sets=4, ways=4),
            l2_geometry=CacheGeometry(sets=16, ways=8),
            prefetcher=(2, 2, 3),
        )
        built = opstream.opstream_for(trace, "store-test-key", **kwargs)
        opstream.clear_memory_cache()
        mapped = opstream.opstream_for(trace, "store-test-key", **kwargs)
        assert isinstance(mapped.op_addrs, memoryview)  # really a disk hit
        for stream in (built, mapped):
            self._assert_readonly(stream.columns_numpy())


class TestRunMixParity:
    """REPRO_MMAP=0 is the differential oracle: bit-identical results."""

    def _run(self, system, small_maya):
        llc = MayaCache(small_maya)
        result = run_mix(
            llc, homogeneous("mcf", 2), system,
            accesses_per_core=600, warmup_accesses=300, seed=11,
        )
        return llc, result

    def _clear_memos(self):
        for module in (compiled, translated, opstream):
            module.clear_memory_cache()

    def test_mmap_and_heap_runs_bit_identical(
        self, cache_dirs, tiny_system, small_maya, monkeypatch
    ):
        llc_cold, r_cold = self._run(tiny_system, small_maya)  # populates disk
        self._clear_memos()
        store.clear_registry()
        store.reset_store_stats()
        llc_map, r_map = self._run(tiny_system, small_maya)  # mmap reload
        assert store.store_cache_info().maps > 0
        maps_after = store.store_cache_info().maps
        monkeypatch.setenv(store.MMAP_ENV, "0")
        self._clear_memos()
        llc_heap, r_heap = self._run(tiny_system, small_maya)  # heap reload
        assert store.store_cache_info().maps == maps_after  # no new maps
        for llc, result in ((llc_map, r_map), (llc_heap, r_heap)):
            assert vars(llc.stats) == vars(llc_cold.stats)
            assert [c.instructions for c in result.cores] == [
                c.instructions for c in r_cold.cores
            ]
            assert [c.cycles for c in result.cores] == [c.cycles for c in r_cold.cores]
            assert result.ipcs == r_cold.ipcs
            assert result.llc_mpki == r_cold.llc_mpki


class TestAccountingIntegration:
    def test_cache_snapshot_includes_the_store_layer(self):
        from repro.service.jobs import CACHE_LAYERS, cache_snapshot

        assert "store" in CACHE_LAYERS
        snapshot = cache_snapshot()
        assert set(snapshot["store"]) == set(store.StoreCacheInfo._fields)

    def test_cache_delta_attributes_store_activity(self, tmp_path):
        from repro.service.jobs import cache_delta, cache_snapshot

        before = cache_snapshot()
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        store.map_artifact(path, "k")
        store.map_artifact(path, "k")
        delta = cache_delta(before, cache_snapshot())
        assert delta["store"]["maps"] == 1
        assert delta["store"]["map_reuses"] == 1
        assert delta["store"]["mapped_bytes"] == path.stat().st_size

    def test_memory_info_gauges(self, tmp_path):
        info = store.memory_info()
        assert info["peak_rss_kb"] > 0
        assert info["mapped_bytes"] == 0
        path = tmp_path / "a.ctrace"
        write_artifact(path, "k")
        store.map_artifact(path, "k")
        assert store.memory_info()["mapped_bytes"] == path.stat().st_size

    def test_proportional_rss_parses_or_degrades(self):
        pss = store.proportional_rss_kb()
        if sys.platform.startswith("linux") and os.path.exists(
            "/proc/self/smaps_rollup"
        ):
            assert pss is not None and pss > 0
        else:
            assert pss is None
