"""The two-layer translated-index cache: keys, disk format, fallbacks.

Ahead-of-time index translation is a pure performance layer: every
column it serves must equal what ``IndexRandomizer.compute_indices``
returns live, corruption must degrade to a retranslate (never a crash
or a wrong index), the content key must change with every input that
shapes the mapping (keys/seed, algorithm, skews, index width, SDID,
address set), and a ``rekey()`` must make both the in-randomizer side
table and any cached file unreachable.
"""

import logging
import os
from array import array

import pytest

from repro.common.errors import TraceError
from repro.crypto import randomizer
from repro.crypto.randomizer import IndexRandomizer
from repro.trace import compiled, translated
from repro.trace.compiled import CompiledTrace
from repro.trace.record import MemoryAccess
from repro.trace.translated import (
    TranslatedTrace,
    cache_path,
    translate_trace,
    translated_cache_dir,
    translated_cache_info,
    translated_key,
)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A private on-disk cache + clean counters/memo for one test."""
    directory = tmp_path / "tix"
    monkeypatch.setenv(translated.TRANSLATED_CACHE_ENV, str(directory))
    translated.clear_memory_cache()
    translated.reset_translated_cache_stats()
    yield directory
    translated.clear_memory_cache()
    translated.reset_translated_cache_stats()


def make_randomizer(seed=7, algorithm="prince", **kwargs):
    return IndexRandomizer(2, 512, seed=seed, algorithm=algorithm, **kwargs)


def make_trace(addr_count=60, stride=3):
    return CompiledTrace.from_records(
        [MemoryAccess(a * stride) for a in range(addr_count)]
    )


class TestTranslatedTrace:
    def test_columns_match_live_randomizer(self, cache_dir):
        rand = make_randomizer()
        trace = make_trace()
        for sdid, offset in ((0, 0), (3, 1 << 20)):
            t = translate_trace(rand, trace, sdid=sdid, offset=offset)
            assert list(t.line_addrs) == sorted(trace.unique_lines(offset))
            for i, addr in enumerate(t.line_addrs):
                assert tuple(col[i] for col in t.columns) == rand.compute_indices(
                    addr, sdid
                )

    def test_splitmix_also_translates(self, cache_dir):
        rand = make_randomizer(algorithm="splitmix")
        t = translate_trace(rand, make_trace())
        for i, addr in enumerate(t.line_addrs):
            assert tuple(col[i] for col in t.columns) == rand.compute_indices(addr, 0)

    def test_column_length_validation(self):
        with pytest.raises(TraceError, match="column length"):
            TranslatedTrace(array("Q", [1, 2]), [array("I", [0])])

    def test_roundtrip_and_key_check(self, cache_dir):
        rand = make_randomizer()
        t = translate_trace(rand, make_trace(), use_cache=False)
        blob = t.to_bytes("some-key")
        assert TranslatedTrace.from_bytes(blob, "some-key") == t
        with pytest.raises(TraceError, match="key mismatch"):
            TranslatedTrace.from_bytes(blob, "other-key")
        with pytest.raises(TraceError, match="bad magic"):
            TranslatedTrace.from_bytes(b"XXXXXXXX" + blob[8:], "some-key")
        with pytest.raises(TraceError, match="CRC mismatch"):
            TranslatedTrace.from_bytes(blob[:-1] + bytes([blob[-1] ^ 1]), "some-key")


class TestCacheLayers:
    def test_memory_then_disk_hits(self, cache_dir):
        rand = make_randomizer()
        trace = make_trace()
        first = translate_trace(rand, trace)
        assert translated_cache_info().translations == 1
        key = translated_key(array("Q", sorted(trace.unique_lines())), rand, 0)
        assert cache_path(cache_dir, key).exists()

        assert translate_trace(rand, trace) == first
        assert translated_cache_info().memory_hits == 1

        translated.clear_memory_cache()  # simulate a fresh process
        assert translate_trace(rand, trace) == first
        info = translated_cache_info()
        assert (info.disk_hits, info.translations) == (1, 1)
        assert info.hit_rate == pytest.approx(2 / 3)
        assert info.translate_seconds > 0.0

    def test_corrupt_file_retranslates_with_warning(self, cache_dir, caplog):
        rand = make_randomizer()
        trace = make_trace()
        first = translate_trace(rand, trace)
        key = translated_key(array("Q", sorted(trace.unique_lines())), rand, 0)
        path = cache_path(cache_dir, key)
        path.write_bytes(b"garbage, not a translation")
        translated.clear_memory_cache()
        with caplog.at_level(logging.WARNING, logger="repro.trace.translated"):
            again = translate_trace(rand, trace)
        assert again == first
        assert translated_cache_info().disk_errors == 1
        assert any("corrupt" in r.message for r in caplog.records)
        # The bad file was deleted and replaced by the regenerated one.
        assert TranslatedTrace.from_bytes(path.read_bytes(), key) == first

    def test_truncated_file_retranslates(self, cache_dir, caplog):
        rand = make_randomizer()
        trace = make_trace()
        first = translate_trace(rand, trace)
        key = translated_key(array("Q", sorted(trace.unique_lines())), rand, 0)
        path = cache_path(cache_dir, key)
        path.write_bytes(path.read_bytes()[:-17])
        translated.clear_memory_cache()
        with caplog.at_level(logging.WARNING, logger="repro.trace.translated"):
            assert translate_trace(rand, trace) == first
        assert translated_cache_info().disk_errors == 1

    def test_use_cache_false_bypasses_both_layers(self, cache_dir):
        rand = make_randomizer()
        trace = make_trace()
        a = translate_trace(rand, trace, use_cache=False)
        b = translate_trace(rand, trace, use_cache=False)
        assert a == b
        assert translated_cache_info().translations == 2
        assert not cache_dir.exists()  # nothing was ever written

    def test_env_disable_skips_disk(self, monkeypatch):
        for token in ("0", "off", "NONE"):
            monkeypatch.setenv(translated.TRANSLATED_CACHE_ENV, token)
            assert translated_cache_dir() is None
        translated.clear_memory_cache()
        translated.reset_translated_cache_stats()
        rand = make_randomizer()
        trace = make_trace(20)
        translate_trace(rand, trace)
        translate_trace(rand, trace)
        assert translated_cache_info().translations == 2  # no layer consulted
        translated.clear_memory_cache()
        translated.reset_translated_cache_stats()


class TestMmapStore:
    """Writer/reader races and corruption for ``.tix`` files under mmap."""

    pytestmark = pytest.mark.store

    def test_replace_while_mapped_serves_old_content(self, cache_dir, monkeypatch):
        import os

        from repro import store

        monkeypatch.setenv(store.MMAP_ENV, "1")
        rand = make_randomizer()
        trace = make_trace()
        first = translate_trace(rand, trace)
        key = translated_key(array("Q", sorted(trace.unique_lines())), rand, 0)
        translated.clear_memory_cache()
        mapped = translate_trace(rand, trace)  # disk hit: mmap-backed columns
        assert translated_cache_info().disk_hits == 1
        # Another writer publishes a different (valid) translation under
        # the same key - e.g. a concurrent worker with offset applied.
        other = translate_trace(rand, trace, offset=1 << 20, use_cache=False)
        path = cache_path(cache_dir, key)
        tmp = path.with_name(path.name + ".race")
        tmp.write_bytes(other.to_bytes(key))
        os.replace(tmp, path)
        # The old inode stays mapped: the reader is undisturbed...
        assert mapped == first
        # ...and a fresh load sees the new inode's content.
        translated.clear_memory_cache()
        again = translate_trace(rand, trace)
        assert again == other
        assert again != first
        assert mapped == first
        assert translated_cache_info().disk_hits == 2

    @pytest.mark.parametrize("mmap_mode", ["1", "0"])
    def test_corruption_handled_identically(
        self, cache_dir, caplog, monkeypatch, mmap_mode
    ):
        from repro import store

        monkeypatch.setenv(store.MMAP_ENV, mmap_mode)
        rand = make_randomizer()
        trace = make_trace()
        first = translate_trace(rand, trace)
        key = translated_key(array("Q", sorted(trace.unique_lines())), rand, 0)
        path = cache_path(cache_dir, key)
        for junk in (b"\x00" * 16, path.read_bytes()[:-17], b""):
            path.write_bytes(junk)
            translated.clear_memory_cache()
            errors_before = translated_cache_info().disk_errors
            with caplog.at_level(logging.WARNING, logger="repro.trace.translated"):
                assert translate_trace(rand, trace) == first
            assert translated_cache_info().disk_errors == errors_before + 1
        assert any("corrupt" in r.message for r in caplog.records)


class TestDirResolution:
    def test_follows_trace_cache_disable(self, monkeypatch):
        # --no-trace-cache sets REPRO_TRACE_CACHE=0; with no explicit
        # translated-cache setting that must disable this cache too.
        monkeypatch.delenv(translated.TRANSLATED_CACHE_ENV, raising=False)
        monkeypatch.setenv(compiled.TRACE_CACHE_ENV, "0")
        assert translated_cache_dir() is None

    def test_follows_relocated_trace_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv(translated.TRANSLATED_CACHE_ENV, raising=False)
        monkeypatch.setenv(compiled.TRACE_CACHE_ENV, str(tmp_path / "tc"))
        assert translated_cache_dir() == tmp_path / "tc.translated"

    def test_default_location(self, monkeypatch):
        monkeypatch.delenv(translated.TRANSLATED_CACHE_ENV, raising=False)
        monkeypatch.delenv(compiled.TRACE_CACHE_ENV, raising=False)
        assert str(translated_cache_dir()) == translated.DEFAULT_CACHE_DIR

    def test_explicit_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(translated.TRANSLATED_CACHE_ENV, str(tmp_path / "x"))
        monkeypatch.setenv(compiled.TRACE_CACHE_ENV, "0")
        assert translated_cache_dir() == tmp_path / "x"


class TestKeySensitivity:
    def test_every_input_changes_the_key(self, cache_dir):
        addrs = array("Q", range(0, 100, 3))
        base_rand = make_randomizer(seed=7)
        base = translated_key(addrs, base_rand, 0)
        variants = [
            translated_key(addrs, base_rand, 1),  # SDID
            translated_key(array("Q", range(0, 100, 5)), base_rand, 0),  # addresses
            translated_key(addrs, make_randomizer(seed=8), 0),  # keys (seed)
            translated_key(addrs, make_randomizer(algorithm="splitmix"), 0),
            translated_key(addrs, IndexRandomizer(3, 512, seed=7), 0),  # skews
            translated_key(addrs, IndexRandomizer(2, 1024, seed=7), 0),  # index bits
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_rekey_changes_the_key(self, cache_dir):
        rand = make_randomizer()
        addrs = array("Q", range(50))
        before = translated_key(addrs, rand, 0)
        rand.rekey()
        after = translated_key(addrs, rand, 0)
        assert before != after

    def test_rekey_invalidates_cached_translation(self, cache_dir):
        # A translation cached before a rekey must not be served after:
        # the fingerprint in the key changes, so the old file is simply
        # unreachable and a fresh translation (matching the new keys)
        # is produced and verified against the live randomizer.
        rand = make_randomizer()
        trace = make_trace()
        translate_trace(rand, trace)
        rand.rekey()
        assert rand.cache_info().precomputed == 0  # side table dropped
        t = translate_trace(rand, trace)
        assert translated_cache_info().translations == 2
        for i, addr in enumerate(t.line_addrs):
            assert tuple(col[i] for col in t.columns) == rand.compute_indices(addr, 0)

    def test_distinct_keys_get_distinct_files(self, cache_dir):
        rand = make_randomizer()
        translate_trace(rand, make_trace(40))
        translate_trace(rand, make_trace(41))
        assert len(list(cache_dir.glob("*.tix"))) == 2


class TestParallelTranslation:
    def test_forced_parallel_matches_serial(self, cache_dir):
        rand = make_randomizer()
        addrs = array("Q", range(0, 9000))
        serial = rand.translate(addrs, 2, jobs=1)
        parallel = rand.translate(addrs, 2, jobs=4)
        assert serial == parallel

    @pytest.mark.parametrize("affinity, pools", [({0}, 0), ({0, 1}, 1)])
    def test_default_pool_follows_affinity(self, cache_dir, monkeypatch, affinity, pools):
        # A one-CPU affinity mask keeps a large batch serial even on a
        # many-CPU machine.  The pool context is stubbed out, so no
        # process starts; its failure falls back to the serial path.
        opened = []

        def no_pool(method):
            opened.append(method)
            raise OSError("no pool in this test")

        monkeypatch.delenv("REPRO_TRANSLATE_JOBS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(randomizer.multiprocessing, "get_context", no_pool)
        rand = make_randomizer(algorithm="splitmix")
        addrs = array("Q", range(9000))
        assert rand.translate(addrs, 2) == rand.translate(addrs, 2, jobs=1)
        assert len(opened) == pools

    def test_jobs_env_override_is_tolerant(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSLATE_JOBS", "not-a-number")
        rand = make_randomizer()
        addrs = array("Q", range(64))
        assert rand.translate(addrs, 0) == rand.translate(addrs, 0, jobs=1)
