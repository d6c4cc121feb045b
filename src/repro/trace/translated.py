"""Ahead-of-time translated index columns with an on-disk cache.

Compiled traces (:mod:`repro.trace.compiled`) make the *access stream*
replayable without generator overhead; this module does the same for
the *randomizer*: before the timed loop, every distinct line address a
replay can touch is pushed through the batch cipher kernel
(:meth:`repro.crypto.randomizer.IndexRandomizer.translate`) and the
resulting per-skew set-index columns are persisted, so warm trials skip
cipher work entirely.  Under ``algorithm="prince"`` that cipher work
dominates a cold trial, which is what made prince-mode sweeps the
documented 10x-slower fallback.

A :class:`TranslatedTrace` holds:

* ``line_addrs`` - sorted ``array('Q')`` of distinct line addresses
  (already shifted by the per-core region offset), and
* ``columns`` - one ``array('I')`` of set indices per skew, aligned
  with ``line_addrs``.

The drive loop feeds both to
:meth:`~repro.crypto.randomizer.IndexRandomizer.load_packed`, which
installs them in the randomizer's precomputed side table — consulted on
memo *misses* only, so memo accounting stays bit-identical to an
untranslated run.  From the first :meth:`rekey` onward the pipeline is
self-invalidating twice over: the side table is dropped with the old
keys (lookups fall back to the live cipher), and the cache key embeds
:meth:`~repro.crypto.randomizer.IndexRandomizer.key_fingerprint`, so a
stale file can never be loaded for the new keys.

Caching is two-layer like the trace cache (in-memory LRU memo + disk
files under ``results/.translated_cache/``), keyed by the address-set
content hash x randomizer fingerprint (algorithm, skews, index bits,
key material) x SDID.  The :data:`TRANSLATED_CACHE_ENV` variable
relocates or disables the disk layer; without it the trace-cache
setting is inherited, so ``--no-trace-cache`` (or a relocated
``REPRO_TRACE_CACHE``) governs both caches consistently.  Corrupt files
are never fatal: logged, deleted, retranslated.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pathlib
import struct
import sys
import time
import zlib
from array import array
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from .. import store
from ..common.errors import TraceError
from ..crypto.randomizer import IndexRandomizer
from .compiled import (
    _DISABLED_VALUES,
    _column_bytes,
    _column_from_bytes,
    trace_cache_dir,
)
from .compiled import DEFAULT_CACHE_DIR as _TRACE_DEFAULT_DIR

logger = logging.getLogger(__name__)

#: Version of the translation pipeline; part of every content key.
TRANSLATION_VERSION = 1

#: Environment override for the translated-index disk cache: a directory
#: path, or a disable token (``0 / off / none / false / disabled``).
#: Unset, the location is derived from the trace-cache setting.
TRANSLATED_CACHE_ENV = "REPRO_TRANSLATED_CACHE"

#: Default on-disk location (sibling of the trace cache).
DEFAULT_CACHE_DIR = os.path.join("results", ".translated_cache")

#: File format: magic, ``<HBQ`` header (key length, skew count, address
#: count), the UTF-8 key, the address column, the per-skew index
#: columns (little-endian), and a trailing CRC-32.
MAGIC = b"MAYATIX1"
_HEADER = struct.Struct("<HBQ")
_CRC = struct.Struct("<I")

#: In-memory memo capacity (translations, not bytes).
MEMO_CAPACITY = 32


class TranslatedTrace:
    """Sorted distinct line addresses with aligned per-skew index columns."""

    __slots__ = ("line_addrs", "columns")

    def __init__(self, line_addrs: array, columns: Sequence[array]):
        for col in columns:
            if len(col) != len(line_addrs):
                raise TraceError(
                    f"column length {len(col)} != {len(line_addrs)} addresses"
                )
        self.line_addrs = line_addrs
        self.columns: Tuple[array, ...] = tuple(columns)

    def __len__(self) -> int:
        return len(self.line_addrs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TranslatedTrace)
            and self.line_addrs == other.line_addrs
            and self.columns == other.columns
        )

    def columns_numpy(self):
        """``(line_addrs, per_skew_indices)`` as zero-copy numpy views.

        ``line_addrs`` comes back as a ``uint64`` ndarray and each skew
        column as a ``uint32`` ndarray, all sharing memory with the
        packed columns.  The views are explicitly non-writeable: writes
        would corrupt the cached translation (and, under the mmap
        store, the shared map).  Callers (the batch-kernel
        microbenchmarks) use these to
        seed the randomizer side table without a per-element unbox
        loop.
        """
        import numpy as np

        addrs = np.frombuffer(self.line_addrs, dtype=np.uint64)
        columns = tuple(np.frombuffer(col, dtype=np.uint32) for col in self.columns)
        for view in (addrs,) + columns:
            view.flags.writeable = False
        return (addrs, columns)

    # -- serialization -----------------------------------------------------

    def to_bytes(self, key: str) -> bytes:
        """Serialize with ``key`` embedded for verification on load."""
        key_bytes = key.encode("utf-8")
        if len(key_bytes) > 0xFFFF:
            raise TraceError(f"cache key too long ({len(key_bytes)} bytes)")
        if len(self.columns) > 0xFF:
            raise TraceError(f"too many skews ({len(self.columns)})")
        payload = b"".join(
            (
                _HEADER.pack(len(key_bytes), len(self.columns), len(self)),
                key_bytes,
                _column_bytes(self.line_addrs),
            )
            + tuple(_column_bytes(col) for col in self.columns)
        )
        return MAGIC + payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)

    @classmethod
    def from_bytes(cls, blob: bytes, expected_key: str) -> "TranslatedTrace":
        """Parse a serialized translation; raises :class:`TraceError` on
        any corruption (bad magic, wrong key, truncation, CRC mismatch).

        Columns are copied out exactly once (``frombytes`` over
        ``memoryview`` slices — no intermediate ``bytes`` slicing)."""
        return cls.from_buffer(blob, expected_key)

    @classmethod
    def from_buffer(
        cls, buf, expected_key: str, *, copy: bool = True, validate: bool = True
    ) -> "TranslatedTrace":
        """Parse a serialized translation out of any buffer.

        ``copy=False`` hands back zero-copy ``memoryview`` casts over
        ``buf`` (the mmap store's path; the views pin the map alive);
        ``validate=False`` skips the CRC scan for already-validated
        maps.  Magic, key, and length checks always run.
        """
        view = buf if isinstance(buf, memoryview) else memoryview(buf)
        if view.format != "B":
            view = view.cast("B")
        size = view.nbytes
        if bytes(view[: len(MAGIC)]) != MAGIC:
            raise TraceError(f"bad magic {bytes(view[:len(MAGIC)])!r}")
        if size < len(MAGIC) + _HEADER.size + _CRC.size:
            raise TraceError("truncated header")
        payload = view[len(MAGIC) : size - _CRC.size]
        if validate:
            crc = _CRC.unpack_from(view, size - _CRC.size)[0]
            if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
                raise TraceError("CRC mismatch (corrupt cache file)")
        key_len, skews, count = _HEADER.unpack_from(payload)
        cursor = _HEADER.size
        key = bytes(payload[cursor : cursor + key_len]).decode("utf-8", errors="replace")
        if key != expected_key:
            raise TraceError(f"key mismatch: file has {key!r}")
        cursor += key_len
        expected_size = cursor + count * (8 + 4 * skews)
        if payload.nbytes != expected_size:
            raise TraceError(
                f"truncated columns: {payload.nbytes} bytes, expected {expected_size}"
            )
        heap = copy or sys.byteorder == "big"
        addrs_view = payload[cursor : cursor + count * 8]
        addrs = _column_from_bytes("Q", addrs_view) if heap else addrs_view.cast("Q")
        cursor += count * 8
        columns = []
        for _ in range(skews):
            col_view = payload[cursor : cursor + count * 4]
            columns.append(_column_from_bytes("I", col_view) if heap else col_view.cast("I"))
            cursor += count * 4
        return cls(addrs, columns)


# -- cache keys and location -----------------------------------------------


def translated_key(addrs: array, randomizer: IndexRandomizer, sdid: int) -> str:
    """The full content key for one translated address set.

    The randomizer fingerprint covers algorithm, skew count, index
    width, *and the epoch's key material*, so a rekey (new keys) or a
    different seed can never alias a cached translation; the address
    digest covers the exact sorted address set including any region
    offset already applied.
    """
    digest = hashlib.sha256(_column_bytes(addrs)).hexdigest()[:32]
    return (
        f"tix|fp={randomizer.key_fingerprint()}|sdid={sdid}"
        f"|n={len(addrs)}|addrs={digest}|gen={TRANSLATION_VERSION}"
    )


def translated_cache_dir() -> Optional[pathlib.Path]:
    """The on-disk cache directory, or ``None`` when disabled.

    Resolution order: :data:`TRANSLATED_CACHE_ENV` (a path, or a
    disable token), else follow the trace cache — disabled trace cache
    disables this one too (``--no-trace-cache`` bypasses both), a
    relocated trace cache puts the translations in a ``.translated``
    sibling, and the default location is :data:`DEFAULT_CACHE_DIR`.
    """
    raw = os.environ.get(TRANSLATED_CACHE_ENV)
    if raw is not None and raw.strip():
        if raw.strip().lower() in _DISABLED_VALUES:
            return None
        return pathlib.Path(raw.strip())
    base = trace_cache_dir()
    if base is None:
        return None
    if str(base) == _TRACE_DEFAULT_DIR:
        return pathlib.Path(DEFAULT_CACHE_DIR)
    return base.with_name(base.name + ".translated")


def cache_path(directory: Union[str, pathlib.Path], key: str) -> pathlib.Path:
    """Cache file for ``key``: SHA-256 of the key, ``.tix`` suffix."""
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
    return pathlib.Path(directory) / f"{digest}.tix"


# -- cache statistics ------------------------------------------------------


class TranslatedCacheInfo(NamedTuple):
    """Counters of the two-layer translated-index cache (process-wide)."""

    memory_hits: int
    disk_hits: int
    translations: int
    disk_errors: int
    translate_seconds: float
    load_seconds: float

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.translations
        return self.hits / total if total else 0.0


_stats = {
    "memory_hits": 0,
    "disk_hits": 0,
    "translations": 0,
    "disk_errors": 0,
    "translate_seconds": 0.0,
    "load_seconds": 0.0,
}


def translated_cache_info() -> TranslatedCacheInfo:
    """Snapshot of the process-wide translated-cache counters."""
    return TranslatedCacheInfo(**_stats)


def reset_translated_cache_stats() -> None:
    """Zero the process-wide translated-cache counters."""
    for name in _stats:
        _stats[name] = 0.0 if isinstance(_stats[name], float) else 0


# -- the two-layer cache ---------------------------------------------------

_memo: "dict[str, TranslatedTrace]" = {}


def clear_memory_cache() -> None:
    """Drop every in-memory translation (tests; memory pressure)."""
    _memo.clear()


def _memo_get(key: str) -> Optional[TranslatedTrace]:
    translated = _memo.pop(key, None)
    if translated is not None:
        _memo[key] = translated  # move to MRU position
    return translated


def _memo_put(key: str, translated: TranslatedTrace) -> None:
    _memo.pop(key, None)
    while len(_memo) >= MEMO_CAPACITY:
        del _memo[next(iter(_memo))]
    _memo[key] = translated


def _load_from_disk(directory: pathlib.Path, key: str) -> Optional[TranslatedTrace]:
    """Load a cached translation; any corruption degrades to a miss.

    Mirrors the trace cache: mmap store enabled → zero-copy views over
    the shared map; disabled → the heap oracle.  Same stats, same
    failure handling either way.
    """
    path = cache_path(directory, key)
    start = time.perf_counter()
    if store.mmap_enabled():
        try:
            artifact = store.map_artifact(path, key)
        except FileNotFoundError:
            return None
        except OSError as exc:
            _stats["disk_errors"] += 1
            logger.warning("translated cache: cannot read %s (%s); retranslating", path, exc)
            return None
        except ValueError as exc:  # unmappable (empty) file: corrupt
            return _corrupt(path, key, exc)
        try:
            translated = TranslatedTrace.from_buffer(
                artifact.view(), key, copy=False, validate=not artifact.validated
            )
            artifact.validated = True
        except (TraceError, struct.error, ValueError) as exc:
            return _corrupt(path, key, exc)
        _stats["load_seconds"] += time.perf_counter() - start
        return translated
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        _stats["disk_errors"] += 1
        logger.warning("translated cache: cannot read %s (%s); retranslating", path, exc)
        return None
    try:
        translated = TranslatedTrace.from_bytes(blob, key)
    except (TraceError, struct.error, ValueError) as exc:
        return _corrupt(path, key, exc)
    _stats["load_seconds"] += time.perf_counter() - start
    return translated


def _corrupt(path: pathlib.Path, key: str, exc: Exception) -> None:
    """Shared corrupt-file handling: warn, drop any map, unlink, miss."""
    _stats["disk_errors"] += 1
    logger.warning("translated cache: %s is corrupt (%s); retranslating", path, exc)
    store.discard(path, key)
    try:
        path.unlink()
    except OSError:
        pass
    return None


def _store_to_disk(directory: pathlib.Path, key: str, translated: TranslatedTrace) -> None:
    """Atomically persist a translation; failures are non-fatal."""
    path = cache_path(directory, key)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(translated.to_bytes(key))
        os.replace(tmp, path)
    except OSError as exc:
        _stats["disk_errors"] += 1
        logger.warning("translated cache: cannot write %s (%s)", path, exc)
        try:
            tmp.unlink()
        except OSError:
            pass


def translate_trace(
    randomizer: IndexRandomizer,
    trace,
    sdid: int = 0,
    offset: int = 0,
    use_cache: Optional[bool] = None,
    jobs: Optional[int] = None,
) -> TranslatedTrace:
    """Translate a compiled trace's distinct lines, cached.

    ``trace`` is a :class:`~repro.trace.compiled.CompiledTrace` (or any
    object with ``unique_lines(offset)``); ``offset`` is the per-core
    region shift the drive loop applies.  ``use_cache=None`` honours the
    environment (:func:`translated_cache_dir`); ``False`` bypasses both
    cache layers; ``True`` forces the memo even when the disk cache is
    disabled.  ``jobs`` is forwarded to
    :meth:`IndexRandomizer.translate` for the cold-path process pool.
    """
    addrs = trace.unique_lines(offset)
    addrs = array("Q", sorted(addrs))
    directory = translated_cache_dir()
    enabled = (directory is not None) if use_cache is None else bool(use_cache)
    key = translated_key(addrs, randomizer, sdid)
    if enabled:
        translated = _memo_get(key)
        if translated is not None:
            _stats["memory_hits"] += 1
            return translated
        if directory is not None:
            translated = _load_from_disk(directory, key)
            if translated is not None:
                _stats["disk_hits"] += 1
                _memo_put(key, translated)
                return translated
    start = time.perf_counter()
    translated = TranslatedTrace(addrs, randomizer.translate(addrs, sdid, jobs=jobs))
    _stats["translations"] += 1
    _stats["translate_seconds"] += time.perf_counter() - start
    if enabled:
        if directory is not None:
            _store_to_disk(directory, key, translated)
        _memo_put(key, translated)
    return translated
