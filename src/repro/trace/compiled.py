"""Compiled packed traces with a content-keyed on-disk cache.

The simulators consume access streams; the synthetic generators in
:mod:`repro.trace.synthetic` produce them lazily, which is flexible but
slow on the hot path: every access costs a generator-frame resume, two
RNG draws, and a fresh :class:`~repro.trace.record.MemoryAccess`
allocation - and every bench trial or experiment shard regenerates the
identical stream from scratch.

A :class:`CompiledTrace` materializes a finite prefix of a stream into
packed parallel columns:

* ``line_addrs`` - ``array('Q')`` of line addresses,
* ``write_flags`` - ``bytearray`` (1 = write),
* ``gaps`` - ``array('I')`` of non-memory instruction gaps,

which the batched drive loop in
:func:`repro.hierarchy.simulator.run_mix` replays with plain integer
indexing - no per-access object construction at all.

Compiled workload traces are cached in two layers:

* an **in-memory LRU memo** (per process, a few dozen traces), and
* an **on-disk cache** under ``results/.trace_cache/`` shared across
  processes and runs.

Both layers are keyed by the full content key - workload name, LLC
line count, seed, length, and :data:`GENERATOR_VERSION` - so any change
to the inputs (or a bump of the generator version when the synthetic
generators change behaviour) invalidates stale entries by construction.
The :data:`TRACE_CACHE_ENV` environment variable relocates the disk
cache directory, or disables caching entirely when set to ``0`` / ``off``
/ ``none`` (the CLI flag ``--no-trace-cache`` sets it to ``0`` so worker
processes inherit the override).  A corrupt or truncated cache file is
never fatal: it is logged, deleted, and the trace is regenerated.

The generator path remains the oracle: ``tests/test_compiled_replay.py``
replays both paths and requires element-wise identical streams and
bit-identical statistics.
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
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .. import store
from ..common.errors import TraceError
from .record import MemoryAccess
from .workloads import get_workload

logger = logging.getLogger(__name__)

#: Version of the synthetic-trace generators.  Bump whenever
#: :mod:`repro.trace.synthetic` or :mod:`repro.trace.workloads` change
#: the produced streams; every cached trace is invalidated because the
#: version is part of the content key.
GENERATOR_VERSION = 1

#: Environment override for the on-disk cache: a directory path, or one
#: of ``0 / off / none / false / disabled`` to bypass the disk entirely.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = os.path.join("results", ".trace_cache")

_DISABLED_VALUES = frozenset(("0", "off", "none", "false", "disabled"))

#: File format: magic, then ``<HQ`` header (key length, record count),
#: the UTF-8 key, the three columns (little-endian), and a trailing
#: CRC-32 of everything after the magic.
MAGIC = b"MAYACTC1"
_HEADER = struct.Struct("<HQ")
_CRC = struct.Struct("<I")

#: In-memory memo capacity (traces, not bytes); a full fig9 sweep keeps
#: well under this many distinct (workload, seed, length) combinations
#: alive at once per worker process.
MEMO_CAPACITY = 64


class CompiledTrace:
    """A finite access stream compiled to packed parallel columns."""

    __slots__ = ("line_addrs", "write_flags", "gaps")

    def __init__(self, line_addrs: array, write_flags: bytearray, gaps: array):
        if not (len(line_addrs) == len(write_flags) == len(gaps)):
            raise TraceError(
                f"column lengths differ: {len(line_addrs)} addrs, "
                f"{len(write_flags)} flags, {len(gaps)} gaps"
            )
        self.line_addrs = line_addrs
        self.write_flags = write_flags
        self.gaps = gaps

    def __len__(self) -> int:
        return len(self.line_addrs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompiledTrace)
            and self.line_addrs == other.line_addrs
            and self.write_flags == other.write_flags
            and self.gaps == other.gaps
        )

    @classmethod
    def from_records(
        cls, records: Iterable[MemoryAccess], count: Optional[int] = None
    ) -> "CompiledTrace":
        """Compile ``count`` records (or all of a finite iterable)."""
        addrs = array("Q")
        flags = bytearray()
        gaps = array("I")
        add_addr, add_flag, add_gap = addrs.append, flags.append, gaps.append
        source = records if count is None else islice(records, count)
        for access in source:
            add_addr(access.line_addr)
            add_flag(1 if access.is_write else 0)
            add_gap(access.gap)
        if count is not None and len(addrs) < count:
            raise TraceError(f"stream ended after {len(addrs)} of {count} records")
        return cls(addrs, flags, gaps)

    def records(self) -> Iterator[MemoryAccess]:
        """Re-materialize the records (interop with the object API)."""
        for addr, flag, gap in zip(self.line_addrs, self.write_flags, self.gaps):
            yield MemoryAccess(addr, flag != 0, gap)

    def unique_records(self) -> set:
        """The distinct records, deduplicated via a set.

        Relies on :class:`MemoryAccess` being hashable (it defines both
        ``__eq__`` and ``__hash__``).
        """
        return set(self.records())

    def unique_lines(self, offset: int = 0) -> array:
        """Distinct line addresses (shifted by ``offset``) as ``array('Q')``.

        This is the input to
        :meth:`repro.crypto.randomizer.IndexRandomizer.bulk_map`: the
        drive loop pre-computes every mapping the replay can possibly
        need in one tight pass before the timed loop.
        """
        if offset:
            return array("Q", {addr + offset for addr in self.line_addrs})
        return array("Q", set(self.line_addrs))

    def columns_numpy(self):
        """The three columns as zero-copy numpy views.

        Returns ``(line_addrs, write_flags, gaps)`` as ``uint64`` /
        ``uint8`` / ``uint32`` ndarrays sharing memory with the packed
        columns (``np.frombuffer`` over the buffer protocol — no copy).
        The views are explicitly non-writeable: writes would corrupt the
        trace (and, under the mmap store, the shared map).  The op-stream
        replay (:mod:`repro.engine.vector`) consumes these directly.
        """
        import numpy as np

        views = (
            np.frombuffer(self.line_addrs, dtype=np.uint64),
            np.frombuffer(self.write_flags, dtype=np.uint8),
            np.frombuffer(self.gaps, dtype=np.uint32),
        )
        for view in views:
            view.flags.writeable = False
        return views

    # -- serialization -----------------------------------------------------

    def to_bytes(self, key: str) -> bytes:
        """Serialize with ``key`` embedded for verification on load."""
        key_bytes = key.encode("utf-8")
        if len(key_bytes) > 0xFFFF:
            raise TraceError(f"cache key too long ({len(key_bytes)} bytes)")
        payload = b"".join(
            (
                _HEADER.pack(len(key_bytes), len(self)),
                key_bytes,
                _column_bytes(self.line_addrs),
                bytes(self.write_flags),
                _column_bytes(self.gaps),
            )
        )
        return MAGIC + payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)

    @classmethod
    def from_bytes(cls, blob: bytes, expected_key: str) -> "CompiledTrace":
        """Parse a serialized trace; raises :class:`TraceError` on any
        corruption (bad magic, wrong key, truncation, CRC mismatch).

        Columns are copied out exactly once (``frombytes`` over
        ``memoryview`` slices — no intermediate ``bytes`` slicing)."""
        return cls.from_buffer(blob, expected_key)

    @classmethod
    def from_buffer(
        cls, buf, expected_key: str, *, copy: bool = True, validate: bool = True
    ) -> "CompiledTrace":
        """Parse a serialized trace out of any buffer.

        With ``copy=True`` the columns are materialized on the heap
        (one copy).  With ``copy=False`` they are zero-copy
        ``memoryview`` casts over ``buf`` — the mmap store's path, where
        ``buf`` is the mapped file and the views pin the map alive.
        ``validate=False`` skips the CRC scan (only safe when the same
        mapped bytes already passed it once); magic, key, and length
        checks always run.
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
        key_len, count = _HEADER.unpack_from(payload)
        cursor = _HEADER.size
        key = bytes(payload[cursor : cursor + key_len]).decode("utf-8", errors="replace")
        if key != expected_key:
            raise TraceError(f"key mismatch: file has {key!r}")
        cursor += key_len
        expected_size = cursor + count * (8 + 1 + 4)
        if payload.nbytes != expected_size:
            raise TraceError(
                f"truncated columns: {payload.nbytes} bytes, expected {expected_size}"
            )
        addrs_view = payload[cursor : cursor + count * 8]
        cursor += count * 8
        flags_view = payload[cursor : cursor + count]
        cursor += count
        gaps_view = payload[cursor : cursor + count * 4]
        if copy or sys.byteorder == "big":
            return cls(
                _column_from_bytes("Q", addrs_view),
                bytearray(flags_view),
                _column_from_bytes("I", gaps_view),
            )
        return cls(addrs_view.cast("Q"), flags_view, gaps_view.cast("I"))


def _column_bytes(column) -> bytes:
    """Column bytes in little-endian order regardless of host endianness.

    ``column`` is an ``array`` or a typed ``memoryview`` (a zero-copy
    column handed out by the mmap store, whose backing file is already
    little-endian — mmap columns only exist on little-endian hosts).
    """
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _column_from_bytes(typecode: str, blob) -> array:
    """Heap column from little-endian bytes (any buffer; one copy)."""
    column = array(typecode)
    column.frombytes(blob)
    if sys.byteorder == "big":
        column.byteswap()
    return column


# -- cache keys and location -----------------------------------------------


def trace_key(workload: str, llc_lines: int, seed: Optional[int], length: int) -> str:
    """The full content key for one compiled workload trace."""
    return f"{workload}|llc={llc_lines}|seed={seed}|len={length}|gen={GENERATOR_VERSION}"


def trace_cache_dir() -> Optional[pathlib.Path]:
    """The on-disk cache directory, or ``None`` when disabled.

    Resolution order: :data:`TRACE_CACHE_ENV` (a path, or a disable
    token such as ``0``), else :data:`DEFAULT_CACHE_DIR`.
    """
    raw = os.environ.get(TRACE_CACHE_ENV)
    if raw is None or not raw.strip():
        return pathlib.Path(DEFAULT_CACHE_DIR)
    if raw.strip().lower() in _DISABLED_VALUES:
        return None
    return pathlib.Path(raw.strip())


def cache_path(directory: Union[str, pathlib.Path], key: str) -> pathlib.Path:
    """Cache file for ``key``: SHA-256 of the key, ``.ctrace`` suffix."""
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
    return pathlib.Path(directory) / f"{digest}.ctrace"


# -- cache statistics ------------------------------------------------------


class TraceCacheInfo(NamedTuple):
    """Counters of the two-layer trace cache (process-wide)."""

    memory_hits: int
    disk_hits: int
    compiles: int
    disk_errors: int
    compile_seconds: float
    load_seconds: float

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.compiles
        return self.hits / total if total else 0.0


_stats = {
    "memory_hits": 0,
    "disk_hits": 0,
    "compiles": 0,
    "disk_errors": 0,
    "compile_seconds": 0.0,
    "load_seconds": 0.0,
}


def trace_cache_info() -> TraceCacheInfo:
    """Snapshot of the process-wide trace-cache counters."""
    return TraceCacheInfo(**_stats)


def reset_trace_cache_stats() -> None:
    """Zero the process-wide trace-cache counters."""
    for name in _stats:
        _stats[name] = 0.0 if isinstance(_stats[name], float) else 0


# -- the two-layer cache ---------------------------------------------------

_memo: "dict[str, CompiledTrace]" = {}


def clear_memory_cache() -> None:
    """Drop every in-memory compiled trace (tests; memory pressure)."""
    _memo.clear()


def _memo_get(key: str) -> Optional[CompiledTrace]:
    trace = _memo.pop(key, None)
    if trace is not None:
        _memo[key] = trace  # move to MRU position
    return trace


def _memo_put(key: str, trace: CompiledTrace) -> None:
    _memo.pop(key, None)
    while len(_memo) >= MEMO_CAPACITY:
        del _memo[next(iter(_memo))]
    _memo[key] = trace


def _load_from_disk(directory: pathlib.Path, key: str) -> Optional[CompiledTrace]:
    """Load a cached trace; any corruption degrades to a miss.

    With the mmap store enabled (:func:`repro.store.mmap_enabled`) the
    file is mapped read-only and the columns are zero-copy views over
    the shared map; otherwise the heap oracle reads and copies.  Both
    paths count the same stats and fail the same way.
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
            logger.warning("trace cache: cannot read %s (%s); regenerating", path, exc)
            return None
        except ValueError as exc:  # unmappable (empty) file: corrupt
            return _corrupt(path, key, exc)
        try:
            trace = CompiledTrace.from_buffer(
                artifact.view(), key, copy=False, validate=not artifact.validated
            )
            artifact.validated = True
        except (TraceError, struct.error, ValueError) as exc:
            return _corrupt(path, key, exc)
        _stats["load_seconds"] += time.perf_counter() - start
        return trace
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        _stats["disk_errors"] += 1
        logger.warning("trace cache: cannot read %s (%s); regenerating", path, exc)
        return None
    try:
        trace = CompiledTrace.from_bytes(blob, key)
    except (TraceError, struct.error, ValueError) as exc:
        return _corrupt(path, key, exc)
    _stats["load_seconds"] += time.perf_counter() - start
    return trace


def _corrupt(path: pathlib.Path, key: str, exc: Exception) -> None:
    """Shared corrupt-file handling: warn, drop any map, unlink, miss."""
    _stats["disk_errors"] += 1
    logger.warning("trace cache: %s is corrupt (%s); regenerating", path, exc)
    store.discard(path, key)
    try:
        path.unlink()
    except OSError:
        pass
    return None


def _store_to_disk(directory: pathlib.Path, key: str, trace: CompiledTrace) -> None:
    """Atomically persist a compiled trace; failures are non-fatal."""
    path = cache_path(directory, key)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(trace.to_bytes(key))
        os.replace(tmp, path)
    except OSError as exc:
        _stats["disk_errors"] += 1
        logger.warning("trace cache: cannot write %s (%s)", path, exc)
        try:
            tmp.unlink()
        except OSError:
            pass


def compile_workload(
    workload: str,
    llc_lines: int,
    length: int,
    seed: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> CompiledTrace:
    """Compile ``length`` accesses of a named workload, cached.

    ``use_cache=None`` honours :data:`TRACE_CACHE_ENV`; ``False``
    bypasses both cache layers (every call regenerates - the bench
    tool's cold path); ``True`` forces the memo even when the disk
    cache is disabled through the environment.
    """
    if length < 0:
        raise TraceError(f"trace length cannot be negative, got {length}")
    directory = trace_cache_dir()
    enabled = (directory is not None) if use_cache is None else bool(use_cache)
    key = trace_key(workload, llc_lines, seed, length)
    if enabled:
        trace = _memo_get(key)
        if trace is not None:
            _stats["memory_hits"] += 1
            return trace
        if directory is not None:
            trace = _load_from_disk(directory, key)
            if trace is not None:
                _stats["disk_hits"] += 1
                _memo_put(key, trace)
                return trace
    spec = get_workload(workload)
    start = time.perf_counter()
    trace = CompiledTrace.from_records(spec.stream(llc_lines, seed=seed), length)
    _stats["compiles"] += 1
    _stats["compile_seconds"] += time.perf_counter() - start
    if enabled:
        if directory is not None:
            _store_to_disk(directory, key, trace)
        _memo_put(key, trace)
    return trace
