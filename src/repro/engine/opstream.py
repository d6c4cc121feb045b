"""Per-core LLC op streams: stage 1 of the op-stream replay.

The key structural fact behind :mod:`repro.engine.vector`: a core's
private levels (L1D, L2, stride prefetcher) are a deterministic
function of that core's own access stream alone.  Nothing the LLC or
DRAM returns feeds back into them - ``CacheHierarchy._compile_access``
consults the LLC only *after* the private levels have decided, and the
latency it returns never alters private-level state.  So the whole
private hierarchy can be pre-simulated per core, off the
inter-core-interleaved critical path, leaving a compressed stream of
just the operations that touch shared state:

* ``OP_WB`` - a dirty L2 victim written back to the LLC,
* ``OP_PF`` - a prefetch fill that missed L2 (a demand-read-shaped LLC
  access whose DRAM read charges no latency),
* ``OP_DEMAND`` - the demand access itself reaching the LLC (charges
  DRAM latency over the MLP factor on a miss).

Per access the stream stores a *latency class* (0 = L1 hit, 1 = L2
hit, 2 = LLC reached) and the ops in the exact order the per-access
closure would have issued them; accesses with no ops (the overwhelming
majority after L1/L2 filtering) collapse into precomputed static clock
advances at replay time.  The op stream is independent of the LLC
design and of how cores interleave, so one build serves every LLC and
every trial of a bench run.

Streams are cached in two layers mirroring
:mod:`repro.trace.compiled`: an in-memory memo and an on-disk cache
(``results/.opstream_cache/`` by default, ``REPRO_OPSTREAM_CACHE`` to
relocate or disable) keyed by the trace content key x private-level
geometry x prefetcher parameters x stream offset x
:data:`OPSTREAM_VERSION`.  Corrupt files degrade to a rebuild.
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
from typing import NamedTuple, Optional, Tuple, Union

from .. import store
from ..cache.line import ACC_EVICTED_DIRTY, ACC_HIT
from ..cache.set_assoc import SetAssociativeCache
from ..common.config import CacheGeometry
from ..common.errors import TraceError
from ..hierarchy.prefetcher import StridePrefetcher
from ..trace.compiled import CompiledTrace, _DISABLED_VALUES

logger = logging.getLogger(__name__)

#: LLC-op kinds (byte values in the packed kind column).
OP_WB = 0
OP_PF = 1
OP_DEMAND = 2

#: Bump whenever the private-level replica below changes the produced
#: streams; part of the content key, so stale cache entries become
#: unreachable.
OPSTREAM_VERSION = 1

#: Environment override for the on-disk cache: a directory path, or a
#: disable token (``0 / off / none / false / disabled``).
OPSTREAM_CACHE_ENV = "REPRO_OPSTREAM_CACHE"

DEFAULT_CACHE_DIR = os.path.join("results", ".opstream_cache")

#: File format: magic, ``<HQQ`` header (key length, access count, op
#: count), the UTF-8 key, four columns (latency classes, per-access op
#: counts, op kinds, op addresses little-endian), trailing CRC-32.
MAGIC = b"MAYAOPS1"
_HEADER = struct.Struct("<HQQ")
_CRC = struct.Struct("<I")

#: In-memory memo capacity (streams).  A full bench run touches 8 cores
#: x a handful of (workload, seed) combinations.
MEMO_CAPACITY = 32

_memo: "dict[str, OpStream]" = {}

_stats = {
    "memory_hits": 0,
    "disk_hits": 0,
    "builds": 0,
    "disk_errors": 0,
    "build_seconds": 0.0,
    "load_seconds": 0.0,
}


class OpStreamCacheInfo(NamedTuple):
    """Counters of the two-layer op-stream cache (process-wide)."""

    memory_hits: int
    disk_hits: int
    builds: int
    disk_errors: int
    build_seconds: float
    load_seconds: float


def opstream_cache_info() -> OpStreamCacheInfo:
    return OpStreamCacheInfo(**_stats)


def reset_opstream_cache_stats() -> None:
    for name in _stats:
        _stats[name] = 0.0 if isinstance(_stats[name], float) else 0


def clear_memory_cache() -> None:
    _memo.clear()


class OpStream(NamedTuple):
    """One core's compressed LLC-op stream over a compiled trace."""

    #: Per-access latency class: 0 L1 hit, 1 L2 hit, 2 LLC reached.
    lat_class: bytearray
    #: Per-access count of LLC/DRAM ops (0 for the silent majority).
    op_counts: bytearray
    #: Packed op kinds (``OP_*``), concatenated in access order.
    op_kinds: bytearray
    #: Packed op line addresses (absolute, offset already applied).
    op_addrs: array

    def to_bytes(self, key: str) -> bytes:
        key_bytes = key.encode("utf-8")
        if len(key_bytes) > 0xFFFF:
            raise TraceError(f"cache key too long ({len(key_bytes)} bytes)")
        payload = b"".join(
            (
                _HEADER.pack(len(key_bytes), len(self.lat_class), len(self.op_kinds)),
                key_bytes,
                bytes(self.lat_class),
                bytes(self.op_counts),
                bytes(self.op_kinds),
                _addr_bytes(self.op_addrs),
            )
        )
        return MAGIC + payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)

    @classmethod
    def from_bytes(cls, blob: bytes, expected_key: str) -> "OpStream":
        """Parse a serialized stream; columns are copied out exactly once
        (``memoryview`` slices — no intermediate ``bytes`` slicing)."""
        return cls.from_buffer(blob, expected_key)

    @classmethod
    def from_buffer(
        cls, buf, expected_key: str, *, copy: bool = True, validate: bool = True
    ) -> "OpStream":
        """Parse a serialized stream out of any buffer.

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
        key_len, n, m = _HEADER.unpack_from(payload)
        cursor = _HEADER.size
        key = bytes(payload[cursor : cursor + key_len]).decode("utf-8", errors="replace")
        if key != expected_key:
            raise TraceError(f"key mismatch: file has {key!r}")
        cursor += key_len
        expected = cursor + n + n + m + m * 8
        if payload.nbytes != expected:
            raise TraceError(f"truncated columns: {payload.nbytes} bytes, expected {expected}")
        lat_view = payload[cursor : cursor + n]
        cursor += n
        counts_view = payload[cursor : cursor + n]
        cursor += n
        kinds_view = payload[cursor : cursor + m]
        cursor += m
        addrs_view = payload[cursor:]
        if copy or sys.byteorder == "big":
            return cls(
                bytearray(lat_view),
                bytearray(counts_view),
                bytearray(kinds_view),
                _addrs_from_bytes(addrs_view),
            )
        return cls(lat_view, counts_view, kinds_view, addrs_view.cast("Q"))

    def columns_numpy(self):
        """The four columns as zero-copy, non-writeable numpy views.

        Returns ``(lat_class, op_counts, op_kinds, op_addrs)`` as
        ``uint8`` / ``uint8`` / ``uint8`` / ``uint64`` ndarrays sharing
        memory with the packed columns.  The op-stream replay
        (:mod:`repro.engine.vector`) consumes these directly; writes
        would corrupt the stream (and, under the mmap store, the
        shared map), so the views are read-only.
        """
        import numpy as np

        views = (
            np.frombuffer(self.lat_class, dtype=np.uint8),
            np.frombuffer(self.op_counts, dtype=np.uint8),
            np.frombuffer(self.op_kinds, dtype=np.uint8),
            np.frombuffer(self.op_addrs, dtype=np.uint64),
        )
        for view in views:
            view.flags.writeable = False
        return views


def _addr_bytes(column) -> bytes:
    # array('Q') or a typed memoryview from the mmap store (already
    # little-endian; mmap columns only exist on little-endian hosts).
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _addrs_from_bytes(blob) -> array:
    """Heap column from little-endian bytes (any buffer; one copy)."""
    column = array("Q")
    column.frombytes(blob)
    if sys.byteorder == "big":
        column.byteswap()
    return column


# -- cache keys and location -----------------------------------------------


def opstream_key(
    trace_content_key: str,
    offset: int,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    prefetcher: Optional[Tuple[int, int, int]],
) -> str:
    """Full content key: everything the builder's output depends on."""
    pf = "none" if prefetcher is None else ",".join(str(p) for p in prefetcher)
    return (
        f"{trace_content_key}|off={offset}"
        f"|l1={l1_geometry.sets}x{l1_geometry.ways}"
        f"|l2={l2_geometry.sets}x{l2_geometry.ways}"
        f"|pf={pf}|ops={OPSTREAM_VERSION}"
    )


def opstream_cache_dir() -> Optional[pathlib.Path]:
    """On-disk cache directory, or ``None`` when disabled via the env."""
    raw = os.environ.get(OPSTREAM_CACHE_ENV)
    if raw is None or not raw.strip():
        return pathlib.Path(DEFAULT_CACHE_DIR)
    if raw.strip().lower() in _DISABLED_VALUES:
        return None
    return pathlib.Path(raw.strip())


def cache_path(directory: Union[str, pathlib.Path], key: str) -> pathlib.Path:
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
    return pathlib.Path(directory) / f"{digest}.ops"


def _memo_get(key: str) -> Optional[OpStream]:
    stream = _memo.pop(key, None)
    if stream is not None:
        _memo[key] = stream
    return stream


def _memo_put(key: str, stream: OpStream) -> None:
    _memo.pop(key, None)
    while len(_memo) >= MEMO_CAPACITY:
        del _memo[next(iter(_memo))]
    _memo[key] = stream


def _load_from_disk(directory: pathlib.Path, key: str) -> Optional[OpStream]:
    path = cache_path(directory, key)
    start = time.perf_counter()
    if store.mmap_enabled():
        try:
            artifact = store.map_artifact(path, key)
        except FileNotFoundError:
            return None
        except OSError as exc:
            _stats["disk_errors"] += 1
            logger.warning("opstream cache: cannot read %s (%s); rebuilding", path, exc)
            return None
        except ValueError as exc:  # unmappable (empty) file: corrupt
            return _corrupt(path, key, exc)
        try:
            stream = OpStream.from_buffer(
                artifact.view(), key, copy=False, validate=not artifact.validated
            )
            artifact.validated = True
        except (TraceError, struct.error, ValueError) as exc:
            return _corrupt(path, key, exc)
        _stats["load_seconds"] += time.perf_counter() - start
        return stream
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        _stats["disk_errors"] += 1
        logger.warning("opstream cache: cannot read %s (%s); rebuilding", path, exc)
        return None
    try:
        stream = OpStream.from_bytes(blob, key)
    except (TraceError, struct.error, ValueError) as exc:
        return _corrupt(path, key, exc)
    _stats["load_seconds"] += time.perf_counter() - start
    return stream


def _corrupt(path: pathlib.Path, key: str, exc: Exception) -> None:
    """Shared corrupt-file handling: warn, drop any map, unlink, miss."""
    _stats["disk_errors"] += 1
    logger.warning("opstream cache: %s is corrupt (%s); rebuilding", path, exc)
    store.discard(path, key)
    try:
        path.unlink()
    except OSError:
        pass
    return None


def _store_to_disk(directory: pathlib.Path, key: str, stream: OpStream) -> None:
    path = cache_path(directory, key)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(stream.to_bytes(key))
        os.replace(tmp, path)
    except OSError as exc:
        _stats["disk_errors"] += 1
        logger.warning("opstream cache: cannot write %s (%s)", path, exc)
        try:
            tmp.unlink()
        except OSError:
            pass


# -- the stage-1 builder ---------------------------------------------------


def build_opstream(
    trace: CompiledTrace,
    offset: int,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    prefetcher: Optional[Tuple[int, int, int]],
) -> OpStream:
    """Pre-simulate one core's private levels over its whole trace.

    Faithful transcription of the private-level portion of
    ``CacheHierarchy._compile_access`` (plus its ``_prefetch`` and
    writeback helpers) for one core in isolation: identical access
    order, identical inlined prefetcher state machine, identical L1/L2
    eviction behaviour - differing only in that every LLC/DRAM
    interaction is *recorded* instead of performed.  The per-access
    drive over the same trace issues exactly these ops in exactly this
    per-core order (``tests/test_opstream_replay.py`` holds the
    end-to-end results bit-identical).

    ``prefetcher`` is ``(degree, confidence_threshold, max_confidence)``
    or ``None`` when prefetching is disabled.
    """
    l1 = SetAssociativeCache(l1_geometry, policy="lru", name="OPS-L1D")
    l2 = SetAssociativeCache(l2_geometry, policy="lru", name="OPS-L2")
    pf = StridePrefetcher(*prefetcher) if prefetcher is not None else None
    addrs = trace.line_addrs
    writes = trace.write_flags
    n = len(addrs)
    lat_class = bytearray(n)
    op_counts = bytearray(n)
    op_kinds = bytearray()
    op_addrs = array("Q")
    kinds_append = op_kinds.append
    addrs_append = op_addrs.append
    l1_access = l1.access_fast
    l2_access = l2.access_fast
    l1_where = l1._where
    if pf is not None:
        pf_threshold = pf.confidence_threshold
        pf_max = pf.max_confidence
        pf_degree = pf.degree

    for i in range(n):
        a = addrs[i] + offset
        ops_before = len(op_kinds)
        f1 = l1_access(a, writes[i] != 0, 0)
        if f1 & ACC_EVICTED_DIRTY:
            fwb = l2_access(l1.victim_addr, False, 0, True)
            if fwb & ACC_EVICTED_DIRTY:
                kinds_append(OP_WB)
                addrs_append(l2.victim_addr)
        if pf is not None:
            # StridePrefetcher.observe() inlined exactly as in the
            # hierarchy closure (same state updates, same issue order).
            last = pf._last_addr
            if last < 0:
                pf._last_addr = a
            else:
                stride = a - last
                if stride != 0 and stride == pf._last_stride:
                    conf = pf._confidence + 1
                    if conf > pf_max:
                        conf = pf_max
                else:
                    conf = pf._confidence - 1
                    if conf < 0:
                        conf = 0
                    pf._last_stride = stride
                pf._confidence = conf
                pf._last_addr = a
                stride = pf._last_stride
                if conf >= pf_threshold and stride != 0:
                    issued = 0
                    target = a
                    for _ in range(pf_degree):
                        target += stride
                        if target >= 0:
                            issued += 1
                            # CacheHierarchy._prefetch, recorded form.
                            if target not in l1_where:
                                fp1 = l1_access(target, False, 0)
                                if fp1 & ACC_EVICTED_DIRTY:
                                    fwb = l2_access(l1.victim_addr, False, 0, True)
                                    if fwb & ACC_EVICTED_DIRTY:
                                        kinds_append(OP_WB)
                                        addrs_append(l2.victim_addr)
                                fp2 = l2_access(target, False, 0)
                                if fp2 & ACC_EVICTED_DIRTY:
                                    kinds_append(OP_WB)
                                    addrs_append(l2.victim_addr)
                                if not fp2 & ACC_HIT:
                                    kinds_append(OP_PF)
                                    addrs_append(target)
                    pf.issued += issued
        if f1 & ACC_HIT:
            count = len(op_kinds) - ops_before
            if count:
                if count > 255:
                    raise TraceError(f"access {i} produced {count} LLC ops (> 255)")
                op_counts[i] = count
            continue
        f2 = l2_access(a, False, 0)
        if f2 & ACC_EVICTED_DIRTY:
            kinds_append(OP_WB)
            addrs_append(l2.victim_addr)
        if f2 & ACC_HIT:
            lat_class[i] = 1
        else:
            lat_class[i] = 2
            kinds_append(OP_DEMAND)
            addrs_append(a)
        count = len(op_kinds) - ops_before
        if count > 255:
            raise TraceError(f"access {i} produced {count} LLC ops (> 255)")
        op_counts[i] = count
    return OpStream(lat_class, op_counts, op_kinds, op_addrs)


def opstream_for(
    trace: CompiledTrace,
    trace_content_key: str,
    offset: int,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    prefetcher: Optional[Tuple[int, int, int]],
    use_cache: Optional[bool] = None,
) -> OpStream:
    """Two-layer-cached :func:`build_opstream`.

    ``use_cache=None`` honours :data:`OPSTREAM_CACHE_ENV`; ``False``
    bypasses both layers; ``True`` forces the memo even when the disk
    cache is disabled (mirrors ``compile_workload``'s contract).
    """
    directory = opstream_cache_dir()
    enabled = (directory is not None) if use_cache is None else bool(use_cache)
    key = opstream_key(trace_content_key, offset, l1_geometry, l2_geometry, prefetcher)
    if enabled:
        stream = _memo_get(key)
        if stream is not None:
            _stats["memory_hits"] += 1
            return stream
        if directory is not None:
            stream = _load_from_disk(directory, key)
            if stream is not None:
                _stats["disk_hits"] += 1
                _memo_put(key, stream)
                return stream
    start = time.perf_counter()
    stream = build_opstream(trace, offset, l1_geometry, l2_geometry, prefetcher)
    _stats["builds"] += 1
    _stats["build_seconds"] += time.perf_counter() - start
    if enabled:
        if directory is not None:
            _store_to_disk(directory, key, stream)
        _memo_put(key, stream)
    return stream
