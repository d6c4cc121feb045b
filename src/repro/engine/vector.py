"""The op-stream replay engine (stage 2).

Replays a mix over a shared LLC in two stages.  Stage 1
(:mod:`repro.engine.opstream`) pre-simulates each core's private levels
and compresses the trace into per-access latency classes plus the
ordered LLC/DRAM op stream.  Stage 2 - this module - replays *only the
op-bearing accesses* through a k-way merge identical in ordering to the
per-access drive loop, advancing each core's clock over op-free runs
with precomputed exact sums.

**Why the results are bit-identical to the per-access drive:**

* *Order.*  The per-access loop pops ``(clock, core)`` tuples from a
  heap; per core the clock sequence is strictly increasing (every
  access costs >= the L1 latency), so the pop order is exactly the
  k-way merge of the per-core sequences with ties broken by core id.
  Accesses without LLC/DRAM ops touch no shared state, so removing them
  from the heap - while giving the remaining entries the exact issue
  clocks the per-access loop would compute - preserves the global
  order of every operation that *does* touch shared state.
* *Clocks.*  Under the default timing constants every per-access
  advance is a dyadic rational (multiple of 2^-2) and the total clock
  stays far below 2^53 times that grid, so float addition never rounds
  and is therefore associative: ``np.cumsum`` partial sums and their
  differences equal the per-access left-to-right fold bit for bit.
  :func:`_timing_exact` verifies these preconditions against the
  actual config and declines the replay when they fail.
* *State.*  Every op executes through the LLC's own ``access_fast``
  step - the same hand-written closure the per-access drive calls - so
  cache state evolves exactly as under the per-access drive, SAEs,
  rekeys and memo evictions included.  DRAM traffic runs
  ``DramModel.access``'s unmodelled-bandwidth logic inline: reads probe
  and update the live open-row dict, writes only count, and the
  counters are added back to the model at the end of each phase.

:func:`create_vector_replay` returns ``(None, reason)`` whenever a
precondition fails; ``run_mix`` then keeps the per-access drive, which
is also the drive-path oracle in the differential tests.
"""

from __future__ import annotations

import heapq
import sys
from typing import List, Optional, Tuple

from ..common.errors import SimulationError, TraceError
from ..trace.compiled import trace_key
from .kernels import HAVE_NUMPY, splitmix_indices
from .opstream import opstream_for

if HAVE_NUMPY:
    import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF

#: Packed replay units shared across trials (see
#: :meth:`VectorReplay._get_runs`): entries hold only immutable ints
#: and tuples derived from op-stream content, never live cache state.
#: ``_OPS_CACHE`` holds the design-independent op records (keyed on
#: op-stream content), so every LLC design
#: replaying the same mix shares one copy; ``_RUNS_CACHE`` adds the
#: per-design clock advances (keyed on timing too) around them.  Both
#: are FIFO-bounded; a steady bench loop needs cores x phases entries
#: per design.
_OPS_CACHE: dict = {}
_RUNS_CACHE: dict = {}
_RUNS_CACHE_MAX = 64


def _cache_put(cache: dict, key, value) -> None:
    if len(cache) >= _RUNS_CACHE_MAX:
        del cache[next(iter(cache))]
    cache[key] = value


def _dyadic_grid_bits(value: float) -> Optional[int]:
    """log2 of the denominator of ``value``, or ``None`` if too fine.

    Every float is a dyadic rational; what matters for exactness is the
    grid: all increments must share a coarse 2^-g grid so their partial
    sums stay exactly representable.
    """
    den = float(value).as_integer_ratio()[1]
    bits = den.bit_length() - 1
    return bits if bits <= 20 else None


def _timing_exact(base_cpi: float, base_lats, dram_lats, mlp: float, traces) -> Optional[int]:
    """Grid bits ``g`` such that every clock increment is an exact
    multiple of ``2**-g`` and all partial sums stay below ``2**52``
    grid units, or ``None`` when no such grid exists.

    On success the replay runs its clocks as *integers* in grid units
    (exactly the per-access drive's float arithmetic, which never
    rounds under these preconditions); on failure ``run_mix`` keeps the
    per-access drive.
    """
    values = [base_cpi]
    values.extend(float(v) for v in base_lats)
    for v in dram_lats:
        quotient = float(v) / mlp
        if quotient * mlp != float(v):
            return None
        values.append(quotient)
    grid = 0
    for v in values:
        bits = _dyadic_grid_bits(v)
        if bits is None:
            return None
        grid = max(grid, bits)
    # gap * base_cpi must multiply exactly: gaps are uint32, so the
    # numerator of base_cpi must leave headroom under 2^53.
    if abs(float(base_cpi).as_integer_ratio()[0]) >= 1 << 21:
        return None
    # Total clock magnitude: sums of 2^-grid multiples are exact while
    # they stay below 2^(52-grid) (one guard bit of margin).
    worst_static = max(values[1:]) if len(values) > 1 else 0.0
    for t in traces:
        gap_sum = int(t.columns_numpy()[2].sum(dtype=np.int64))
        bound = gap_sum * base_cpi + len(t.gaps) * (worst_static + 1.0)
        if bound * (1 << grid) >= float(1 << 52):
            return None
    return grid


class VectorReplay:
    """Stage-2 replay state for one ``run_mix`` invocation.

    Constructed by :func:`create_vector_replay`; ``run_mix`` drives it
    through :meth:`phase_scalar`.  :attr:`info` is the replay's
    provenance (numpy version, ops executed, run-cache hits and builds),
    surfaced as ``MixResult.engine_info``.
    """

    def __init__(
        self,
        llc,
        dram,
        cores: int,
        base_cpi: float,
        base_lat_table,
        mlp: float,
        grid: int,
        streams,
        traces,
        clocks: List[float],
        instructions: List[int],
    ):
        self._llc = llc
        self._dram = dram
        self._cores = cores
        self._clocks = clocks
        self._instructions = instructions
        self._pos = [0] * cores
        self.info = {
            "numpy": np.__version__,
            "scalar_ops": 0,
            "runs_cache_hits": 0,
            "runs_cache_builds": 0,
        }
        # Integer clock domain: _timing_exact proved every increment is
        # an exact multiple of 2^-grid with all sums below 2^52 grid
        # units, so the replay runs clocks as ints (identical values to
        # the per-access drive's float fold, which never rounds either).
        # Heap keys pack the core id into the low bits, preserving the
        # scalar heap's (clock, core) tie-break with plain int compares.
        scale = 1 << grid
        self._scale = scale
        self._inv_scale = 1.0 / scale
        self._cshift = max((cores - 1).bit_length(), 1)
        self._rh_i = int((float(dram._row_hit_cycles) / mlp) * scale)
        self._rm_i = int((float(dram._row_miss_cycles) / mlp) * scale)
        cpi_i = int(base_cpi * scale)
        lat_i = np.rint(base_lat_table * scale).astype(np.int64)
        # Per-core precomputed columns over the whole trace: exclusive
        # prefix sums of static clock advances (grid units) and of
        # instruction gaps, op-bearing access indices, op offsets, and
        # the op kind/address streams; plus content keys identifying
        # everything the packed-run cache entries are derived from: the
        # op records (op-stream content) and the clock advances (that
        # plus the trace gaps and timing grid).
        self._ext = []
        self._gext = []
        self._op_idx = []
        self._op_off = []
        self._kinds_np = []
        self._oaddrs_np = []
        self._okey = []
        self._tkey = []
        timing_fp = (cpi_i, lat_i.tobytes(), grid)
        for core, (trace, stream) in enumerate(zip(traces, streams)):
            gaps_np = trace.columns_numpy()[2]
            n = len(gaps_np)
            # Read-only views (possibly straight over a shared mmap of
            # the cache file); every derived column below is a fresh
            # array, nothing writes through them.
            lat_np, counts_np, kinds_np, oaddrs_np = stream.columns_numpy()
            static = gaps_np.astype(np.int64) * cpi_i + lat_i[lat_np]
            ext = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(static, out=ext[1:])
            gext = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(gaps_np, dtype=np.int64, out=gext[1:])
            op_off = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts_np, dtype=np.int64, out=op_off[1:])
            self._ext.append(ext)
            self._gext.append(gext)
            self._op_idx.append(np.flatnonzero(counts_np))
            self._op_off.append(op_off)
            self._kinds_np.append(kinds_np)
            self._oaddrs_np.append(oaddrs_np)
            okey = (
                bytes(stream.op_counts),
                bytes(stream.op_addrs),
                bytes(stream.op_kinds),
            )
            self._okey.append(okey)
            self._tkey.append(
                (okey, bytes(trace.gaps), bytes(stream.lat_class), timing_fp)
            )

    # -- batch set-index precompute ---------------------------------------

    def precompute_indices(self) -> int:
        """Batch-derive set indices for every address the replay can touch.

        The install paths consult the randomizer's precomputed side
        table only *after* counting the memo miss, so pre-filling it is
        observably free (the PR 5 invariant) - and it moves the per-miss
        index derivation off the replay loop.  Splitmix mode runs the
        :func:`repro.engine.kernels.splitmix_indices` batch kernel and
        installs the columns directly; PRINCE mode goes through
        ``bulk_map`` (the fused-table cipher kernel), which also skips
        addresses the ``run_mix`` pretranslation already covered.
        Returns the number of entries installed.
        """
        rand = self._llc.index_randomizer
        installed = 0
        for core, oaddrs in enumerate(self._oaddrs_np):
            if not len(oaddrs):
                continue
            unique = np.unique(oaddrs)
            if rand.algorithm == "splitmix":
                pre = rand._precomputed
                if len(pre) + len(unique) > rand.precomputed_capacity:
                    # Would overflow the FIFO-bounded table; proper
                    # accounting matters more than the batch win.
                    columns = splitmix_indices(
                        unique, rand._mix_keys, rand.index_bits, sdid=core
                    )
                    installed += rand.load_packed(
                        unique.tolist(),
                        [c.astype("<u4").tolist() for c in columns],
                        sdid=core,
                    )
                    continue
                columns = splitmix_indices(unique, rand._mix_keys, rand.index_bits, sdid=core)
                keys = [(a, core) for a in unique.tolist()]
                pre.update(zip(keys, zip(*[c.tolist() for c in columns])))
                installed += len(keys)
            else:
                installed += rand.bulk_map(unique.tolist(), sdid=core)
        return installed

    # -- packed run construction ------------------------------------------

    def _get_runs(self, c: int, start: int, end: int):
        """Packed replay units for core ``c``'s accesses [start, end).

        Returns ``()`` when the window has no shared-state ops, else
        ``(lead, advs, opruns)``: the grid-unit advance from the window
        start to the first op-bearing access, per-run advances to the
        next op-bearing access (or window end), and per-run tuples of
        ``(kind, addr)`` op records.

        Everything here is a pure function of the op stream and the
        timing constants - both captured in the content keys - so
        entries are shared across trials through bounded
        module-level caches; a bench loop builds them once and replays
        them for free afterwards.  The op records do not depend on the
        timing constants, so designs with different lookup latencies
        replaying the same mix share them.
        """
        key = (self._tkey[c], start, end)
        entry = _RUNS_CACHE.get(key)
        if entry is not None:
            self.info["runs_cache_hits"] += 1
            return entry
        idx_all = self._op_idx[c]
        lo = int(np.searchsorted(idx_all, start))
        hi = int(np.searchsorted(idx_all, end))
        if lo == hi:
            entry = ()
        else:
            k = idx_all[lo:hi]
            ext = self._ext[c]
            bounds = np.empty(len(k) + 1, dtype=np.int64)
            bounds[:-1] = k
            bounds[-1] = end
            advs = (ext[bounds[1:]] - ext[bounds[:-1]]).tolist()
            lead = int(ext[k[0]] - ext[start])
            okey = (self._okey[c], start, end)
            opruns = _OPS_CACHE.get(okey)
            if opruns is None:
                off = self._op_off[c]
                rel0 = int(off[k[0]])
                rstarts = (off[k] - rel0).tolist()
                rends = (off[k + 1] - rel0).tolist()
                flat_hi = int(off[int(k[-1]) + 1])
                kinds = self._kinds_np[c][rel0:flat_hi].tolist()
                addrs = self._oaddrs_np[c][rel0:flat_hi].tolist()
                recs = list(zip(kinds, addrs))
                opruns = [tuple(recs[s:e]) for s, e in zip(rstarts, rends)]
                _cache_put(_OPS_CACHE, okey, opruns)
            entry = (lead, advs, opruns)
        _cache_put(_RUNS_CACHE, key, entry)
        self.info["runs_cache_builds"] += 1
        return entry

    # -- the replay loop --------------------------------------------------

    def phase_scalar(self, per_core: int) -> None:
        """One time-ordered phase executing every op through the live
        ``llc.access_fast`` step (plus the DRAM model).

        A drop-in replacement for the per-access ``phase(per_core)``
        closure in ``run_mix`` (same ``clocks``/``instructions``
        contract, warm-up then measurement): identical ordering (the
        packed-key merge), identical clocks (the integer grid), and
        bit-identical state because each op runs the cache's own
        ``access_fast`` step.  Nothing here is specific to one LLC design, and hazards (SAE, rekey,
        memo-capacity evictions) need no special handling: there is no
        batched state to invalidate.  DRAM requests run
        ``DramModel.access``'s ``now=None`` logic inline on locals (the
        open-row dict is the model's own), and the counters are added
        back to the model before returning.
        """
        count = max(1, per_core)
        cores = self._cores
        clocks = self._clocks
        scale = self._scale
        inv_scale = self._inv_scale
        cshift = self._cshift
        cmask = (1 << cshift) - 1
        # Advance every core's position/instruction counters, apply the
        # whole-window static advance for cores with no shared-state
        # ops, and seed the merge heap with the cores that have some.
        jpos = [0] * cores
        adv_c: List[Optional[list]] = [None] * cores
        oprun_c: List[Optional[list]] = [None] * cores
        limit_c = [0] * cores
        heap = []
        for c in range(cores):
            start = self._pos[c]
            end = start + count
            self._pos[c] = end
            gext = self._gext[c]
            self._instructions[c] += int(gext[end] - gext[start]) + count
            entry = self._get_runs(c, start, end)
            if not entry:
                # No shared-state ops this phase: the whole window is
                # one exact static advance.
                ext = self._ext[c]
                clocks[c] = clocks[c] + int(ext[end] - ext[start]) * inv_scale
                continue
            lead, advs, opruns = entry
            adv_c[c] = advs
            oprun_c[c] = opruns
            limit_c[c] = len(advs)
            heap.append(((int(clocks[c] * scale) + lead) << cshift) | c)
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        access_fast = self._llc.access_fast
        dram = self._dram
        open_rows = dram._open_rows
        open_row = open_rows.get
        row_shift = dram._lines_per_row_shift
        banks = dram._banks
        reads = writes = row_hits = 0
        rh_i = self._rh_i
        rm_i = self._rm_i
        n_ops = 0
        while heap:
            hk = heappop(heap)
            c = hk & cmask
            j = jpos[c]
            advs = adv_c[c]
            runs = oprun_c[c]
            limit = limit_c[c]
            while True:
                d = 0
                for kind, a in runs[j]:
                    n_ops += 1
                    if kind:
                        flags = access_fast(a, False, c, False, c)
                        if flags & 4:  # ACC_EVICTED_DIRTY: a DRAM write
                            writes += 1
                        if not flags & 1:  # not ACC_HIT: a DRAM read
                            row = a >> row_shift
                            bank = row % banks
                            reads += 1
                            if open_row(bank) == row:
                                row_hits += 1
                                if kind == 2:  # demand: on the clock
                                    d += rh_i
                            else:
                                open_rows[bank] = row
                                if kind == 2:
                                    d += rm_i
                    elif access_fast(a, False, c, True, c) & 4:
                        writes += 1
                nk = hk + ((advs[j] + d) << cshift)
                j += 1
                if j < limit:
                    if not heap or nk < heap[0]:
                        hk = nk
                        continue
                    jpos[c] = j
                    heappush(heap, nk)
                else:
                    clocks[c] = (nk >> cshift) * inv_scale
                break
        dram.reads += reads
        dram.writes += writes
        dram.row_hits += row_hits
        dram.row_misses += reads - row_hits
        self.info["scalar_ops"] += n_ops


def create_vector_replay(
    llc,
    hierarchy,
    config,
    mix,
    traces,
    seed,
    region: int,
    clocks: List[float],
    instructions: List[int],
    model_bandwidth: bool,
    enable_prefetch: bool,
    trace_cache: Optional[bool],
) -> Tuple[Optional[VectorReplay], str]:
    """Build a :class:`VectorReplay`, or explain why it cannot run.

    Every gate below names a precondition the replay relies on;
    failing any of them returns ``(None, reason)`` and ``run_mix``
    falls back to the per-access drive, recording the reason in
    ``MixResult.specialize_info["replay_reason"]``.
    """
    from ..common.rng import derive_seed

    if not HAVE_NUMPY:
        return None, "numpy unavailable"
    if sys.byteorder != "little":
        return None, "big-endian host (packed columns are little-endian)"
    if model_bandwidth:
        return None, "model_bandwidth=True needs per-access DRAM clocks"
    if not hasattr(llc, "access_fast"):
        return None, f"{type(llc).__name__} has no access_fast step"
    if getattr(llc, "_on_sae", None) == "raise":
        return None, "on_sae='raise' aborts mid-replay with partial clocks"
    if any(t is not None for t in hierarchy.tlbs):
        return None, "TLB modelling enabled"
    if hierarchy.directory is not None:
        return None, "coherence directory enabled"
    lat = config.latencies
    llc_fast = lat.llc_cycles + llc.extra_lookup_latency
    base_lats = [
        float(lat.l1_cycles),
        float(lat.l1_cycles + lat.l2_cycles),
        float(lat.l1_cycles + lat.l2_cycles + llc_fast),
    ]
    dram = hierarchy.dram
    dram_lats = [float(dram._row_hit_cycles), float(dram._row_miss_cycles)]
    mlp = hierarchy.mlp_factor
    grid = _timing_exact(config.base_cpi, base_lats, dram_lats, mlp, traces)
    if grid is None:
        return None, "timing constants do not admit exact float summation"
    llc_lines = config.llc_geometry.lines
    length = len(traces[0]) if traces else 0
    prefetcher = None
    if enable_prefetch:
        probe = hierarchy.prefetchers[0]
        prefetcher = (probe.degree, probe.confidence_threshold, probe.max_confidence)
    streams = []
    try:
        for core_id, bench in enumerate(mix.assignments):
            streams.append(
                opstream_for(
                    traces[core_id],
                    trace_key(bench, llc_lines, derive_seed(seed, 100 + core_id), length),
                    core_id * region,
                    config.l1d_geometry,
                    config.l2_geometry,
                    prefetcher,
                    use_cache=trace_cache,
                )
            )
    except TraceError as exc:
        return None, f"op-stream build failed: {exc}"
    replay = VectorReplay(
        llc,
        dram,
        mix.cores,
        config.base_cpi,
        np.asarray(base_lats, dtype=np.float64),
        mlp,
        grid,
        streams,
        traces,
        clocks,
        instructions,
    )
    if getattr(llc, "index_randomizer", None) is not None:
        replay.precompute_indices()
    return replay, "ok"
