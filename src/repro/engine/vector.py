"""The op-stream replay engine (stage 2).

Replays a mix over a shared LLC in two stages.  Stage 1
(:mod:`repro.engine.opstream`) pre-simulates each core's private levels
and compresses the trace into per-access latency classes plus the
ordered LLC/DRAM op stream.  Stage 2 - this module -
replays *only the op-bearing accesses* through a k-way merge identical
in ordering to the scalar drive loop, advancing each core's clock over
op-free runs with precomputed exact float sums.

**Why the results are bit-identical to the scalar engine:**

* *Order.*  The scalar loop pops ``(clock, core)`` tuples from a heap;
  per core the clock sequence is strictly increasing (every access
  costs >= the L1 latency), so the pop order is exactly the k-way merge
  of the per-core sequences with ties broken by core id.  Accesses
  without LLC/DRAM ops touch no shared state, so removing them from
  the heap - while giving the remaining entries the exact issue clocks
  the scalar loop would compute - preserves the global order of every
  operation that *does* touch shared state.
* *Clocks.*  Under the default timing constants every per-access
  advance is a dyadic rational (multiple of 2^-2) and the total clock
  stays far below 2^53 times that grid, so float addition never rounds
  and is therefore associative: ``np.cumsum`` partial sums and their
  differences equal the scalar left-to-right fold bit for bit.
  :func:`_timing_exact` verifies these preconditions against the
  actual config and falls back to the scalar engine when they fail.
* *State.*  The op executor is a transcription of
  ``MayaCache.access_fast`` / ``_install_priority0`` and the DRAM
  read path, operating on the same live objects (tag columns, memo,
  priority-0 pool, DRAM row state); hot-path statistics accumulate in
  locals and flush into the real counters at the end of every phase
  (increments commute, so deferral is invisible).

**Epoch segments.**  A replayed batch is only trusted until a
*state-coupling event*: an SAE (possibly triggering a global eviction
cascade or an ``on_sae="rekey"`` key refresh) or a mapping-memo
capacity eviction.  Each such hazard opens a window of
:data:`FALLBACK_WINDOW` ops that are executed through the generic
scalar executor (``llc.access_fast`` + ``DramModel.access``) instead of
the inlined kernel - the conservative boundary handling the ISSUE's
epoch-segmentation model calls for.  Hazard counts are surfaced as
``segments`` / ``fallback_ops`` in :attr:`VectorReplay.info` for bench
provenance.

Two loops share that substrate.  :meth:`VectorReplay.phase` is the
numpy-assisted vector engine with the inlined Maya kernel above, so it
runs only on conforming Maya configurations.
:meth:`VectorReplay.phase_scalar` executes every op through the LLC's
own (usually config-specialized) ``access_fast`` step, so it serves
any LLC design that has one - baseline, Mirage and Maya alike.

Engine selection is resolved by :func:`repro.engine.resolve_engine`;
``create_vector_replay`` returns ``(None, reason)`` whenever any
precondition of the requested loop fails, and ``run_mix`` then
transparently falls back to the per-access drive (which remains the
default for unsupported configurations and the oracle).
"""

from __future__ import annotations

import heapq
import sys
from typing import List, Optional, Tuple

from ..common.errors import SimulationError, TraceError
from ..core.maya_cache import MayaCache
from ..trace.compiled import trace_key
from .kernels import HAVE_NUMPY, splitmix_indices
from .opstream import opstream_for

if HAVE_NUMPY:
    import numpy as np

#: Ops replayed through the generic scalar executor after each
#: state-coupling hazard (SAE, rekey, memo-capacity eviction) before
#: the inlined kernel resumes.
FALLBACK_WINDOW = 64

_M64 = 0xFFFFFFFFFFFFFFFF

#: Packed replay units shared across trials (see
#: :meth:`VectorReplay._get_runs`): entries hold only immutable ints
#: and tuples derived from op-stream content, never live cache state.
#: ``_OPS_CACHE`` holds the design-independent op records (keyed on
#: op-stream content, core and DRAM geometry), so every LLC design
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
    (exactly the scalar engine's float arithmetic, which never rounds
    under these preconditions); on failure ``run_mix`` keeps the
    scalar engine.
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

    Constructed by :func:`create_vector_replay`; its :meth:`phase` is a
    drop-in replacement for the scalar ``phase(per_core)`` closure in
    ``run_mix`` (same ``positions``/``clocks``/``instructions``
    contract, warm-up then measurement).
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
        self._mlp = mlp
        self._clocks = clocks
        self._instructions = instructions
        self._pos = [0] * cores
        self._sdid_shift = [c << 56 for c in range(cores)]
        self._fallback = 0
        self.info = {
            "engine": "vector",
            "numpy": np.__version__,
            "segments": 0,
            "fallback_ops": 0,
            "runs_cache_hits": 0,
            "runs_cache_builds": 0,
        }
        # Integer clock domain: _timing_exact proved every increment is
        # an exact multiple of 2^-grid with all sums below 2^52 grid
        # units, so the replay runs clocks as ints (identical values to
        # the scalar engine's float fold, which never rounds either).
        # Heap keys pack the core id into the low bits, preserving the
        # scalar heap's (clock, core) tie-break with plain int compares.
        scale = 1 << grid
        self._scale = scale
        self._inv_scale = 1.0 / scale
        self._cshift = max((cores - 1).bit_length(), 1)
        self._rh_i = int((float(dram._row_hit_cycles) / mlp) * scale)
        self._rm_i = int((float(dram._row_miss_cycles) / mlp) * scale)
        self._lat_rh = float(dram._row_hit_cycles)
        cpi_i = int(base_cpi * scale)
        lat_i = np.rint(base_lat_table * scale).astype(np.int64)
        # Per-core precomputed columns over the whole trace: exclusive
        # prefix sums of static clock advances (grid units) and of
        # instruction gaps, op-bearing access indices, op offsets, and
        # the op kind/address streams; plus content keys identifying
        # everything the packed-run cache entries are derived from: the
        # op records (op-stream content, core, DRAM geometry) and the
        # clock advances (that plus the trace gaps and timing grid).
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
                core,
                dram._lines_per_row_shift,
                dram._banks,
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
        rand = self._llc.tags.randomizer
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
                pre.update(zip(keys, zip(columns[0].tolist(), columns[1].tolist())))
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
        op records ``(kind, addr, key64, memo_key, dram_row, dram_bank)``
        with every derived field precomputed.

        Everything here is a pure function of the op stream, the core
        id, and the timing/DRAM constants - all captured in the content
        keys - so entries are shared across trials through bounded
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
                oa = self._oaddrs_np[c][rel0:flat_hi]
                kinds = self._kinds_np[c][rel0:flat_hi].tolist()
                a_list = oa.tolist()
                oa_i = oa.astype(np.int64)
                key64s = ((oa_i << 16) | c).tolist()
                rows_np = oa_i >> self._dram._lines_per_row_shift
                rows = rows_np.tolist()
                banks = (rows_np % self._dram._banks).tolist()
                mkeys = [(a, c) for a in a_list]
                recs = list(zip(kinds, a_list, key64s, mkeys, rows, banks))
                opruns = [tuple(recs[s:e]) for s, e in zip(rstarts, rends)]
                _cache_put(_OPS_CACHE, okey, opruns)
            entry = (lead, advs, opruns)
        _cache_put(_RUNS_CACHE, key, entry)
        self.info["runs_cache_builds"] += 1
        return entry

    # -- the replay loop --------------------------------------------------

    def _phase_setup(self, per_core: int):
        """Shared per-phase bookkeeping for both replay loops.

        Advances every core's position/instruction counters, applies the
        whole-window static advance for cores with no shared-state ops,
        and returns the merge state ``(heap, jpos, adv_c, oprun_c,
        limit_c)`` for the cores that do have ops this phase.
        """
        count = max(1, per_core)
        cores = self._cores
        clocks = self._clocks
        scale = self._scale
        inv_scale = self._inv_scale
        cshift = self._cshift
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
        return heap, jpos, adv_c, oprun_c, limit_c

    def phase_scalar(self, per_core: int) -> None:
        """One time-ordered phase executing **every op** through the
        live ``llc.access_fast`` step (plus the DRAM model) instead of
        the inlined vector kernel.

        This is the fallback executor from :meth:`phase` promoted to
        the whole stream: identical ordering (same packed-key merge),
        identical clocks (same integer grid), and bit-identical state
        because each op runs the cache's own scalar step - which is the
        config-specialized generated step when
        :mod:`repro.engine.specialize` installed one.  Hazards (SAE,
        rekey, memo-capacity evictions) need no windowing here: there
        is no batched state to invalidate, and nothing here is specific
        to one LLC design.  ``run_mix`` uses this loop for the *scalar*
        engine whenever specialization installed an LLC step, so the
        serial LLC state machine runs specialized end to end while the
        private levels replay from the cached op streams.
        """
        heap, jpos, adv_c, oprun_c, limit_c = self._phase_setup(per_core)
        heappop, heappush = heapq.heappop, heapq.heappush
        clocks = self._clocks
        inv_scale = self._inv_scale
        cshift = self._cshift
        cmask = (1 << cshift) - 1
        llc = self._llc
        access_fast = llc.access_fast
        dram_access = self._dram.access
        rh_i = self._rh_i
        rm_i = self._rm_i
        lat_rh = self._lat_rh
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
                for op in runs[j]:
                    kind = op[0]
                    a = op[1]
                    n_ops += 1
                    if kind:
                        flags = access_fast(a, False, c, False, c)
                        if flags & 4:  # ACC_EVICTED_DIRTY
                            dram_access(llc.victim_addr, True, None)
                        if not flags & 1:  # ACC_HIT
                            lat = dram_access(a, False, None)
                            if kind == 2:
                                # Reads return exactly the row-hit or
                                # row-miss cycles.
                                d += rh_i if lat == lat_rh else rm_i
                    else:
                        flags = access_fast(a, False, c, True, c)
                        if flags & 4:
                            dram_access(llc.victim_addr, True, None)
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
        self.info["scalar_ops"] = self.info.get("scalar_ops", 0) + n_ops

    def phase(self, per_core: int) -> None:
        """One time-ordered phase: the vector replacement for
        ``_drive_compiled`` (identical results, compressed heap)."""
        cores = self._cores
        clocks = self._clocks
        inv_scale = self._inv_scale
        cshift = self._cshift
        cmask = (1 << cshift) - 1
        heap, jpos, adv_c, oprun_c, limit_c = self._phase_setup(per_core)
        heappop, heappush = heapq.heappop, heapq.heappush

        # Live shared state, hoisted once per phase.  Bindings survive
        # rekey/flush because every container is mutated in place; the
        # one exception - rekey() *replacing* the mix keys - is handled
        # by re-reading ``rand._mix_keys`` inside the miss branch,
        # exactly as the scalar inline path does.
        llc = self._llc
        tags = llc.tags
        tag_state = tags._state
        tag_addr = tags._addr
        tag_sdid = tags._sdid
        tag_core = tags._core
        tag_dirty = tags._dirty
        tag_reused = tags._reused
        tag_fptr = tags._fptr
        vcount = tags._valid_count
        pool = tags._p0_pool
        pos_map = tags._p0_pos
        where = tags._where
        where_get = where.get
        ways = tags._ways
        sets = tags._sets
        rand = tags.randomizer
        memo = rand._memo
        memo_pop = memo.pop
        pre_get = rand._precomputed.get
        memo_cap = rand._memo_capacity
        mix_shifts = llc._mix_shifts
        mix_mask = llc._mix_mask
        fast_mix = llc._fast_mix
        p0_cap = llc._p0_capacity
        window = llc._evicted_p0_window
        window_pop = window.pop
        window_cap = llc._evicted_p0_window_size
        handle_sae = llc._handle_sae
        raw_indices = rand._raw_indices
        access_fast = llc.access_fast
        state_find = tag_state.find
        # RNG streams: drawing getrandbits(k) in the _randbelow loop
        # shape reproduces random.Random._randbelow_with_getrandbits
        # bit for bit (the tag store and data store each own a stream).
        getrandbits = tags._rng.getrandbits
        data = llc.data
        d_rptr = data._rptr
        d_free = data._free
        d_getrandbits = data._rng.getrandbits
        d_n = len(d_rptr)
        d_k = d_n.bit_length()
        dram = self._dram
        dram_access = dram.access
        open_rows = dram._open_rows
        open_get = open_rows.get
        rh_i = self._rh_i
        rm_i = self._rm_i
        lat_rh = self._lat_rh
        sdid_shift = self._sdid_shift
        fallback = self._fallback
        segments = 0
        fallback_ops = 0

        # Hot-path statistics accumulate in locals and flush in the
        # ``finally`` below (so an on_sae="raise" abort still lands
        # every counter).  Rare paths (_promote, _install_priority1,
        # _handle_sae, the generic fallback executor) update the real
        # counters directly; increments commute, so the sum is exact.
        n_acc = n_hits = n_miss = n_dacc = n_dhits = n_wb = n_toh = 0
        n_fills = n_tev = n_inst = n_prem = n_datafills = 0
        n_ev = n_dirtyev = n_deadev = n_intfev = p1_delta = 0
        d_rhit = d_rmiss = 0
        dr_reads = dr_writes = dr_rowh = dr_rowm = 0
        pcm_local = [0] * cores

        def data_evict(filler_core):
            # MayaCache._global_random_data_eviction, transcribed (the
            # store is full when called, so the rejection loop's first
            # valid draw terminates it).
            nonlocal n_ev, n_dirtyev, n_deadev, n_intfev, p1_delta
            while True:
                r = d_getrandbits(d_k)
                while r >= d_n:
                    r = d_getrandbits(d_k)
                vt = d_rptr[r]
                if vt != -1:
                    break
            if tag_state[vt] != 2:
                raise SimulationError("data entry points at a non-priority-1 tag")
            dirty = tag_dirty[vt]
            reused = tag_reused[vt]
            core = tag_core[vt]
            llc.victim_addr = tag_addr[vt]
            llc.victim_core = core
            llc.victim_sdid = tag_sdid[vt]
            llc.victim_reused = reused != 0
            n_ev += 1
            if dirty:
                n_dirtyev += 1
            if not reused:
                n_deadev += 1
            if core >= 0 and core != filler_core:
                n_intfev += 1
            d_rptr[r] = -1
            d_free.append(r)
            # tags.demote(vt)
            tag_state[vt] = 1
            tag_fptr[vt] = -1
            tag_dirty[vt] = 0
            pos_map[vt] = len(pool)
            pool.append(vt)
            p1_delta -= 1
            return 6 if dirty else 2  # EVICTED_DIRTY|EVICTED : EVICTED

        def promote_inline(tag_idx, wb, core):
            # MayaCache._promote, transcribed (priority-0 tag hit: the
            # reuse promotion that allocates data, evicting globally at
            # random when the store is full).
            nonlocal n_datafills, p1_delta
            flags = 0
            if not d_free:
                flags = data_evict(core)
            didx = d_free.pop()
            d_rptr[didx] = tag_idx
            tag_state[tag_idx] = 2
            tag_fptr[tag_idx] = didx
            tag_dirty[tag_idx] = wb
            pos = pos_map[tag_idx]
            last = pool.pop()
            if last != tag_idx:
                pool[pos] = last
                pos_map[last] = pos
            p1_delta += 1
            tag_core[tag_idx] = core
            tag_reused[tag_idx] = 0
            n_datafills += 1
            return flags

        def install_p1_inline(a, key64, mkey, c):
            # MayaCache._install_priority1 + pick_skew_load_aware,
            # transcribed (writeback tag miss: fill tag + data).
            nonlocal d_rhit, d_rmiss, n_fills, n_datafills, n_tev
            nonlocal p1_delta, fallback, segments
            flags = 0
            if not d_free:
                flags = data_evict(c)
            indices = memo_pop(mkey, None)
            if indices is None:
                d_rmiss += 1
                indices = pre_get(mkey)
                if indices is None:
                    if fast_mix:
                        mk = rand._mix_keys
                        tw = a ^ sdid_shift[c]
                        x = (tw ^ mk[0]) & _M64
                        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
                        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
                        x ^= x >> 31
                        f0 = x
                        for s in mix_shifts:
                            f0 ^= x >> s
                        x = (tw ^ mk[1]) & _M64
                        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
                        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
                        x ^= x >> 31
                        f1 = x
                        for s in mix_shifts:
                            f1 ^= x >> s
                        indices = (f0 & mix_mask, f1 & mix_mask)
                    else:
                        indices = raw_indices(a, c)
                if len(memo) >= memo_cap:
                    del memo[next(iter(memo))]
                    fallback = FALLBACK_WINDOW
                    segments += 1
            else:
                d_rhit += 1
            memo[mkey] = indices
            i0 = indices[0]
            i1 = indices[1]
            l0 = vcount[i0]
            l1 = vcount[sets + i1]
            if l0 < l1:
                sw = 0
                si = i0
            elif l1 < l0:
                sw = 1
                si = i1
            else:
                r = getrandbits(2)
                while r >= 2:
                    r = getrandbits(2)
                if r:
                    sw = 1
                    si = i1
                else:
                    sw = 0
                    si = i0
            base = (sw * sets + si) * ways
            slot = state_find(0, base, base + ways)
            if slot < 0:
                if flags & 2:
                    # The data-eviction writeback wins over the SAE's:
                    # keep its victim fields, take only the SAE marker.
                    va = llc.victim_addr
                    vco = llc.victim_core
                    vsd = llc.victim_sdid
                    vre = llc.victim_reused
                    flags |= handle_sae(sw, si) & 16
                    llc.victim_addr = va
                    llc.victim_core = vco
                    llc.victim_sdid = vsd
                    llc.victim_reused = vre
                else:
                    flags = handle_sae(sw, si)
                fallback = FALLBACK_WINDOW
                segments += 1
                slot = state_find(0, base, base + ways)
                if slot < 0:
                    raise SimulationError("no invalid way even after SAE handling")
            didx = d_free.pop()
            d_rptr[didx] = slot
            tag_addr[slot] = a
            tag_sdid[slot] = c
            tag_core[slot] = c
            tag_dirty[slot] = 1
            tag_reused[slot] = 0
            tag_state[slot] = 2
            tag_fptr[slot] = didx
            vcount[slot // ways] += 1
            where[key64] = slot
            n_fills += 1
            n_datafills += 1
            p1_delta += 1
            n = len(pool)
            if n > p0_cap:
                # _global_random_tag_eviction(exclude=slot): the fresh
                # install is priority-1, never in the pool, so the
                # exclude shift cannot fire.
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                victim = pool[r]
                va = tag_addr[victim]
                vs = tag_sdid[victim]
                window[(va, vs)] = True
                if len(window) > window_cap:
                    del window[next(iter(window))]
                pos = pos_map[victim]
                last = pool.pop()
                if last != victim:
                    pool[pos] = last
                    pos_map[last] = pos
                vcount[victim // ways] -= 1
                del where[(va << 16) | vs]
                tag_state[victim] = 0
                n_tev += 1
            return flags

        try:
            while heap:
                hk = heappop(heap)
                c = hk & cmask
                j = jpos[c]
                advs = adv_c[c]
                runs = oprun_c[c]
                limit = limit_c[c]
                while True:
                    d = 0
                    for op in runs[j]:
                        kind, a, key64, mkey, row, bank = op
                        if fallback:
                            # Epoch boundary: scalar executor for the
                            # hazard window (bit-identical by
                            # construction; stats go to the real
                            # counters directly).
                            fallback -= 1
                            fallback_ops += 1
                            if kind:
                                flags = access_fast(a, False, c, False, c)
                                if flags & 4:  # ACC_EVICTED_DIRTY
                                    dram_access(llc.victim_addr, True, None)
                                if not flags & 1:  # ACC_HIT
                                    lat = dram_access(a, False, None)
                                    if kind == 2:
                                        # Reads return exactly the
                                        # row-hit or row-miss cycles.
                                        d += rh_i if lat == lat_rh else rm_i
                            else:
                                flags = access_fast(a, False, c, True, c)
                                if flags & 4:
                                    dram_access(llc.victim_addr, True, None)
                            if flags & 16:  # ACC_SAE
                                fallback = FALLBACK_WINDOW
                                segments += 1
                            continue
                        tag_idx = where_get(key64)
                        n_acc += 1
                        if kind:
                            # OP_PF / OP_DEMAND: the demand-read shape
                            # (is_write=False, is_writeback=False).
                            if tag_idx is not None:
                                if tag_state[tag_idx] == 2:  # priority-1 hit
                                    n_hits += 1
                                    n_dacc += 1
                                    n_dhits += 1
                                    tag_reused[tag_idx] = 1
                                    continue
                                # Priority-0 tag hit: promotion (data miss).
                                n_miss += 1
                                n_dacc += 1
                                pcm_local[c] += 1
                                n_toh += 1
                                flags = promote_inline(tag_idx, 0, c)
                                if flags & 4:
                                    dr_writes += 1
                            else:
                                n_miss += 1
                                n_dacc += 1
                                pcm_local[c] += 1
                                # MayaCache._install_priority0, transcribed.
                                n_inst += 1
                                if window_pop(mkey, None):
                                    n_prem += 1
                                indices = memo_pop(mkey, None)
                                if indices is None:
                                    d_rmiss += 1
                                    indices = pre_get(mkey)
                                    if indices is None:
                                        if fast_mix:
                                            mk = rand._mix_keys
                                            tw = a ^ sdid_shift[c]
                                            x = (tw ^ mk[0]) & _M64
                                            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
                                            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
                                            x ^= x >> 31
                                            f0 = x
                                            for s in mix_shifts:
                                                f0 ^= x >> s
                                            x = (tw ^ mk[1]) & _M64
                                            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
                                            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
                                            x ^= x >> 31
                                            f1 = x
                                            for s in mix_shifts:
                                                f1 ^= x >> s
                                            indices = (f0 & mix_mask, f1 & mix_mask)
                                        else:
                                            indices = raw_indices(a, c)
                                    if len(memo) >= memo_cap:
                                        del memo[next(iter(memo))]
                                        # Memo-capacity eviction: a
                                        # state-coupling hazard.
                                        fallback = FALLBACK_WINDOW
                                        segments += 1
                                else:
                                    d_rhit += 1
                                memo[mkey] = indices
                                i0 = indices[0]
                                i1 = indices[1]
                                l0 = vcount[i0]
                                l1 = vcount[sets + i1]
                                if l0 < l1:
                                    sw = 0
                                    si = i0
                                elif l1 < l0:
                                    sw = 1
                                    si = i1
                                else:
                                    r = getrandbits(2)
                                    while r >= 2:
                                        r = getrandbits(2)
                                    if r:
                                        sw = 1
                                        si = i1
                                    else:
                                        sw = 0
                                        si = i0
                                base = (sw * sets + si) * ways
                                slot = state_find(0, base, base + ways)
                                flags = 0
                                if slot < 0:
                                    flags = handle_sae(sw, si)
                                    fallback = FALLBACK_WINDOW
                                    segments += 1
                                    slot = state_find(0, base, base + ways)
                                    if slot < 0:
                                        raise SimulationError(
                                            "no invalid way even after SAE handling"
                                        )
                                tag_addr[slot] = a
                                tag_sdid[slot] = c
                                tag_core[slot] = c
                                tag_dirty[slot] = 0
                                tag_reused[slot] = 0
                                tag_state[slot] = 1  # priority-0
                                tag_fptr[slot] = -1  # NO_DATA
                                pos_map[slot] = n_pool = len(pool)
                                pool.append(slot)
                                vcount[slot // ways] += 1
                                where[key64] = slot
                                n_fills += 1
                                n_pool += 1
                                if n_pool > p0_cap:
                                    # Global random tag eviction, transcribed.
                                    k = n_pool.bit_length()
                                    i = getrandbits(k)
                                    while i >= n_pool:
                                        i = getrandbits(k)
                                    victim = pool[i]
                                    if victim == slot:
                                        victim = pool[(i + 1) % n_pool]
                                    va = tag_addr[victim]
                                    vs = tag_sdid[victim]
                                    window[(va, vs)] = True
                                    if len(window) > window_cap:
                                        del window[next(iter(window))]
                                    pos = pos_map[victim]
                                    last = pool.pop()
                                    if last != victim:
                                        pool[pos] = last
                                        pos_map[last] = pos
                                    vcount[victim // ways] -= 1
                                    del where[(va << 16) | vs]
                                    tag_state[victim] = 0
                                    n_tev += 1
                                if flags & 4:
                                    dr_writes += 1
                            # DRAM read for the data miss (row state is
                            # shared with the generic path; writes never
                            # touch it).  Latency charges only for
                            # OP_DEMAND, over the MLP factor.
                            if open_get(bank) == row:
                                dr_rowh += 1
                                if kind == 2:
                                    d += rh_i
                            else:
                                open_rows[bank] = row
                                dr_rowm += 1
                                if kind == 2:
                                    d += rm_i
                            dr_reads += 1
                        else:
                            # OP_WB: is_writeback=True; never a DRAM read.
                            if tag_idx is not None:
                                if tag_state[tag_idx] == 2:
                                    n_hits += 1
                                    n_wb += 1
                                    tag_dirty[tag_idx] = 1
                                else:
                                    n_miss += 1
                                    n_wb += 1
                                    n_toh += 1
                                    flags = promote_inline(tag_idx, 1, c)
                                    if flags & 4:
                                        dr_writes += 1
                            else:
                                n_miss += 1
                                n_wb += 1
                                n_inst += 1
                                flags = install_p1_inline(a, key64, mkey, c)
                                if flags & 16:
                                    fallback = FALLBACK_WINDOW
                                    segments += 1
                                if flags & 4:
                                    dr_writes += 1
                    nk = hk + ((advs[j] + d) << cshift)
                    j += 1
                    if j < limit:
                        # Run coalescing: while this core stays ahead
                        # of every other (strict compare suffices - the
                        # packed core bits make keys unique), keep
                        # executing without a push/pop round trip.
                        if not heap or nk < heap[0]:
                            hk = nk
                            continue
                        jpos[c] = j
                        heappush(heap, nk)
                    else:
                        clocks[c] = (nk >> cshift) * inv_scale
                    break
        finally:
            st = llc.stats
            st.accesses += n_acc
            st.hits += n_hits
            st.misses += n_miss
            st.demand_accesses += n_dacc
            st.demand_hits += n_dhits
            st.writebacks_received += n_wb
            st.tag_only_hits += n_toh
            st.fills += n_fills
            st.tag_evictions += n_tev
            st.evictions += n_ev
            st.dirty_evictions += n_dirtyev
            st.dead_evictions += n_deadev
            st.interference_evictions += n_intfev
            st.data_fills += n_datafills
            tags.priority1_count += p1_delta
            pcm = st.per_core_misses
            for core, misses in enumerate(pcm_local):
                if misses:
                    pcm[core] = pcm.get(core, 0) + misses
            llc.installs += n_inst
            llc.premature_p0_evictions += n_prem
            rand.cache_hits += d_rhit
            rand.cache_misses += d_rmiss
            dram.reads += dr_reads
            dram.writes += dr_writes
            dram.row_hits += dr_rowh
            dram.row_misses += dr_rowm
            self._fallback = fallback
            self.info["segments"] += segments
            self.info["fallback_ops"] += fallback_ops


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
    scalar_ops: bool = False,
) -> Tuple[Optional[VectorReplay], str]:
    """Build a :class:`VectorReplay`, or explain why it cannot run.

    Every gate below names a precondition the replay relies on;
    failing any of them returns ``(None, reason)`` and ``run_mix``
    falls back to the per-access drive, recording the reason in
    ``MixResult.engine_info`` (vector) or ``specialize_info`` (scalar).

    ``scalar_ops=True`` builds the same replay (same op streams, same
    integer clock grid) but marks it for the
    :meth:`VectorReplay.phase_scalar` loop: the scalar engine's
    specialized drive, where every op executes through the live
    ``llc.access_fast`` step.  That loop only needs the LLC to have
    such a step, so the Maya-kernel gates apply to the vector loop
    alone.
    """
    from ..common.rng import derive_seed

    if not HAVE_NUMPY:
        return None, "numpy unavailable"
    if sys.byteorder != "little":
        return None, "big-endian host (packed columns are little-endian)"
    if model_bandwidth:
        return None, "model_bandwidth=True needs per-access DRAM clocks"
    if scalar_ops:
        if not hasattr(llc, "access_fast"):
            return None, f"{type(llc).__name__} has no access_fast step"
    else:
        if type(llc) is not MayaCache:
            return None, f"{type(llc).__name__} does not support vector replay"
        if not getattr(llc, "supports_vector_replay", False):
            return None, f"{type(llc).__name__} does not advertise vector-replay support"
        if not llc._fast_pick:
            return None, "requires the load-aware two-skew install path"
        if not llc._global_tag_eviction:
            return None, "global tag eviction disabled (ablation config)"
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
    if scalar_ops:
        replay.info["engine"] = "scalar"
        replay.info["replay"] = "opstream-scalar"
        replay.info["scalar_ops"] = 0
        del replay.info["segments"]
        del replay.info["fallback_ops"]
    if isinstance(llc, MayaCache):
        replay.precompute_indices()
    return replay, "ok"
