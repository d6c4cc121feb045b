"""Trace-driven multi-core simulation and the weighted-speedup metric.

``run_mix`` drives one workload mix through a hierarchy: every core
gets its own (rebased) access stream, cores interleave in simulated
time order - the core with the smallest local clock issues next, so a
core slowed by misses naturally issues fewer accesses, exactly the
coupling that creates inter-core LLC interference - and statistics are
collected after a warm-up phase, following the paper's methodology
(200M warm-up + 200M measured instructions per core, scaled down).

Every run replays :class:`~repro.trace.compiled.CompiledTrace` packed
columns, on one of two drive paths with bit-identical results:

* the **op-stream replay** (the fast path): when the LLC has an
  ``access_fast`` step, the cached per-core op streams replay through
  it (:mod:`repro.engine.vector`), so only accesses that reach the LLC
  or DRAM touch the heap;
* the **per-access drive** (:func:`_drive_compiled`): every access
  walks the hierarchy with plain integer indexing.  It is the
  drive-path oracle (``tests/test_opstream_replay.py`` requires
  bit-identical ``CacheStats`` and per-core IPCs) and the fallback for
  configurations the replay gates out, with the reason in
  ``MixResult.specialize_info``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..common.config import SystemConfig
from ..common.errors import ConfigurationError
from ..common.rng import derive_seed
from ..engine.specialize import apply_specialization
from ..llc.interface import LLCache
from ..trace.compiled import compile_workload
from ..trace.mixes import Mix
from ..trace.translated import translate_trace
from .system import CacheHierarchy


@dataclass
class CoreResult:
    """Per-core outcome of a simulation."""

    benchmark: str
    instructions: int
    cycles: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class MixResult:
    """Outcome of one mix on one LLC design."""

    mix_name: str
    cores: List[CoreResult]
    llc_mpki: float
    llc_dead_fraction: float
    llc_interference_fraction: float
    llc_saes: int
    llc_tag_only_hits: int
    #: Randomizer mapping-cache hit rate over the measured window, for
    #: designs that expose ``refresh_mapping_cache_stats`` (Mirage and
    #: Maya, packed and reference); 0.0 for the others.  Identical on
    #: both drive paths: the replay's index pre-pass fills only the
    #: side table consulted after a memo miss is counted.
    llc_randomizer_hit_rate: float = 0.0
    #: Op-stream replay provenance (numpy version, ops executed,
    #: run-cache hits and builds); ``None`` when the per-access drive
    #: ran.  Diagnostic only - never part of canonical results.
    engine_info: Optional[dict] = None
    #: Drive-path provenance: ``llc`` (the design's type name when it
    #: runs an ``access_fast`` step, else ``None`` with ``llc_reason``)
    #: and ``replay`` (``"opstream-scalar"``, or ``None`` with the gate
    #: that declined it in ``replay_reason``).  Diagnostic only - never
    #: part of canonical results.
    specialize_info: Optional[dict] = None

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    @property
    def ipcs(self) -> List[float]:
        return [c.ipc for c in self.cores]


def _drive_compiled(
    hierarchy_access,
    columns: List[tuple],
    positions: List[int],
    clocks: List[float],
    instructions: List[int],
    base_cpi: float,
    per_core: int,
    model_bandwidth: bool,
) -> None:
    """One time-ordered phase over packed columns (the batched loop).

    Replays ``per_core`` records per core with plain integer indexing:
    no generator resumes, no ``MemoryAccess`` construction, bound
    methods hoisted out of the loop.  ``positions`` carries each core's
    cursor across phases (warm-up then measurement).
    """
    cores = range(len(columns))
    limits = [positions[c] + per_core for c in cores]
    heap = [(clocks[c], c) for c in cores]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    if not model_bandwidth:
        # Specialized copy of the loop below with ``now`` pinned to
        # None (the common case): one branch and one list index fewer
        # per access.
        while heap:
            _, c = heappop(heap)
            addrs, writes, gaps, offset = columns[c]
            i = positions[c]
            latency = hierarchy_access(c, addrs[i] + offset, writes[i] != 0, None)
            gap = gaps[i]
            clock = clocks[c] + gap * base_cpi + latency
            clocks[c] = clock
            instructions[c] += gap + 1
            positions[c] = i = i + 1
            if i < limits[c]:
                heappush(heap, (clock, c))
        return
    while heap:
        _, c = heappop(heap)
        addrs, writes, gaps, offset = columns[c]
        i = positions[c]
        latency = hierarchy_access(
            c,
            addrs[i] + offset,
            writes[i] != 0,
            clocks[c],
        )
        gap = gaps[i]
        clock = clocks[c] + gap * base_cpi + latency
        clocks[c] = clock
        instructions[c] += gap + 1
        positions[c] = i = i + 1
        if i < limits[c]:
            heappush(heap, (clock, c))


def run_mix(
    llc: LLCache,
    mix: Mix,
    config: Optional[SystemConfig] = None,
    accesses_per_core: int = 20_000,
    warmup_accesses: int = 10_000,
    seed: Optional[int] = None,
    enable_prefetch: bool = True,
    model_bandwidth: bool = False,
    trace_cache: Optional[bool] = None,
    pretranslate: Optional[bool] = None,
    translate_jobs: Optional[int] = None,
) -> MixResult:
    """Simulate ``mix`` over ``llc``; returns per-core IPCs + LLC stats.

    The per-core address spaces are disjoint (each core's stream is
    rebased into its own region), so all sharing happens through cache
    capacity, which is the effect under study.  ``model_bandwidth``
    turns on DRAM channel-occupancy queueing (cores' clocks feed the
    controller), which matters for bandwidth-bound streaming mixes.

    ``trace_cache`` is forwarded to
    :func:`repro.trace.compiled.compile_workload` (``None`` honours the
    ``REPRO_TRACE_CACHE`` environment variable; ``False`` recompiles
    every call).

    ``pretranslate`` is the ahead-of-time index translation pipeline:
    every distinct line each compiled trace can touch is pushed through
    the randomizer's batch cipher kernel and the per-skew index columns
    are installed in its precomputed side table (and persisted in the
    on-disk translated-trace cache, keyed by address-set content x key
    fingerprint x SDID, so warm trials skip cipher work entirely).
    ``None`` auto-enables it exactly when it pays: the LLC exposes an
    ``index_randomizer`` running ``algorithm="prince"``, whose per-miss
    cipher pass dominates a cold trial (the splitmix mixer is cheaper
    than the table consult).  Results and memo counters are unchanged;
    from the first ``rekey()`` (e.g. an SAE-triggered remap) the side
    table is dropped with the old keys and lookups fall back to the live
    randomizer.  ``translate_jobs`` caps the translation process pool
    (``1`` forces serial).  ``trace_cache=False`` also bypasses the
    translated-index cache.

    The op-stream replay runs when the LLC has an ``access_fast``
    step: ``MixResult.specialize_info`` records ``"replay"``, or the
    gate that declined it in ``"replay_reason"``.  Results are
    bit-identical on either drive path (the ``replay`` differential
    suites enforce it).

    ``accesses_per_core`` and ``warmup_accesses`` must be >= 0 (a
    measurement phase of 0 still steps every core once).
    """
    if accesses_per_core < 0 or warmup_accesses < 0:
        raise ConfigurationError(
            f"accesses_per_core ({accesses_per_core}) and warmup_accesses "
            f"({warmup_accesses}) must be >= 0"
        )
    engine_info: Optional[dict] = None
    config = config or SystemConfig(cores=mix.cores)
    if config.cores < mix.cores:
        raise ValueError(f"mix {mix.name} needs {mix.cores} cores, config has {config.cores}")
    hierarchy = CacheHierarchy(llc, config, enable_prefetch=enable_prefetch)
    specialize_info = apply_specialization(llc)
    llc_lines = config.llc_geometry.lines
    # Per-core regions are huge (no overlap) and deliberately not a
    # multiple of any set count, so different cores' identical access
    # patterns land on different baseline sets - as distinct physical
    # allocations would.
    region = (1 << 34) + 997
    base_cpi = config.base_cpi
    cores = mix.cores
    clocks = [0.0] * cores
    instructions = [0] * cores
    hierarchy_access = hierarchy.access  # bound once; hot loops below

    # The measurement phase issues max(1, accesses_per_core) records
    # per core (the drive loop steps each core at least once), so the
    # compiled trace must cover exactly that many plus warm-up.
    length = warmup_accesses + max(1, accesses_per_core)
    traces = [
        compile_workload(
            bench,
            llc_lines,
            length,
            seed=derive_seed(seed, 100 + core_id),
            use_cache=trace_cache,
        )
        for core_id, bench in enumerate(mix.assignments)
    ]
    columns: List[tuple] = [
        (trace.line_addrs, trace.write_flags, trace.gaps, core_id * region)
        for core_id, trace in enumerate(traces)
    ]
    # Ahead-of-time index translation: batch-encrypt every (line,
    # sdid) pair the replay can touch and install the packed index
    # columns in the randomizer's side table (cached on disk keyed
    # by content x key fingerprint, so warm trials skip the cipher).
    randomizer = getattr(llc, "index_randomizer", None)
    if pretranslate is None:
        do_pretranslate = randomizer is not None and randomizer.algorithm == "prince"
    else:
        do_pretranslate = bool(pretranslate) and randomizer is not None
    if do_pretranslate:
        for core_id, trace in enumerate(traces):
            translated = translate_trace(
                randomizer,
                trace,
                sdid=core_id,
                offset=core_id * region,
                use_cache=trace_cache,
                jobs=translate_jobs,
            )
            randomizer.load_packed(translated.line_addrs, translated.columns, sdid=core_id)
    positions = [0] * cores

    def phase(per_core: int) -> None:
        _drive_compiled(
            hierarchy_access, columns, positions, clocks, instructions,
            base_cpi, per_core, model_bandwidth,
        )

    if specialize_info["llc"] is not None:
        # The fast path: replay the cached op streams with every op
        # executed through the LLC's ``access_fast`` step
        # (``phase_scalar``), while the private levels come from the
        # pre-simulated streams.  The gates left are the ones the op
        # streams and the integer clock grid cannot model; when any
        # fails, the per-access drive runs and the reason lands in
        # ``specialize_info``.  Imported lazily: numpy only loads when
        # a replay is attempted.
        from ..engine.vector import create_vector_replay

        replay, reason = create_vector_replay(
            llc, hierarchy, config, mix, traces, seed, region,
            clocks, instructions, model_bandwidth, enable_prefetch,
            trace_cache,
        )
        if replay is None:
            specialize_info["replay"] = None
            specialize_info["replay_reason"] = reason
        else:
            specialize_info["replay"] = "opstream-scalar"
            specialize_info["replay_reason"] = None
            engine_info = replay.info
            phase = replay.phase_scalar

    # Warm-up: run every core for `warmup_accesses`, time-ordered.
    if warmup_accesses > 0:
        phase(warmup_accesses)

    # Reset statistics and clocks, keep cache contents (warm caches).
    hierarchy.reset_stats()
    clocks[:] = [0.0] * cores
    instructions[:] = [0] * cores

    phase(accesses_per_core)

    refresh_mapping_cache = getattr(llc, "refresh_mapping_cache_stats", None)
    if refresh_mapping_cache is not None:
        refresh_mapping_cache()
    # The hierarchy is done; break its compiled-access reference cycle
    # so this trial's working set (mapping memos, trace columns, tag
    # state) frees by refcount when the caller drops `llc` instead of
    # piling up for the cyclic GC across a bench trial loop.
    hierarchy.release()
    stats = llc.stats
    total_instructions = sum(instructions)
    core_results = [
        CoreResult(
            benchmark=mix.assignments[c], instructions=instructions[c], cycles=clocks[c]
        )
        for c in range(cores)
    ]
    return MixResult(
        mix_name=mix.name,
        cores=core_results,
        llc_mpki=stats.mpki(total_instructions) if total_instructions else 0.0,
        llc_dead_fraction=stats.dead_block_fraction,
        llc_interference_fraction=stats.interference_fraction,
        llc_saes=stats.saes,
        llc_tag_only_hits=stats.tag_only_hits,
        llc_randomizer_hit_rate=stats.randomizer_hit_rate,
        engine_info=engine_info,
        specialize_info=specialize_info,
    )


def weighted_speedup(shared_ipcs: Sequence[float], alone_ipcs: Sequence[float]) -> float:
    """Snavely & Tullsen weighted speedup: sum of IPC_shared / IPC_alone."""
    if len(shared_ipcs) != len(alone_ipcs):
        raise ValueError("need one alone-IPC per core")
    if any(ipc <= 0 for ipc in alone_ipcs):
        raise ValueError("alone IPCs must be positive")
    return sum(s / a for s, a in zip(shared_ipcs, alone_ipcs))


def normalized_weighted_speedup(
    design: MixResult, baseline: MixResult, alone_ipcs: Optional[Sequence[float]] = None
) -> float:
    """Design weighted speedup normalized to the baseline's (Figs. 9-10).

    When ``alone_ipcs`` is omitted the baseline mix's own per-core IPCs
    serve as the alone reference, which cancels in the ratio for
    homogeneous mixes and is a close proxy for heterogeneous ones.
    """
    reference = list(alone_ipcs) if alone_ipcs is not None else baseline.ipcs
    return weighted_speedup(design.ipcs, reference) / weighted_speedup(baseline.ipcs, reference)
