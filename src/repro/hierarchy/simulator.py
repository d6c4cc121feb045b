"""Trace-driven multi-core simulation and the weighted-speedup metric.

``run_mix`` drives one workload mix through a hierarchy: every core
gets its own (rebased) access stream, cores interleave in simulated
time order - the core with the smallest local clock issues next, so a
core slowed by misses naturally issues fewer accesses, exactly the
coupling that creates inter-core LLC interference - and statistics are
collected after a warm-up phase, following the paper's methodology
(200M warm-up + 200M measured instructions per core, scaled down).

Two drive loops produce bit-identical results:

* the **compiled fast path** (default) replays
  :class:`~repro.trace.compiled.CompiledTrace` packed columns with
  plain integer indexing - no generator resumes, no per-access object
  construction - either access by access through the hierarchy or,
  when specialization installed an LLC step, as a replay of the
  cached per-core op streams (:mod:`repro.engine.vector`);
* the **generator path** (``compiled=False``) pulls
  :class:`~repro.trace.record.MemoryAccess` records out of the
  synthetic generators one at a time.  It is the oracle:
  ``tests/test_compiled_replay.py`` requires both paths to produce
  bit-identical ``CacheStats`` and per-core IPCs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..common.config import SystemConfig
from ..common.rng import derive_seed
from ..engine import resolve_engine
from ..engine.specialize import apply_specialization, resolve_specialize
from ..llc.interface import LLCache
from ..trace.compiled import compile_workload
from ..trace.mixes import Mix
from ..trace.translated import translate_trace
from ..trace.workloads import get_workload
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
    #: Randomizer mapping-cache hit rate over the measured window
    #: (0.0 for designs without a randomizer/mapping cache).
    llc_randomizer_hit_rate: float = 0.0
    #: The replay engine that actually drove the run (``"scalar"`` or
    #: ``"vector"``); a requested-but-gated vector run reports
    #: ``"scalar"`` here with the reason in :attr:`engine_info`.
    engine: str = "scalar"
    #: Engine provenance: for vector runs, numpy version plus
    #: ``segments``/``fallback_ops`` hazard counts; for scalar
    #: fallbacks of a vector request, the ``fallback_reason``.
    engine_info: Optional[dict] = None
    #: Specialization provenance (:mod:`repro.engine.specialize`):
    #: ``None`` when the generic engines ran (``REPRO_SPECIALIZE=0``),
    #: else the template kind installed on the LLC (or the fallback
    #: reason) plus the count of specialized private levels.
    #: Diagnostic only - never part of canonical results.
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


def _drive_generator(
    hierarchy_access,
    streams: List[tuple],
    clocks: List[float],
    instructions: List[int],
    base_cpi: float,
    per_core: int,
    model_bandwidth: bool,
) -> None:
    """One time-ordered phase pulling records out of the generators."""
    cores = range(len(streams))
    done = [0] * len(streams)
    heap = [(clocks[c], c) for c in cores]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        _, c = heappop(heap)
        stream, offset = streams[c]
        access = next(stream)
        latency = hierarchy_access(
            c,
            access.line_addr + offset,
            access.is_write,
            clocks[c] if model_bandwidth else None,
        )
        clocks[c] += access.gap * base_cpi + latency
        instructions[c] += access.gap + 1
        done[c] += 1
        if done[c] < per_core:
            heappush(heap, (clocks[c], c))


def run_mix(
    llc: LLCache,
    mix: Mix,
    config: Optional[SystemConfig] = None,
    accesses_per_core: int = 20_000,
    warmup_accesses: int = 10_000,
    seed: Optional[int] = None,
    enable_prefetch: bool = True,
    model_bandwidth: bool = False,
    compiled: Optional[bool] = None,
    trace_cache: Optional[bool] = None,
    pretranslate: Optional[bool] = None,
    translate_jobs: Optional[int] = None,
    engine: Optional[str] = None,
    specialize: Optional[bool] = None,
) -> MixResult:
    """Simulate ``mix`` over ``llc``; returns per-core IPCs + LLC stats.

    The per-core address spaces are disjoint (each core's stream is
    rebased into its own region), so all sharing happens through cache
    capacity, which is the effect under study.  ``model_bandwidth``
    turns on DRAM channel-occupancy queueing (cores' clocks feed the
    controller), which matters for bandwidth-bound streaming mixes.

    ``compiled`` selects the drive loop: ``None``/``True`` (default)
    replays compiled packed traces; ``False`` forces the original
    generator path (the differential oracle).  Both produce
    bit-identical results.  ``trace_cache`` is forwarded to
    :func:`repro.trace.compiled.compile_workload` (``None`` honours the
    ``REPRO_TRACE_CACHE`` environment variable; ``False`` recompiles
    every call).

    ``pretranslate`` (compiled path only) is the ahead-of-time index
    translation pipeline: every distinct line each compiled trace can
    touch is pushed through the randomizer's batch cipher kernel and
    the per-skew index columns are installed in its precomputed side
    table (and persisted in the on-disk translated-trace cache, keyed
    by address-set content x key fingerprint x SDID, so warm trials
    skip cipher work entirely).  ``None`` auto-enables it exactly when
    it pays: the LLC exposes an ``index_randomizer`` running
    ``algorithm="prince"``, whose per-miss cipher pass dominates a cold
    trial (the splitmix mixer is cheaper than the table consult).
    Results and memo counters are unchanged; from the first ``rekey()``
    (e.g. an SAE-triggered remap) the side table is dropped with the
    old keys and lookups fall back to the live randomizer.  ``translate_jobs`` caps the translation
    process pool (``1`` forces serial).  ``trace_cache=False`` also
    bypasses the translated-index cache.

    ``engine`` selects the replay backend: ``"scalar"`` (default) or
    ``"vector"`` (the numpy column-replay engine,
    :mod:`repro.engine.vector`); ``None`` honours ``REPRO_ENGINE``.
    Both engines produce bit-identical results; when the vector
    engine's preconditions fail (non-Maya design, numpy missing,
    bandwidth model on, ...) the run transparently drops to scalar and
    ``MixResult.engine_info["fallback_reason"]`` says why.

    ``specialize`` selects the config-specialized step functions
    (:mod:`repro.engine.specialize`): ``None`` honours
    ``REPRO_SPECIALIZE`` (default on), ``False`` keeps the generic
    interpreters (the differential oracle).  Specialization is applied
    after the hierarchy is built and released with it; every caller
    resolves ``access_fast`` by attribute, so the scalar drive loops
    and the vector engine's scalar fallback windows both pick up the
    specialized steps.  Results are bit-identical either way (the
    ``specialize`` differential suite enforces it); the provenance
    lands in ``MixResult.specialize_info``, never in canonical results.
    """
    requested_engine = resolve_engine(engine)
    engine_used = "scalar"
    engine_info: Optional[dict] = None
    config = config or SystemConfig(cores=mix.cores)
    if config.cores < mix.cores:
        raise ValueError(f"mix {mix.name} needs {mix.cores} cores, config has {config.cores}")
    hierarchy = CacheHierarchy(llc, config, enable_prefetch=enable_prefetch)
    specialization = None
    specialize_info: Optional[dict] = None
    if resolve_specialize(specialize):
        specialization, specialize_info = apply_specialization(llc, hierarchy)
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
    use_compiled = compiled is None or compiled

    if use_compiled:
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

        if requested_engine == "vector":
            # Imported lazily: the vector engine (and numpy) only load
            # when actually requested.
            from ..engine.vector import create_vector_replay

            replay, reason = create_vector_replay(
                llc, hierarchy, config, mix, traces, seed, region,
                clocks, instructions, model_bandwidth, enable_prefetch,
                trace_cache,
            )
            if replay is None:
                engine_info = {"requested": "vector", "fallback_reason": reason}
            else:
                engine_used = "vector"
                engine_info = replay.info
                phase = replay.phase
        elif specialization is not None and specialize_info.get("llc") is not None:
            # Specialized scalar drive: replay the cached op streams
            # with *every* op executed through the generated scalar
            # step (``phase_scalar`` - no batch kernels, no hazard
            # windows), so the serial LLC state machine runs the
            # specialized code end to end while the private levels come
            # from the pre-simulated streams.  Any design with an
            # ``access_fast`` step qualifies; the gates left are the
            # ones the op streams and the integer clock grid cannot
            # model.  When any fails, the plain per-access drive keeps
            # the specialized steps and the reason lands in
            # ``specialize_info``.
            from ..engine.vector import create_vector_replay

            replay, reason = create_vector_replay(
                llc, hierarchy, config, mix, traces, seed, region,
                clocks, instructions, model_bandwidth, enable_prefetch,
                trace_cache, scalar_ops=True,
            )
            if replay is None:
                specialize_info["replay"] = None
                specialize_info["replay_reason"] = reason
            else:
                specialize_info["replay"] = "opstream-scalar"
                specialize_info["replay_reason"] = None
                engine_info = replay.info
                phase = replay.phase_scalar

    else:
        streams: List[tuple] = []
        for core_id, bench in enumerate(mix.assignments):
            spec = get_workload(bench)
            stream = spec.stream(llc_lines, seed=derive_seed(seed, 100 + core_id))
            streams.append((stream, core_id * region))

        def phase(per_core: int) -> None:
            _drive_generator(
                hierarchy_access, streams, clocks, instructions,
                base_cpi, per_core, model_bandwidth,
            )

        if requested_engine == "vector":
            engine_info = {
                "requested": "vector",
                "fallback_reason": "generator path (compiled=False) has no column replay",
            }

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
    # Restore the generic step functions: the specialized closures hold
    # references back to their caches, and dropping the instance
    # bindings keeps per-trial bench loops refcount-clean (post-run
    # accesses through the generic engine are bit-identical anyway).
    if specialization is not None:
        specialization.release()
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
        engine=engine_used,
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
