"""Span recorder that wraps the program's public functions from outside.

Nothing under ``src/`` is edited: :func:`install` replaces each traced
function at every place a loaded ``repro`` module bound it (a
``from ... import`` copies the name into the importing module, so
``run_mix`` is wrapped inside each experiment module, ``opstream_for``
inside ``repro.engine.vector``, and so on).  Spans carry a name, start,
end and parent id, stay in memory, and are written once at the end as
Chrome trace-event JSON (:func:`chrome_trace`).

:func:`layer_metrics` folds one pass's spans into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from spec import EXPERIMENT_MODULES

DESIGNS = {"MayaCache": "maya", "MirageCache": "mirage", "BaselineLLC": "baseline"}
GRID_DESIGNS = ("maya", "mirage", "baseline")
DRIVE_PATHS = ("opstream-scalar", "per-access")
#: The campaign's ``DESIGNS`` x ``ATTACKS`` (metric names are fixed in
#: BENCHMARK.json, so they are spelled out rather than imported).
SECURITY_DESIGNS = ("baseline", "ceaser", "ceaser_s", "scatter", "mirage", "maya", "fully_assoc")
ATTACKS = ("ppp", "policy", "occupancy")


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Nested span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span.  ``attrs(args, kwargs, result,
        token)`` adds attributes when the call returns, where ``token``
        is what ``before()`` returned just before the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before() if before else None
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                self.spans.append(Span(span_id, parent, name, start, time.perf_counter_ns(),
                                       {"error": True}))
                raise
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   attrs(args, kwargs, result, token) if attrs else {}))
            return result

        return traced


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``wrapped``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer, kind: str) -> None:
    """Wrap the public entry points of every layer the pass runs."""
    from repro import store
    from repro.engine import opstream, specialize, vector
    from repro.trace import compiled

    simulator = importlib.import_module("repro.hierarchy.simulator")
    for module in EXPERIMENT_MODULES[kind]:
        importlib.import_module(module)
    campaign = importlib.import_module("repro.security.campaign")

    run_mix_sig = inspect.signature(simulator.run_mix)

    def run_mix_attrs(args, kwargs, result, _token):
        bound = run_mix_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        design = DESIGNS.get(type(a["llc"]).__name__, type(a["llc"]).__name__.lower())
        info = result.specialize_info or {}
        path = info.get("replay") or "per-access"
        reason = info.get("replay_reason")
        if path == "per-access" and reason is None:
            reason = f"llc={info.get('llc')}" if info else "specialize off"
        cores = len(a["mix"].assignments)
        return {
            "design": design,
            "path": path,
            "reason": reason,
            "accesses": cores * (a["accesses_per_core"] + a["warmup_accesses"]),
            "randomizer_hit_rate": result.llc_randomizer_hit_rate,
            "scalar_ops": (result.engine_info or {}).get("scalar_ops", 0),
        }

    def counting(info: Callable, counter: str) -> Callable:
        """Span factory whose spans say whether ``info().<counter>``
        grew during the call (a cache build rather than a load)."""
        read = lambda: getattr(info(), counter)  # noqa: E731
        return lambda name, fn: tracer.wrap(
            name, fn, lambda a, k, r, before: {"built": read() > before}, read
        )

    plain = lambda name, fn: tracer.wrap(name, fn)  # noqa: E731
    targets = [
        (simulator, "run_mix", lambda name, fn: tracer.wrap(name, fn, run_mix_attrs)),
        (compiled, "compile_workload", counting(compiled.trace_cache_info, "compiles")),
        (opstream, "opstream_for", counting(opstream.opstream_cache_info, "builds")),
        (specialize, "apply_specialization", plain),
        (vector, "create_vector_replay", plain),
        (store, "map_artifact", plain),
        (campaign, "run_shard", lambda name, fn: tracer.wrap(
            name, fn, lambda a, k, r, _: {"design": r["design"], "attack": r["attack"]})),
    ]
    for module, attr, make in targets:
        original = getattr(module, attr)
        _rebind(original, make(attr, original))
    vector.VectorReplay.phase_scalar = tracer.wrap("phase_scalar", vector.VectorReplay.phase_scalar)
    for module_name in EXPERIMENT_MODULES[kind]:
        module = sys.modules[module_name]
        module.run = tracer.wrap("task:" + module_name.rsplit(".", 1)[1], module.run)


# -- folding spans into layer metrics ----------------------------------------


def _sum(spans, name, **match) -> float:
    return sum(
        s.seconds for s in spans
        if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
    )


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: Dict[int, float] = {}
    for s in spans:
        covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
    return {s.id: s.seconds - covered.get(s.id, 0.0) for s in spans}


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (zero where a layer did not run)."""
    out: Dict[str, float] = {}
    own = self_seconds(spans)
    mixes = [s for s in spans if s.name == "run_mix"]
    for design in GRID_DESIGNS:
        runs = [s for s in mixes if s.attrs.get("design") == design]
        seconds = sum(s.seconds for s in runs)
        accesses = sum(s.attrs["accesses"] for s in runs)
        out[f"hierarchy.run_mix_s.{design}"] = seconds
        out[f"hierarchy.run_mix_calls.{design}"] = len(runs)
        out[f"hierarchy.accesses_per_s.{design}"] = accesses / seconds if seconds else 0.0
        out[f"hierarchy.run_mix_self_s.{design}"] = sum(own[s.id] for s in runs)
        for path in DRIVE_PATHS:
            out[f"hierarchy.path.{design}.{path}"] = sum(
                1 for s in runs if s.attrs["path"] == path
            )
    out["vector.replay_setup_s"] = _sum(spans, "create_vector_replay")
    out["vector.phase_scalar_s"] = _sum(spans, "phase_scalar")
    out["vector.scalar_ops"] = sum(s.attrs.get("scalar_ops", 0) for s in mixes)
    out["opstream.load_s"] = _sum(spans, "opstream_for")
    out["opstream.builds"] = sum(1 for s in spans if s.name == "opstream_for" and s.attrs.get("built"))
    out["opstream.build_s"] = _sum(spans, "opstream_for", built=True)
    out["trace.compile_workload_s"] = _sum(spans, "compile_workload")
    out["trace.compiles"] = sum(1 for s in spans if s.name == "compile_workload" and s.attrs.get("built"))
    out["trace.compile_s"] = _sum(spans, "compile_workload", built=True)
    out["specialize.apply_s"] = _sum(spans, "apply_specialization")
    maya = [s.attrs["randomizer_hit_rate"] for s in mixes if s.attrs.get("design") == "maya"]
    out["crypto.randomizer_hit_ratio.maya"] = sum(maya) / len(maya) if maya else 0.0
    out["store.map_s"] = _sum(spans, "map_artifact")
    for design in SECURITY_DESIGNS:
        out[f"security.cell_s.{design}"] = _sum(spans, "run_shard", design=design)
    for attack in ATTACKS:
        out[f"security.attack_s.{attack}"] = _sum(spans, "run_shard", attack=attack)
    return out


def drive_paths(spans: List[Span]) -> Dict[str, int]:
    """``design/path/gate reason`` -> number of ``run_mix`` calls."""
    counts: Dict[str, int] = {}
    for s in spans:
        if s.name == "run_mix":
            key = f"{s.attrs['design']}/{s.attrs['path']}/{s.attrs['reason']}"
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def to_dicts(spans: List[Span]) -> List[dict]:
    return [
        {"id": s.id, "parent": s.parent, "name": s.name,
         "start_ns": s.start_ns, "end_ns": s.end_ns, "attrs": s.attrs}
        for s in spans
    ]


def chrome_trace(passes: List[dict]) -> dict:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing);
    one process lane per traced pass."""
    events = []
    for lane, record in enumerate(passes, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": lane, "tid": 1,
                       "args": {"name": record["label"]}})
        for s in record["spans"]:
            events.append({
                "name": s["name"], "ph": "X", "pid": lane, "tid": 1,
                "ts": s["start_ns"] / 1000.0, "dur": (s["end_ns"] - s["start_ns"]) / 1000.0,
                "args": {"id": s["id"], "parent": s["parent"], **s["attrs"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
