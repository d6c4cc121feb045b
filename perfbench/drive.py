"""Run one timed pass in a fresh interpreter and write what it measured.

Usage: ``python3 perfbench/drive.py CONFIG.json`` (started by
``run.py`` with the benchmark's isolated environment).  ``CONFIG``
names the pass kind (``grid`` or ``security``), seed, mode (``serial``
runs ``repro.harness.runner.run_tasks`` in this process; ``service``
drains the tasks through ``ServiceClient`` against a running ``repro
serve``), whether to trace, and the output path.

The timed region starts just before the first unit is handed to the
runner or the service and ends when the last result is back; imports
happen before it (they are measured separately as set-up).
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from typing import Dict, List

import spec
import spans


def _status_totals(status: dict) -> Dict[str, float]:
    workers = status["workers"]
    store = [w["caches"].get("store", {}) for w in workers]
    return {
        "busy_s": sum(w["busy_seconds"] for w in workers),
        "jobs": status["totals"]["jobs"],
        "restarts": status["totals"]["restarts"],
        "peak_rss_mb": status["totals"]["peak_rss_kb"] / 1024.0,
        "mapped_mb": status["totals"]["mapped_bytes_shared"] / 2**20,
        "maps": sum(s.get("maps", 0) for s in store),
        "map_reuses": sum(s.get("map_reuses", 0) for s in store),
        "workers": len(workers),
    }


def _traced_drain(client, tasks) -> tuple:
    """Submit + stream: per-unit arrival times for the service metrics."""
    before = _status_totals(client.status())
    start = time.perf_counter()
    sub_id = client.submit(tasks)
    units: List[dict] = []
    done_at = None
    for event in client.stream(sub_id):
        now = time.perf_counter() - start
        if event.get("event") == "shard":
            units.append({"at": now, "seconds": event["seconds"], "worker": event["worker"]})
        elif event.get("event") == "done":
            done_at = now
    results = client.wait(sub_id)
    wall = time.perf_counter() - start
    after = _status_totals(client.status())
    last_by_worker: Dict[int, float] = {}
    for unit in units:
        last_by_worker[unit["worker"]] = max(last_by_worker.get(unit["worker"], 0.0), unit["at"])
    done_at = wall if done_at is None else done_at
    drain = {
        "wall_s": wall,
        "latency_s": [u["at"] for u in units],
        "queue_wait_s": [u["at"] - u["seconds"] for u in units],
        "busy_s": after["busy_s"] - before["busy_s"],
        # A worker's last completion is when it went idle for good: the
        # queue was empty from then on.  The first of those starts the tail.
        "tail_s": done_at - min(last_by_worker.values()) if last_by_worker else 0.0,
        "status": after,
        "maps": after["maps"] - before["maps"],
        "map_reuses": after["map_reuses"] - before["map_reuses"],
    }
    return results, drain


def run_pass(config: dict) -> dict:
    for module in spec.SETUP_MODULES[config["workload"]]:
        importlib.import_module(module)
    imported_at = time.monotonic()
    from repro.harness import runner

    kind = config["kind"]
    scorecard_path = os.path.join(config["scratch"], "SCORECARD.json")
    results_path = os.path.join(config["scratch"], "results.json")
    tasks = spec.tasks_for(kind, config["seed"], scorecard_path)
    tracer = client = None
    if config["mode"] == "service":
        from repro.service.client import ServiceClient

        client = ServiceClient(config["address"], timeout=120.0)
    elif config["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer, kind)
    from repro import store
    from repro.engine.specialize import specialize_cache_info

    drain = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    if client is None:
        results = runner.run_tasks(tasks)
    elif config["trace"]:
        results, drain = _traced_drain(client, tasks)
    else:
        results = client.run_tasks(tasks)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    runner.write_results(results_path, results)
    with open(results_path, "r", encoding="utf-8") as handle:
        outputs = {"results": handle.read()}
    if kind == "security":
        from repro.security.campaign import load_scorecard, validate_scorecard

        if os.path.exists(scorecard_path):
            with open(scorecard_path, "r", encoding="utf-8") as handle:
                outputs["scorecard"] = handle.read()
            try:
                validate_scorecard(load_scorecard(scorecard_path))
            except ValueError as exc:
                outputs["scorecard_error"] = str(exc)
    record = {
        "imported_at": imported_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "task_s": {r.name: r.seconds for r in results},
    }
    if tracer is not None:
        info = store.store_cache_info()
        layers = spans.layer_metrics(tracer.spans)
        layers["store.maps"] = info.maps
        layers["store.map_reuses"] = info.map_reuses
        layers["store.mapped_mb"] = store.mapped_bytes_current() / 2**20
        layers["specialize.compiles"] = specialize_cache_info().compiles
        record["layers"] = layers
        record["paths"] = spans.drive_paths(tracer.spans)
        record["spans"] = spans.to_dicts(tracer.spans)
    if drain is not None:
        record["drain"] = drain
    return record


def main(argv: List[str]) -> int:
    with open(argv[0], "r", encoding="utf-8") as handle:
        config = json.load(handle)
    record = run_pass(config)
    tmp = config["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(tmp, config["out"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
