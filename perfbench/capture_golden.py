#!/usr/bin/env python3
"""Capture the golden outputs the correctness gate compares against.

Usage (from the repository root)::

    python3 perfbench/capture_golden.py

Runs one serial grid pass and one security pass for
:data:`spec.DEFAULT_SEED` and writes their exact output files to
``perfbench/golden/``: ``grid.results.json`` and
``security.results.json`` (canonical ``write_results`` bytes) and
``security.scorecard.json`` (the campaign scorecard).  Re-capture only
when a change is meant to alter the reproduced results.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench
import spec


def capture(workload: str) -> None:
    kind = spec.KIND[workload]
    run = bench.Run(workload, spec.DEFAULT_SEED, 0.0, False)
    try:
        record = run.drive("golden", run.cache)
    finally:
        run.close()
    outputs = record.get("outputs") or {}
    if "error" in record or outputs.get("scorecard_error"):
        raise SystemExit(record.get("error") or outputs["scorecard_error"])
    failed = [e["name"] for e in json.loads(outputs["results"])["results"] if not e["ok"]]
    if failed:
        raise SystemExit(f"{kind}: tasks failed: {', '.join(failed)}")
    os.makedirs(spec.GOLDEN, exist_ok=True)
    for part in ("results", "scorecard"):
        if outputs.get(part) is not None:
            path = os.path.join(spec.GOLDEN, f"{kind}.{part}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(outputs[part])
            print(f"wrote {os.path.relpath(path, spec.ROOT)}")


def main() -> int:
    sys.path.insert(0, spec.SRC)
    for workload in ("grid-serial", "security"):
        capture(workload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
