#!/usr/bin/env python3
"""Self-test of the benchmark's own checks; runs no simulation.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Shows that the correctness gate passes the golden outputs unchanged,
and that altering any single byte of them - at a few hundred seeded
positions in each golden file - fails at least one operation and so
raises ``fail_ratio``; that a crashed pass fails every operation; and
that ``BENCHMARK.json`` names exactly the metrics ``run.py`` reports.
"""

from __future__ import annotations

import json
import os
import random
import sys

import gate
import run as bench
import spec

POSITIONS = 300


def _alter(text: str, position: int) -> str:
    """``text`` with the character at ``position`` replaced by another."""
    char = text[position]
    if char.isdigit():
        new = str((int(char) + 1) % 10)
    else:
        new = chr(ord(char) ^ 1)
    return text[:position] + new + text[position + 1:]


def check_gate(kind: str) -> int:
    golden = gate.golden(kind)
    ops, failed = gate.check(kind, spec.DEFAULT_SEED, dict(golden))
    if failed:
        print(f"FAIL {kind}: golden outputs do not pass the gate: {failed}")
        return 1
    clean = gate.fail_ratio(len(ops), 0)
    problems = 0
    rng = random.Random(f"selftest-{kind}")
    for part, text in golden.items():
        for position in rng.sample(range(len(text)), min(POSITIONS, len(text))):
            altered = dict(golden, **{part: _alter(text, position)})
            _, failed = gate.check(kind, spec.DEFAULT_SEED, altered)
            if gate.fail_ratio(len(ops), len(failed)) <= clean:
                problems += 1
                print(f"FAIL {kind}: byte {position} of {part} altered, gate passed")
    _, failed = gate.check(kind, spec.DEFAULT_SEED, None)
    if len(failed) != len(ops):
        problems += 1
        print(f"FAIL {kind}: a crashed pass failed {len(failed)} of {len(ops)} operations")
    print(f"{kind}: clean fail_ratio {clean:.4f}; every altered byte raised it "
          f"({len(golden)} golden files)" if not problems else f"{kind}: {problems} problems")
    return problems


def check_manifest() -> int:
    with open(os.path.join(spec.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    reported = {"end_to_end": bench.END_TO_END_UNITS, "per_layer": bench.per_layer_units()}
    problems = 0
    for section, names in declared.items():
        if names != reported[section]:
            problems += 1
            print(f"FAIL BENCHMARK.json {section} differs from run.py: "
                  f"{sorted(set(names.items()) ^ set(reported[section].items()))}")
    if [w["name"] for w in manifest["workloads"]] != list(spec.WORKLOADS):
        problems += 1
        print("FAIL BENCHMARK.json workloads differ from spec.WORKLOADS")
    if not problems:
        print("BENCHMARK.json matches the metrics run.py reports")
    return problems


def main() -> int:
    problems = check_gate("grid") + check_gate("security") + check_manifest()
    print("selftest " + ("passed" if not problems else f"FAILED ({problems})"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
