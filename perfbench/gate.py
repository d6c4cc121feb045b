"""Correctness gate: every pass's outputs against golden and reference bytes.

An *operation* is an experiment task (fig9, fig10, table7, fig6, fig7,
fig8) or one campaign cell (design x attack).  It fails when its task
raised, when its canonical output differs from the reference pass of
the same run (the serial pass, for the service drains), when it differs
from the golden output captured for :data:`spec.DEFAULT_SEED`, or - for
campaign cells - when the scorecard fails ``validate_scorecard``.

Outputs travel as text: ``results`` is the exact
``repro.harness.runner.write_results`` file, ``scorecard`` the exact
campaign scorecard file.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from spec import DEFAULT_SEED, GOLDEN, task_names
from spans import ATTACKS, SECURITY_DESIGNS

CELLS = [f"{d}:{a}" for d in SECURITY_DESIGNS for a in ATTACKS]


def operations(kind: str) -> List[str]:
    if kind == "grid":
        return task_names(kind)
    return [t for t in task_names(kind) if t != "campaign"] + CELLS


def golden(kind: str) -> Dict[str, Optional[str]]:
    """The golden outputs of ``kind`` for :data:`spec.DEFAULT_SEED`."""
    out: Dict[str, Optional[str]] = {}
    for part in ("results", "scorecard"):
        path = os.path.join(GOLDEN, f"{kind}.{part}.json")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                out[part] = handle.read()
    return out


def _entries(text: str) -> Dict[str, dict]:
    return {entry["name"]: entry for entry in json.loads(text)["results"]}


def _cells(text: str) -> Dict[str, object]:
    cells = json.loads(text)["cells"]
    return {cell: cells.get(cell.split(":")[0], {}).get(cell.split(":")[1]) for cell in CELLS}


def check(
    kind: str,
    seed: int,
    outputs: Optional[Dict[str, Optional[str]]],
    reference: Optional[Dict[str, Optional[str]]] = None,
    golden_outputs: Optional[Dict[str, Optional[str]]] = None,
) -> Tuple[List[str], Dict[str, str]]:
    """Gate one pass; returns (operations attempted, failed op -> reason).

    ``outputs`` is ``None`` or lacks ``results`` when the pass itself
    crashed.  ``golden_outputs`` defaults to the checked-in golden files
    and is only compared when ``seed`` is the golden seed.
    """
    ops = operations(kind)
    if not outputs or outputs.get("results") is None:
        reason = (outputs or {}).get("error") or "pass produced no output"
        return ops, {op: reason for op in ops}
    if golden_outputs is None and seed == DEFAULT_SEED:
        golden_outputs = golden(kind)
    expected = [(label, ref) for label, ref in (("reference", reference),
                                                ("golden", golden_outputs)) if ref]
    failed: Dict[str, str] = {}
    try:
        _check_tasks(kind, outputs, expected, failed)
        if kind == "security":
            _check_cells(outputs, expected, failed)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return ops, {op: f"unreadable output: {exc!r}" for op in ops}
    # Any byte outside the compared entries still has to match.
    for label, ref in expected:
        for part in ("results", "scorecard"):
            if ref.get(part) is not None and outputs.get(part) != ref[part] and not failed:
                failed[ops[0]] = f"{part} bytes differ from {label}"
    return ops, failed


def _check_tasks(kind, outputs, expected, failed) -> None:
    entries = _entries(outputs["results"])
    for name in task_names(kind):
        entry = entries.get(name)
        if entry is None or not entry["ok"]:
            reason = "missing" if entry is None else (entry["error"] or "").strip()[-300:]
        else:
            reason = next((f"differs from {label}" for label, ref in expected
                           if _entries(ref["results"]).get(name) != entry), None)
        if reason is None:
            continue
        if name == "campaign":
            failed.update({cell: f"campaign task: {reason}" for cell in CELLS})
        else:
            failed[name] = reason


def _check_cells(outputs, expected, failed) -> None:
    if outputs.get("scorecard_error"):
        failed.update({c: f"validate_scorecard: {outputs['scorecard_error']}" for c in CELLS})
        return
    if outputs.get("scorecard") is None:
        failed.update({c: "no scorecard written" for c in CELLS})
        return
    cells = _cells(outputs["scorecard"])
    for label, ref in expected:
        if ref.get("scorecard") is None:
            continue
        for cell, value in _cells(ref["scorecard"]).items():
            if cells[cell] != value:
                failed.setdefault(cell, f"cell differs from {label}")


def fail_ratio(attempted: int, failed: int) -> float:
    """Add-one smoothed failure ratio of one pass: ``(failed + 1) /
    (attempted + 1)``.  It is ``1 / (attempted + 1)`` when nothing
    failed, so it is never 0 and one failure at least doubles it."""
    return (failed + 1) / (attempted + 1)
