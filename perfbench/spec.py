"""What the benchmark runs: workloads, task grids, isolated environment.

Shared by the orchestrator (``run.py``), the per-pass process
(``drive.py``), the golden capture and the self-test, so every one of
them builds byte-for-byte the same task list for a given seed.

The grid is a fixed slice of fig9 + fig10 + table7 at ``--fast``
scale: the same experiments, scale and seeding as
``repro-experiments fig9 fig10 table7 --fast --seed S``, restricted
through each experiment's own subset argument to ten of its seventy
fan-out units, so one pass fits many times into a run.  The security
pass is the full (non-quick) campaign plus fig6, fig7 and fig8 at
default scale.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (caches, pool state, reports) lives here.
WORK = os.path.join(BENCH_DIR, ".work")
GOLDEN = os.path.join(BENCH_DIR, "golden")

#: The seed the golden outputs were captured with.
DEFAULT_SEED = 7

WORKLOADS = ("grid-serial", "grid-service", "security")

#: Workload -> pass kind: which task list one pass runs.
KIND = {"grid-serial": "grid", "grid-service": "grid", "security": "security"}

GRID_EXPERIMENTS = ("fig9", "fig10", "table7")
#: Per-experiment subset arguments (each experiment's own ``run()``
#: keywords): 2 fig9 benchmarks, 3 fig10 mixes (one per MPKI bin), and
#: table7 over 2 rate mixes plus one mix per bin - 10 units, each
#: simulating Baseline, Mirage and Maya.
GRID_SLICE: Dict[str, dict] = {
    "fig9": {"workloads": ["mcf", "pr"]},
    "fig10": {"mixes": ["M1", "M10", "M16"]},
    "table7": {"rate_workloads": ["mcf", "pr"], "mixes_per_bin": 1},
}

SECURITY_EXPERIMENTS = ("fig6", "fig7", "fig8")

#: Environment variables that point every on-disk cache at the
#: benchmark's own directory (subdirectory name per variable).
CACHE_ENV = {
    "REPRO_TRACE_CACHE": "trace",
    "REPRO_TRANSLATED_CACHE": "translated",
    "REPRO_OPSTREAM_CACHE": "opstream",
    "REPRO_SPECIALIZE_CACHE": "specialize",
}

#: The simulation stack (the modules ``repro serve`` workers import at
#: boot) - imported before a pass's timed region, like the workload's
#: experiment modules.
STACK = [
    "repro.harness.cli",
    "repro.harness.runner",
    "repro.hierarchy.simulator",
    "repro.trace.compiled",
    "repro.trace.translated",
    "repro.trace.workloads",
    "repro.crypto.prince",
    "repro.crypto.randomizer",
    "repro.engine.opstream",
    "repro.engine.specialize",
    "repro.engine.vector",
    "repro.harness.presets",
    "repro.security.campaign",
]

EXPERIMENT_MODULES = {
    "grid": [
        "repro.harness.experiments.fig9_homogeneous",
        "repro.harness.experiments.fig10_heterogeneous",
        "repro.harness.experiments.table7_mpki",
    ],
    "security": [
        "repro.harness.experiments.fig6_bucket_spills",
        "repro.harness.experiments.fig7_occupancy",
        "repro.harness.experiments.fig8_occupancy_attack",
    ],
}

#: Workload -> modules a fresh interpreter imports before its first
#: unit (set-up).  The service client needs only the client side; the
#: simulation stack lives in the pool's workers.
SETUP_MODULES = {
    "grid-serial": STACK + EXPERIMENT_MODULES["grid"],
    "grid-service": ["repro.harness.cli", "repro.service.client"],
    "security": STACK + EXPERIMENT_MODULES["security"],
}


def grid_tasks(seed: int) -> list:
    """The grid slice as runner tasks, seeded like ``--seed seed``."""
    from repro.harness.cli import build_tasks

    return [
        dataclasses.replace(task, kwargs={**task.kwargs, **GRID_SLICE[task.name]})
        for task in build_tasks(list(GRID_EXPERIMENTS), True, base_seed=seed)
    ]


def security_tasks(seed: int, scorecard_path: str) -> list:
    """fig6/fig7/fig8 at default scale plus the full campaign."""
    from repro.harness.cli import build_tasks
    from repro.harness.runner import ExperimentTask

    campaign = ExperimentTask(
        name="campaign",
        description="adversarial security campaign",
        module="repro.security.campaign",
        kwargs={
            "designs": None,
            "attacks": None,
            "seed": seed,
            "quick": False,
            "scorecard_path": scorecard_path,
        },
    )
    return build_tasks(list(SECURITY_EXPERIMENTS), False, base_seed=seed) + [campaign]


def tasks_for(kind: str, seed: int, scorecard_path: str) -> list:
    return grid_tasks(seed) if kind == "grid" else security_tasks(seed, scorecard_path)


def isolated_env(cache_dir: str) -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob, plus the
    benchmark's cache directories and ``PYTHONPATH=src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    for name, sub in CACHE_ENV.items():
        env[name] = os.path.join(cache_dir, sub)
    return env


def task_names(kind: str) -> List[str]:
    return list(GRID_EXPERIMENTS) if kind == "grid" else list(SECURITY_EXPERIMENTS) + ["campaign"]
