"""The parallel experiment runner (repro.harness.runner).

The load-bearing property is *determinism across process boundaries*:
a ``--jobs N`` run must produce byte-identical report text to the
serial run, both for whole-experiment parallelism and for the shard
fan-out used by the multi-config experiments.
"""

import os

import pytest

from repro.common import host
from repro.harness import runner
from repro.harness.cli import build_tasks


def _task(name, module, **kwargs):
    return runner.ExperimentTask(
        name=name, description=name, module=f"repro.harness.experiments.{module}", kwargs=kwargs
    )


class TestSeedDerivation:
    def test_stable_across_platforms(self):
        """CRC-32 + SplitMix64 only: the derivation is pure integer
        arithmetic, so these literals must hold on every platform."""
        assert runner.derive_task_seed(None, "fig9") == 8891182411464270827
        assert runner.derive_task_seed(None, "table7") == 6929918694794022623
        assert runner.derive_task_seed(1234, "fig9") == 4099905729626611362
        assert runner.derive_task_seed(1234, "fig10") == 7394136011653391047

    def test_distinct_per_task(self):
        names = ["fig1", "fig9", "fig10", "table7", "table8", "cores"]
        seeds = {runner.derive_task_seed(7, n) for n in names}
        assert len(seeds) == len(names)

    def test_base_seed_changes_children(self):
        assert runner.derive_task_seed(1, "fig9") != runner.derive_task_seed(2, "fig9")

    def test_cli_seed_plumbing(self):
        """--seed S materializes derived child seeds into task kwargs."""
        tasks = build_tasks(["fig9", "table8"], fast=True, base_seed=1234)
        by_name = {t.name: t for t in tasks}
        assert by_name["fig9"].kwargs["seed"] == runner.derive_task_seed(1234, "fig9")
        assert "seed" not in by_name["table8"].kwargs  # table8 run() takes no seed
        # Without a base seed the experiments' built-in defaults apply.
        assert "seed" not in build_tasks(["fig9"], fast=True)[0].kwargs


class TestParallelDeterminism:
    def test_two_experiments_parallel_matches_serial(self):
        """A --jobs 2 run of two fast experiments is byte-identical to serial."""
        tasks = [
            _task("table8", "table8_storage"),
            _task("fig7", "fig7_occupancy", iterations=3000),
        ]
        serial = runner.run_tasks(tasks, jobs=1)
        parallel = runner.run_tasks(tasks, jobs=2)
        assert all(r.ok for r in serial + parallel)
        assert [r.text for r in serial] == [r.text for r in parallel]
        assert all(r.text for r in serial)

    @pytest.mark.slow
    def test_sharded_experiment_matches_serial(self):
        """fig10's per-mix fan-out merges to the serial result exactly."""
        task = _task(
            "fig10", "fig10_heterogeneous",
            mixes=["M1", "M2", "M3"], accesses_per_core=800, warmup_per_core=400,
        )
        serial = runner.run_tasks([task], jobs=1)[0]
        parallel = runner.run_tasks([task], jobs=3)[0]
        assert serial.ok and parallel.ok
        assert parallel.shards == 3
        assert serial.text == parallel.text

    def test_results_keep_task_order(self):
        tasks = [
            _task("fig7", "fig7_occupancy", iterations=2000),
            _task("table8", "table8_storage"),
            _task("table9", "table9_power"),
        ]
        results = runner.run_tasks(tasks, jobs=3)
        assert [r.name for r in results] == ["fig7", "table8", "table9"]
        assert all(r.ok for r in results)


class TestFailureIsolation:
    def test_one_failure_does_not_abort_the_sweep(self):
        tasks = [
            _task("bad", "table8_storage", no_such_kwarg=1),
            _task("table9", "table9_power"),
        ]
        results = runner.run_tasks(tasks, jobs=2)
        assert not results[0].ok and "no_such_kwarg" in results[0].error
        assert results[1].ok and results[1].text

    def test_serial_failure_captured_too(self):
        results = runner.run_tasks([_task("bad", "table8_storage", no_such_kwarg=1)], jobs=1)
        assert not results[0].ok and results[0].error


class TestSummary:
    def test_json_summary_roundtrip(self, tmp_path):
        results = runner.run_tasks([_task("table8", "table8_storage")], jobs=1)
        path = tmp_path / "nested" / "summary.json"
        runner.write_summary(str(path), results, jobs=1, wall_seconds=1.5, extra={"fast": True})
        import json

        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.harness.runner/1"
        assert payload["ok"] is True
        assert payload["fast"] is True
        assert payload["wall_seconds"] == 1.5
        (entry,) = payload["results"]
        assert entry["name"] == "table8"
        assert "17312" in entry["text"]
        assert entry["seconds"] > 0


class TestDefaultJobs:
    """Pool sizes follow the CPUs this process may run on, not the
    machine's CPU count."""

    def test_affinity_mask_bounds_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert host.available_cpus() == 2
        assert runner.default_jobs() == 2

    @pytest.mark.parametrize("cpu_count, jobs", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, cpu_count, jobs):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert host.available_cpus() == jobs
        assert runner.default_jobs() == jobs

    def test_capped_at_eight(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
        assert runner.default_jobs() == 8
