#!/usr/bin/env python3
"""Reproduction benchmark: regenerate the paper's results, timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-serial --seed 7 --seconds 20 --trace 0

Workloads (see ``spec.py``):

``grid-serial``   the fig9 + fig10 + table7 slice at ``--fast`` scale,
                  run serially through ``repro.harness.runner.run_tasks``;
``grid-service``  the same grid and seed drained by one client through a
                  freshly booted ``repro serve --workers 2``;
``security``      the full campaign plus fig6, fig7 and fig8, serially.

Every pass runs in a fresh interpreter (``drive.py``) against warm
artifact caches under ``perfbench/.work/cache``; an untimed warm-up
pass fills them first.  Timed passes repeat until ``--seconds`` have
passed and the medians are reported.  Every output is checked by
``gate.py``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` a separate traced run (one cold
pass over empty caches, then alternating traced and untraced warm
passes, and for ``grid-service`` two drains on one pool) carries the
per-layer metrics and writes a Chrome trace under
``perfbench/.work/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import gate
import spans
import spec

DRIVE = os.path.join(spec.BENCH_DIR, "drive.py")
WORKERS = 2
#: Cap on one subprocess (a pass, a probe); a run must end in 180 s.
PASS_TIMEOUT = 150.0

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units: Dict[str, str] = {}
    for d in spans.GRID_DESIGNS:
        units[f"hierarchy.run_mix_s.{d}"] = "s"
        units[f"hierarchy.run_mix_calls.{d}"] = "count"
        units[f"hierarchy.accesses_per_s.{d}"] = "1/s"
        units[f"hierarchy.run_mix_self_s.{d}"] = "s"
        for path in spans.DRIVE_PATHS:
            units[f"hierarchy.path.{d}.{path}"] = "count"
    units.update({
        "vector.replay_setup_s": "s", "vector.phase_scalar_s": "s", "vector.scalar_ops": "count",
        "opstream.load_s": "s", "opstream.builds": "count", "opstream.build_s": "s",
        "trace.compile_workload_s": "s", "trace.compiles": "count", "trace.compile_s": "s",
        "specialize.apply_s": "s", "specialize.compiles": "count",
        "crypto.randomizer_hit_ratio.maya": "ratio",
        "store.maps": "count", "store.map_reuses": "count", "store.reuse_ratio": "ratio",
        "store.map_s": "s", "store.mapped_mb": "MB",
        "service.boot_s": "s", "service.unit_latency_s_p50": "s",
        "service.unit_latency_s_p85": "s", "service.queue_wait_s_p50": "s",
        "service.busy_ratio": "ratio", "service.tail_s": "s", "service.jobs": "count",
        "service.restarts": "count", "service.worker_peak_rss_mb": "MB",
        "service.drift_ratio": "ratio",
        "service.worker_rss_mb.drain1": "MB", "service.worker_rss_mb.drain2": "MB",
    })
    for task in spec.task_names("grid") + spec.task_names("security"):
        units[f"runner.task_s.{task}"] = "s"
    for d in spans.SECURITY_DESIGNS:
        units[f"security.cell_s.{d}"] = "s"
    for attack in spans.ATTACKS:
        units[f"security.attack_s.{attack}"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    return units


#: Layer metrics taken from the cold pass (builds), not the warm passes.
COLD_METRICS = ("opstream.builds", "opstream.build_s", "trace.compiles",
                "trace.compile_s", "specialize.compiles")


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- host facts ----------------------------------------------------------------


def _src_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(spec.SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, spec.SRC).encode())
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _numpy_version() -> Optional[str]:
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def host_facts(digest: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": _numpy_version(),
        "commit": _commit(),
        "src_sha256": digest,
    }


# -- /proc accounting for the service processes --------------------------------


def proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` in seconds."""
    with open(f"/proc/{pid}/stat", "r") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- one run -------------------------------------------------------------------


class Pool:
    """A ``repro serve`` process with its resident workers."""

    def __init__(self, proc: subprocess.Popen, address: str, boot_s: float, pids: List[int]):
        self.proc = proc
        self.address = address
        self.boot_s = boot_s
        self.pids = pids  # server first, then workers

    def _sum(self, read) -> float:
        total = 0.0
        for pid in self.pids:
            try:
                total += read(pid)
            except OSError:  # a worker the pool replaced; counted in service.restarts
                pass
        return total

    def cpu_s(self) -> float:
        return self._sum(proc_cpu_s)

    def peak_rss_mb(self) -> float:
        return self._sum(proc_peak_rss_mb)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, digest: str = ""):
        self.workload = workload
        self.digest = digest
        self.kind = spec.KIND[workload]
        self.seed = seed
        self.seconds = seconds
        self.tag = f"{workload}-s{seed}-t{int(trace)}"
        self.scratch = os.path.join(spec.WORK, "runs", f"{self.tag}-p{os.getpid()}")
        self.cache = os.path.join(spec.WORK, "cache")
        self.out_dir = os.path.join(spec.WORK, "out")
        self.count = 0
        self.pools: List[Pool] = []
        self.attempted = 0
        self.failures: List[dict] = []
        self.pass_ratios: List[float] = []
        self.passes: List[dict] = []
        for directory in (self.scratch, self.cache, self.out_dir):
            os.makedirs(directory, exist_ok=True)

    # -- subprocesses --------------------------------------------------------

    def drive(self, label: str, cache: str, trace: bool = False,
              address: Optional[str] = None) -> dict:
        """One pass in a fresh interpreter; returns its record."""
        self.count += 1
        scratch = os.path.join(self.scratch, f"pass{self.count}")
        os.makedirs(scratch)
        out = os.path.join(scratch, "record.json")
        config = {
            "workload": self.workload, "kind": self.kind, "seed": self.seed, "trace": trace, "out": out,
            "scratch": scratch, "mode": "service" if address else "serial", "address": address,
        }
        config_path = os.path.join(scratch, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, DRIVE, config_path], env=spec.isolated_env(cache), cwd=scratch,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT,
        )
        if proc.returncode != 0 or not os.path.exists(out):
            error = f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}"
            log(error)
            return {"label": label, "error": error, "outputs": {"error": error}}
        with open(out, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        record["label"] = label
        # CLOCK_MONOTONIC is system-wide: interpreter start + imports.
        record["setup_s"] = record.pop("imported_at") - started
        log(f"{label}: {record['wall_s']:.3f}s wall, {record['cpu_s']:.3f}s cpu, "
            f"{record['setup_s']:.3f}s set-up")
        return record

    def import_probe(self) -> float:
        """Seconds for a fresh interpreter to import the workload's modules."""
        modules = spec.SETUP_MODULES[self.workload]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import " + ", ".join(modules)],
            env=spec.isolated_env(self.cache), cwd=self.scratch,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT,
        )
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-2000:]}")
        return seconds

    def boot_pool(self, cache: str) -> Pool:
        """Start ``repro serve --workers 2`` and wait until every worker is warm."""
        from repro.service.client import ServiceClient, ServiceError

        self.count += 1
        state = os.path.join(self.scratch, f"serve{self.count}")
        os.makedirs(state)
        log_file = open(os.path.join(state, "serve.log"), "wb")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             "--workers", str(WORKERS), "--state-dir", state],
            env=spec.isolated_env(cache), cwd=state, stdout=log_file, stderr=subprocess.STDOUT,
        )
        log_file.close()
        pool = Pool(proc, "", 0.0, [proc.pid])
        self.pools.append(pool)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and proc.poll() is None:
            pidfiles = [f for f in os.listdir(state) if f.endswith(".pid")]
            if pidfiles:
                try:
                    with open(os.path.join(state, pidfiles[0]), "r", encoding="utf-8") as handle:
                        pool.address = json.load(handle)["address"]
                except (OSError, ValueError, KeyError):
                    pool.address = ""  # half-written; retry
            if pool.address:
                try:
                    workers = ServiceClient(pool.address, timeout=5.0).status()["workers"]
                except ServiceError:
                    workers = []
                if len(workers) == WORKERS and all(w["boot"].get("pid") for w in workers):
                    pool.boot_s = time.perf_counter() - start
                    pool.pids = [proc.pid] + [int(w["pid"]) for w in workers]
                    log(f"pool up at {pool.address} in {pool.boot_s:.3f}s")
                    return pool
            time.sleep(0.02)
        raise RuntimeError(f"repro serve did not come up (exit {proc.poll()})")

    def stop_pool(self, pool: Pool) -> None:
        from repro.service.client import ServiceClient, ServiceError

        if pool.proc.poll() is None:
            try:
                ServiceClient(pool.address, timeout=10.0).shutdown(drain=False, deadline=5.0)
            except ServiceError:  # not up yet, or wedged: SIGTERM drains too
                pool.proc.terminate()
        try:
            pool.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pool.proc.kill()
            pool.proc.wait(timeout=20)
            for pid in pool.pids[1:]:  # workers must not outlive a killed server
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        if pool in self.pools:
            self.pools.remove(pool)

    def close(self) -> None:
        for pool in list(self.pools):
            self.stop_pool(pool)
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- gate ----------------------------------------------------------------

    def check(self, record: dict, reference: Optional[dict]) -> None:
        ops, failed = gate.check(
            self.kind, self.seed, record.get("outputs"),
            reference.get("outputs") if reference else None,
        )
        self.attempted += len(ops)
        self.pass_ratios.append(gate.fail_ratio(len(ops), len(failed)))
        for op, reason in failed.items():
            self.failures.append({"pass": record["label"], "op": op, "reason": reason})
            log(f"FAILED {record['label']} {op}: {reason[:200]}")

    def keep(self, record: dict) -> None:
        self.passes.append({k: v for k, v in record.items() if k not in ("outputs", "spans")})

    def timed_out(self, start: float) -> bool:
        return time.perf_counter() - start >= self.seconds

    # -- the end-to-end run --------------------------------------------------

    def warm_reference(self) -> dict:
        """The serial grid output for this seed and program, after an
        untimed warm-up pass has filled the caches - or, when an earlier
        run in this checkout already did both, that run's output."""
        key = hashlib.sha256(self.digest.encode())
        with open(spec.__file__, "rb") as handle:  # the grid definition
            key.update(handle.read())
        path = os.path.join(spec.WORK, "ref", f"{key.hexdigest()[:16]}-{self.kind}-s{self.seed}.json")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                return {"label": "stored warm-up", "outputs": json.load(handle)}
        record = self.drive("warm-up", self.cache)
        failures = len(self.failures)
        self.check(record, None)
        if len(self.failures) == failures and "error" not in record:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(record["outputs"], handle)
            os.replace(path + ".tmp", path)
        return record

    def end_to_end(self) -> Dict[str, float]:
        reference = self.warm_reference() if self.kind == "grid" else None
        pool = None
        boots: List[float] = []
        if self.workload == "grid-service":
            for _ in range(3):
                if pool is not None:
                    self.stop_pool(pool)
                pool = self.boot_pool(self.cache)
                boots.append(pool.boot_s)
        walls, cpus, rss, setup = [], [], [], []
        start = time.perf_counter()
        while not walls or not self.timed_out(start):
            label = f"pass{len(walls) + 1}"
            if pool is None:
                record = self.drive(label, self.cache)
                extra_cpu = extra_rss = 0.0
            else:
                before = pool.cpu_s()
                record = self.drive(label, self.cache, address=pool.address)
                extra_cpu = pool.cpu_s() - before
                extra_rss = pool.peak_rss_mb()
            self.check(record, reference)
            if reference is None:
                reference = record
            self.keep(record)
            if "error" in record:
                break
            walls.append(record["wall_s"])
            cpus.append(record["cpu_s"] + extra_cpu)
            rss.append(record["rss_mb"] + extra_rss)
            setup.append(record["setup_s"])
        if pool is not None:
            self.stop_pool(pool)
        while len(setup) < 3:
            setup.append(self.import_probe())
        return {
            "wall_s": median(walls),
            "cpu_s": median(cpus),
            "setup_s": median(setup) + median(boots),
            "peak_rss_mb": median(rss),
            "fail_ratio": max(self.pass_ratios),
        }

    # -- the traced run ------------------------------------------------------

    def traced(self) -> Tuple[Dict[str, float], List[dict]]:
        cache = os.path.join(self.scratch, "cold-cache")
        traced_passes: List[dict] = []
        layers: Dict[str, float] = {name: 0.0 for name in per_layer_units()}
        reference = None
        cold = None
        if self.kind == "grid":
            cold = self.drive("cold", cache, trace=True)
            self.check(cold, None)
            self.keep(cold)
            if "error" in cold:
                raise RuntimeError(cold["error"])
            reference = cold
            traced_passes.append({"label": "cold", "spans": cold["spans"]})
        warm, plain = [], []
        start = time.perf_counter()
        while not warm or not plain or not self.timed_out(start):
            index = len(warm) + 1
            for is_traced in (True, False):
                label = f"{'traced' if is_traced else 'untraced'}{index}"
                record = self.drive(label, cache, trace=is_traced)
                self.check(record, reference)
                if reference is None:
                    reference = record
                self.keep(record)
                if "error" in record:
                    raise RuntimeError(record["error"])
                (warm if is_traced else plain).append(record)
                if is_traced:
                    traced_passes.append({"label": label, "spans": record["spans"]})
        for name in warm[0]["layers"]:
            layers[name] = median([r["layers"][name] for r in warm])
        for name in COLD_METRICS:
            layers[name] = (cold or warm[0])["layers"][name]
        for task in plain[0]["task_s"]:
            layers[f"runner.task_s.{task}"] = median([r["task_s"][task] for r in plain])
        layers["trace_overhead_ratio"] = (
            median([r["wall_s"] for r in warm]) / median([r["wall_s"] for r in plain])
        )
        log(f"run_mix drive paths (design/path/gate reason): {warm[0]['paths']}; "
            f"trace_overhead_ratio {layers['trace_overhead_ratio']:.3f}")
        if self.workload == "grid-service":
            layers.update(self.drift_probe(cache, reference))
        maps, reuses = layers["store.maps"], layers["store.map_reuses"]
        layers["store.reuse_ratio"] = reuses / (maps + reuses) if maps + reuses else 0.0
        return layers, traced_passes

    def drift_probe(self, cache: str, reference: dict) -> Dict[str, float]:
        """Two traced drains on one freshly booted pool."""
        pool = self.boot_pool(cache)
        drains = []
        for index in (1, 2):
            record = self.drive(f"drain{index}", cache, trace=True, address=pool.address)
            self.check(record, reference)
            self.keep(record)
            if "error" in record:
                raise RuntimeError(record["error"])
            drains.append(record["drain"])
        self.stop_pool(pool)
        latency = [x for d in drains for x in d["latency_s"]]
        waits = [x for d in drains for x in d["queue_wait_s"]]
        last = drains[-1]["status"]
        log(f"service: {len(latency)} unit samples over {len(drains)} drains")
        return {
            "service.boot_s": pool.boot_s,
            "service.unit_latency_s_p50": percentile(latency, 50),
            "service.unit_latency_s_p85": percentile(latency, 85),
            "service.queue_wait_s_p50": percentile(waits, 50),
            "service.busy_ratio": sum(d["busy_s"] for d in drains)
            / (last["workers"] * sum(d["wall_s"] for d in drains)),
            "service.tail_s": median([d["tail_s"] for d in drains]),
            "service.jobs": last["jobs"],
            "service.restarts": last["restarts"],
            "service.worker_peak_rss_mb": last["peak_rss_mb"],
            "service.drift_ratio": drains[1]["wall_s"] / drains[0]["wall_s"],
            "service.worker_rss_mb.drain1": drains[0]["status"]["peak_rss_mb"],
            "service.worker_rss_mb.drain2": drains[1]["status"]["peak_rss_mb"],
            "store.maps": sum(d["maps"] for d in drains),
            "store.map_reuses": sum(d["map_reuses"] for d in drains),
            "store.mapped_mb": last["mapped_mb"],
        }


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed passes run (medians are reported)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(spec.SRC, "repro")):
        print(f"perfbench: no program sources at {spec.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, spec.SRC)
    digest = _src_digest()
    host = host_facts(digest)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), digest)
    trace_passes: List[dict] = []
    try:
        if args.trace:
            values, trace_passes = run.traced()
            units = per_layer_units()
        else:
            values = run.end_to_end()
            units = END_TO_END_UNITS
    finally:
        run.close()
    host["loadavg_after"] = list(os.getloadavg())
    nproc = len(host["affinity"])
    host["loaded"] = max(host["loadavg_before"][0], host["loadavg_after"][0]) > nproc
    if host["loaded"]:
        log(f"WARNING: load average above nproc={nproc}: {host['loadavg_after']}")
    failed = len(run.failures)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "metrics": values, "failures": run.failures,
        "passes": run.passes,
    }
    with open(os.path.join(run.out_dir, f"{run.tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if trace_passes:
        with open(os.path.join(run.out_dir, f"{run.tag}.trace.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(spans.chrome_trace(trace_passes), handle)
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
