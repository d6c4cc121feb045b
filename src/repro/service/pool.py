"""Resident worker pool: boot once, drain jobs at near-zero overhead.

The one-shot runner pool (``repro.harness.runner``, ``--jobs N``) pays
interpreter spawn + ``import repro`` + trace/translated/opstream cache
re-warm for every sweep.  :class:`WorkerPool` spawns N workers *once*:
each worker pre-imports the simulation stack, then loops on a duplex
pipe executing :class:`repro.service.jobs.Unit` payloads until told to
stop.  The process-wide resident caches (compiled traces, translated
index columns, op streams) warm on first touch and stay hot, so every
job after the first costs only a pipe round-trip plus the simulation
itself.

**Crash recovery.**  The supervisor waits on each worker's pipe *and*
its process sentinel.  A worker that dies mid-job (OOM-kill, segfault,
``os._exit`` from experiment code) is detected immediately: the pool
respawns a fresh worker and re-issues the lost unit.  Units carry all
of their inputs (module, kwargs, shard key) and experiments seed
explicitly, so the retry is byte-identical to a first run.  A unit
that kills its worker more than ``max_crash_retries`` times is judged
poisonous and fails with an error result instead of crash-looping the
pool.

**Accounting.**  Each job result carries the worker's cache-counter
deltas (:func:`repro.service.jobs.cache_delta`) plus its current
memory gauges (peak RSS, bytes mapped through the artifact store); the
supervisor folds the deltas into per-worker totals - boot/warm
seconds, jobs drained, busy seconds, memory/disk hits per cache layer -
and keeps the latest gauges, all surfaced through
:meth:`WorkerPool.worker_stats` (and from there the runner JSON
summary and the service ``/status`` endpoint, where mapped bytes shared
across the pool make the mmap store's N-way memory win observable).

Threading model: one daemon dispatcher thread owns the workers; public
methods only touch the job queue / result queue under a lock, and a
socketpair wakes the dispatcher so submit latency is microseconds, not
a poll interval.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import Dict, List, Optional, Sequence, Tuple

from . import jobs as jobs_mod
from .jobs import Unit

#: Modules every worker imports at boot, before its first job: the full
#: simulation stack, so no job ever pays first-import cost.  Modules
#: that fail to import (e.g. numpy-less hosts for the op-stream replay)
#: are skipped and listed in the worker's boot info.
DEFAULT_WARM_MODULES: Tuple[str, ...] = (
    "repro.hierarchy.simulator",
    "repro.trace.compiled",
    "repro.trace.translated",
    "repro.trace.workloads",
    "repro.crypto.prince",
    "repro.crypto.randomizer",
    "repro.engine.opstream",
    "repro.engine.vector",
    "repro.harness.presets",
    "repro.security.campaign",
)

#: A unit that killed its worker this many times is poisonous: it gets
#: an error result instead of another retry.
DEFAULT_MAX_CRASH_RETRIES = 2


@dataclass
class ResultMessage:
    """One completed (or failed) unit, as delivered to the consumer."""

    job_id: str
    payload: object
    seconds: float
    error: Optional[str]
    worker: int
    crashes: int = 0


@dataclass
class _WorkerHandle:
    index: int
    process: multiprocessing.Process
    conn: object
    ready: bool = False
    dead: bool = False
    inflight: Optional[Tuple[str, Unit]] = None
    boot: Dict[str, object] = field(default_factory=dict)
    jobs_done: int = 0
    busy_seconds: float = 0.0
    restarts: int = 0
    caches: Dict[str, Dict[str, float]] = field(default_factory=dict)
    memory: Dict[str, int] = field(default_factory=dict)


def _worker_main(conn, index: int, warm_modules: Sequence[str]) -> None:
    """Worker process: warm once, then drain units until stopped."""
    start = time.perf_counter()
    warmed, skipped = [], []
    for name in warm_modules:
        try:
            importlib.import_module(name)
            warmed.append(name)
        except Exception:  # noqa: BLE001 - optional stacks may be absent
            skipped.append(name)
    boot = {
        "pid": os.getpid(),
        "warm_seconds": round(time.perf_counter() - start, 4),
        "warmed_modules": len(warmed),
        "skipped_modules": skipped,
        "memory": jobs_mod.memory_info(),
    }
    try:
        conn.send(("ready", boot))
        while True:
            message = conn.recv()
            if message is None or message[0] == "stop":
                break
            _, job_id, unit = message
            before = jobs_mod.cache_snapshot()
            payload, seconds, error = jobs_mod.execute(unit)
            delta = jobs_mod.cache_delta(before, jobs_mod.cache_snapshot())
            # Fresh memory gauges ride along with every completion so
            # the supervisor's /status report (peak RSS, live mapped
            # bytes) tracks the worker without an extra round-trip.
            conn.send(("done", job_id, payload, seconds, error, delta, jobs_mod.memory_info()))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # supervisor went away or we were interrupted: just exit
    finally:
        try:
            conn.close()
        except OSError:
            pass


class WorkerPool:
    """Supervise N resident workers over ``multiprocessing`` pipes."""

    def __init__(
        self,
        workers: int = 2,
        warm_modules: Optional[Sequence[str]] = None,
        max_crash_retries: int = DEFAULT_MAX_CRASH_RETRIES,
        context: Optional[multiprocessing.context.BaseContext] = None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.size = workers
        self._warm_modules = tuple(
            DEFAULT_WARM_MODULES if warm_modules is None else warm_modules
        )
        self._max_crash_retries = max_crash_retries
        self._ctx = context or multiprocessing.get_context()
        self._workers: List[_WorkerHandle] = []
        self._queue: "List[Tuple[str, Unit]]" = []
        self._results: "queue.Queue[ResultMessage]" = queue.Queue()
        self._crashes: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)  # notified when all drained
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._stop = False
        self._draining = False
        self._restarts_total = 0
        self._started = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started:
            return self
        self._started = True
        for index in range(self.size):
            self._workers.append(self._spawn(index))
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-pool-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=exc == (None, None, None))

    def _spawn(self, index: int, restarts: int = 0) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, index, self._warm_modules),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # our copy; the child keeps its own end
        return _WorkerHandle(
            index=index, process=process, conn=parent_conn, restarts=restarts
        )

    # -- public API --------------------------------------------------------

    def submit(self, unit: Unit) -> str:
        """Queue one unit; returns its job id immediately."""
        with self._lock:
            if self._stop or self._draining:
                raise RuntimeError("pool is shutting down; submission refused")
            self._queue.append((unit.job_id, unit))
        self._wake()
        return unit.job_id

    def submit_many(self, units: Sequence[Unit]) -> List[str]:
        with self._lock:
            if self._stop or self._draining:
                raise RuntimeError("pool is shutting down; submission refused")
            self._queue.extend((u.job_id, u) for u in units)
        self._wake()
        return [u.job_id for u in units]

    @property
    def results(self) -> "queue.Queue[ResultMessage]":
        """Completed units, in completion order (thread-safe queue)."""
        return self._results

    def next_result(self, timeout: Optional[float] = None) -> ResultMessage:
        return self._results.get(timeout=timeout)

    def pending(self) -> int:
        """Units queued or in flight."""
        with self._lock:
            return len(self._queue) + sum(
                1 for w in self._workers if w.inflight is not None
            )

    def inflight_pids(self) -> Dict[str, int]:
        """job_id -> worker pid for units currently executing (tests)."""
        with self._lock:
            return {
                w.inflight[0]: w.process.pid
                for w in self._workers
                if w.inflight is not None and w.process.pid is not None
            }

    def drain(self, deadline: Optional[float] = None) -> bool:
        """Block until every submitted unit completed; False on timeout."""
        limit = None if deadline is None else time.monotonic() + deadline
        with self._idle:
            while True:
                busy = bool(self._queue) or any(
                    w.inflight is not None for w in self._workers
                )
                if not busy:
                    return True
                remaining = None if limit is None else limit - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=0.5 if remaining is None else min(0.5, remaining))

    def shutdown(self, drain: bool = True, deadline: Optional[float] = None) -> bool:
        """Stop the pool.  ``drain=True`` finishes submitted work first
        (up to ``deadline`` seconds); returns False if the deadline
        expired and in-flight work was abandoned."""
        finished = True
        with self._lock:
            self._draining = True
        if drain and self._started:
            finished = self.drain(deadline)
        with self._lock:
            self._stop = True
            abandoned = [job_id for job_id, _ in self._queue]
            self._queue.clear()
        self._wake()
        for job_id in abandoned:
            self._results.put(
                ResultMessage(job_id, None, 0.0, "pool shut down before execution", -1)
            )
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        for worker in self._workers:
            if worker.inflight is not None:
                job_id, _ = worker.inflight
                self._results.put(
                    ResultMessage(
                        job_id, None, 0.0, "pool shut down mid-job (drain deadline)", worker.index
                    )
                )
                worker.inflight = None
            self._terminate(worker)
        for sock in (self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:
                pass
        return finished

    def worker_stats(self) -> List[Dict[str, object]]:
        """Per-worker accounting for /status and the runner summary."""
        with self._lock:
            stats = []
            for w in self._workers:
                trace = w.caches.get("trace", {})
                resident_hits = sum(
                    layer.get("memory_hits", 0) for layer in w.caches.values()
                )
                # Last-reported memory gauges (from the newest "done"
                # message; the boot report before the first job).
                memory = dict(w.memory) or dict(w.boot.get("memory") or {})
                stats.append(
                    {
                        "worker": w.index,
                        "pid": w.process.pid,
                        "alive": w.process.is_alive(),
                        "restarts": w.restarts,
                        "jobs": w.jobs_done,
                        "busy_seconds": round(w.busy_seconds, 4),
                        "boot": dict(w.boot),
                        "caches": {k: dict(v) for k, v in w.caches.items()},
                        "resident_memory_hits": resident_hits,
                        "warm_compiles": trace.get("compiles", 0),
                        "memory": memory,
                        "peak_rss_kb": memory.get("peak_rss_kb", 0),
                        "mapped_bytes": memory.get("mapped_bytes", 0),
                    }
                )
            return stats

    @property
    def restarts(self) -> int:
        with self._lock:
            return self._restarts_total

    # -- dispatcher internals ----------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"x")
        except OSError:
            pass

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._stop:
                    break
                self._assign_locked()
                waitables = {self._wake_recv: None}
                for w in self._workers:
                    waitables[w.conn] = w
                    waitables[w.process.sentinel] = w
            try:
                ready = _mp_wait(list(waitables), timeout=0.5)
            except OSError:
                ready = []
            for obj in ready:
                worker = waitables[obj]
                if worker is None:
                    try:
                        while self._wake_recv.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                elif isinstance(obj, int):  # process sentinel: worker died
                    # Drain any result it managed to send before dying,
                    # then recover.  The dead-flag makes the pipe-EOF
                    # and sentinel paths idempotent for one death.
                    try:
                        while not worker.dead and worker.conn.poll():
                            self._handle_message(worker)
                    except OSError:
                        pass
                    self._handle_death(worker)
                else:
                    self._handle_message(worker)
        # stopped: close connections so workers exit their recv loops
        with self._lock:
            workers = list(self._workers)
        for w in workers:
            try:
                w.conn.send(("stop",))
            except OSError:
                pass

    def _assign_locked(self) -> None:
        for worker in self._workers:
            if not self._queue:
                break
            if not worker.ready or worker.dead or worker.inflight is not None:
                continue
            if not worker.process.is_alive():
                continue
            job_id, unit = self._queue.pop(0)
            try:
                worker.conn.send(("job", job_id, unit))
                worker.inflight = (job_id, unit)
            except (OSError, ValueError):
                self._queue.insert(0, (job_id, unit))

    def _handle_message(self, worker: _WorkerHandle) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._handle_death(worker)
            return
        kind = message[0]
        if kind == "ready":
            with self._lock:
                worker.ready = True
                worker.boot = message[1]
            self._wake()  # there may be queued work waiting for capacity
        elif kind == "done":
            _, job_id, payload, seconds, error, delta, memory = message
            with self._idle:
                worker.inflight = None
                worker.jobs_done += 1
                worker.busy_seconds += seconds
                jobs_mod.accumulate_caches(worker.caches, delta)
                worker.memory = dict(memory)
                self._idle.notify_all()
            self._results.put(
                ResultMessage(
                    job_id, payload, seconds, error, worker.index,
                    crashes=self._crashes.get(job_id, 0),
                )
            )

    def _handle_death(self, worker: _WorkerHandle) -> None:
        """A worker died: re-issue its in-flight unit, respawn it."""
        with self._lock:
            if worker.dead:
                return  # pipe-EOF and sentinel both fired for one death
            worker.dead = True
            lost = worker.inflight
            worker.inflight = None
            stopping = self._stop
        self._terminate(worker)
        poisoned: Optional[Tuple[str, str]] = None
        if lost is not None:
            job_id, unit = lost
            crashes = self._crashes.get(job_id, 0) + 1
            self._crashes[job_id] = crashes
            if crashes > self._max_crash_retries:
                poisoned = (
                    job_id,
                    f"unit crashed its worker {crashes} times "
                    f"(exitcode {worker.process.exitcode}); giving up",
                )
            else:
                with self._lock:
                    self._queue.insert(0, (job_id, unit))
        if poisoned is not None:
            job_id, reason = poisoned
            self._results.put(
                ResultMessage(
                    job_id, None, 0.0, reason, worker.index,
                    crashes=self._crashes.get(job_id, 0),
                )
            )
            with self._idle:
                self._idle.notify_all()
        if not stopping:
            replacement = self._spawn(worker.index, restarts=worker.restarts + 1)
            with self._lock:
                self._restarts_total += 1
                self._workers[worker.index] = replacement

    def _terminate(self, worker: _WorkerHandle) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=2.0)
