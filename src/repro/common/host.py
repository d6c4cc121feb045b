"""Facts about the host the simulation runs on."""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs this process may run on.

    The scheduler affinity mask where the platform exposes one (a
    container or ``taskset`` can restrict it well below the machine's
    CPU count), else ``os.cpu_count()``; at least 1.
    """
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        return max(1, len(sched_getaffinity(0)))
    return os.cpu_count() or 1
