"""Drive-path provenance for ``run_mix`` (no code generation).

Maya, Mirage, the set-associative cache, CEASER, CEASER-S/Scatter and
the fully-associative cache each build one hand-written ``access_fast``
step when they are constructed, so there is nothing to generate or
compile per configuration.  This module keeps only the two
names the benchmark harness (``perfbench/drive.py`` and
``perfbench/spans.py``) imports: :func:`apply_specialization`, which
``run_mix`` calls to record whether the LLC runs a packed step, and
:func:`specialize_cache_info`, which always reports zero compiles.
"""

from __future__ import annotations

from typing import NamedTuple


class SpecializeCacheInfo(NamedTuple):
    """Compile counter (always zero: no code is generated)."""

    compiles: int = 0


def specialize_cache_info() -> SpecializeCacheInfo:
    return SpecializeCacheInfo()


def apply_specialization(llc) -> dict:
    """The ``llc``/``llc_reason`` keys of ``MixResult.specialize_info``.

    ``llc`` names the design when it runs an ``access_fast`` step;
    otherwise it is ``None`` and ``llc_reason`` says why.
    """
    name = type(llc).__name__
    if hasattr(llc, "access_fast"):
        return {"llc": name, "llc_reason": None}
    return {"llc": None, "llc_reason": f"{name} has no access_fast step"}
