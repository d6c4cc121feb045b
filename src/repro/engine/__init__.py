"""Drive-path machinery behind ``run_mix``.

* :mod:`repro.engine.opstream` - stage 1 of the op-stream replay:
  per-core private-level pre-simulation into cached op streams.
* :mod:`repro.engine.vector` - stage 2: the op-stream replay, which
  runs every op through the LLC's ``access_fast`` step on an exact
  integer clock grid.
* :mod:`repro.engine.kernels` - numpy pre-passes for the replay setup
  (batch splitmix index derivation).
* :mod:`repro.engine.specialize` - the drive-path provenance
  ``run_mix`` records (no code generation).

Each LLC design has one hand-written ``access_fast`` step, built when
the cache is constructed; its oracle is the object model in
:mod:`repro.reference`.  ``run_mix`` has one fast path (the op-stream
replay) and one drive-path oracle (the per-access drive), which is
also the fallback for configurations the replay gates out.
"""
