"""Drive-path machinery behind ``run_mix``.

* :mod:`repro.engine.specialize` - config-specialized ``access_fast``
  steps, rendered from templates and exec-compiled per configuration.
* :mod:`repro.engine.opstream` - stage 1 of the op-stream replay:
  per-core private-level pre-simulation into cached op streams.
* :mod:`repro.engine.vector` - stage 2: the op-stream replay, which
  runs every op through the LLC's (specialized) step on an exact
  integer clock grid.
* :mod:`repro.engine.kernels` - numpy pre-passes for the replay setup
  (batch splitmix index derivation).

``run_mix`` has one fast path (the op-stream replay) and one oracle
(the per-access drive under ``specialize=False``); the per-access
drive is also the fallback for configurations the replay gates out.
"""
