"""A faster bucket-and-balls engine for long security runs.

The reference :class:`~repro.security.buckets.BucketAndBallsModel` is
written for clarity and invariant checking.  The paper's experiments
run 10^12 iterations on a cluster; every multiple helps anyone
studying tail behaviour on a laptop.

This engine executes the *same* three-event iteration (Fig. 5) with
the ball add/remove primitives fully inlined in the hot loop and no
scan over a ball pool anywhere:

* **Per-bucket position index.**  For every bucket the engine keeps
  the list of its slots in the priority-0 and priority-1 pools.
  Every append and every swap-remove updates it, so a spill finds its
  victim as ``min`` of the bucket's slots - exactly the first
  occurrence the reference's ``list.index`` scan returns - in
  O(capacity) instead of O(pool).
* **Column-wise precompute.**  All random draws are pre-generated per
  chunk with numpy (the ball-pool sizes follow a fixed schedule within
  an iteration, so every pick index is known up front); the second
  candidate bucket, the tie booleans and the five pick indices are
  computed column-wise in numpy, and the loop zips over plain lists.

The random stream, spill victims and pool order are unchanged from
the previous fast engine, which scanned the pool on a spill.  The
stream still differs from the reference's, so statistics match the
reference distributionally - the tests cross-validate spill rates and
occupancy histograms - not draw for draw.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..common.rng import derive_seed
from .buckets import BucketAndBallsModel, BucketModelConfig, BucketModelResult

#: Iterations of pre-generated randomness per refill.
CHUNK = 8192


def _slot_index(balls: List[int], buckets: int) -> List[List[int]]:
    """Per bucket, the slots its balls occupy in ``balls``."""
    index: List[List[int]] = [[] for _ in range(buckets)]
    for slot, bucket in enumerate(balls):
        index[bucket].append(slot)
    return index


class FastBucketAndBallsModel(BucketAndBallsModel):
    """Drop-in replacement with a batched-randomness ``run``."""

    def __init__(self, config: Optional[BucketModelConfig] = None):
        super().__init__(config)
        self._np_rng = np.random.default_rng(derive_seed(self.config.seed, 0xFA57))
        if self.config.skews == 2:
            n = self.config.total_buckets
            self._p0_slots = _slot_index(self._p0_balls, n)
            self._p1_slots = _slot_index(self._p1_balls, n)

    def run(self, iterations: int, sample_every: int = 1) -> BucketModelResult:
        cfg = self.config
        if cfg.skews != 2:
            # The inlined fast path is written for the paper's 2 skews.
            return super().run(iterations, sample_every)
        self._check_run_args(iterations, sample_every)
        buckets = cfg.buckets_per_skew
        capacity = -1 if cfg.bucket_capacity is None else cfg.bucket_capacity
        load_aware = cfg.skew_policy == "load_aware"

        total = self._total
        p0_count = self._p0_count
        p1_count = self._p1_count
        p0 = self._p0_balls
        p1 = self._p1_balls
        p0_slots = self._p0_slots
        p1_slots = self._p1_slots
        evict_spill_victim = self._evict_spill_victim
        hist = self._hist
        hist_accum = self._hist_accum
        hist_len = len(hist)
        # Pool sizes at the start of every iteration (they are conserved).
        P0 = len(p0)
        P1 = len(p1)
        spills = self.spills
        throws = self.throws
        iterations_run = self.iterations_run
        samples = self._samples

        # Every random swap-remove below pops the last slot of a pool
        # whose size the iteration's schedule fixes (P0, P0 - 1 or P1).
        # Removing slot k moves the ball in that last slot into k, so the
        # index drops k from the victim's list and renames the last slot
        # to k in the moved ball's list (one list when they share a bucket).
        done = 0
        while done < iterations:
            n = min(CHUNK, iterations - done)
            draws = self._np_rng.integers(0, buckets, size=(n, 4))
            ties = self._np_rng.random(size=(n, 2)) < 0.5
            rem = self._np_rng.random(size=(n, 5))
            columns = (
                draws[:, 0],
                draws[:, 1] + buckets,
                ties[:, 0],
                (rem[:, 0] * (P0 + 1)).astype(np.int64),
                (rem[:, 1] * P0).astype(np.int64),
                (rem[:, 2] * (P1 + 1)).astype(np.int64),
                draws[:, 2],
                draws[:, 3] + buckets,
                ties[:, 1],
                (rem[:, 3] * (P1 + 1)).astype(np.int64),
                (rem[:, 4] * (P0 + 1)).astype(np.int64),
            )
            for ba, bb, tie, k0, k1, k2, wa, wb, wtie, k3, k4 in zip(
                *(column.tolist() for column in columns)
            ):
                # ---- demand tag miss (Fig. 5a): throw p0, evict p0 ----
                if load_aware:
                    la = total[ba]
                    lb = total[bb]
                    bucket = ba if (la < lb or (la == lb and tie)) else bb
                else:
                    bucket = ba if tie else bb
                throws += 1
                if total[bucket] == capacity:
                    spills += 1
                    spilled_p0 = evict_spill_victim(bucket)
                else:
                    spilled_p0 = None
                    t = total[bucket]
                    hist[t] -= 1
                    total[bucket] = t + 1
                    hist[t + 1] += 1
                # insert the new p0 ball
                p0_count[bucket] += 1
                p0_slots[bucket].append(len(p0))
                p0.append(bucket)
                if spilled_p0 is not True:
                    # p0 holds P0 + 1 balls: evict one (None) or, when
                    # the spill took a p1, upgrade one in its place.
                    b = p0[k0]
                    last = p0.pop()
                    p0_slots[b].remove(k0)
                    if k0 < P0:
                        p0[k0] = last
                        moved = p0_slots[last]
                        moved[moved.index(P0)] = k0
                    p0_count[b] -= 1
                    if spilled_p0 is None:
                        t = total[b]
                        hist[t] -= 1
                        total[b] = t - 1
                        hist[t - 1] += 1
                    else:
                        p1_count[b] += 1
                        p1_slots[b].append(len(p1))
                        p1.append(b)

                # ---- tag hit (Fig. 5b): upgrade a p0, downgrade a p1 ----
                b = p0[k1]
                last = p0.pop()
                p0_slots[b].remove(k1)
                if k1 < P0 - 1:
                    p0[k1] = last
                    moved = p0_slots[last]
                    moved[moved.index(P0 - 1)] = k1
                p0_count[b] -= 1
                p1_count[b] += 1
                p1_slots[b].append(P1)
                p1.append(b)
                b = p1[k2]
                last = p1.pop()
                p1_slots[b].remove(k2)
                if k2 < P1:
                    p1[k2] = last
                    moved = p1_slots[last]
                    moved[moved.index(P1)] = k2
                p1_count[b] -= 1
                p0_count[b] += 1
                p0_slots[b].append(P0 - 1)
                p0.append(b)

                # ---- writeback tag miss (Fig. 5c) ----
                if load_aware:
                    la = total[wa]
                    lb = total[wb]
                    bucket = wa if (la < lb or (la == lb and wtie)) else wb
                else:
                    bucket = wa if wtie else wb
                throws += 1
                if total[bucket] == capacity:
                    spills += 1
                    spilled_p0 = evict_spill_victim(bucket)
                else:
                    spilled_p0 = None
                    t = total[bucket]
                    hist[t] -= 1
                    total[bucket] = t + 1
                    hist[t + 1] += 1
                p1_count[bucket] += 1
                p1_slots[bucket].append(len(p1))
                p1.append(bucket)
                if spilled_p0 is not False:
                    # downgrade a random p1 (pool is at P1 + 1 either way)
                    b = p1[k3]
                    last = p1.pop()
                    p1_slots[b].remove(k3)
                    if k3 < P1:
                        p1[k3] = last
                        moved = p1_slots[last]
                        moved[moved.index(P1)] = k3
                    p1_count[b] -= 1
                    p0_count[b] += 1
                    p0_slots[b].append(len(p0))
                    p0.append(b)
                    if spilled_p0 is None:
                        # global random tag eviction
                        b = p0[k4]
                        last = p0.pop()
                        p0_slots[b].remove(k4)
                        if k4 < P0:
                            p0[k4] = last
                            moved = p0_slots[last]
                            moved[moved.index(P0)] = k4
                        p0_count[b] -= 1
                        t = total[b]
                        hist[t] -= 1
                        total[b] = t - 1
                        hist[t - 1] += 1
                # spilled_p0 is False: the spill victim replaced both steps.

                iterations_run += 1
                if iterations_run % sample_every == 0:
                    for k in range(hist_len):
                        hist_accum[k] += hist[k]
                    samples += 1
            done += n

        self.spills = spills
        self.throws = throws
        self.iterations_run = iterations_run
        self._samples = samples
        return self.result()

    def _evict_spill_victim(self, bucket: int) -> bool:
        """Remove ``bucket``'s first ball in pool order; ``True`` if priority-0.

        The same victim as the reference's ``_remove_from_bucket`` (a
        priority-0 ball while the bucket holds one), found through the
        slot index.  The thrown ball lands in this bucket straight
        after, so the bucket's total and the histogram are left alone.
        """
        priority0 = self._p0_count[bucket] > 0
        if priority0:
            balls, index, counts = self._p0_balls, self._p0_slots, self._p0_count
        else:
            balls, index, counts = self._p1_balls, self._p1_slots, self._p1_count
        slots = index[bucket]
        idx = min(slots)
        last = balls.pop()
        slots.remove(idx)
        if idx < len(balls):
            balls[idx] = last
            moved = index[last]
            moved[moved.index(len(balls))] = idx
        counts[bucket] -= 1
        return priority0

    def check_invariants(self) -> None:
        super().check_invariants()
        if self.config.skews != 2:
            return
        n = self.config.total_buckets
        for name, balls, index, counts in (
            ("priority-0", self._p0_balls, self._p0_slots, self._p0_count),
            ("priority-1", self._p1_balls, self._p1_slots, self._p1_count),
        ):
            expected = _slot_index(balls, n)
            for bucket, slots in enumerate(index):
                if sorted(slots) != expected[bucket]:
                    raise AssertionError(f"{name} slot index of bucket {bucket} drifted")
                if len(slots) != counts[bucket]:
                    raise AssertionError(f"{name} slot index of bucket {bucket} miscounts")
