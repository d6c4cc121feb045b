"""Randomized set-index functions built on PRINCE.

Every randomized LLC in this library (CEASER, CEASER-S, Scatter-Cache,
Mirage, Maya) derives its set indices here.  The mapping follows the
designs' published structure:

* **CEASER** encrypts the line address under a single key and uses the
  low ciphertext bits as the set index (the whole encrypted address is
  used as the stored tag).
* **Skewed designs** (CEASER-S, Scatter-Cache, Mirage, Maya) need one
  *independent* index per skew and, for Scatter-Cache/Maya, the index
  must also depend on the security-domain ID (SDID) so that different
  domains see unrelated mappings of the same address.  We derive skew
  ``s``'s index by encrypting ``line_addr`` under a key tweaked by the
  pair ``(skew, sdid)`` and XOR-folding the 64-bit ciphertext down to
  the set-index width.

An LRU mapping cache holds the most recent ``(line address, SDID) ->
per-skew set indices`` results: simulators look up the same hot
addresses millions of times and the cipher is the hot path, so a hit
skips the cipher entirely.  The cache is invalidated on
:meth:`IndexRandomizer.rekey` (a key/epoch change remaps everything),
which models CEASER-style remapping and Maya's boot-time/SAE-triggered
key refresh, and exposes hit/miss/invalidation counters so experiments
can report its effectiveness (see ``CacheStats.randomizer_hits``).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from array import array
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..common.bitops import fold_xor, log2_exact
from ..common.errors import ConfigurationError
from ..common.host import available_cpus
from ..common.rng import derive_seed, make_rng
from .prince import Prince

#: Default capacity of the LRU mapping cache (entries).
DEFAULT_MEMO_CAPACITY = 1 << 20

#: Default capacity of the precomputed (bulk_map / load_packed) side
#: table.  Sized to hold the per-core translated traces of a full
#: 8-core run_mix with plenty of headroom; FIFO-evicted beyond that so
#: huge traces cannot grow it without bound.
DEFAULT_PRECOMPUTED_CAPACITY = 1 << 21

#: Env var overriding the process count used by :meth:`IndexRandomizer.translate`.
TRANSLATE_JOBS_ENV = "REPRO_TRANSLATE_JOBS"

#: Minimum ``len(addrs) * skews`` before ``translate`` fans out to a
#: process pool — below this the fork/pickle overhead beats the win.
_PARALLEL_THRESHOLD = 1 << 14

_M64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: one 64-bit avalanche mix of ``x``.

    Shared by every splitmix code path (per-skew index derivation, the
    CEASER full-address permutation, and batch translation) — it was
    previously pasted inline four times.  Callers XOR the per-skew key
    in *before* mixing.
    """
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _translate_serial(
    algorithm: str, keys: Sequence[int], index_bits: int, addrs, sdid: int
) -> List[array]:
    """Per-skew packed index columns for ``addrs`` (one ``array('I')`` each).

    Module-level and dependent only on its arguments so the
    multiprocessing workers can run it from pickled state; the serial
    path uses the exact same code, which keeps parallel and serial
    translation trivially bit-identical.
    """
    tweak = sdid << 56
    tweaked = array("Q", [a ^ tweak for a in addrs]) if sdid else addrs
    bits = index_bits
    m = (1 << bits) - 1
    columns = []
    if algorithm == "prince":
        for key in keys:
            cipher = Prince(key)
            col = array("I", bytes(4 * len(addrs)))
            for i, x in enumerate(cipher.encrypt_many(tweaked)):
                f = 0
                while x:
                    f ^= x & m
                    x >>= bits
                col[i] = f
            columns.append(col)
    else:
        for key in keys:
            col = array("I", bytes(4 * len(addrs)))
            for i, a in enumerate(tweaked):
                x = splitmix64(a ^ key)
                f = 0
                while x:
                    f ^= x & m
                    x >>= bits
                col[i] = f
            columns.append(col)
    return columns


def _translate_block(args) -> List[bytes]:
    """Pool worker: translate one chunk of addresses to column bytes."""
    algorithm, keys, index_bits, sdid, blob = args
    addrs = array("Q")
    addrs.frombytes(blob)
    return [col.tobytes() for col in _translate_serial(algorithm, keys, index_bits, addrs, sdid)]


class MappingCacheInfo(NamedTuple):
    """Snapshot of the LRU mapping cache's counters."""

    hits: int
    misses: int
    invalidations: int
    size: int
    capacity: int
    #: Entries precomputed by :meth:`IndexRandomizer.bulk_map` /
    #: :meth:`IndexRandomizer.load_packed` (the side table consulted on
    #: memo misses; see their docstrings).
    precomputed: int = 0
    #: FIFO evictions from the precomputed side table (it is bounded by
    #: ``precomputed_capacity``; nonzero means a trace outgrew it).
    precomputed_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class IndexRandomizer:
    """Per-skew randomized address-to-set mapping.

    Parameters
    ----------
    skews:
        Number of independent index functions (1 for CEASER-style).
    sets_per_skew:
        Power-of-two number of sets each function maps into.
    seed:
        Deterministic seed for key generation; ``None`` uses the
        library default.
    algorithm:
        ``"prince"`` (default, the paper's cipher) or ``"splitmix"``,
        a fast keyed mixer that is *not* cryptographically strong but
        produces the same uniform index distribution.  The security
        analyses use PRINCE; the performance sweeps may use splitmix
        because only index uniformity matters there (documented in
        DESIGN.md) - the Python cipher would otherwise dominate
        simulation time.
    memo_capacity:
        Maximum entries in the LRU mapping cache; the least recently
        used mapping is evicted when the cache is full.
    precomputed_capacity:
        Maximum entries in the precomputed side table filled by
        :meth:`bulk_map` / :meth:`load_packed`; the oldest entry is
        evicted (FIFO) when it is full, so unbounded traces cannot leak
        memory across trials.
    """

    def __init__(
        self,
        skews: int,
        sets_per_skew: int,
        seed: Optional[int] = None,
        algorithm: str = "prince",
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
        precomputed_capacity: int = DEFAULT_PRECOMPUTED_CAPACITY,
    ):
        if skews < 1:
            raise ConfigurationError(f"need at least one skew, got {skews}")
        if algorithm not in ("prince", "splitmix"):
            raise ConfigurationError(f"unknown randomizer algorithm {algorithm!r}")
        if memo_capacity < 1:
            raise ConfigurationError(f"memo capacity must be positive, got {memo_capacity}")
        if precomputed_capacity < 1:
            raise ConfigurationError(
                f"precomputed capacity must be positive, got {precomputed_capacity}"
            )
        self._skews = skews
        self._index_bits = log2_exact(sets_per_skew)
        self._sets_per_skew = sets_per_skew
        self._algorithm = algorithm
        self._seed_rng = make_rng(derive_seed(seed, 0xC1F))
        self._epoch = 0
        self._ciphers: List[Prince] = []
        self._mix_keys: List[int] = []
        # LRU mapping cache: (line_addr, sdid) -> per-skew indices.
        # Plain dict in insertion order; a hit reinserts its key (O(1)
        # move-to-back), so the front is always the LRU entry.
        self._memo: dict = {}
        self._memo_capacity = memo_capacity
        # Precomputed mappings from bulk_map()/load_packed(); consulted
        # on memo misses only, so hit/miss/eviction accounting is
        # untouched.  Bounded: FIFO-evicted past precomputed_capacity.
        self._precomputed: dict = {}
        self._precomputed_capacity = precomputed_capacity
        self.precomputed_evictions = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        self.rekey()

    @property
    def skews(self) -> int:
        return self._skews

    @property
    def sets_per_skew(self) -> int:
        return self._sets_per_skew

    @property
    def memo_capacity(self) -> int:
        """Capacity of the LRU mapping cache (entries)."""
        return self._memo_capacity

    @property
    def precomputed_capacity(self) -> int:
        """Capacity of the precomputed side table (entries)."""
        return self._precomputed_capacity

    @property
    def algorithm(self) -> str:
        """The index-derivation algorithm (``"prince"`` or ``"splitmix"``)."""
        return self._algorithm

    @property
    def index_bits(self) -> int:
        """Width of each per-skew set index in bits."""
        return self._index_bits

    @property
    def epoch(self) -> int:
        """Number of rekeys performed (0 after construction is 1st key)."""
        return self._epoch

    def rekey(self) -> None:
        """Draw fresh 128-bit keys for every skew and drop the memo.

        Models the key refresh performed at boot and, per Section IV,
        after any detected SAE; also used by CEASER's periodic remap.
        """
        if self._algorithm == "prince":
            self._ciphers = [Prince(self._seed_rng.getrandbits(128)) for _ in range(self._skews)]
        else:
            self._mix_keys = [self._seed_rng.getrandbits(64) for _ in range(self._skews)]
        self._memo.clear()
        self._precomputed.clear()  # old keys -> every precomputed mapping is stale
        if self._epoch:  # the constructor's initial keying drops nothing
            self.cache_invalidations += 1
        self._epoch += 1

    def _raw_indices(self, line_addr: int, sdid: int) -> tuple:
        tweaked = line_addr ^ (sdid << 56)
        if self._algorithm == "prince":
            return tuple(
                fold_xor(self._ciphers[s].encrypt(tweaked), self._index_bits)
                for s in range(self._skews)
            )
        bits = self._index_bits
        m = (1 << bits) - 1
        if bits & (bits - 1) == 0 and len(self._mix_keys) == 2:
            # Hot specialization: two skews, power-of-two index width.
            # The XOR-fold of 64/bits equal chunks equals folding the
            # word in halves down to the chunk width (each halving XORs
            # chunk i with chunk i + span/bits), so the while-loop fold
            # below collapses to log2(64/bits) shift-XORs with an
            # identical result.
            k0, k1 = self._mix_keys
            x = splitmix64((tweaked ^ k0) & _M64)
            span = 32
            while span >= bits:
                x ^= x >> span
                span >>= 1
            f0 = x & m
            x = splitmix64((tweaked ^ k1) & _M64)
            span = 32
            while span >= bits:
                x ^= x >> span
                span >>= 1
            return (f0, x & m)
        out = []
        for key in self._mix_keys:
            x = splitmix64((tweaked ^ key) & _M64)
            # fold_xor inlined (hot path): XOR-fold 64 bits to the index width.
            f = 0
            while x:
                f ^= x & m
                x >>= bits
            out.append(f)
        return tuple(out)

    def _lookup(self, line_addr: int, sdid: int) -> tuple:
        """LRU cache lookup; computes and inserts on a miss.

        A miss first consults the :meth:`bulk_map` side table before
        paying for the cipher; either way it *counts* as a miss and
        inserts into the memo, so the memo's hit/miss/eviction
        behaviour is bit-identical with or without pre-warming.  The
        Maya and Mirage steps inline this logic; keep them in step.
        """
        memo = self._memo
        key = (line_addr, sdid)
        cached = memo.pop(key, None)
        if cached is None:
            self.cache_misses += 1
            cached = self._precomputed.get(key)
            if cached is None:
                cached = self._raw_indices(line_addr, sdid)
            if len(memo) >= self._memo_capacity:
                del memo[next(iter(memo))]  # evict the LRU entry
        else:
            self.cache_hits += 1
        memo[key] = cached  # (re)insert at the MRU position
        return cached

    def _install_precomputed(self, key, value) -> None:
        """Insert into the bounded side table, FIFO-evicting past capacity."""
        pre = self._precomputed
        if key not in pre and len(pre) >= self._precomputed_capacity:
            del pre[next(iter(pre))]
            self.precomputed_evictions += 1
        pre[key] = value

    def translate(self, line_addrs, sdid: int = 0, jobs: Optional[int] = None) -> List[array]:
        """Batch-translate addresses to per-skew packed index columns.

        Runs the batch cipher kernel (``Prince.encrypt_many`` under
        ``"prince"``) over ``line_addrs`` and returns one ``array('I')``
        of set indices per skew, ``columns[s][i] ==
        compute_indices(line_addrs[i], sdid)[s]``.  Nothing is cached
        here — feed the columns to :meth:`load_packed` (or persist them
        in the translated-trace cache) to make them visible to lookups.

        For large batches (``len * skews >=`` 16Ki) the work fans out
        across a ``multiprocessing`` pool: the cipher keys are plain
        integers, so workers rebuild the key schedule from them and
        translate disjoint address chunks.  ``jobs`` overrides the pool
        size (``1`` forces serial); the ``REPRO_TRANSLATE_JOBS`` env var
        overrides the default, the CPUs this process may run on
        (:func:`repro.common.host.available_cpus`).  Any pool failure
        degrades to the serial
        path, which is bit-identical by construction.
        """
        addrs = line_addrs if isinstance(line_addrs, array) else array("Q", line_addrs)
        keys = (
            [c.key for c in self._ciphers]
            if self._algorithm == "prince"
            else list(self._mix_keys)
        )
        if jobs is None:
            env = os.environ.get(TRANSLATE_JOBS_ENV)
            if env is not None:
                try:
                    jobs = int(env)
                except ValueError:
                    jobs = None
        if jobs is None:
            jobs = available_cpus()
        jobs = max(1, min(jobs, len(addrs)))
        if jobs > 1 and len(addrs) * self._skews >= _PARALLEL_THRESHOLD:
            try:
                chunk = (len(addrs) + jobs - 1) // jobs
                tasks = [
                    (self._algorithm, keys, self._index_bits, sdid, addrs[i : i + chunk].tobytes())
                    for i in range(0, len(addrs), chunk)
                ]
                ctx = multiprocessing.get_context("fork")
                with ctx.Pool(len(tasks)) as pool:
                    parts = pool.map(_translate_block, tasks)
                columns = []
                for s in range(self._skews):
                    col = array("I")
                    for part in parts:
                        col.frombytes(part[s])
                    columns.append(col)
                return columns
            except Exception:
                pass  # fall through to the serial path
        return _translate_serial(self._algorithm, keys, self._index_bits, addrs, sdid)

    def load_packed(self, line_addrs, columns: Sequence, sdid: int = 0) -> int:
        """Install pre-translated index columns into the side table.

        ``columns`` is what :meth:`translate` returned for these
        ``line_addrs`` (possibly loaded back from the on-disk
        translated-trace cache).  Entries land in the same bounded side
        table as :meth:`bulk_map` output, consulted by the miss path
        only, so memo accounting stays bit-identical.  Returns the
        number of entries installed.
        """
        if len(columns) != self._skews:
            raise ConfigurationError(
                f"expected {self._skews} index columns, got {len(columns)}"
            )
        install = self._install_precomputed
        added = 0
        for i, addr in enumerate(line_addrs):
            install((addr, sdid), tuple(col[i] for col in columns))
            added += 1
        return added

    def bulk_map(self, line_addrs, sdid: int = 0, jobs: Optional[int] = None) -> int:
        """Pre-warm the mapping cache: encrypt every address in one pass.

        Intended for compiled-trace replay: the drive loop knows every
        ``(line address, SDID)`` pair the run can touch up front, so the
        cipher work runs through the batch kernel (:meth:`translate` —
        fused tables, optionally a process pool) *before* the timed
        loop.  Results land in a side table consulted by the miss path
        rather than in the LRU memo itself - that keeps the memo's
        hit/miss/eviction accounting bit-identical to an unwarmed run
        while still skipping the per-miss cipher cost.  The side table
        is dropped on :meth:`rekey` like every other mapping and is
        FIFO-bounded by ``precomputed_capacity``.

        Returns the number of newly computed entries.
        """
        pre = self._precomputed
        memo = self._memo
        novel = array("Q")
        seen = set()
        for addr in line_addrs:
            key = (addr, sdid)
            if key in pre or key in memo or addr in seen:
                continue
            seen.add(addr)
            novel.append(addr)
        if not novel:
            return 0
        return self.load_packed(novel, self.translate(novel, sdid, jobs=jobs), sdid)

    def clear_precomputed(self) -> int:
        """Drop the precomputed side table; returns how many entries it held.

        The LRU memo and its counters are untouched — this only releases
        the bulk_map/load_packed memory between runs.
        """
        count = len(self._precomputed)
        self._precomputed.clear()
        return count

    def key_fingerprint(self) -> str:
        """Digest identifying the current mapping function.

        Covers the algorithm, skew count, index width, and the actual
        key material of the current epoch, so it changes on every
        :meth:`rekey` — the translated-trace cache uses it as part of
        its content key, which makes stale pretranslations (old keys)
        unreachable rather than merely invalid.
        """
        h = hashlib.sha256()
        h.update(
            f"{self._algorithm}:{self._skews}:{self._index_bits}".encode()
        )
        keys = (
            [c.key for c in self._ciphers]
            if self._algorithm == "prince"
            else self._mix_keys
        )
        for key in keys:
            h.update(key.to_bytes(16, "little"))
        return h.hexdigest()

    def set_index(self, line_addr: int, skew: int = 0, sdid: int = 0) -> int:
        """Set index of ``line_addr`` in ``skew`` for security domain ``sdid``."""
        return self._lookup(line_addr, sdid)[skew]

    def all_indices(self, line_addr: int, sdid: int = 0) -> Tuple[int, ...]:
        """Set indices of ``line_addr`` in every skew (one cipher pass each)."""
        return self._lookup(line_addr, sdid)

    def compute_indices(self, line_addr: int, sdid: int = 0) -> Tuple[int, ...]:
        """Indices recomputed from the cipher, bypassing the mapping cache.

        The differential tests cross-check the cached path against this.
        """
        return self._raw_indices(line_addr, sdid)

    def cache_info(self) -> MappingCacheInfo:
        """Counters of the LRU mapping cache."""
        return MappingCacheInfo(
            hits=self.cache_hits,
            misses=self.cache_misses,
            invalidations=self.cache_invalidations,
            size=len(self._memo),
            capacity=self._memo_capacity,
            precomputed=len(self._precomputed),
            precomputed_evictions=self.precomputed_evictions,
        )

    def encrypt_address(self, line_addr: int, skew: int = 0) -> int:
        """Full 64-bit encrypted address (CEASER stores this as the tag).

        Uses the cipher under ``"prince"``; under ``"splitmix"`` it is
        the 64-bit mixer output (a bijection, so the CEASER model's
        one-to-one mapping argument still holds).
        """
        if self._algorithm == "prince":
            return self._ciphers[skew].encrypt(line_addr)
        return splitmix64((line_addr ^ self._mix_keys[skew]) & _M64)
