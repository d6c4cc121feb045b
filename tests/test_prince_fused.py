"""Differential gate: fused-table PRINCE kernel vs the scalar oracle.

The production cipher evaluates every round through fused position
tables (S-box + M' + ShiftRows folded into 8 lookups); the original
per-nibble interpreter is retained verbatim in ``repro.reference.prince``.
Every block the fused kernel produces must be bit-identical to the
oracle's — on the published test vectors, on randomized blocks and
keys, through the batch entry points, and under the structural
properties (decrypt round-trip, alpha-reflection) the cipher guarantees.
"""

import random
from array import array

import pytest

from repro.crypto.prince import (
    ALPHA,
    ROUND_CONSTANTS,
    TEST_VECTORS,
    Prince,
    _core,
    _fuse_schedule,
    _fused_block,
)
from repro.reference.prince import ScalarPrince
from repro.reference.prince import _core as scalar_core


class TestPublishedVectors:
    def test_fused_encrypt_matches_vectors(self):
        for plaintext, k0, k1, ciphertext in TEST_VECTORS:
            cipher = Prince((k0 << 64) | k1)
            assert cipher.encrypt(plaintext) == ciphertext
            assert cipher.decrypt(ciphertext) == plaintext

    def test_scalar_oracle_matches_vectors(self):
        # The oracle itself must stay anchored to the published values,
        # otherwise fused-vs-oracle equality proves nothing.
        for plaintext, k0, k1, ciphertext in TEST_VECTORS:
            oracle = ScalarPrince((k0 << 64) | k1)
            assert oracle.encrypt(plaintext) == ciphertext
            assert oracle.decrypt(ciphertext) == plaintext

    def test_batch_entry_point_matches_vectors(self):
        for plaintext, k0, k1, ciphertext in TEST_VECTORS:
            cipher = Prince((k0 << 64) | k1)
            assert list(cipher.encrypt_many(array("Q", [plaintext]))) == [ciphertext]


class TestScalarOracleEquivalence:
    def test_random_blocks_match_oracle(self):
        # >= 10^4 randomized blocks across several random keys.
        rng = random.Random(0xF0E1)
        for _ in range(4):
            key = rng.getrandbits(128)
            fused, oracle = Prince(key), ScalarPrince(key)
            blocks = array("Q", (rng.getrandbits(64) for _ in range(2600)))
            expected = [oracle.encrypt(b) for b in blocks]
            assert list(fused.encrypt_many(blocks)) == expected
            for b, e in zip(blocks[:64], expected[:64]):
                assert fused.encrypt(b) == e

    def test_decrypt_matches_oracle(self):
        rng = random.Random(0xD0D0)
        key = rng.getrandbits(128)
        fused, oracle = Prince(key), ScalarPrince(key)
        blocks = array("Q", (rng.getrandbits(64) for _ in range(500)))
        assert list(fused.decrypt_many(blocks)) == [oracle.decrypt(b) for b in blocks]

    def test_structured_blocks_match_oracle(self):
        # Line-address-shaped inputs (small integers, SDID-tweaked high
        # bits) — the values the randomizer actually encrypts.
        key = 0x0123456789ABCDEF_FEDCBA9876543210
        fused, oracle = Prince(key), ScalarPrince(key)
        blocks = array(
            "Q",
            [addr ^ (sdid << 56) for addr in range(0, 4000, 7) for sdid in (0, 1, 7)],
        )
        assert list(fused.encrypt_many(blocks)) == [oracle.encrypt(b) for b in blocks]

    def test_core_matches_scalar_core(self):
        rng = random.Random(0xC0)
        for _ in range(50):
            state, k1 = rng.getrandbits(64), rng.getrandbits(64)
            assert _core(state, k1) == scalar_core(state, k1)


class TestCipherProperties:
    def test_roundtrip_random_blocks(self):
        rng = random.Random(42)
        key = rng.getrandbits(128)
        cipher = Prince(key)
        blocks = array("Q", (rng.getrandbits(64) for _ in range(1000)))
        assert cipher.decrypt_many(cipher.encrypt_many(blocks)) == blocks
        for b in blocks[:32]:
            assert cipher.decrypt(cipher.encrypt(b)) == b

    def test_alpha_reflection(self):
        # D_{k0||k0'||k1} == E_{k0'||k0||k1^alpha}: the defining FX
        # structure.  Build the reflected *encryption* schedule by hand
        # (swapped whitening keys, k1 ^ alpha) and check that running
        # it through the fused kernel decrypts the forward ciphertext.
        from repro.crypto.prince import _whitening_key

        rng = random.Random(7)
        for _ in range(20):
            k0, k1 = rng.getrandbits(64), rng.getrandbits(64)
            forward = Prince((k0 << 64) | k1)
            block = rng.getrandbits(64)
            ciphertext = forward.encrypt(block)
            reflected = [rc ^ k1 ^ ALPHA for rc in ROUND_CONSTANTS]
            reflected[0] ^= _whitening_key(k0)  # in-whitening: k0'
            reflected[11] ^= k0  # out-whitening: k0
            assert tuple(reflected) == forward._dec_schedule
            assert _fused_block(ciphertext, _fuse_schedule(reflected)) == block

    def test_core_alpha_reflection(self):
        rng = random.Random(9)
        for _ in range(20):
            state, k1 = rng.getrandbits(64), rng.getrandbits(64)
            assert _core(_core(state, k1), k1 ^ ALPHA) == state

    def test_fused_schedule_transforms_back_half_only(self):
        schedule = tuple(ROUND_CONSTANTS)
        fused = _fuse_schedule(schedule)
        assert fused[:6] == schedule[:6]
        assert fused[11] == schedule[11]
        assert all(fused[i] != schedule[i] for i in range(6, 11))

    def test_fused_block_rejects_nothing_silently(self):
        # The kernel is pure: same schedule, same block, same output.
        ks = _fuse_schedule(tuple(ROUND_CONSTANTS))
        assert _fused_block(0x1234, ks) == _fused_block(0x1234, ks)


class TestBatchEdgeCases:
    def test_empty_batch(self):
        cipher = Prince(1)
        out = cipher.encrypt_many(array("Q"))
        assert isinstance(out, array) and out.typecode == "Q" and len(out) == 0

    def test_list_input(self):
        cipher = Prince(99)
        blocks = [0, 1, 2**63, 2**64 - 1]
        assert list(cipher.encrypt_many(blocks)) == [cipher.encrypt(b) for b in blocks]

    def test_batch_output_is_independent_array(self):
        cipher = Prince(5)
        blocks = array("Q", [10, 20])
        out = cipher.encrypt_many(blocks)
        assert out is not blocks
        assert blocks == array("Q", [10, 20])  # input untouched

    def test_key_validation_unchanged(self):
        with pytest.raises(ValueError):
            Prince(1 << 128)
        with pytest.raises(ValueError):
            ScalarPrince(-1)


class TestNumpyBatchKernel:
    """The numpy gather kernel must be bit-exact with the Python loop."""

    def test_numpy_kernel_matches_python_loop(self):
        from repro.crypto.prince import _fused_many, _fused_many_numpy

        cipher = Prince((0xDEADBEEF << 64) | 0x12345678)
        rng = random.Random(99)
        blocks = array("Q", [rng.getrandbits(64) for _ in range(4096)])
        assert _fused_many_numpy(blocks, cipher._enc_fused) == _fused_many(
            blocks, cipher._enc_fused
        )
        assert _fused_many_numpy(blocks, cipher._dec_fused) == _fused_many(
            blocks, cipher._dec_fused
        )

    def test_large_batch_vectors_through_public_api(self):
        from repro.crypto.prince import NUMPY_BATCH_THRESHOLD

        for pt, k0, k1, ct in TEST_VECTORS:
            cipher = Prince((k0 << 64) | k1)
            n = NUMPY_BATCH_THRESHOLD + 7
            assert set(cipher.encrypt_many(array("Q", [pt] * n))) == {ct}
            assert set(cipher.decrypt_many(array("Q", [ct] * n))) == {pt}

    def test_threshold_boundary_agrees(self):
        from repro.crypto.prince import NUMPY_BATCH_THRESHOLD, _fused_many

        cipher = Prince(7)
        rng = random.Random(3)
        for n in (NUMPY_BATCH_THRESHOLD - 1, NUMPY_BATCH_THRESHOLD):
            blocks = array("Q", [rng.getrandbits(64) for _ in range(n)])
            assert cipher.encrypt_many(blocks) == _fused_many(blocks, cipher._enc_fused)

    def test_numpy_input_accepted(self):
        np = pytest.importorskip("numpy")
        from repro.crypto.prince import _fused_many

        cipher = Prince(7)
        rng = random.Random(5)
        ints = [rng.getrandbits(64) for _ in range(1024)]
        out = cipher.encrypt_many(np.array(ints, dtype=np.uint64))
        assert out == _fused_many(array("Q", ints), cipher._enc_fused)
