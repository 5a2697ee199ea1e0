"""One-time signature scheme: sign/verify and exhaustion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failsafe.crypto import (
    KeyExhausted,
    PqKeyPair,
    PqSignature,
    pq_verify,
)
from failsafe.crypto.keccak import keccak256
from oracles import reference_pq_verify


def _rng(seed: int = 7) -> random.Random:
    return random.Random(seed)


def test_sign_verify_roundtrip():
    key = PqKeyPair.generate(_rng())
    digest = keccak256(b"payload")
    sig = key.sign(digest)
    assert pq_verify(key.public, digest, sig)


def test_wrong_digest_rejected():
    key = PqKeyPair.generate(_rng())
    sig = key.sign(keccak256(b"payload"))
    assert not pq_verify(key.public, keccak256(b"other"), sig)


def test_wrong_key_rejected():
    signer = PqKeyPair.generate(_rng(1))
    other = PqKeyPair.generate(_rng(2))
    digest = keccak256(b"payload")
    sig = signer.sign(digest)
    assert not pq_verify(other.public, digest, sig)


def test_tampered_preimage_rejected():
    key = PqKeyPair.generate(_rng())
    digest = keccak256(b"payload")
    sig = key.sign(digest)
    preimages = list(sig.preimages)
    preimages[0] = bytes(32)
    assert not pq_verify(key.public, digest, PqSignature(tuple(preimages)))


def test_second_signature_raises():
    key = PqKeyPair.generate(_rng())
    key.sign(keccak256(b"first"))
    assert key.uses_remaining == 0
    with pytest.raises(KeyExhausted):
        key.sign(keccak256(b"second"))


def test_digest_length_enforced():
    key = PqKeyPair.generate(_rng())
    with pytest.raises(ValueError):
        key.sign(b"short")


def test_signature_serialization_roundtrip():
    key = PqKeyPair.generate(_rng())
    digest = keccak256(b"payload")
    sig = key.sign(digest)
    raw = sig.to_bytes()
    assert len(raw) == 256 * 32
    restored = PqSignature.from_bytes(raw)
    assert restored == sig
    assert pq_verify(key.public, digest, restored)


def test_signature_from_bytes_rejects_bad_length():
    with pytest.raises(ValueError):
        PqSignature.from_bytes(b"\x00" * 100)


def test_verify_rejects_malformed_inputs():
    key = PqKeyPair.generate(_rng())
    sig = key.sign(keccak256(b"payload"))
    assert not pq_verify(key.public, b"short", sig)
    assert not pq_verify(key.public, keccak256(b"payload"), PqSignature(sig.preimages[:10]))


def test_fingerprint_distinguishes_keys():
    a = PqKeyPair.generate(_rng(1))
    b = PqKeyPair.generate(_rng(2))
    assert len(a.public.fingerprint) == 32
    assert a.public.fingerprint != b.public.fingerprint


def test_generation_is_seed_deterministic():
    a = PqKeyPair.generate(_rng(9))
    b = PqKeyPair.generate(_rng(9))
    assert a.public == b.public


def test_fingerprint_is_computed_once():
    public = PqKeyPair.generate(_rng(3)).public
    expected = keccak256(b"".join(h for pair in public.hashes for h in pair))
    assert public.fingerprint == expected
    assert public.fingerprint is public.fingerprint
    assert public == PqKeyPair.generate(_rng(3)).public


@pytest.mark.parametrize("length", [31, 33])
def test_private_preimages_must_be_32_bytes(length):
    rng = _rng()
    private = [(rng.randbytes(32), rng.randbytes(32)) for _ in range(256)]
    private[100] = (private[100][0], bytes(length))
    with pytest.raises(ValueError):
        PqKeyPair(tuple(private))


# -- the batched hashing against one preimage at a time ------------------------------


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=2**32))
def test_public_images_match_scalar_hashes(seed):
    rng = _rng(seed)
    private = tuple((rng.randbytes(32), rng.randbytes(32)) for _ in range(256))
    expected = tuple((keccak256(zero), keccak256(one)) for zero, one in private)
    assert PqKeyPair(private).public.hashes == expected


@pytest.mark.parametrize(
    "case", ["valid", "wrong digest", "tampered", "short", "31 bytes", "33 bytes", "136 bytes"]
)
@settings(max_examples=3)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.binary(min_size=32, max_size=32),
    st.integers(min_value=0, max_value=255),
)
def test_verify_agrees_with_scalar_oracle(case, seed, digest, position):
    key = PqKeyPair.generate(_rng(seed))
    preimages = list(key.sign(digest).preimages)
    if case == "wrong digest":
        digest = bytes([digest[0] ^ 0x80]) + digest[1:]
    elif case == "tampered":
        preimages[position] = bytes(b ^ 1 for b in preimages[position])
    elif case == "short":
        preimages = preimages[:position]
    elif case == "31 bytes":
        preimages[position] = preimages[position][:31]
    elif case == "33 bytes":
        preimages[position] += b"\x00"
    elif case == "136 bytes":  # too long for one batched block
        preimages[position] = bytes(136)
    sig = PqSignature(tuple(preimages))
    expected = reference_pq_verify(key.public.hashes, digest, sig.preimages)
    assert pq_verify(key.public, digest, sig) == expected
    assert expected == (case == "valid")
