"""One-time signature scheme: sign/verify and exhaustion."""

import random

import pytest

from failsafe.crypto import (
    KeyExhausted,
    PqKeyPair,
    PqSignature,
    pq_sign,
    pq_verify,
)
from failsafe.crypto.keccak import keccak256


def _rng(seed: int = 7) -> random.Random:
    return random.Random(seed)


def test_sign_verify_roundtrip():
    key = PqKeyPair.generate(_rng())
    digest = keccak256(b"payload")
    sig = pq_sign(key, digest)
    assert pq_verify(key.public, digest, sig)


def test_wrong_digest_rejected():
    key = PqKeyPair.generate(_rng())
    sig = pq_sign(key, keccak256(b"payload"))
    assert not pq_verify(key.public, keccak256(b"other"), sig)


def test_wrong_key_rejected():
    signer = PqKeyPair.generate(_rng(1))
    other = PqKeyPair.generate(_rng(2))
    digest = keccak256(b"payload")
    sig = pq_sign(signer, digest)
    assert not pq_verify(other.public, digest, sig)


def test_tampered_preimage_rejected():
    key = PqKeyPair.generate(_rng())
    digest = keccak256(b"payload")
    sig = pq_sign(key, digest)
    preimages = list(sig.preimages)
    preimages[0] = bytes(32)
    assert not pq_verify(key.public, digest, PqSignature(tuple(preimages)))


def test_second_signature_raises():
    key = PqKeyPair.generate(_rng())
    pq_sign(key, keccak256(b"first"))
    assert key.uses_remaining == 0
    with pytest.raises(KeyExhausted):
        pq_sign(key, keccak256(b"second"))


def test_digest_length_enforced():
    key = PqKeyPair.generate(_rng())
    with pytest.raises(ValueError):
        key.sign(b"short")


def test_signature_serialization_roundtrip():
    key = PqKeyPair.generate(_rng())
    digest = keccak256(b"payload")
    sig = pq_sign(key, digest)
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
    sig = pq_sign(key, keccak256(b"payload"))
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
