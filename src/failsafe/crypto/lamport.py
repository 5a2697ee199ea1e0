"""Lamport one-time signatures over Keccak-256.

Stand-in for a production post-quantum scheme: security reduces to hash
preimage resistance only, which is what the protocol needs from its
quantum-resilient signature layer. Each key signs exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .keccak import keccak256

_BITS = 256


class KeyExhausted(Exception):
    """A one-time key was asked to sign a second time."""


@dataclass(frozen=True)
class PqSignature:
    """One revealed 32-byte preimage per digest bit, in bit order."""

    preimages: tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        return b"".join(self.preimages)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PqSignature":
        if len(raw) != _BITS * 32:
            raise ValueError(f"pq signature must be {_BITS * 32} bytes")
        return cls(tuple(raw[i * 32 : (i + 1) * 32] for i in range(_BITS)))


@dataclass(frozen=True)
class PqPublicKey:
    """keccak256 images of both preimages for each digest bit."""

    hashes: tuple[tuple[bytes, bytes], ...]

    @property
    def fingerprint(self) -> bytes:
        return keccak256(b"".join(h for pair in self.hashes for h in pair))


class PqKeyPair:
    """A Lamport key: 2 x 256 secret preimages plus their hash images."""

    def __init__(self, private: tuple[tuple[bytes, bytes], ...], uses_remaining: int = 1):
        if len(private) != _BITS:
            raise ValueError(f"private key must hold {_BITS} preimage pairs")
        self._private = private
        self.public = PqPublicKey(
            tuple((keccak256(zero), keccak256(one)) for zero, one in private)
        )
        self.uses_remaining = uses_remaining

    @classmethod
    def generate(cls, rng) -> "PqKeyPair":
        private = tuple(
            (rng.randbytes(32), rng.randbytes(32)) for _ in range(_BITS)
        )
        return cls(private)

    def sign(self, digest: bytes) -> PqSignature:
        if self.uses_remaining <= 0:
            raise KeyExhausted("Lamport key already used; one signature per key")
        if len(digest) != 32:
            raise ValueError("digest must be 32 bytes")
        self.uses_remaining -= 1
        revealed = []
        for i in range(_BITS):
            bit = (digest[i // 8] >> (7 - i % 8)) & 1
            revealed.append(self._private[i][bit])
        return PqSignature(tuple(revealed))


def pq_sign(key: PqKeyPair, digest: bytes) -> PqSignature:
    return key.sign(digest)


def pq_verify(public: PqPublicKey, digest: bytes, sig: PqSignature) -> bool:
    if len(digest) != 32 or len(sig.preimages) != _BITS:
        return False
    for i in range(_BITS):
        bit = (digest[i // 8] >> (7 - i % 8)) & 1
        if keccak256(sig.preimages[i]) != public.hashes[i][bit]:
            return False
    return True
