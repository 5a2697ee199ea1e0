"""Lamport one-time signatures over Keccak-256.

Stand-in for a production post-quantum scheme: security reduces to hash
preimage resistance only, which is what the protocol needs from its
quantum-resilient signature layer. Each key signs exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .keccak import keccak256, keccak256_batch

_BITS = 256


def _bits(digest: bytes) -> list[int]:
    """The 256 bits of a digest, most significant bit of byte 0 first."""
    return [(digest[i // 8] >> (7 - i % 8)) & 1 for i in range(_BITS)]


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

    @cached_property
    def fingerprint(self) -> bytes:
        # a 16 KiB hash, read on every pq_address lookup: computed once per key
        return keccak256(b"".join(h for pair in self.hashes for h in pair))


class PqKeyPair:
    """A Lamport key: 2 x 256 secret preimages of 32 bytes plus their hash images."""

    def __init__(self, private: tuple[tuple[bytes, bytes], ...]):
        if len(private) != _BITS:
            raise ValueError(f"private key must hold {_BITS} preimage pairs")
        preimages = [p for zero, one in private for p in (zero, one)]
        if any(len(p) != 32 for p in preimages):
            raise ValueError("each private preimage must be 32 bytes")
        self._private = private
        images = keccak256_batch(preimages)
        self.public = PqPublicKey(tuple(zip(images[0::2], images[1::2])))
        self.uses_remaining = 1  # a Lamport key signs once

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
        return PqSignature(tuple(pair[bit] for pair, bit in zip(self._private, _bits(digest))))


def pq_verify(public: PqPublicKey, digest: bytes, sig: PqSignature) -> bool:
    if (len(digest) != 32 or len(sig.preimages) != _BITS
            or any(len(p) != 32 for p in sig.preimages)):
        return False
    images = keccak256_batch(sig.preimages)
    return all(images[i] == public.hashes[i][bit] for i, bit in enumerate(_bits(digest)))
