"""Cryptographic primitives: Keccak-256, recoverable ECDSA, Lamport OTS."""

from .keccak import keccak256
from .lamport import (
    KeyExhausted,
    PqKeyPair,
    PqPublicKey,
    PqSignature,
    pq_verify,
)
from .quantum import QuantumOracle
from .secp256k1 import (
    Address,
    KeyPair,
    RecoverableSignature,
    RecoveryError,
    derive_address,
    fill_addresses,
    recover_signer,
    sign,
    sign_later,
)

__all__ = [
    "Address",
    "KeyExhausted",
    "KeyPair",
    "PqKeyPair",
    "PqPublicKey",
    "PqSignature",
    "QuantumOracle",
    "RecoverableSignature",
    "RecoveryError",
    "derive_address",
    "fill_addresses",
    "keccak256",
    "pq_verify",
    "recover_signer",
    "sign",
    "sign_later",
]
