"""Quantum adversary gating: inflection height plus public-key exposure."""

import random

import pytest

from failsafe.crypto import KeyPair, QuantumOracle


def _actor(seed: int) -> KeyPair:
    return KeyPair.generate(random.Random(seed))


def test_no_derivation_before_inflection():
    oracle = QuantumOracle()
    victim = _actor(1)
    oracle.register_actor(victim)
    oracle.note_public_signer(victim.address)
    oracle.set_inflection(5)
    oracle.advance_to(4)
    assert oracle.derive_private(victim.address) is None


def test_no_derivation_without_inflection_set():
    oracle = QuantumOracle()
    victim = _actor(1)
    oracle.register_actor(victim)
    oracle.note_public_signer(victim.address)
    oracle.advance_to(100)
    assert oracle.derive_private(victim.address) is None


def test_no_derivation_while_key_unexposed():
    oracle = QuantumOracle()
    victim = _actor(1)
    oracle.register_actor(victim)
    oracle.set_inflection(5)
    oracle.advance_to(10)
    assert oracle.derive_private(victim.address) is None


def test_derivation_after_both_conditions():
    oracle = QuantumOracle()
    victim = _actor(1)
    oracle.register_actor(victim)
    oracle.set_inflection(5)
    oracle.advance_to(5)
    oracle.note_public_signer(victim.address)
    derived = oracle.derive_private(victim.address)
    assert derived is victim


def test_grant_is_monotone():
    oracle = QuantumOracle()
    victim = _actor(1)
    oracle.register_actor(victim)
    oracle.set_inflection(1)
    oracle.advance_to(1)
    oracle.note_public_signer(victim.address)
    assert oracle.derive_private(victim.address) is victim
    # Later state changes never revoke a key the adversary already holds.
    oracle.set_inflection(10 ** 9)
    assert oracle.derive_private(victim.address) is victim


def test_unregistered_target_yields_nothing():
    oracle = QuantumOracle()
    stranger = _actor(2)
    oracle.set_inflection(1)
    oracle.advance_to(1)
    oracle.note_public_signer(stranger.address)
    assert oracle.derive_private(stranger.address) is None


def test_height_never_regresses():
    oracle = QuantumOracle()
    oracle.advance_to(3)
    oracle.advance_to(3)
    with pytest.raises(ValueError):
        oracle.advance_to(2)

