"""Quantum adversary gating: inflection height plus public-key exposure."""

import random

from failsafe.crypto import KeyPair, QuantumOracle


def _actor(seed: int) -> KeyPair:
    return KeyPair.generate(random.Random(seed))


def _oracle_for(victim: KeyPair) -> QuantumOracle:
    oracle = QuantumOracle()
    oracle.register_actor(victim)
    return oracle


def test_no_derivation_before_inflection():
    victim = _actor(1)
    oracle = _oracle_for(victim)
    assert oracle.derive_private(victim.address, 4, 5, True) is None


def test_no_derivation_without_inflection_set():
    victim = _actor(1)
    oracle = _oracle_for(victim)
    assert oracle.derive_private(victim.address, 100, None, True) is None


def test_no_derivation_while_key_unexposed():
    victim = _actor(1)
    oracle = _oracle_for(victim)
    assert oracle.derive_private(victim.address, 10, 5, False) is None


def test_derivation_after_both_conditions():
    victim = _actor(1)
    oracle = _oracle_for(victim)
    assert oracle.derive_private(victim.address, 5, 5, True) is victim


def test_unregistered_target_yields_nothing():
    oracle = QuantumOracle()
    stranger = _actor(2)
    assert oracle.derive_private(stranger.address, 1, 1, True) is None
