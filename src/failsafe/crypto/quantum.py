"""Capability model of a quantum adversary.

The oracle hands out a private key only when two conditions hold: the
chain has passed the inflection height, and the target's public key has
become observable (the address signed a transaction that made it into a
block). The caller reads both facts from the chain and passes them in;
the oracle keeps no copy of them. Key material is not actually derived;
the simulation registers every actor's key up front and the oracle gates
access to them.
"""

from __future__ import annotations

from .secp256k1 import Address, KeyPair


class QuantumOracle:
    def __init__(self) -> None:
        self._keys: dict[Address, KeyPair] = {}

    def register_actor(self, key: KeyPair) -> None:
        """Make an actor's key derivable once the gating conditions hold."""
        self._keys[key.address] = key

    def derive_private(self, target: Address, height: int, inflection: int | None,
                       exposed: bool) -> KeyPair | None:
        """Return the target's key, or None while the attack is infeasible:
        before the chain at height reaches the inflection, or while the
        target's public key is not exposed on chain."""
        if inflection is None or height < inflection or not exposed:
            return None
        return self._keys.get(target)
