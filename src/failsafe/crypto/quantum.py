"""Capability model of a quantum adversary.

The oracle hands out a private key only when two conditions hold: the
chain has passed the inflection height, and the target's public key has
become observable (the address signed a transaction that made it into a
block). Key material is not
actually derived; the simulation registers every actor's key up front and
the oracle gates access to them.
"""

from __future__ import annotations

from .secp256k1 import Address, KeyPair


class QuantumOracle:
    def __init__(self) -> None:
        self._keys: dict[Address, KeyPair] = {}
        self._revealed: set[Address] = set()
        self._granted: dict[Address, KeyPair] = {}
        self.inflection_height: int | None = None
        self.current_height: int = 0

    def register_actor(self, key: KeyPair) -> None:
        """Make an actor's key derivable once the gating conditions hold."""
        self._keys[key.address] = key

    def set_inflection(self, height: int) -> None:
        self.inflection_height = height

    def advance_to(self, height: int) -> None:
        if height < self.current_height:
            raise ValueError("chain height does not move backwards")
        self.current_height = height

    def note_public_signer(self, address: Address) -> None:
        """Record that an address's signature (hence public key) is on chain."""
        self._revealed.add(address)

    def derive_private(self, target: Address) -> KeyPair | None:
        """Return the target's key, or None while the attack is infeasible."""
        if target in self._granted:  # monotone: a granted key stays granted
            return self._granted[target]
        if self.inflection_height is None or self.current_height < self.inflection_height:
            return None
        if target not in self._revealed:
            return None
        key = self._keys.get(target)
        if key is None:
            return None
        self._granted[target] = key
        return key
