"""Deterministic ledger simulator for the FailSafe protection stack and qMig.

The package models an EVM-like chain (mempool, gas-price ordering, revert
semantics, balance replay), the FailSafe defense services that watch it
(risk scoring, front-running interception, hot/cold rebalancing, a
multi-signature vault contract), and the qMig migration protocol for
moving assets to a quantum-safe ledger after ECDSA stops being trustworthy.
Every run is a pure function of its scenario file and seed.
"""

__version__ = "0.1.0"
