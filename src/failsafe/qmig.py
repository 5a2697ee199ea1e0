"""Quantum migration (qMig) protocol: incognito transfer intents.

A transfer intent commits, before quantum capability exists, to moving
funds from a source address to a destination. Only the Keccak-256 digest
of the intent SIGNATURE is stored on chain, so the registry reveals no
public key and no addresses. After the administrator sets the quantum
inflection height, funds move only under intents registered strictly
before that height, and only up to the amount the source provably held
at the inflection point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .crypto import (
    Address,
    KeyPair,
    PqPublicKey,
    PqSignature,
    RecoverableSignature,
    RecoveryError,
    keccak256,
    pq_verify,
    recover_signer,
    sign,
)
from .encoding import encode_value
from .ledger import (
    ContractCall,
    ExecutionContext,
    InvalidArgument,
    Ledger,
    RevertError,
    UnknownMethod,
    byte_argument,
)

LATE_INTENT_MESSAGE = "Intent to transfer registered after the quantum inflection point!"

_MAX_CHAIN_ID = 2**64 - 1


class VerifyError(Exception):
    """Base class for transfer-intent verification failures."""


class SignerMismatch(VerifyError):
    pass


class IntentNotFound(VerifyError):
    pass


class LateIntent(VerifyError):
    pass


class InflectionUnset(Exception):
    """Operation requires the quantum inflection point to be set and reached."""


class BadPqSignature(RevertError):
    pass


class AlreadySet(RevertError):
    pass


@dataclass(frozen=True)
class TransferIntentSource:
    """Source/destination binding for one migration path.

    Serializes to exactly 56 bytes:
    fromChainId (8 BE) | fromAddress (20) | destChainId (8 BE) | destAddress (20).
    """

    from_chain_id: int
    from_address: Address
    dest_chain_id: int
    dest_address: Address

    def __post_init__(self):
        for label, cid in (("from", self.from_chain_id), ("dest", self.dest_chain_id)):
            if not 0 <= cid <= _MAX_CHAIN_ID:
                raise ValueError(f"{label} chain id {cid} outside unsigned 64-bit range")

    def serialize(self) -> bytes:
        return (
            self.from_chain_id.to_bytes(8, "big")
            + bytes(self.from_address)
            + self.dest_chain_id.to_bytes(8, "big")
            + bytes(self.dest_address)
        )

    @cached_property
    def signing_digest(self) -> bytes:
        return keccak256(self.serialize())


def build_intent_digest(
    source: TransferIntentSource, signer_key: KeyPair
) -> tuple[RecoverableSignature, bytes]:
    """Sign the intent with the source key and derive the incognito digest,
    keccak256 of the 65-byte r||s||v signature."""
    if signer_key.address != source.from_address:
        raise SignerMismatch(
            f"key controls {signer_key.address}, intent source is {source.from_address}"
        )
    sig = sign(signer_key, source.signing_digest)
    return sig, sig.serial_digest


def inflection_digest(height: int) -> bytes:
    """Digest the administrator's pq key must sign to set the inflection."""
    return keccak256(b"FS-INFLECT" + encode_value(height))


class QmigContract:
    """On-ledger registry of incognito intents plus the inflection point.

    Mutations arrive as contract calls; verification and permitted-amount
    queries are reads against current state.
    """

    def __init__(self, ledger: Ledger, address: Address, admin_pq_public: PqPublicKey | None):
        self.ledger = ledger
        self.address = address
        self.admin_pq_public = admin_pq_public
        self.registry: dict[bytes, int] = {}
        self.inflection: int | None = None
        # intra-chain (sender -> recipient) pairs proven by a successful
        # pre-inflection intent verification; feeds permitted-amount inflows
        self.authorized_pairs: set[tuple[Address, Address]] = set()

    # -- contract-call entry point ---------------------------------------------

    def call(self, method: str, args: tuple, ctx: ExecutionContext):
        if method == "registerTransferIntent":
            digest, exposed = args
            return self._register(byte_argument(digest), bool(exposed), ctx)
        if method == "setInflectionPoint":
            height, pq_sig = args
            return self._set_inflection(int(height), byte_argument(pq_sig), ctx)
        raise UnknownMethod(f"qMig contract has no method {method!r}")

    def _register(self, digest: bytes, exposed: bool, ctx: ExecutionContext) -> None:
        if len(digest) != 32:
            raise InvalidArgument(f"intent digest must be 32 bytes, got {len(digest)}")
        if digest not in self.registry:
            # re-registration keeps the earliest height, so a later attacker
            # cannot refresh an intent past the inflection point
            self.registry[digest] = ctx.height
            ctx.record_undo(lambda: self.registry.pop(digest, None))
        ctx.emit("IntentRegistered", {"digest": digest})
        if exposed:
            # submitting wallet equals the intent source: its public key is
            # recoverable from this very transaction, defeating incognito
            ctx.emit("IntentSourceExposed", {"digest": digest})

    def _set_inflection(self, height: int, pq_sig_bytes: bytes, ctx: ExecutionContext) -> None:
        if self.inflection is not None:
            raise AlreadySet(f"inflection already set at height {self.inflection}")
        if height < 0:
            raise InvalidArgument(f"inflection height must be non-negative, got {height}")
        try:
            pq_sig = PqSignature.from_bytes(pq_sig_bytes)
        except ValueError as exc:
            raise BadPqSignature(str(exc)) from exc
        # with no administrator key the inflection can never be set
        if self.admin_pq_public is None or not pq_verify(
            self.admin_pq_public, inflection_digest(height), pq_sig
        ):
            raise BadPqSignature("inflection point requires the administrator's pq signature")
        self.inflection = height
        ctx.record_undo(lambda: setattr(self, "inflection", None))
        ctx.emit("InflectionSet", {"inflection": height})

    # -- reads -------------------------------------------------------------------

    def verify_transfer_intent(
        self, source: TransferIntentSource, sig: RecoverableSignature
    ) -> bool:
        """Check a revealed intent against the registry; True or a VerifyError.

        Check order: signer recovery, registry membership, then strict
        registeredAt < inflection. A successful intra-chain verification
        also marks the (from, dest) pair as an authorized inflow route.
        """
        if self.inflection is None:
            raise InflectionUnset("quantum inflection point is not set")
        try:
            signer = recover_signer(source.signing_digest, sig)
        except RecoveryError as exc:
            raise SignerMismatch(str(exc)) from exc
        if signer != source.from_address:
            raise SignerMismatch(
                f"signature recovers to {signer}, intent source is {source.from_address}"
            )
        registered_at = self.registry.get(sig.serial_digest)
        if registered_at is None:
            raise IntentNotFound("no registered intent matches this signature digest")
        if not registered_at < self.inflection:
            raise LateIntent(LATE_INTENT_MESSAGE)
        if (
            source.from_chain_id == source.dest_chain_id == self.ledger.chain_id
        ):
            self.authorized_pairs.add((source.from_address, source.dest_address))
        return True

    def permitted_amount(self, source: Address, token: str, already_bridged: int = 0) -> int:
        """Post-inflection bridgeable total for an address.

        Inflection-time balance, minus withdrawals since, plus inflows that
        arrived under a pre-inflection intent naming this address as the
        destination; never more than what the address can still command
        (current balance plus what it already bridged out).
        """
        if self.inflection is None:
            raise InflectionUnset("quantum inflection point is not set")
        if self.ledger.height < self.inflection:
            raise InflectionUnset(
                f"inflection height {self.inflection} not reached at {self.ledger.height}"
            )
        base = self.ledger.balance_at(source, token, self.inflection) - (
            self.ledger.withdrawals_since(source, token, self.inflection)
        )
        base = max(0, base)
        inflows = self._authorized_inflows(source, token)
        ceiling = self.ledger.balance_of(source, token) + already_bridged
        return min(base + inflows, ceiling)

    def _authorized_inflows(self, source: Address, token: str) -> int:
        return sum(
            ev.get("amount")
            for ev in self.ledger.transfers_since(source, token, self.inflection)
            if ev.kind == "Transfer" and ev.get("to") == source
            and (ev.get("from"), source) in self.authorized_pairs
        )

    # -- audit -------------------------------------------------------------------

    def dump_registry(self) -> list[str]:
        return [f"digest={d.hex()} height={h}" for d, h in self.registry.items()]

    def storage_records(self) -> list[bytes]:
        # 32-byte digest + 8-byte height: 40 bytes, no room for a signature
        return [d + h.to_bytes(8, "big") for d, h in self.registry.items()]


def register_intent_call(
    qmig_address: Address, submitter: Address, incognito: bytes,
    source_address: Address | None = None,
) -> ContractCall:
    """The registration call for an intent digest.

    Pass the intent's source address so the registry can warn when the
    submitting wallet is the source itself (the submission signature then
    exposes the public key the digest was meant to hide).
    """
    exposed = source_address is not None and submitter == source_address
    return ContractCall(qmig_address, "registerTransferIntent", (incognito, exposed))

