"""Token bridge from the ECDSA ledger to a quantum-safe ledger.

Bridging locks tokens into an escrow address on the source ledger and
mints the same amount on the destination ledger, atomically within one
scheduler step. Post-inflection requests must present a registered
pre-inflection transfer intent and stay within the source address's
cumulative permitted amount, which excludes funds stolen after the
inflection point.

The destination ledger is deliberately minimal: balances, bridge mints,
and transfers authorized only by Lamport one-time signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import Address, PqPublicKey, PqSignature, keccak256, pq_verify
from .encoding import encode_value
from .ledger import EXECUTED, InsufficientBalance, InvalidAmount, Ledger, LedgerEvent, make_event
from .qmig import (
    BadPqSignature,
    InflectionUnset,
    QmigContract,
    TransferIntentSource,
    VerifyError,
)

ESCROW_ADDRESS = Address(keccak256(b"FS-BRIDGE-ESCROW")[12:])


class ExceedsPermitted(Exception):
    """Cumulative bridged amount would exceed the source's permitted amount."""


class WrongChain(Exception):
    """Intent chain ids do not match the bridged ledger pair."""


def pq_address(public: PqPublicKey) -> Address:
    """Destination-chain address bound to a Lamport public key."""
    return Address(public.fingerprint[12:])


@dataclass(frozen=True)
class BridgeTransfer:
    source: TransferIntentSource
    token: str
    amount: int
    intent_sig: object  # RecoverableSignature over the intent source
    requested_at: int

    def __post_init__(self):
        if self.amount <= 0:
            raise ValueError(f"bridge amount must be positive, got {self.amount}")


@dataclass
class BridgeBook:
    locked_on_source: dict = field(default_factory=dict)  # token -> amount
    minted_on_dest: dict = field(default_factory=dict)  # (dest addr, token) -> amount
    cumulative_bridged: dict = field(default_factory=dict)  # (source addr, token) -> amount

    def conservation_holds(self) -> bool:
        minted_totals: dict[str, int] = {}
        for (_, token), amount in self.minted_on_dest.items():
            minted_totals[token] = minted_totals.get(token, 0) + amount
        tokens = set(self.locked_on_source) | set(minted_totals)
        return all(
            self.locked_on_source.get(t, 0) == minted_totals.get(t, 0) for t in tokens
        )


class QuantumSafeLedger:
    """Balances plus pq-signature-gated transfers; mints come from the bridge."""

    def __init__(self, chain_id: int):
        self.chain_id = chain_id
        self.height = 0
        self.balances: dict[str, dict[Address, int]] = {}
        self.nonces: dict[Address, int] = {}
        self.events: list[LedgerEvent] = []

    def advance_to(self, height: int) -> None:
        if height < self.height:
            raise ValueError(f"height {height} regresses below {self.height}")
        self.height = height

    def balance_of(self, addr: Address, token: str) -> int:
        return self.balances.get(token, {}).get(addr, 0)

    def mint(self, to: Address, token: str, amount: int) -> None:
        book = self.balances.setdefault(token, {})
        book[to] = book.get(to, 0) + amount
        self.events.append(
            make_event(self.height, "BridgeMint", {"to": to, "token": token, "amount": amount})
        )

    def transfer_digest(
        self, sender: Address, to: Address, token: str, amount: int, nonce: int
    ) -> bytes:
        body = encode_value((self.chain_id, bytes(sender), bytes(to), token, amount, nonce))
        return keccak256(b"QS-TX" + body)

    def transfer(
        self,
        sender_public: PqPublicKey,
        to: Address,
        token: str,
        amount: int,
        signature: PqSignature,
    ) -> None:
        """Spend under a Lamport signature from the address-bound key."""
        if isinstance(amount, bool) or not isinstance(amount, int) or amount < 0:
            raise InvalidAmount(f"transfer amount must be a non-negative int, got {amount!r}")
        sender = pq_address(sender_public)
        nonce = self.nonces.get(sender, 0)
        digest = self.transfer_digest(sender, to, token, amount, nonce)
        if not pq_verify(sender_public, digest, signature):
            raise BadPqSignature("transfer requires a valid Lamport signature")
        book = self.balances.setdefault(token, {})
        held = book.get(sender, 0)
        if held < amount:
            raise InsufficientBalance(f"{sender} holds {held} {token}, needs {amount}")
        self.nonces[sender] = nonce + 1
        book[sender] = held - amount
        book[to] = book.get(to, 0) + amount
        fields = {"from": sender, "to": to, "token": token, "amount": amount, "outcome": EXECUTED}
        self.events.append(make_event(self.height, "Transfer", fields))


class Bridge:
    def __init__(self, source_ledger: Ledger, dest_ledger: QuantumSafeLedger,
                 qmig: QmigContract):
        self.source = source_ledger
        self.dest = dest_ledger
        self.qmig = qmig
        self.book = BridgeBook()
        self.escrow = ESCROW_ADDRESS

    def _emit(self, req: BridgeTransfer, outcome: str, reason: str | None = None) -> None:
        fields = {
            "source": req.source.from_address,
            "dest": req.source.dest_address,
            "token": req.token,
            "amount": req.amount,
            "outcome": outcome,
        }
        if reason is not None:
            fields["reason"] = reason
        # bridge steps run between blocks and belong to the upcoming one
        self.source.events.append(make_event(self.source.height + 1, "Bridge", fields))

    def bridge_transfer(self, req: BridgeTransfer) -> None:
        holder = req.source.from_address
        try:
            if self.qmig.inflection is None or self.source.height < self.qmig.inflection:
                raise InflectionUnset("bridging opens at the quantum inflection point")
            if req.source.from_chain_id != self.source.chain_id:
                raise WrongChain(
                    f"intent source chain {req.source.from_chain_id} is not {self.source.chain_id}"
                )
            if req.source.dest_chain_id != self.dest.chain_id:
                raise WrongChain(
                    f"intent dest chain {req.source.dest_chain_id} is not {self.dest.chain_id}"
                )
            self.qmig.verify_transfer_intent(req.source, req.intent_sig)
            already = self.book.cumulative_bridged.get((holder, req.token), 0)
            permitted = self.qmig.permitted_amount(holder, req.token, already_bridged=already)
            if already + req.amount > permitted:
                raise ExceedsPermitted(
                    f"{already} bridged + {req.amount} requested > permitted {permitted}"
                )
            self.source.apply_bridge_lock(holder, self.escrow, req.token, req.amount)
        except (InflectionUnset, WrongChain, VerifyError, ExceedsPermitted,
                InsufficientBalance) as exc:
            self._emit(req, "error", type(exc).__name__)
            raise

        self.dest.advance_to(self.source.height + 1)
        self.dest.mint(req.source.dest_address, req.token, req.amount)
        book = self.book
        for tally, key in ((book.locked_on_source, req.token),
                           (book.minted_on_dest, (req.source.dest_address, req.token)),
                           (book.cumulative_bridged, (holder, req.token))):
            tally[key] = tally.get(key, 0) + req.amount
        self._emit(req, "ok")
