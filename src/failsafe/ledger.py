"""Event-sourced EVM-like ledger with a gas-price-ordered mempool.

Single chain instance: accounts with nonces, native currency, fungible and
NFT token contracts with approvals, a public mempool plus a private relay
with an exceptions list, and block building with revert semantics. All
mutation flows through the owner (the simulation scheduler); subscribers
observe ordered event streams.

Gas is a pure priority number; nothing is charged. Transactions with
future nonces wait in the pool, reverted transactions consume their nonce,
and stale ones are dropped at selection time.

A transaction's digest is the Keccak-256 of the encoded sender, nonce, gas
price and payload, a payload being its kind's tag followed by its fields in
declaration order. Its id is the Keccak-256 of that digest and the
signature's bytes, hashed on first read and kept.

`sign_transaction` hashes and signs nothing: the transaction it returns
holds its sender's key instead of a signature. Its digest is hashed on first
read; its RFC 6979 signature is made over the digest on the first read of the
signature or id, or by equality, hash, repr or `dataclasses.replace`. That is
what an eager signer makes, as long as the fields do not change after
signing; submission refuses a field that the digest's encoding cannot take.
Submission trusts a transaction that holds its key (its signer is its sender
by construction) and recovers every other one from its digest: one rebuilt by
`replace`, built by hand, or carrying a signature parsed from bytes or taken
from another transaction. Equality, `in` and dict keys on transactions
compare signatures and so make them; the ledger uses none.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Callable, Union

from .crypto import (
    Address,
    KeyPair,
    RecoverableSignature,
    RecoveryError,
    keccak256,
    recover_signer,
    sign,
)
from .encoding import MAX_INT_BITS, encode_value

NATIVE = "native"
UNLIMITED = None  # allowance value meaning "never decremented"

EXECUTED = "Executed"


# ---------------------------------------------------------------------------
# Errors

class BadSignature(Exception):
    """Transaction signature does not recover to the stated sender."""


class StaleNonce(Exception):
    """Transaction nonce is below the sender's account nonce."""


class FutureHeight(Exception):
    """Query references a block height that has not been built."""


class MalformedTransaction(Exception):
    """A field of a signed transaction has the wrong type; refused at submission."""


class RevertError(Exception):
    """Base class for failures that revert a transaction.

    The revert reason recorded on chain is the subclass name, so names
    here are part of the observable format.
    """

    @property
    def reason(self) -> str:
        return type(self).__name__


class InsufficientBalance(RevertError):
    pass


class InsufficientAllowance(RevertError):
    pass


class NotOwner(RevertError):
    pass


class UnknownToken(RevertError):
    pass


class WrongTokenKind(RevertError):
    pass


class UnknownContract(RevertError):
    pass


class UnknownMethod(RevertError):
    pass


class InvalidAmount(RevertError):
    pass


class InvalidArgument(RevertError):
    pass


def byte_argument(value) -> bytes:
    """A call argument read as bytes; bytes(n) of an int would be n zero bytes."""
    if not isinstance(value, (bytes, bytearray)):
        raise TypeError(f"expected bytes, got {type(value).__name__}")
    return bytes(value)


class PrivateRelayStatus(str, Enum):
    ACCEPTED = "Accepted"
    FILTERED_BY_EXCEPTIONS_LIST = "FilteredByExceptionsList"


# ---------------------------------------------------------------------------
# Events

@dataclass(frozen=True)
class LedgerEvent:
    """One append-only history record; replaying all of them rebuilds state."""

    height: int
    kind: str
    data: dict  # field name -> value, in log order

    def get(self, key: str, default=None):
        return self.data.get(key, default)

    def format_line(self) -> str:
        parts = [f"height={self.height}", f"kind={self.kind}"]
        for key, value in self.data.items():
            parts.append(f"{key}={_format_value(value)}")
        return " ".join(parts)


def _format_value(value) -> str:
    if value is UNLIMITED:
        return "unlimited"
    if isinstance(value, Address):
        return str(value)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    return str(value)


# ---------------------------------------------------------------------------
# Transactions
#
# Each payload gives, through describe(), the event kind and fields that
# log it: every reverted transaction, and every executed contract call, is
# recorded this way.

@dataclass(frozen=True)
class NativeTransfer:
    to: Address
    amount: int

    def describe(self, sender: Address) -> tuple[str, dict]:
        return "Transfer", {"from": sender, "to": self.to, "token": NATIVE, "amount": self.amount}


@dataclass(frozen=True)
class TokenTransfer:
    token: str
    to: Address
    amount: int

    def describe(self, sender: Address) -> tuple[str, dict]:
        return "Transfer", {"from": sender, "to": self.to, "token": self.token,
                            "amount": self.amount}


@dataclass(frozen=True)
class TokenTransferFrom:
    token: str
    owner: Address
    to: Address
    amount: int

    def describe(self, sender: Address) -> tuple[str, dict]:
        return "Transfer", {"from": self.owner, "to": self.to, "token": self.token,
                            "amount": self.amount, "spender": sender}


@dataclass(frozen=True)
class Approve:
    token: str
    spender: Address
    amount: int | None  # UNLIMITED for never-decremented approvals

    def describe(self, sender: Address) -> tuple[str, dict]:
        return "Approval", {"from": sender, "to": self.spender, "token": self.token,
                            "amount": self.amount}


@dataclass(frozen=True)
class NftTransfer:
    token: str
    to: Address
    token_id: int

    def describe(self, sender: Address) -> tuple[str, dict]:
        return "NftTransfer", {"from": sender, "to": self.to, "token": self.token,
                               "token_id": self.token_id}


@dataclass(frozen=True)
class ContractCall:
    contract: Address
    method: str
    args: tuple

    def describe(self, sender: Address) -> tuple[str, dict]:
        return "Call", {"from": sender, "contract": self.contract, "method": self.method}


# each payload kind's tag. A digest encodes a payload as its tag followed by
# vars(payload): a payload holds only its fields (a frozen dataclass that
# caches nothing on itself), so vars() is exactly its fields in declaration
# order, which _check_fields also reads.
_PAYLOAD_TAGS = {NativeTransfer: 1, TokenTransfer: 2, TokenTransferFrom: 3, Approve: 4,
                 NftTransfer: 5, ContractCall: 6}

Payload = Union[tuple(_PAYLOAD_TAGS)]


# the type every transaction and payload field must have, checked at
# submission; bool is refused for int, and an Approve amount may be UNLIMITED
_FIELD_TYPES = {"sender": Address, "nonce": int, "gas_price": int, "to": Address,
                "owner": Address, "spender": Address, "contract": Address, "token": str,
                "method": str, "amount": int, "token_id": int, "args": tuple}


def _check_fields(tx: Transaction) -> None:
    p = tx.payload
    if type(p) not in _PAYLOAD_TAGS:
        raise MalformedTransaction(f"unknown payload {type(p).__name__}")
    fields = {"sender": tx.sender, "nonce": tx.nonce, "gas_price": tx.gas_price, **vars(p)}
    for name, value in fields.items():
        if name == "amount" and value is UNLIMITED and isinstance(p, Approve):
            continue
        want = _FIELD_TYPES[name]
        if isinstance(value, bool) or not isinstance(value, want):
            raise MalformedTransaction(
                f"{type(p).__name__} {name} must be {want.__name__}, got {value!r}"
            )
        # the digest, made when first read, encodes every field: refuse here
        # what the encoding refuses (an int over 255 bytes, a float in args, a
        # signature whose r, s or v is no int that fits its bytes)
        if want is int and value.bit_length() > MAX_INT_BITS:
            raise MalformedTransaction(f"{type(p).__name__} {name}: integer too large to encode")
        if want is tuple:
            try:
                encode_value(value)
            except (TypeError, ValueError, OverflowError, AttributeError) as exc:
                raise MalformedTransaction(f"{type(p).__name__} {name}: {exc}") from exc


def compute_tx_digest(sender: Address, nonce: int, gas_price: int, payload: Payload) -> bytes:
    canonical = (_PAYLOAD_TAGS[type(payload)], *vars(payload).values())
    return keccak256(b"FS-TX" + encode_value((sender, nonce, gas_price, canonical)))


@dataclass(frozen=True)
class Transaction:
    sender: Address
    nonce: int
    gas_price: int
    payload: Payload
    signature: RecoverableSignature

    @cached_property
    def digest(self) -> bytes:
        return compute_tx_digest(self.sender, self.nonce, self.gas_price, self.payload)

    @cached_property
    def tx_id(self) -> bytes:
        return keccak256(b"FS-TXID" + self.digest + self.signature.to_bytes())

    @property
    def tx_id_hex(self) -> str:
        return "0x" + self.tx_id.hex()


# The signature of a transaction that holds its key, made over its digest on
# first read and kept; a signature the instance holds shadows it. Set after
# @dataclass, which would take it for the field's default. (A __getattr__
# would also do, but it stops CPython specialising any attribute read of a
# transaction, and block building reads nonce and sender over the whole pool.)
Transaction.signature = cached_property(lambda tx: sign(tx._key, tx.digest))
Transaction.signature.__set_name__(Transaction, "signature")


def sign_transaction(key: KeyPair, nonce: int, gas_price: int, payload: Payload) -> Transaction:
    """A transaction from key's address that key signs when its signature is first read."""
    tx = object.__new__(Transaction)
    # _key is no field: replace(), the constructor, asdict() and fields() leave it out
    vars(tx).update(sender=key.address, nonce=nonce, gas_price=gas_price, payload=payload,
                    _key=key)
    return tx


# ---------------------------------------------------------------------------
# Chain data

@dataclass(frozen=True)
class Block:
    height: int
    txs: tuple[tuple[Transaction, str], ...]  # (transaction, outcome string)


@dataclass
class TokenState:
    token_id: str
    kind: str  # "fungible" | "nft"
    balances: dict
    allowances: dict  # (owner, spender) -> int | UNLIMITED
    nft_owners: dict  # token_id int -> Address
    operators: dict  # (owner, operator) -> bool

    @classmethod
    def create(cls, token_id: str, kind: str) -> "TokenState":
        if kind not in ("fungible", "nft"):
            raise ValueError(f"token kind must be fungible or nft, got {kind!r}")
        return cls(token_id, kind, {}, {}, {}, {})


class ExecutionContext:
    """Privileged-but-scoped ledger access handed to a contract during a call.

    Asset moves are scoped to the contract's own address (its balance, or
    allowances/operator rights granted TO it), so a buggy contract cannot
    spend third-party funds.
    """

    def __init__(self, ledger: "Ledger", contract_address: Address, tx: Transaction, height: int):
        self.ledger = ledger
        self.contract_address = contract_address
        self.tx = tx
        self.height = height

    @property
    def sender(self) -> Address:
        return self.tx.sender

    def emit(self, kind: str, fields: dict) -> None:
        self.ledger.events.append(LedgerEvent(self.height, kind, fields))

    def record_undo(self, undo: Callable[[], None]) -> None:
        """Register rollback for contract-local state touched in this call."""
        self.ledger._journal.append(undo)

    def transfer_out(self, token: str, to: Address, amount: int) -> None:
        """Spend the contract's own fungible or native balance."""
        self.ledger._fungible_move(token, self.contract_address, to, amount, self.height)

    def pull_with_allowance(self, token: str, owner: Address, amount: int) -> None:
        """transferFrom owner to the contract under a prior approval."""
        self.ledger._fungible_move_from(
            token, owner, self.contract_address, self.contract_address, amount, self.height
        )

    def pull_nft(self, token: str, owner: Address, token_id: int) -> None:
        """Move an NFT from owner to the contract under operator approval."""
        self.ledger._nft_move_by_operator(
            token, owner, self.contract_address, self.contract_address, token_id, self.height
        )

    def transfer_out_nft(self, token: str, to: Address, token_id: int) -> None:
        """Release an NFT the contract itself owns."""
        self.ledger._nft_move(token, self.contract_address, to, token_id, self.height)

    def call_contract(self, address: Address, method: str, args: tuple) -> object:
        """Nested contract-to-contract call within the same transaction."""
        target = self.ledger.contracts.get(address)
        if target is None:
            raise UnknownContract(f"no contract at {address}")
        nested = ExecutionContext(self.ledger, address, self.tx, self.height)
        return target.call(method, args, nested)


class Ledger:
    def __init__(self, chain_id: int = 1):
        self.chain_id = chain_id
        self.height = 0
        self.events: list[LedgerEvent] = []
        self.blocks: list[Block] = [Block(0, ())]  # genesis
        self.native_balances: dict[Address, int] = {}
        self.tokens: dict[str, TokenState] = {}
        self.nonces: dict[Address, int] = {}
        self.exceptions_list: list[Address] = []
        self.contracts: dict[Address, object] = {}
        self.block_observers: list[Callable[[Block, list[LedgerEvent]], None]] = []
        # pending (arrival seq, transaction) entries, public and private
        self._pool: list[tuple[int, Transaction]] = []
        self._private_pool: list[tuple[int, Transaction]] = []
        self._seq = 0
        self._pending_queue: list[Transaction] = []
        # (token, address) -> executed Transfer and BridgeLock events from or
        # to the address, in log order: the one record of balance history
        self._transfers: dict[tuple[str, Address], list[LedgerEvent]] = {}
        # undo steps of the executing transaction; None between transactions
        self._journal: list[Callable[[], None]] | None = None

    # -- setup ---------------------------------------------------------------

    def create_token(self, token_id: str, kind: str = "fungible") -> None:
        if token_id == NATIVE:
            raise ValueError(f"token id {NATIVE!r} is reserved for the native currency")
        if token_id in self.tokens:
            raise ValueError(f"token {token_id!r} already exists")
        self.tokens[token_id] = TokenState.create(token_id, kind)

    def genesis_allocate(self, to: Address, token: str, amount: int) -> None:
        if self.height != 0:
            raise ValueError("genesis allocations only before the first built block")
        if amount < 0:
            raise ValueError(f"cannot allocate a negative amount {amount} of {token}")
        balances = self._balances_for(token)
        self._put(balances, to, balances.get(to, 0) + amount)
        self.events.append(LedgerEvent(0, "Genesis", {"to": to, "token": token, "amount": amount}))

    def genesis_allocate_nft(self, to: Address, token: str, token_id: int) -> None:
        if self.height != 0:
            raise ValueError("genesis allocations only before the first built block")
        owners = self._token(token, "nft").nft_owners
        if token_id in owners:
            raise ValueError(f"nft {token}#{token_id} already allocated")
        self._put(owners, token_id, to)
        self.events.append(
            LedgerEvent(0, "Genesis", {"to": to, "token": token, "token_id": token_id})
        )

    def register_contract(self, address: Address, contract: object) -> None:
        if address in self.contracts:
            raise ValueError(f"contract already registered at {address}")
        self.contracts[address] = contract

    # -- reads ---------------------------------------------------------------

    def balance_of(self, addr: Address, token: str = NATIVE) -> int:
        return self._balances_for(token).get(addr, 0)

    def allowance_of(self, token: str, owner: Address, spender: Address):
        return self._token(token, "fungible").allowances.get((owner, spender), 0)

    def nft_owner_of(self, token: str, token_id: int) -> Address | None:
        return self._token(token, "nft").nft_owners.get(token_id)

    def total_supply(self, token: str) -> int:
        return sum(self._balances_for(token).values())

    def next_nonce(self, addr: Address) -> int:
        """Account nonce plus queued transactions, for chained submissions."""
        pending = sum(1 for pool in (self._pool, self._private_pool) for _, tx in pool
                      if tx.sender == addr)
        return self.nonces.get(addr, 0) + pending

    def balance_at(self, addr: Address, token: str, height: int) -> int:
        """Balance as of the end of the given block height: today's, less what moved since."""
        moved = sum(ev.get("amount") * ((ev.get("to") == addr) - (ev.get("from") == addr))
                    for ev in self.transfers_since(addr, token, height))
        return self.balance_of(addr, token) - moved

    def transfers_since(self, addr: Address, token: str, height: int) -> list[LedgerEvent]:
        """Executed Transfer and BridgeLock events from or to addr in token, after height."""
        if height > self.height:
            raise FutureHeight(f"height {height} > current {self.height}")
        records = self._transfers.get((token, addr), [])
        return records[bisect_right(records, height, key=attrgetter("height")):]

    def withdrawals_since(self, addr: Address, token: str, height: int) -> int:
        """Total Executed outgoing Transfer amounts in blocks after height."""
        return sum(ev.get("amount") for ev in self.transfers_since(addr, token, height)
                   if ev.kind == "Transfer" and ev.get("from") == addr)

    # -- exceptions list -----------------------------------------------------

    def exceptions_digest(self, addr: Address) -> bytes:
        return keccak256(b"FS-EXC" + encode_value((self.chain_id, bytes(addr))))

    def add_exception(self, addr: Address, signature: RecoverableSignature) -> None:
        """Owner-signed opt-in: only the address holder can list themselves."""
        try:
            signer = recover_signer(self.exceptions_digest(addr), signature)
        except RecoveryError as exc:
            raise BadSignature(str(exc)) from exc
        if signer != addr:
            raise BadSignature("exceptions-list registration must be signed by the address owner")
        if addr not in self.exceptions_list:
            self.exceptions_list.append(addr)
            self.events.append(LedgerEvent(self.height, "ExceptionAdded", {"address": addr}))

    # -- submission ----------------------------------------------------------

    def _validate(self, tx: Transaction) -> None:
        _check_fields(tx)
        if "_key" not in vars(tx):  # a key-holding transaction is signed by its sender
            try:
                signer = recover_signer(tx.digest, tx.signature)
            except RecoveryError as exc:
                raise BadSignature(str(exc)) from exc
            if signer != tx.sender:
                raise BadSignature(f"signature recovers to {signer}, not {tx.sender}")
        if tx.nonce < self.nonces.get(tx.sender, 0):
            raise StaleNonce(f"nonce {tx.nonce} < account nonce {self.nonces.get(tx.sender, 0)}")

    def submit_transaction(self, tx: Transaction) -> None:
        self._validate(tx)
        self._pool.append((self._seq, tx))
        self._seq += 1
        self._pending_queue.append(tx)

    def submit_private_transaction(self, tx: Transaction) -> PrivateRelayStatus:
        """Relay directly to the block builder; no pending event is emitted."""
        self._validate(tx)
        if tx.sender in self.exceptions_list:
            return PrivateRelayStatus.FILTERED_BY_EXCEPTIONS_LIST
        self._private_pool.append((self._seq, tx))
        self._seq += 1
        return PrivateRelayStatus.ACCEPTED

    def take_pending(self) -> list[Transaction]:
        """Drain the pending-transaction event stream (mempool subscribers)."""
        drained = self._pending_queue
        self._pending_queue = []
        return drained

    # -- block building ------------------------------------------------------

    def build_block(self) -> Block:
        executing = self.height + 1
        events_start = len(self.events)
        executed: list[tuple[Transaction, str]] = []
        pools = (self._pool, self._private_pool)
        try:
            # each step runs, from either pool, a sender's next nonce with the
            # highest gas price, the earliest arrival breaking ties
            while ready := [(tx.gas_price, -seq, pool, i) for pool in pools
                            for i, (seq, tx) in enumerate(pool)
                            if tx.nonce == self.nonces.get(tx.sender, 0)]:
                *_, pool, i = max(ready)
                _, tx = pool.pop(i)
                executed.append((tx, self._execute(tx, executing)))
        finally:
            # also when a transaction raised: _execute undid it, the ones before
            # it form the block, and the error propagates before the observers.
            # Stale entries were superseded in this block or earlier; future ones wait.
            for pool in pools:
                pool[:] = [(seq, tx) for seq, tx in pool
                           if tx.nonce >= self.nonces.get(tx.sender, 0)]
            block = Block(executing, tuple(executed))
            self.blocks.append(block)
            self.height = executing

        new_events = self.events[events_start:]
        for observer in self.block_observers:
            observer(block, new_events)
        return block

    def _execute(self, tx: Transaction, height: int) -> str:
        start = len(self.events)
        self._journal = []
        self._put(self.nonces, tx.sender, tx.nonce + 1)
        try:
            self._apply_payload(tx, height)
        except BaseException as err:
            # undo the writes, then cut the log back to where the transaction
            # began; a revert keeps the nonce bump (the first undo step), and
            # anything else undoes that too and propagates
            reverted = isinstance(err, RevertError)
            for undo in reversed(self._journal[1 if reverted else 0:]):
                undo()
            del self.events[start:]
            if not reverted:
                raise
            outcome = f"Reverted:{err.reason}"
            self._record(tx.payload, tx.sender, height, outcome)
        else:
            outcome = EXECUTED
        finally:
            self._journal = None
        return outcome

    def _record(self, p: Payload, sender: Address, height: int, outcome: str, **fields) -> None:
        """Log a payload through its describe(), with fields overridden."""
        kind, described = p.describe(sender)
        self.events.append(LedgerEvent(height, kind, {**described, **fields, "outcome": outcome}))

    def _apply_payload(self, tx: Transaction, height: int) -> None:
        p = tx.payload
        if isinstance(p, NativeTransfer):
            self._fungible_move(NATIVE, tx.sender, p.to, p.amount, height)
        elif isinstance(p, TokenTransfer):
            self._fungible_move(p.token, tx.sender, p.to, p.amount, height)
        elif isinstance(p, TokenTransferFrom):
            self._fungible_move_from(p.token, p.owner, p.to, tx.sender, p.amount, height)
        elif isinstance(p, Approve):
            self._apply_approve(tx.sender, p, height)
        elif isinstance(p, NftTransfer):
            self._nft_move(p.token, tx.sender, p.to, p.token_id, height)
        else:  # a ContractCall, the last kind submission lets through
            contract = self.contracts.get(p.contract)
            if contract is None:
                raise UnknownContract(f"no contract at {p.contract}")
            ctx = ExecutionContext(self, p.contract, tx, height)
            try:
                contract.call(p.method, p.args, ctx)
            except (ValueError, TypeError, ArithmeticError) as exc:
                # anyone can sign a call whose arguments do not decode
                raise InvalidArgument(f"{p.method}: {exc}") from exc
            self._record(p, tx.sender, height, EXECUTED)

    # -- state mutation (journaled during execution) ---------------------------

    def _put(self, table: dict, key, value) -> None:
        """The one write of a ledger table; inside a transaction it can be undone."""
        if self._journal is not None:
            if key in table:
                old = table[key]
                self._journal.append(lambda: table.__setitem__(key, old))
            else:
                self._journal.append(lambda: table.pop(key))
        table[key] = value

    def _token(self, token: str, kind: str | None = None) -> TokenState:
        """The token contract named token, of the given kind if one is given."""
        state = self.tokens.get(token)
        if state is None:
            raise UnknownToken(f"unknown token {token!r}")
        if kind is not None and state.kind != kind:
            raise WrongTokenKind(f"token {token!r} is not {kind}")
        return state

    def _balances_for(self, token: str) -> dict:
        if token == NATIVE:
            return self.native_balances
        return self._token(token, "fungible").balances

    def _fungible_move(self, token: str, frm: Address, to: Address, amount: int,
                       height: int, kind: str = "Transfer", **extra) -> None:
        if amount < 0:
            raise InvalidAmount(f"cannot move a negative amount {amount} of {token}")
        balances = self._balances_for(token)
        if balances.get(frm, 0) < amount:
            raise InsufficientBalance(
                f"{frm} holds {balances.get(frm, 0)} {token}, needs {amount}"
            )
        for addr, delta in ((frm, -amount), (to, amount)):
            self._put(balances, addr, balances.get(addr, 0) + delta)
        fields = {"from": frm, "to": to, "token": token, "amount": amount, **extra}
        event = LedgerEvent(height, kind, {**fields, "outcome": EXECUTED})
        self.events.append(event)
        for addr in {frm, to}:
            records = self._transfers.setdefault((token, addr), [])
            records.append(event)
            if self._journal is not None:
                self._journal.append(records.pop)

    def _fungible_move_from(self, token: str, owner: Address, to: Address,
                            spender: Address, amount: int, height: int) -> None:
        allowances = self._token(token, "fungible").allowances
        allowance = allowances.get((owner, spender), 0)
        if allowance is not UNLIMITED:
            if allowance < amount:
                raise InsufficientAllowance(
                    f"{spender} allowed {allowance} of {owner}'s {token}, needs {amount}"
                )
            self._put(allowances, (owner, spender), allowance - amount)
        self._fungible_move(token, owner, to, amount, height, spender=spender)

    def _apply_approve(self, owner: Address, p: Approve, height: int) -> None:
        if p.amount is not UNLIMITED and p.amount < 0:
            raise InvalidAmount(f"cannot approve a negative amount {p.amount} of {p.token}")
        state = self._token(p.token)
        if state.kind == "fungible":
            self._put(state.allowances, (owner, p.spender), p.amount)
            self._record(p, owner, height, EXECUTED)
        else:
            # NFT approval grants collection-wide operator rights
            self._put(state.operators, (owner, p.spender), True)
            self._record(p, owner, height, EXECUTED, amount=UNLIMITED)

    def _nft_move(self, token: str, frm: Address, to: Address, token_id: int,
                  height: int) -> None:
        owners = self._token(token, "nft").nft_owners
        if owners.get(token_id) != frm:
            raise NotOwner(f"{frm} does not own {token}#{token_id}")
        self._put(owners, token_id, to)
        fields = {"from": frm, "to": to, "token": token, "token_id": token_id, "outcome": EXECUTED}
        self.events.append(LedgerEvent(height, "NftTransfer", fields))

    def _nft_move_by_operator(self, token: str, owner: Address, to: Address,
                              operator: Address, token_id: int, height: int) -> None:
        if not self._token(token, "nft").operators.get((owner, operator), False):
            raise InsufficientAllowance(
                f"{operator} is not an approved operator for {owner} on {token}"
            )
        self._nft_move(token, owner, to, token_id, height)

    # -- bridge hooks (scheduler-level, outside block execution) ---------------

    def apply_bridge_lock(self, source: Address, escrow: Address, token: str,
                          amount: int) -> None:
        """Debit the source into escrow as part of an atomic bridge step.

        Runs between blocks as part of the tick that produces the next
        block, so its event lands at height + 1. Recording at the
        already-built height would silently rewrite historical balances,
        including the inflection-time balance.
        """
        if self._journal is not None:
            raise RuntimeError("bridge lock cannot run inside transaction execution")
        self._fungible_move(token, source, escrow, amount, self.height + 1, kind="BridgeLock")
