"""Per-user multi-signature FailSafe vault contract.

A factory deploys one contract instance per user. Wallets enroll by
granting the contract token approvals and registering qMig migration
intents. Asset-moving operations (intercept, rebalance, withdraw) and
configuration changes execute only under a threshold of distinct signer
authorizations over a replay-protected digest.

Destinations are structurally restricted: intercepts pull into the
contract itself, withdrawals and rebalances move only between the
contract and an enrolled wallet.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Iterator

from .crypto import (
    Address,
    KeyPair,
    RecoverableSignature,
    RecoveryError,
    keccak256,
    recover_signer,
)
from .crypto.secp256k1 import sign_batch
from .encoding import encode_value
from .ledger import (
    Approve,
    ContractCall,
    ExecutionContext,
    Ledger,
    RevertError,
    Transaction,
    UNLIMITED,
    UnknownMethod,
    byte_argument,
    sign_transaction,
)
from .qmig import TransferIntentSource, build_intent_digest, build_intent_digests


class InvalidThresholds(RevertError):
    pass


class InvalidPolicy(RevertError):
    pass


class AlreadyEnrolled(RevertError):
    pass


class NotEnrolled(RevertError):
    pass


class InsufficientSignatures(RevertError):
    pass


class UnknownSigner(RevertError):
    pass


class ReplayedAuthorization(RevertError):
    pass


class UnknownOperation(RevertError):
    pass


class CustodianUnavailable(Exception):
    """The key custodian holds no key for the requested role."""


class OperationKind(str, Enum):
    INTERCEPT = "intercept"
    REBALANCE = "rebalance"
    WITHDRAW = "withdraw"
    UPDATE_CONFIG = "updateConfig"


# interception and rebalancing stay single-signature so automated services
# can act alone; withdrawals and configuration changes need a second signer
DEFAULT_THRESHOLDS = MappingProxyType({
    OperationKind.INTERCEPT: 1,
    OperationKind.REBALANCE: 1,
    OperationKind.WITHDRAW: 2,
    OperationKind.UPDATE_CONFIG: 2,
})


@dataclass(frozen=True)
class PolicyConfig:
    """User-level custody policy, in the integers `enroll` takes: hot fraction
    target target_num/target_den, tolerance tolerance_num/tolerance_den, and a
    spend-rate cap of max_value_per_window over window_length blocks."""

    target_num: int
    target_den: int
    tolerance_num: int
    tolerance_den: int
    max_value_per_window: int
    window_length: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int:
                raise TypeError(f"policy {name} must be an integer, got {value!r}")
        if self.target_den < 1 or self.tolerance_den < 1:
            raise ValueError("policy denominators must be at least 1")
        if not 0 <= self.target_num <= self.target_den:
            raise ValueError(f"hot fraction {self.target_num}/{self.target_den} outside [0, 1]")
        if self.tolerance_num < 0:
            raise ValueError("hot fraction tolerance must be non-negative")
        if self.max_value_per_window < 0:
            raise ValueError("window value cap must be non-negative")
        if self.window_length < 1:
            raise ValueError("window length must be at least one block")


@dataclass
class MultisigConfig:
    signers: tuple[Address, ...]
    thresholds: dict[OperationKind, int]

    def __post_init__(self):
        if not self.signers:
            raise InvalidThresholds("signer set must not be empty")
        if len(set(self.signers)) != len(self.signers):
            raise InvalidThresholds("signer addresses must be distinct")
        for op in OperationKind:
            n = self.thresholds.get(op)
            if n is None:
                raise InvalidThresholds(f"no threshold configured for {op.value}")
            if not 1 <= n <= len(self.signers):
                raise InvalidThresholds(
                    f"threshold {n} for {op.value} outside 1..{len(self.signers)}"
                )


@dataclass
class EnrolledWallet:
    wallet: Address
    policy: PolicyConfig
    tokens: tuple[str, ...]
    dest_chain_id: int
    dest_address: Address
    # the vault -> wallet migration intent registered at enrollment, kept so
    # the custodian can later prove the inflow route to qMig
    custody_intent: tuple[TransferIntentSource, RecoverableSignature]


class KeyCustodian:
    """In-memory stand-in for enclave key custody: role -> signing key."""

    def __init__(self):
        self._keys: dict[str, KeyPair] = {}

    def add_role(self, role: str, key: KeyPair) -> None:
        if role in self._keys:
            raise ValueError(f"role {role!r} already provisioned")
        self._keys[role] = key

    def key_for(self, role: str) -> KeyPair:
        key = self._keys.get(role)
        if key is None:
            raise CustodianUnavailable(f"no custodian key for role {role!r}")
        return key


class FailSafeContract:
    def __init__(
        self,
        ledger: Ledger,
        key: KeyPair,
        owner: str,
        config: MultisigConfig,
        qmig_address: Address,
    ):
        self.ledger = ledger
        self.key = key
        self.address = key.address
        self.owner = owner
        self.config = config
        self.qmig_address = qmig_address
        self.enrollments: dict[Address, EnrolledWallet] = {}
        # wallet -> (source, signature) of the custody intent signed with its
        # enrollment bundle, until _enroll takes it
        self.prepared_custody: dict[Address, tuple[TransferIntentSource, RecoverableSignature]] = {}
        self._consumed: set[bytes] = set()
        self._auth_sequence = 0
        self._last_auth = (b"", b"")  # (message, digest) last hashed

    def custody_source(self, wallet: Address) -> TransferIntentSource:
        """Vault -> wallet intent: custody releases count toward the wallet's permitted amount."""
        chain = self.ledger.chain_id
        return TransferIntentSource(chain, self.address, chain, wallet)

    # -- authorization ------------------------------------------------------------

    def authorization_digest(self, op: OperationKind, op_args: tuple, nonce: int) -> bytes:
        message = b"FS-AUTH" + encode_value(
            (self.ledger.chain_id, bytes(self.address), op.value, op_args, nonce)
        )
        # authorize, then _execute, hash one message: keep the last one's digest
        if message != self._last_auth[0]:
            self._last_auth = (message, keccak256(message))
        return self._last_auth[1]

    def next_auth_nonce(self) -> int:
        """Client-side convention: monotone nonces; the consumed-digest set
        is the actual replay protection."""
        nonce = self._auth_sequence
        self._auth_sequence += 1
        return nonce

    def authorize(
        self, op: OperationKind, op_args: tuple, nonce: int, keys: Iterable[KeyPair]
    ) -> tuple[RecoverableSignature, ...]:
        keys = list(keys)
        digest = self.authorization_digest(op, op_args, nonce)
        return tuple(sign_batch(keys, [digest] * len(keys)))

    def execute_tx(
        self, op: OperationKind, op_args: tuple, keys: Iterable[KeyPair],
        relayer_key: KeyPair, gas_price: int = 1,
    ) -> Transaction:
        """Authorize op with keys under a fresh nonce, wrapped for the relayer."""
        nonce = self.next_auth_nonce()
        sigs = self.authorize(op, op_args, nonce, keys)
        return build_execute_tx(
            self.ledger, self, relayer_key, op, op_args, sigs, nonce, gas_price
        )

    # -- contract-call entry point --------------------------------------------------

    def call(self, method: str, args: tuple, ctx: ExecutionContext):
        if method == "enroll":
            return self._enroll(args, ctx)
        if method == "execute":
            op_name, op_args, nonce, sig_blobs = args
            return self._execute(str(op_name), tuple(op_args), int(nonce), sig_blobs, ctx)
        raise UnknownMethod(f"FailSafe contract has no method {method!r}")

    def _enroll(self, args: tuple, ctx: ExecutionContext) -> None:
        policy_tuple, tokens, dest_chain_id, dest_address, intent_a_digest = args
        wallet = ctx.sender
        custody = self.prepared_custody.pop(wallet, None)
        if wallet in self.enrollments:
            raise AlreadyEnrolled(f"wallet {wallet} already enrolled with {self.owner}")
        if not isinstance(policy_tuple, (tuple, list)):  # bytes would unpack to six ints
            raise InvalidPolicy(f"policy is a {type(policy_tuple).__name__}, not a tuple or list")
        try:
            policy = PolicyConfig(*policy_tuple)
        except (ValueError, TypeError) as exc:
            raise InvalidPolicy(str(exc)) from exc
        # (b) the custody intent goes on the record, registered after (a); a
        # raw enroll call, which no bundle prepared, has it built here
        if custody is None:
            source_b = self.custody_source(wallet)
            custody = (source_b, build_intent_digest(source_b, self.key)[0])
        self.enrollments[wallet] = EnrolledWallet(
            wallet=wallet,
            policy=policy,
            tokens=tuple(str(t) for t in tokens),
            dest_chain_id=int(dest_chain_id),
            dest_address=Address(dest_address),
            custody_intent=custody,
        )
        ctx.record_undo(lambda: self.enrollments.pop(wallet, None))

        # (a) the wallet's own migration intent, digest built client-side;
        # the enrolling wallet signed this very transaction, so its key is
        # exposed on chain and the registry warning applies
        ctx.call_contract(
            self.qmig_address, "registerTransferIntent", (byte_argument(intent_a_digest), True)
        )
        ctx.call_contract(self.qmig_address, "registerTransferIntent",
                          (custody[1].serial_digest, False))

        ctx.emit("Enrolled", {"user": self.owner, "wallet": wallet})

    def _execute(
        self, op_name: str, op_args: tuple, nonce: int, sig_blobs, ctx: ExecutionContext
    ) -> None:
        try:
            op = OperationKind(op_name)
        except ValueError as exc:
            raise UnknownOperation(f"no operation named {op_name!r}") from exc
        digest = self.authorization_digest(op, op_args, nonce)
        if digest in self._consumed:
            raise ReplayedAuthorization(f"authorization for {op.value} nonce {nonce} already used")

        signer_set = set(self.config.signers)
        valid: dict[Address, None] = {}
        unknown_present = False
        for blob in sig_blobs:
            try:
                # a signature object that `authorize` made over this digest recovers
                # without EC work; 65 bytes parse to one that takes the full path
                if not isinstance(blob, RecoverableSignature):
                    blob = RecoverableSignature.from_bytes(byte_argument(blob))
                recovered = recover_signer(digest, blob)
            except (RecoveryError, ValueError):
                unknown_present = True
                continue
            if recovered in signer_set:
                valid[recovered] = None
            else:
                unknown_present = True
        threshold = self.config.thresholds[op]
        if len(valid) < threshold:
            if unknown_present:
                raise UnknownSigner(
                    f"{len(valid)} of {threshold} required signers; "
                    "submission includes signatures from outside the signer set"
                )
            raise InsufficientSignatures(f"{len(valid)} of {threshold} required signers")

        self._consumed.add(digest)
        ctx.record_undo(lambda: self._consumed.discard(digest))

        self._OPERATIONS[op](self, op_args, ctx)
        ctx.emit("MultisigExecuted", {"op": op.value, "sigs": len(valid)})

    # -- operations -----------------------------------------------------------------

    def _enrolled(self, wallet_bytes: bytes) -> EnrolledWallet:
        wallet = Address(wallet_bytes)
        record = self.enrollments.get(wallet)
        if record is None:
            raise NotEnrolled(f"wallet {wallet} is not enrolled with {self.owner}")
        return record

    def _op_intercept(self, op_args: tuple, ctx: ExecutionContext) -> None:
        wallet_bytes, assets = op_args
        record = self._enrolled(wallet_bytes)
        for asset_kind, token, value in assets:
            if asset_kind == "fungible":
                amount = (
                    self.ledger.balance_of(record.wallet, token) if value is None else int(value)
                )
                if amount > 0:
                    ctx.pull_with_allowance(str(token), record.wallet, amount)
            elif asset_kind == "nft":
                ctx.pull_nft(str(token), record.wallet, int(value))
            else:
                raise UnknownOperation(f"intercept cannot secure asset kind {asset_kind!r}")

    def _op_rebalance(self, op_args: tuple, ctx: ExecutionContext) -> None:
        wallet_bytes, token, delta = op_args
        record = self._enrolled(wallet_bytes)
        token = str(token)
        delta = int(delta)
        if delta > 0:
            ctx.pull_with_allowance(token, record.wallet, delta)
        elif delta < 0:
            ctx.transfer_out(token, record.wallet, -delta)
        ctx.emit("Rebalance", {"user": self.owner, "token": token, "delta": delta})

    def _op_withdraw(self, op_args: tuple, ctx: ExecutionContext) -> None:
        asset_kind, wallet_bytes, token, value = op_args
        record = self._enrolled(wallet_bytes)
        if asset_kind == "fungible":
            ctx.transfer_out(str(token), record.wallet, int(value))
        elif asset_kind == "nft":
            ctx.transfer_out_nft(str(token), record.wallet, int(value))
        else:
            raise UnknownOperation(f"withdraw cannot release asset kind {asset_kind!r}")

    def _op_update_config(self, op_args: tuple, ctx: ExecutionContext) -> None:
        (threshold_pairs,) = op_args
        new_thresholds = {
            OperationKind(str(name)): int(count) for name, count in threshold_pairs
        }
        candidate = MultisigConfig(self.config.signers, new_thresholds)
        old = self.config
        self.config = candidate
        ctx.record_undo(lambda: setattr(self, "config", old))

    _OPERATIONS = {
        OperationKind.INTERCEPT: _op_intercept,
        OperationKind.REBALANCE: _op_rebalance,
        OperationKind.WITHDRAW: _op_withdraw,
        OperationKind.UPDATE_CONFIG: _op_update_config,
    }


def find_enrollment(contracts: Iterable[FailSafeContract], wallet: Address):
    """The (contract, enrollment record) that enrolls wallet, or None."""
    for contract in contracts:
        record = contract.enrollments.get(wallet)
        if record is not None:
            return contract, record
    return None


def deploy_failsafe(
    ledger: Ledger,
    owner: str,
    signers: Iterable[Address],
    thresholds: dict[OperationKind, int],
    qmig_address: Address,
    key: KeyPair,
) -> FailSafeContract:
    """Factory: build the contract around its own key, register it on the ledger."""
    config = MultisigConfig(tuple(signers), dict(thresholds))
    contract = FailSafeContract(ledger, key, owner, config, qmig_address)
    ledger.register_contract(contract.address, contract)
    return contract


@dataclass(frozen=True)
class EnrollmentReceipt:
    """Client-side record of an enrollment submission.

    Holds the wallet's migration intent materials; the signature must be
    kept off chain to preserve the incognito property.
    """

    intent_source: TransferIntentSource
    intent_sig: RecoverableSignature
    txs: tuple[Transaction, ...]  # the approvals, then the enroll call


def enroll_wallet(
    ledger: Ledger,
    contract: FailSafeContract,
    hot_key: KeyPair,
    policy: PolicyConfig,
    protected_tokens: Iterable[str],
    dest_chain_id: int,
    dest_address: Address,
    gas_price: int = 1,
) -> EnrollmentReceipt:
    """Submit the enrollment transaction bundle for one hot wallet.

    Grants the contract an approval per protected token, then calls enroll,
    which registers both migration intents in the same transaction.
    """
    source = TransferIntentSource(ledger.chain_id, hot_key.address, dest_chain_id, dest_address)
    item = (contract, hot_key, policy, protected_tokens, source)
    return next(enroll_wallets(ledger, [item], gas_price))


def enroll_wallets(
    ledger: Ledger,
    items: list[tuple[FailSafeContract, KeyPair, PolicyConfig, Iterable[str],
                      TransferIntentSource]],
    gas_price: int = 1,
) -> Iterator[EnrollmentReceipt]:
    """Submit each (contract, hot key, policy, protected tokens, migration intent)
    bundle as enroll_wallet would, with every migration and custody intent hashed and
    signed in one batch first. Each receipt is yielded once its bundle is in the pool,
    so a bundle the ledger refuses raises from the `next` that would yield it."""
    custody = [(vault.custody_source(key.address), vault.key) for vault, key, *_ in items]
    intents = build_intent_digests([(source, key) for _, key, _, _, source in items] + custody)
    for item, (sig, digest), (source_b, _), (sig_b, _) in zip(
            items, intents, custody, intents[len(items):]):
        contract, hot_key, policy, protected_tokens, source = item
        tokens = tuple(protected_tokens)
        nonce = ledger.next_nonce(hot_key.address)
        txs = [sign_transaction(hot_key, nonce + i, gas_price,
                                Approve(token, contract.address, UNLIMITED))
               for i, token in enumerate(tokens)]
        args = (astuple(policy), tokens, source.dest_chain_id, bytes(source.dest_address), digest)
        txs.append(sign_transaction(
            hot_key, nonce + len(tokens), gas_price, ContractCall(contract.address, "enroll", args)
        ))
        for tx in txs:
            ledger.submit_transaction(tx)
        # the vault's enroll takes this instead of signing it again
        contract.prepared_custody[hot_key.address] = (source_b, sig_b)
        yield EnrollmentReceipt(intent_source=source, intent_sig=sig, txs=tuple(txs))


def build_execute_tx(
    ledger: Ledger,
    contract: FailSafeContract,
    relayer_key: KeyPair,
    op: OperationKind,
    op_args: tuple,
    sig_blobs: tuple[RecoverableSignature | bytes, ...],
    nonce: int,
    gas_price: int = 1,
) -> Transaction:
    """Wrap a signed multisig operation in a relayer-submitted transaction."""
    payload = ContractCall(
        contract.address, "execute", (op.value, op_args, nonce, sig_blobs)
    )
    return sign_transaction(
        relayer_key, ledger.next_nonce(relayer_key.address), gas_price, payload
    )
