"""FailSafe Interceptor Service: defensive front-running.

Watches the public mempool stream for transactions that touch enrolled
wallets. When the counterparty scores as risky or the wallet's spending
window would exceed its policy cap, FIS submits an intercept transaction
through the user's FailSafe contract at a strictly higher gas price, so
the block builder orders it first and the threatening transaction
reverts against an emptied wallet.

Private relay traffic never reaches the mempool stream, so FIS is blind
to it by construction; the exceptions list (ledger side) is the defense
for that path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .contract import EnrolledWallet, FailSafeContract, KeyCustodian, OperationKind
from .crypto import Address
from .fbr import INTERCEPT_SCORE_THRESHOLD, RiskService
from .ledger import (
    Approve,
    EXECUTED,
    Ledger,
    LedgerEvent,
    NativeTransfer,
    NftTransfer,
    TokenTransfer,
    TokenTransferFrom,
    Transaction,
)

IGNORE = "ignore"
INTERCEPT = "intercept"
ALERT = "alert"  # threat without an interceptable asset (e.g. native drain)


def intercept_gas_price(attacker_gas_price: int) -> int:
    """Strictly out-bid: 10 percent premium with a +1 floor."""
    g = attacker_gas_price
    return max((g * 11 + 9) // 10, g + 1)


@dataclass(frozen=True)
class InterceptDecision:
    action: str
    contract: FailSafeContract | None = None
    wallet: Address | None = None
    assets: tuple = ()  # (asset kind, token, amount-or-None | token id)
    trigger: str | None = None
    target_gas_price: int | None = None
    attacker_tx: Transaction | None = None


_IGNORE = InterceptDecision(IGNORE)


def _exposure(tx: Transaction):
    """(spending wallet, counterparty, assets, outflow, recipient, custody
    exempt) of a pending payload, or None when it moves nothing. Assets of
    None stand for what an approval grants, read once the owner is enrolled.
    """
    p = tx.payload
    if isinstance(p, NativeTransfer):
        return tx.sender, p.to, (), p.amount, p.to, True
    if isinstance(p, TokenTransfer):
        return tx.sender, p.to, (("fungible", p.token, None),), p.amount, p.to, True
    if isinstance(p, TokenTransferFrom):
        # the spender, not the recipient, is the counterparty of a pull
        return p.owner, tx.sender, (("fungible", p.token, None),), p.amount, p.to, False
    if isinstance(p, NftTransfer):
        return tx.sender, p.to, (("nft", p.token, p.token_id),), None, p.to, True
    if isinstance(p, Approve) and p.amount != 0:  # a zero approval revokes
        return tx.sender, p.spender, None, None, None, True
    return None


class WindowAccumulator:
    """Per-wallet ring of (height, outflow) slices over recent blocks."""

    def __init__(self):
        self._rings: dict[Address, deque] = {}

    def add(self, wallet: Address, height: int, amount: int) -> None:
        self._rings.setdefault(wallet, deque()).append((height, amount))

    def total(self, wallet: Address, current_height: int, window_length: int) -> int:
        ring = self._rings.get(wallet)
        if not ring:
            return 0
        floor = current_height - window_length + 1
        while ring and ring[0][0] < floor:
            ring.popleft()
        return sum(amount for _, amount in ring)


class InterceptorService:
    def __init__(
        self,
        ledger: Ledger,
        risk: RiskService,
        custodian: KeyCustodian,
        contracts: list[FailSafeContract],
        threat_flags: set,
    ):
        self.ledger = ledger
        self.risk = risk
        self.custodian = custodian
        self.contracts = contracts
        self.threat_flags = threat_flags
        self.window = WindowAccumulator()
        self.alerts: list[str] = []
        self.alerts_by_user: dict[str, list[str]] = {}
        # (decision, intercept tx, chain height when the threat was seen)
        self.intercept_records: list[tuple[InterceptDecision, Transaction, int]] = []
        # wallet -> (vault, record), the first vault winning as in find_enrollment;
        # only a block writes enrollments, so it is rebuilt once the height moves
        self._vault_of: dict[Address, tuple[FailSafeContract, EnrolledWallet]] = {}
        self._indexed_at: int | None = None

    def enrollment_of(self, wallet: Address):
        """find_enrollment(self.contracts, wallet), read from the index."""
        if self._indexed_at != self.ledger.height:
            self._indexed_at = self.ledger.height
            self._vault_of.clear()
            for contract in reversed(self.contracts):  # so the first vault's entry stays
                self._vault_of.update((w, (contract, r)) for w, r in contract.enrollments.items())
        return self._vault_of.get(wallet)

    # -- decision ------------------------------------------------------------------

    def on_pending_tx(self, tx: Transaction) -> InterceptDecision:
        exposure = _exposure(tx)
        if exposure is None:
            return _IGNORE
        wallet, counterparty, assets, outflow, recipient, custody_exempt = exposure
        hit = self.enrollment_of(wallet)
        if hit is not None:
            contract, record = hit
            if custody_exempt and counterparty == contract.address:
                return _IGNORE  # custody move, not a counterparty
            if assets is None:
                assets = self._approved_assets(wallet, tx.payload)
        else:
            # an unenrolled spender can only threaten an enrolled recipient
            hit = self.enrollment_of(recipient)
            if hit is None:
                return _IGNORE
            contract, record = hit
            counterparty, assets, outflow = tx.sender, (), None

        trigger = None
        verdict = self.risk.risk_score(counterparty)
        if verdict.score >= INTERCEPT_SCORE_THRESHOLD:
            trigger = f"RiskScore:{verdict.score}"
        elif outflow is not None:
            projected = outflow + self.window.total(
                record.wallet, self.ledger.height, record.policy.window_length
            )
            if projected > record.policy.max_value_per_window:
                trigger = "PolicyLimit"
        if trigger is None:
            return _IGNORE
        return InterceptDecision(
            action=INTERCEPT if assets else ALERT,
            contract=contract,
            wallet=record.wallet,
            assets=assets,
            trigger=trigger,
            target_gas_price=intercept_gas_price(tx.gas_price),
            attacker_tx=tx,
        )

    def _approved_assets(self, wallet: Address, p: Approve) -> tuple:
        state = self.ledger.tokens.get(p.token)
        if state is None:
            return ()
        if state.kind == "fungible":
            return (("fungible", p.token, None),)
        owned = [tid for tid, owner in state.nft_owners.items() if owner == wallet]
        return tuple(("nft", p.token, tid) for tid in owned)

    # -- acting ----------------------------------------------------------------------

    @property
    def intercept_count(self) -> int:
        return len(self.intercept_records)

    def on_tick(self, pending: list[Transaction]) -> None:
        for tx in pending:
            decision = self.on_pending_tx(tx)
            if decision.action == IGNORE:
                continue
            intercept_id = "none"
            if decision.action == INTERCEPT:
                itx = decision.contract.execute_tx(
                    OperationKind.INTERCEPT,
                    (bytes(decision.wallet), decision.assets),
                    [self.custodian.key_for("intercept")],
                    self.custodian.key_for("relayer"),
                    decision.target_gas_price,
                )
                # the intercept re-enters the pending stream next tick, where
                # _exposure ignores it as a contract call
                self.ledger.submit_transaction(itx)
                self.intercept_records.append((decision, itx, self.ledger.height))
                intercept_id = itx.tx_id_hex
            owner = decision.contract.owner
            self.threat_flags.add(owner)
            line = (f"user={owner} trigger={decision.trigger} "
                    f"attackerTx={decision.attacker_tx.tx_id_hex} interceptTx={intercept_id}")
            self.alerts.append(line)
            self.alerts_by_user.setdefault(owner, []).append(line)

    # -- window accounting (committed events) ------------------------------------------

    def on_block_events(self, events: list[LedgerEvent]) -> None:
        for ev in events:
            if ev.kind != "Transfer" or ev.get("outcome") != EXECUTED:
                continue
            sender = ev.get("from")
            hit = self.enrollment_of(sender)
            if hit is None:
                continue
            contract, _ = hit
            if ev.get("to") == contract.address:
                continue  # custody moves do not consume the spending window
            self.window.add(sender, ev.height, ev.get("amount"))
