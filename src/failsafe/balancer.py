"""Assets Balancer Service: hot/cold ratio maintenance.

After each block, compares every enrolled wallet's hot balance against
its policy target fraction of the combined hot-plus-contract holdings.
Outside the tolerance band it submits a single-signature rebalance
through the FailSafe contract, moving the integer-rounded difference.
Rebalancing pauses for users with an active threat flag so an intercept
is not immediately undone.

Only fungible token contracts participate: the native currency cannot be
pulled from the hot wallet without an approval mechanism, and NFTs have
no meaningful ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .contract import FailSafeContract, KeyCustodian, OperationKind
from .crypto import Address
from .ledger import Ledger, NATIVE


def _round_half_up(x: Fraction) -> int:
    return int(x + Fraction(1, 2)) if x >= 0 else -int(-x + Fraction(1, 2))


@dataclass(frozen=True)
class RebalanceAction:
    owner: str
    wallet: Address
    contract_address: Address
    token: str
    delta: int  # positive: hot -> contract; negative: contract -> hot


class BalancerService:
    def __init__(
        self,
        ledger: Ledger,
        custodian: KeyCustodian,
        contracts: list[FailSafeContract],
        threat_flags: set,
    ):
        self.ledger = ledger
        self.custodian = custodian
        self.contracts = contracts
        self.threat_flags = threat_flags
        self.actions: list[RebalanceAction] = []

    def check_ratio(
        self, contract: FailSafeContract, wallet: Address, token: str
    ) -> RebalanceAction | None:
        record = contract.enrollments[wallet]
        hot = self.ledger.balance_of(wallet, token)
        cold = self.ledger.balance_of(contract.address, token)
        total = hot + cold
        if total == 0:
            return None
        target = record.policy.hot_fraction_target
        if abs(Fraction(hot, total) - target) <= record.policy.hot_fraction_tolerance:
            return None
        delta = hot - _round_half_up(target * total)
        if delta == 0:
            return None
        return RebalanceAction(contract.owner, wallet, contract.address, token, delta)

    def on_tick(self) -> None:
        for contract in self.contracts:
            if contract.owner in self.threat_flags:
                continue
            for wallet, record in contract.enrollments.items():
                for token in record.tokens:
                    if token == NATIVE:
                        continue
                    state = self.ledger.tokens.get(token)
                    if state is None or state.kind != "fungible":
                        continue
                    action = self.check_ratio(contract, wallet, token)
                    if action is None:
                        continue
                    self.actions.append(action)
                    tx = contract.execute_tx(
                        OperationKind.REBALANCE,
                        (bytes(wallet), token, action.delta),
                        [self.custodian.key_for("rebalance")],
                        self.custodian.key_for("relayer"),
                    )
                    self.ledger.submit_transaction(tx)
                    self.ledger.take_pending()  # keep own submissions off the FIS stream
