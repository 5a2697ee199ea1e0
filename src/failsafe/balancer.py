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

from .contract import FailSafeContract, KeyCustodian, OperationKind
from .crypto import Address
from .ledger import Ledger


@dataclass(frozen=True)
class RebalanceAction:
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
        policy = record.policy
        tn, td = policy.target_num, policy.target_den
        # |hot/total - tn/td| <= on/od, cross-multiplied by the positive td*total*od
        if abs(hot * td - tn * total) * policy.tolerance_den <= policy.tolerance_num * td * total:
            return None
        # the target share tn*total/td is non-negative, so flooring it plus
        # one half rounds half up
        delta = hot - (2 * tn * total + td) // (2 * td)
        if delta == 0:
            return None
        return RebalanceAction(token, delta)

    def on_tick(self) -> None:
        for contract in self.contracts:
            if contract.owner in self.threat_flags:
                continue
            for wallet, record in contract.enrollments.items():
                for token in record.tokens:
                    state = self.ledger.tokens.get(token)  # None for the native currency
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
