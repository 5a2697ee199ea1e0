"""Mempool interception: gas out-bidding, decision rules, alerting, windows."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from failsafe.contract import (
    DEFAULT_THRESHOLDS,
    KeyCustodian,
    OperationKind,
    PolicyConfig,
    deploy_failsafe,
    enroll_wallet,
    find_enrollment,
)
from failsafe.crypto import Address, KeyPair
from failsafe.fbr import RiskService
from failsafe.fis import ALERT, IGNORE, INTERCEPT, InterceptorService, intercept_gas_price
from failsafe.ledger import (
    NATIVE,
    Approve,
    ContractCall,
    Ledger,
    NativeTransfer,
    NftTransfer,
    TokenTransfer,
    TokenTransferFrom,
    sign_transaction,
)
from failsafe.qmig import QmigContract

QMIG_ADDRESS = Address(bytes(range(40, 60)))

def make_world(window_cap=500, window_len=5):
    rng = random.Random(88)
    ledger = Ledger()
    ledger.create_token("gold")
    ledger.create_token("deeds", kind="nft")
    custodian = KeyCustodian()
    for role in ("intercept", "rebalance", "relayer"):
        custodian.add_role(role, KeyPair.generate(rng))
    qmig = QmigContract(ledger, QMIG_ADDRESS, admin_pq_public=None)
    ledger.register_contract(QMIG_ADDRESS, qmig)
    contract = deploy_failsafe(
        ledger,
        "alice",
        [custodian.key_for("intercept").address, custodian.key_for("rebalance").address],
        {**DEFAULT_THRESHOLDS, OperationKind.WITHDRAW: 2, OperationKind.UPDATE_CONFIG: 2},
        QMIG_ADDRESS,
        KeyPair.generate(rng),
    )
    hot = KeyPair.generate(rng)
    attacker = KeyPair.generate(rng)
    bystander = KeyPair.generate(rng)
    ledger.genesis_allocate(hot.address, "gold", 1000)
    ledger.genesis_allocate(hot.address, NATIVE, 800)
    ledger.genesis_allocate_nft(hot.address, "deeds", 1)
    ledger.genesis_allocate_nft(hot.address, "deeds", 2)
    ledger.genesis_allocate(attacker.address, NATIVE, 50)
    policy = PolicyConfig(1, 5, 1, 20, window_cap, window_len)
    enroll_wallet(
        ledger, contract, hot, policy, ["gold", "deeds"], dest_chain_id=2,
        dest_address=hot.address,
    )
    ledger.build_block()
    risk = RiskService()
    risk.add_entry(attacker.address, "FraudContract", "intel")
    threat_flags = set()
    fis = InterceptorService(ledger, risk, custodian, [contract], threat_flags)
    return SimpleNamespace(
        ledger=ledger,
        contract=contract,
        custodian=custodian,
        hot=hot,
        attacker=attacker,
        bystander=bystander,
        risk=risk,
        fis=fis,
        threat_flags=threat_flags,
    )


def signed(world, key, payload, gas_price=10):
    return sign_transaction(key, world.ledger.next_nonce(key.address), gas_price, payload)


# -- gas out-bidding ---------------------------------------------------------------


@pytest.mark.parametrize(
    "attacker_gas, expected",
    [(1, 2), (5, 6), (9, 10), (10, 11), (100, 110), (1000, 1100)],
)
def test_intercept_gas_price_strictly_outbids(attacker_gas, expected):
    assert intercept_gas_price(attacker_gas) == expected
    assert intercept_gas_price(attacker_gas) > attacker_gas


# -- decision rules -----------------------------------------------------------------


def test_token_drain_to_risky_address_intercepts():
    world = make_world()
    tx = signed(world, world.hot, TokenTransfer("gold", world.attacker.address, 900), 100)
    decision = world.fis.on_pending_tx(tx)
    assert decision.action == INTERCEPT
    assert decision.trigger == "RiskScore:100"
    assert decision.assets == (("fungible", "gold", None),)
    assert decision.target_gas_price == 110
    assert decision.wallet == world.hot.address


def test_native_drain_yields_alert_only():
    world = make_world()
    tx = signed(world, world.hot, NativeTransfer(world.attacker.address, 700))
    decision = world.fis.on_pending_tx(tx)
    assert decision.action == ALERT
    assert decision.assets == ()
    assert decision.trigger == "RiskScore:100"


def test_inbound_from_risky_sender_alerts():
    world = make_world()
    cases = [
        NativeTransfer(world.hot.address, 10),
        # a risky spender pulling a stranger's tokens into the wallet
        TokenTransferFrom("gold", world.bystander.address, world.hot.address, 5),
        NftTransfer("deeds", world.hot.address, 7),
    ]
    for payload in cases:
        decision = world.fis.on_pending_tx(signed(world, world.attacker, payload))
        assert decision.action == ALERT
        assert decision.trigger == "RiskScore:100"
        assert decision.wallet == world.hot.address


def test_allowance_pull_by_risky_spender_intercepts():
    world = make_world()
    tx = signed(
        world,
        world.attacker,
        TokenTransferFrom("gold", world.hot.address, world.attacker.address, 500),
        40,
    )
    decision = world.fis.on_pending_tx(tx)
    assert decision.action == INTERCEPT
    assert decision.assets == (("fungible", "gold", None),)
    assert decision.target_gas_price == 44


def test_approval_to_risky_spender_intercepts_full_holding():
    world = make_world()
    tx = signed(world, world.hot, Approve("gold", world.attacker.address, None))
    decision = world.fis.on_pending_tx(tx)
    assert decision.action == INTERCEPT
    assert decision.assets == (("fungible", "gold", None),)


def test_nft_approval_to_risky_spender_lists_owned_ids():
    world = make_world()
    tx = signed(world, world.hot, Approve("deeds", world.attacker.address, None))
    decision = world.fis.on_pending_tx(tx)
    assert decision.action == INTERCEPT
    assert set(decision.assets) == {("nft", "deeds", 1), ("nft", "deeds", 2)}


def test_nft_transfer_to_risky_address_intercepts():
    world = make_world()
    tx = signed(world, world.hot, NftTransfer("deeds", world.attacker.address, 2))
    decision = world.fis.on_pending_tx(tx)
    assert decision.action == INTERCEPT
    assert decision.assets == (("nft", "deeds", 2),)


def test_benign_traffic_is_ignored():
    world = make_world()
    cases = [
        # custody moves into the vault
        signed(world, world.hot, TokenTransfer("gold", world.contract.address, 100)),
        signed(world, world.hot, NftTransfer("deeds", world.contract.address, 1)),
        # approval granted to the vault itself
        signed(world, world.hot, Approve("gold", world.contract.address, None)),
        # zero approval (revocation)
        signed(world, world.hot, Approve("gold", world.attacker.address, 0)),
        # contract calls are not asset transfers
        signed(world, world.hot, ContractCall(QMIG_ADDRESS, "registerTransferIntent",
                                              (bytes(32), False))),
        # traffic between strangers
        signed(world, world.bystander, NativeTransfer(world.attacker.address, 1)),
        # clean counterparty under the policy cap
        signed(world, world.hot, TokenTransfer("gold", world.bystander.address, 100)),
    ]
    for tx in cases:
        assert world.fis.on_pending_tx(tx).action == IGNORE


def test_policy_limit_trips_on_projected_window():
    world = make_world(window_cap=300, window_len=5)
    first = signed(world, world.hot, TokenTransfer("gold", world.bystander.address, 200))
    assert world.fis.on_pending_tx(first).action == IGNORE
    world.ledger.submit_transaction(first)
    world.ledger.take_pending()
    world.ledger.build_block()
    world.fis.on_block_events(world.ledger.events)
    second = signed(world, world.hot, TokenTransfer("gold", world.bystander.address, 101))
    decision = world.fis.on_pending_tx(second)
    assert decision.action == INTERCEPT
    assert decision.trigger == "PolicyLimit"
    third = signed(world, world.hot, TokenTransfer("gold", world.bystander.address, 100))
    assert world.fis.on_pending_tx(third).action == IGNORE
    # a native outflow shares the window but has nothing to intercept
    native = world.fis.on_pending_tx(
        signed(world, world.hot, NativeTransfer(world.bystander.address, 101))
    )
    assert (native.action, native.trigger) == (ALERT, "PolicyLimit")


def test_risk_verdict_outranks_policy_trigger():
    world = make_world(window_cap=10, window_len=5)
    tx = signed(world, world.hot, TokenTransfer("gold", world.attacker.address, 900))
    decision = world.fis.on_pending_tx(tx)
    assert decision.trigger == "RiskScore:100"


def test_custody_moves_do_not_consume_the_window():
    world = make_world(window_cap=300, window_len=5)
    move = signed(world, world.hot, TokenTransfer("gold", world.contract.address, 250))
    world.ledger.submit_transaction(move)
    world.ledger.take_pending()
    world.ledger.build_block()
    world.fis.on_block_events(world.ledger.events)
    assert world.fis.window.total(world.hot.address, world.ledger.height, 5) == 0


# -- end to end ------------------------------------------------------------------------


def test_intercept_outruns_the_drain():
    world = make_world()
    drain = signed(world, world.hot, TokenTransfer("gold", world.attacker.address, 900), 100)
    world.ledger.submit_transaction(drain)
    world.fis.on_tick(world.ledger.take_pending())
    block = world.ledger.build_block()
    outcomes = {tx.tx_id: outcome for tx, outcome in block.txs}
    assert outcomes[drain.tx_id] == "Reverted:InsufficientBalance"
    assert world.ledger.balance_of(world.attacker.address, "gold") == 0
    assert world.ledger.balance_of(world.contract.address, "gold") == 1000
    assert world.fis.intercept_count == 1
    assert "alice" in world.threat_flags
    decision, itx, seen = world.fis.intercept_records[0]
    assert outcomes[itx.tx_id] == "Executed"
    assert itx.gas_price == 110
    assert seen == 1  # threat observed while the chain stood at height 1
    line = world.fis.alerts[0]
    assert line == (
        f"user=alice trigger=RiskScore:100 "
        f"attackerTx={drain.tx_id_hex} interceptTx={itx.tx_id_hex}"
    )
    assert world.fis.alerts_by_user["alice"] == [line]


def test_alert_path_emits_intercepttx_none():
    world = make_world()
    drain = signed(world, world.hot, NativeTransfer(world.attacker.address, 700))
    world.ledger.submit_transaction(drain)
    world.fis.on_tick(world.ledger.take_pending())
    assert world.fis.intercept_count == 0
    assert world.fis.alerts[0].endswith("interceptTx=none")
    assert "trigger=RiskScore:100" in world.fis.alerts[0]
    # the native drain itself still lands: nothing interceptable existed
    block = world.ledger.build_block()
    assert block.txs[0][1] == "Executed"


def test_second_intercept_against_empty_wallet_is_benign():
    world = make_world()
    for gas in (100, 101):
        drain = signed(world, world.hot, TokenTransfer("gold", world.attacker.address, 10), gas)
        world.ledger.submit_transaction(drain)
        world.fis.on_tick(world.ledger.take_pending())
        world.ledger.build_block()
    assert world.fis.intercept_count == 2
    _, second_itx, _ = world.fis.intercept_records[1]
    outcome = next(
        o for block in world.ledger.blocks for t, o in block.txs if t.tx_id == second_itx.tx_id
    )
    assert outcome == "Executed"
    assert world.ledger.balance_of(world.contract.address, "gold") == 1000


def test_own_intercept_is_ignored_on_the_next_tick():
    world = make_world()
    drain = signed(world, world.hot, TokenTransfer("gold", world.attacker.address, 900), 100)
    world.ledger.submit_transaction(drain)
    world.fis.on_tick(world.ledger.take_pending())
    _, itx, _ = world.fis.intercept_records[0]
    pending = world.ledger.take_pending()
    assert pending == [itx]  # the intercept reaches the stream like any submission
    world.fis.on_tick(pending)
    assert world.fis.intercept_count == 1 and len(world.fis.alerts) == 1


# -- the wallet -> vault index ----------------------------------------------------------


class _CheckedIndex(InterceptorService):
    """An interceptor that checks each index lookup against find_enrollment's scan."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = []  # (chain height, wallet, vault owner or None)

    def enrollment_of(self, wallet):
        hit = super().enrollment_of(wallet)
        scanned = find_enrollment(self.contracts, wallet)
        if scanned is None:
            assert hit is None
        else:
            assert hit[0] is scanned[0] and hit[1] is scanned[1]
        self.lookups.append((self.ledger.height, wallet, hit and hit[0].owner))
        return hit


# two vaults, three wallets and a stranger; keys are made once for every example
_INDEX_KEYS = KeyPair.from_privates(list(range(7001, 7007)))
_BAD_POLICY = (2, 1, 0, 1, 500, 10)  # a hot fraction above one: InvalidPolicy


def _run_enroll_sequence(ops):
    """Apply ops to a fresh chain; look every wallet up after each op and each block."""
    *vault_keys, stranger = _INDEX_KEYS[:3]
    wallets = _INDEX_KEYS[3:]
    ledger = Ledger()
    qmig = QmigContract(ledger, QMIG_ADDRESS, admin_pq_public=None)
    ledger.register_contract(QMIG_ADDRESS, qmig)
    signers = [key.address for key in vault_keys]
    vaults = [deploy_failsafe(ledger, owner, signers, DEFAULT_THRESHOLDS, QMIG_ADDRESS, key)
              for owner, key in zip(("first", "second"), vault_keys)]
    for wallet in wallets:
        ledger.genesis_allocate(wallet.address, NATIVE, 100)
    fis = _CheckedIndex(ledger, RiskService(), KeyCustodian(), vaults, set())
    policy = PolicyConfig(1, 5, 1, 20, 500, 10)

    def look():
        for wallet in wallets:  # as the spender, then as the recipient of a stranger
            fis.on_pending_tx(sign_transaction(wallet, 0, 1, NativeTransfer(stranger.address, 1)))
            fis.on_pending_tx(sign_transaction(stranger, 0, 1, NativeTransfer(wallet.address, 1)))

    outcomes = []
    for op, *where in [*ops, ("block",)]:
        if op == "enroll":
            vault, wallet = vaults[where[0]], wallets[where[1]]
            enroll_wallet(ledger, vault, wallet, policy, [], 2, wallet.address)
        elif op == "bad":
            vault, wallet = vaults[where[0]], wallets[where[1]]
            args = (_BAD_POLICY, (), 2, bytes(wallet.address), bytes(32))
            ledger.submit_transaction(sign_transaction(
                wallet, ledger.next_nonce(wallet.address), 1,
                ContractCall(vault.address, "enroll", args)))
        elif op == "pay":
            wallet = wallets[where[0]]
            ledger.submit_transaction(sign_transaction(
                wallet, ledger.next_nonce(wallet.address), 1, NativeTransfer(stranger.address, 1)))
        elif op == "block":
            seen = len(ledger.events)
            outcomes.extend(outcome for _, outcome in ledger.build_block().txs)
            fis.on_block_events(ledger.events[seen:])
        look()
    return fis, vaults, wallets, outcomes


_ENROLL_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["enroll", "bad"]), st.integers(0, 1), st.integers(0, 2)),
    st.tuples(st.just("pay"), st.integers(0, 2)),
    st.just(("block",)),
), max_size=10)

# the second vault enrolls wallet 0 a block before the first vault does
_LATER_VAULT_FIRST = [("enroll", 1, 0), ("block",), ("pay", 0), ("enroll", 0, 0), ("block",),
                      ("pay", 0)]
# an InvalidPolicy revert, then an AlreadyEnrolled one in the same block as the enroll
_REVERTS = [("bad", 0, 1), ("enroll", 0, 1), ("enroll", 0, 1), ("pay", 1)]


@given(_ENROLL_OPS)
@example(_LATER_VAULT_FIRST)
@example(_REVERTS)
def test_the_vault_index_agrees_with_find_enrollment(ops):
    fis, *_ = _run_enroll_sequence(ops)
    assert fis.lookups  # every lookup was checked inside enrollment_of


def test_the_index_keeps_the_first_vault_and_skips_reverted_enrolls():
    fis, vaults, wallets, outcomes = _run_enroll_sequence(_LATER_VAULT_FIRST)
    assert outcomes.count("Executed") == 4
    owners = {(height, owner) for height, wallet, owner in fis.lookups
              if wallet == wallets[0].address}
    # before block 1 nothing is enrolled; then the second vault, until the first one enrolls
    assert owners == {(0, None), (1, "second"), (2, "first"), (3, "first")}
    assert [vault.prepared_custody for vault in vaults] == [{}, {}]

    fis, vaults, wallets, outcomes = _run_enroll_sequence(_REVERTS)
    assert outcomes == ["Reverted:InvalidPolicy", "Executed", "Reverted:AlreadyEnrolled",
                        "Executed"]
    assert fis.enrollment_of(wallets[1].address)[0] is vaults[0]
    # the window counts the payment, found through the index, after block 1
    assert fis.window.total(wallets[1].address, 1, 10) == 1
