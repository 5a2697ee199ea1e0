"""Hot/cold rebalancing: ratio checks, rounding, threat pause, both directions."""

import random
from fractions import Fraction
from types import SimpleNamespace

from failsafe.balancer import BalancerService, _round_half_up
from failsafe.contract import (
    DEFAULT_THRESHOLDS,
    KeyCustodian,
    OperationKind,
    PolicyConfig,
    deploy_failsafe,
    enroll_wallet,
)
from failsafe.crypto import Address, KeyPair
from failsafe.ledger import NATIVE, Ledger, NativeTransfer, TokenTransfer, sign_transaction
from failsafe.qmig import QmigContract

QMIG_ADDRESS = Address(bytes(range(60, 80)))

def make_world(hot_amount, cold_amount, target=Fraction(1, 5), tolerance=Fraction(1, 20)):
    rng = random.Random(55)
    ledger = Ledger()
    ledger.create_token("gold")
    custodian = KeyCustodian()
    for role in ("rebalance", "relayer"):
        custodian.add_role(role, KeyPair.generate(rng))
    qmig = QmigContract(ledger, QMIG_ADDRESS, admin_pq_public=None)
    ledger.register_contract(QMIG_ADDRESS, qmig)
    contract = deploy_failsafe(
        ledger,
        "erin",
        [custodian.key_for("rebalance").address],
        {**DEFAULT_THRESHOLDS, OperationKind.WITHDRAW: 1, OperationKind.UPDATE_CONFIG: 1},
        QMIG_ADDRESS,
        custodian,
        KeyPair.generate(rng),
    )
    hot = KeyPair.generate(rng)
    ledger.genesis_allocate(hot.address, "gold", hot_amount)
    if cold_amount:
        ledger.genesis_allocate(contract.address, "gold", cold_amount)
    policy = PolicyConfig(target, tolerance, 10 ** 9, 5)
    enroll_wallet(
        ledger, contract, hot, policy, ["gold"], dest_chain_id=2, dest_address=hot.address
    )
    ledger.build_block()
    ledger.take_pending()
    threat_flags = set()
    balancer = BalancerService(ledger, custodian, [contract], threat_flags)
    return SimpleNamespace(
        ledger=ledger,
        contract=contract,
        hot=hot,
        balancer=balancer,
        threat_flags=threat_flags,
    )


def hot_and_cold(world):
    return (
        world.ledger.balance_of(world.hot.address, "gold"),
        world.ledger.balance_of(world.contract.address, "gold"),
    )


def test_round_half_up_behavior():
    assert _round_half_up(Fraction(5, 2)) == 3
    assert _round_half_up(Fraction(3, 2)) == 2
    assert _round_half_up(Fraction(7, 5)) == 1
    assert _round_half_up(Fraction(-5, 2)) == -3
    assert _round_half_up(Fraction(0)) == 0


def test_empty_holdings_need_no_action():
    world = make_world(0, 0)
    assert world.balancer.check_ratio(world.contract, world.hot.address, "gold") is None


def test_within_tolerance_needs_no_action():
    # 230 of 1000 hot = 0.23; |0.23 - 0.2| <= 0.05
    world = make_world(230, 770)
    assert world.balancer.check_ratio(world.contract, world.hot.address, "gold") is None


def test_excess_hot_balance_moves_to_custody():
    # 800 of 1600 hot; target cut is round(0.2 * 1600) = 320, so 480 moves out
    world = make_world(800, 800)
    action = world.balancer.check_ratio(world.contract, world.hot.address, "gold")
    assert action.delta == 480
    world.balancer.on_tick()
    world.ledger.build_block()
    assert hot_and_cold(world) == (320, 1280)
    assert len(world.balancer.actions) == 1


def test_depleted_hot_balance_gets_topped_up():
    # 100 of 1000 hot = 0.1; target holding is 200, so 100 flows back
    world = make_world(100, 900)
    action = world.balancer.check_ratio(world.contract, world.hot.address, "gold")
    assert action.delta == -100
    world.balancer.on_tick()
    world.ledger.build_block()
    assert hot_and_cold(world) == (200, 800)


def test_post_rebalance_ratio_error_is_below_one_unit():
    for hot, cold in ((800, 800), (999, 1), (1, 999), (350, 313)):
        world = make_world(hot, cold)
        world.balancer.on_tick()
        world.ledger.build_block()
        new_hot, new_cold = hot_and_cold(world)
        total = new_hot + new_cold
        assert total == hot + cold
        assert abs(Fraction(new_hot, total) - Fraction(1, 5)) <= Fraction(1, total)


def test_threat_flag_pauses_rebalancing():
    world = make_world(800, 800)
    world.threat_flags.add("erin")
    world.balancer.on_tick()
    world.ledger.build_block()
    assert hot_and_cold(world) == (800, 800)
    assert world.balancer.actions == []
    world.threat_flags.discard("erin")
    world.balancer.on_tick()
    world.ledger.build_block()
    assert hot_and_cold(world) == (320, 1280)


def test_drift_inside_band_stays_untouched():
    world = make_world(800, 800)
    world.balancer.on_tick()
    world.ledger.build_block()
    # a small outflow nudges the ratio but stays inside the 0.05 band
    donor = KeyPair.generate(random.Random(2))
    tx = sign_transaction(
        world.hot, world.ledger.next_nonce(world.hot.address), 1,
        TokenTransfer("gold", donor.address, 30),
    )
    world.ledger.submit_transaction(tx)
    world.ledger.build_block()
    world.balancer.on_tick()
    world.ledger.build_block()
    assert world.ledger.balance_of(world.hot.address, "gold") == 290
    assert len(world.balancer.actions) == 1  # only the initial correction


def test_native_currency_is_not_rebalanced():
    # the wallet is enrolled for "gold" only; its native holdings are not
    # reachable without an approval mechanism, so no action may touch them
    world = make_world(200, 800)
    native_before = world.ledger.balance_of(world.hot.address, NATIVE)
    world.balancer.on_tick()
    world.ledger.build_block()
    assert world.ledger.balance_of(world.hot.address, NATIVE) == native_before
    assert all(action.token == "gold" for action in world.balancer.actions)
