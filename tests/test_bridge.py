"""Bridge to the quantum-safe ledger: locks, mints, permission enforcement."""

import random
from types import SimpleNamespace

import pytest

from failsafe.bridge import (
    ESCROW_ADDRESS,
    Bridge,
    BridgeTransfer,
    ExceedsPermitted,
    QuantumSafeLedger,
    WrongChain,
    pq_address,
)
from failsafe.crypto import Address, KeyPair, PqKeyPair, sign
from failsafe.ledger import ContractCall, Ledger, TokenTransfer, sign_transaction
from failsafe.qmig import (
    InflectionUnset,
    LateIntent,
    QmigContract,
    TransferIntentSource,
    build_intent_digest,
    inflection_digest,
)

from conftest import register_intent

QMIG_ADDRESS = Address(bytes(range(120, 140)))
DEST_CHAIN = 2


def make_world(inflection=2, set_point=True):
    rng = random.Random(17)
    ledger = Ledger(chain_id=1)
    ledger.create_token("gold")
    admin = PqKeyPair.generate(rng)
    qmig = QmigContract(ledger, QMIG_ADDRESS, admin_pq_public=admin.public)
    ledger.register_contract(QMIG_ADDRESS, qmig)
    dest = QuantumSafeLedger(chain_id=DEST_CHAIN)
    bridge = Bridge(ledger, dest, qmig)
    victim = KeyPair.generate(rng)
    courier = KeyPair.generate(rng)
    dest_key = PqKeyPair.generate(rng)
    ledger.genesis_allocate(victim.address, "gold", 700)
    ledger.genesis_allocate(courier.address, "gold", 100)

    source = TransferIntentSource(1, victim.address, DEST_CHAIN, pq_address(dest_key.public))
    sig, digest = build_intent_digest(source, victim)
    register_intent(ledger, QMIG_ADDRESS, courier, digest)
    ledger.build_block()  # height 1: intent registered
    if set_point:
        pq_sig = admin.sign(inflection_digest(inflection)).to_bytes()
        tx = sign_transaction(
            courier,
            ledger.next_nonce(courier.address),
            1,
            ContractCall(QMIG_ADDRESS, "setInflectionPoint", (inflection, pq_sig)),
        )
        ledger.submit_transaction(tx)
        ledger.build_block()  # height 2: inflection set
    return SimpleNamespace(
        ledger=ledger,
        dest=dest,
        bridge=bridge,
        qmig=qmig,
        victim=victim,
        courier=courier,
        dest_key=dest_key,
        source=source,
        sig=sig,
    )


def request(world, amount, source=None, sig=None):
    return BridgeTransfer(
        source=source or world.source,
        token="gold",
        amount=amount,
        intent_sig=sig or world.sig,
    )


def test_happy_path_locks_and_mints():
    world = make_world()
    world.bridge.bridge_transfer(request(world, 400))
    world.ledger.build_block()
    dest_addr = pq_address(world.dest_key.public)
    assert world.ledger.balance_of(world.victim.address, "gold") == 300
    assert world.ledger.balance_of(ESCROW_ADDRESS, "gold") == 400
    assert world.dest.balance_of(dest_addr, "gold") == 400
    assert world.bridge.book.locked_on_source == {"gold": 400}
    assert world.bridge.book.cumulative_bridged == {(world.victim.address, "gold"): 400}
    assert world.bridge.book.conservation_holds()
    ok = [ev for ev in world.ledger.events if ev.kind == "Bridge"]
    assert len(ok) == 1 and ok[0].get("outcome") == "ok"
    # the step ran between blocks 2 and 3, so its records carry height 3
    assert ok[0].height == 3
    locks = [ev for ev in world.ledger.events if ev.kind == "BridgeLock"]
    assert locks[0].height == 3
    mints = [ev for ev in world.dest.events if ev.kind == "BridgeMint"]
    assert mints[0].height == 3


def test_full_migration_in_installments():
    world = make_world()
    world.bridge.bridge_transfer(request(world, 400))
    world.ledger.build_block()
    world.bridge.bridge_transfer(request(world, 300))
    world.ledger.build_block()
    assert world.ledger.balance_of(world.victim.address, "gold") == 0
    assert world.dest.balance_of(pq_address(world.dest_key.public), "gold") == 700
    assert world.bridge.book.conservation_holds()


def test_two_installments_within_one_tick():
    world = make_world()
    world.bridge.bridge_transfer(request(world, 400))
    world.bridge.bridge_transfer(request(world, 300))
    world.ledger.build_block()
    assert world.ledger.balance_of(ESCROW_ADDRESS, "gold") == 700


def test_cumulative_total_cannot_exceed_inflection_holdings():
    world = make_world()
    world.bridge.bridge_transfer(request(world, 400))
    world.ledger.build_block()
    with pytest.raises(ExceedsPermitted):
        world.bridge.bridge_transfer(request(world, 301))
    errors = [ev for ev in world.ledger.events if ev.get("outcome") == "error"]
    assert errors and errors[-1].get("reason") == "ExceedsPermitted"
    # the failed request must not leak an escrow lock or a mint
    assert world.ledger.balance_of(ESCROW_ADDRESS, "gold") == 400
    assert world.bridge.book.conservation_holds()


def test_bridging_gated_on_inflection():
    world = make_world(set_point=False)
    with pytest.raises(InflectionUnset):
        world.bridge.bridge_transfer(request(world, 10))
    # set but not yet reached is equally closed
    world = make_world(inflection=9)
    with pytest.raises(InflectionUnset):
        world.bridge.bridge_transfer(request(world, 10))


def test_chain_ids_must_match_the_bridged_pair():
    world = make_world()
    wrong_from = TransferIntentSource(
        3, world.victim.address, DEST_CHAIN, pq_address(world.dest_key.public)
    )
    sig, _ = build_intent_digest(wrong_from, world.victim)
    with pytest.raises(WrongChain):
        world.bridge.bridge_transfer(request(world, 10, source=wrong_from, sig=sig))
    wrong_dest = TransferIntentSource(
        1, world.victim.address, 5, pq_address(world.dest_key.public)
    )
    sig, _ = build_intent_digest(wrong_dest, world.victim)
    with pytest.raises(WrongChain):
        world.bridge.bridge_transfer(request(world, 10, source=wrong_dest, sig=sig))


def late(world):
    """A request under a route invented after the inflection: registered at height 3."""
    late_source = TransferIntentSource(1, world.courier.address, DEST_CHAIN, world.victim.address)
    sig, digest = build_intent_digest(late_source, world.courier)
    register_intent(world.ledger, QMIG_ADDRESS, world.courier, digest)
    world.ledger.build_block()
    return request(world, 10, source=late_source, sig=sig)


def test_late_intent_cannot_bridge():
    world = make_world()
    with pytest.raises(LateIntent):
        world.bridge.bridge_transfer(late(world))


def test_spendable_ceiling_blocks_drained_accounts_before_the_lock():
    world = make_world()
    # the full balance leaves after the inflection point; the permitted
    # ceiling (current balance + already bridged) hits zero, so the
    # request dies in accounting and the escrow lock never runs short
    tx = sign_transaction(
        world.victim, 0, 1, TokenTransfer("gold", world.courier.address, 700)
    )
    world.ledger.submit_transaction(tx)
    world.ledger.build_block()
    with pytest.raises(ExceedsPermitted):
        world.bridge.bridge_transfer(request(world, 10))
    assert world.ledger.balance_of(ESCROW_ADDRESS, "gold") == 0


def rerouted(world, from_chain=1, dest_chain=DEST_CHAIN, signer=None):
    """A request under an intent the registry never saw, signed by the victim or signer."""
    source = TransferIntentSource(
        from_chain, world.victim.address, dest_chain, world.courier.address
    )
    sig, _ = build_intent_digest(source, world.victim)
    if signer is not None:
        sig = sign(signer, source.signing_digest)
    return request(world, 10, source=source, sig=sig)


@pytest.mark.parametrize(
    "reason, set_point, make_request",
    [
        ("InflectionUnset", False, lambda world: request(world, 10)),
        ("WrongChain", True, lambda world: rerouted(world, from_chain=3)),
        ("WrongChain", True, lambda world: rerouted(world, dest_chain=5)),
        ("SignerMismatch", True, lambda world: rerouted(world, signer=world.courier)),
        ("IntentNotFound", True, rerouted),
        ("LateIntent", True, late),
        ("ExceedsPermitted", True, lambda world: request(world, 701)),
    ],
    ids=["inflection", "source-chain", "dest-chain", "signer", "not-found", "late", "exceeds"],
)
def test_each_refusal_logs_one_error_and_moves_nothing(reason, set_point, make_request):
    world = make_world(set_point=set_point)
    req = make_request(world)
    with pytest.raises(Exception) as err:
        world.bridge.bridge_transfer(req)
    assert type(err.value).__name__ == reason
    bridged = [ev for ev in world.ledger.events if ev.kind == "Bridge"]
    assert [(ev.get("outcome"), ev.get("reason")) for ev in bridged] == [("error", reason)]
    assert not any(ev.kind == "BridgeLock" for ev in world.ledger.events)
    assert not any(ev.kind == "BridgeMint" for ev in world.dest.events)


def test_requests_validate_amounts():
    world = make_world()
    with pytest.raises(ValueError):
        request(world, 0)
    with pytest.raises(ValueError):
        request(world, -5)


# -- destination ledger ---------------------------------------------------------


def test_pq_address_shape():
    key = PqKeyPair.generate(random.Random(8))
    addr = pq_address(key.public)
    assert isinstance(addr, Address)
    assert len(addr) == 20
    assert addr == Address(key.public.fingerprint[12:])
