"""Migration intents: incognito registry, inflection gating, permitted amounts."""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from failsafe.crypto import (
    Address,
    KeyPair,
    PqKeyPair,
    RecoverableSignature,
    keccak256,
    sign,
)
from failsafe.ledger import ContractCall, Ledger, TokenTransfer, sign_transaction
from failsafe.qmig import (
    LATE_INTENT_MESSAGE,
    AlreadySet,
    BadPqSignature,
    InflectionUnset,
    IntentNotFound,
    InvalidArgument,
    LateIntent,
    QmigContract,
    SignerMismatch,
    TransferIntentSource,
    build_intent_digest,
    build_intent_digests,
    inflection_digest,
)
from conftest import register_intent
from oracles import replay_permitted_amount

QMIG_ADDRESS = Address(bytes(range(100, 120)))


def make_world(with_admin=True):
    rng = random.Random(21)
    ledger = Ledger()
    ledger.create_token("gold")
    admin = PqKeyPair.generate(rng)
    qmig = QmigContract(ledger, QMIG_ADDRESS, admin.public if with_admin else None)
    ledger.register_contract(QMIG_ADDRESS, qmig)
    victim, peer, stranger = (KeyPair.generate(rng) for _ in range(3))
    ledger.genesis_allocate(victim.address, "gold", 1000)
    ledger.genesis_allocate(peer.address, "gold", 500)
    ledger.genesis_allocate(stranger.address, "gold", 100)
    return SimpleNamespace(
        ledger=ledger, qmig=qmig, admin=admin, victim=victim, peer=peer, stranger=stranger
    )


def call_qmig(world, key, method, args, gas_price=1):
    tx = sign_transaction(
        key, world.ledger.next_nonce(key.address), gas_price,
        ContractCall(QMIG_ADDRESS, method, args),
    )
    world.ledger.submit_transaction(tx)
    return tx


def transfer(world, key, to, amount):
    tx = sign_transaction(
        key, world.ledger.next_nonce(key.address), 1, TokenTransfer("gold", to, amount)
    )
    world.ledger.submit_transaction(tx)
    return tx


def set_inflection(world, height, signed_height=None, sig_bytes=None):
    if sig_bytes is None:
        digest = inflection_digest(height if signed_height is None else signed_height)
        sig_bytes = world.admin.sign(digest).to_bytes()
    tx = call_qmig(world, world.stranger, "setInflectionPoint", (height, sig_bytes))
    block = world.ledger.build_block()
    return {t.tx_id: o for t, o in block.txs}[tx.tx_id]


def intra_chain_source(world, frm, to):
    return TransferIntentSource(
        world.ledger.chain_id, frm.address, world.ledger.chain_id, to.address
    )


# -- intent source serialization ---------------------------------------------------


def test_source_serializes_to_56_bytes():
    source = TransferIntentSource(1, Address(b"\x11" * 20), 7, Address(b"\x22" * 20))
    raw = source.serialize()
    assert len(raw) == 56
    assert raw[0:8] == (1).to_bytes(8, "big")
    assert raw[8:28] == b"\x11" * 20
    assert raw[28:36] == (7).to_bytes(8, "big")
    assert raw[36:56] == b"\x22" * 20


def test_source_rejects_malformed_input():
    with pytest.raises(ValueError):
        TransferIntentSource(2 ** 64, Address(b"\x11" * 20), 1, Address(b"\x22" * 20))
    with pytest.raises(ValueError):
        TransferIntentSource(1, Address(b"\x11" * 20), -1, Address(b"\x22" * 20))


def test_intent_digest_hides_everything_but_commits_to_the_signature():
    world = make_world()
    source = intra_chain_source(world, world.victim, world.peer)
    sig, digest = build_intent_digest(source, world.victim)
    assert digest == sig.serial_digest
    assert len(digest) == 32
    # the digest carries no address or chain id bytes from the source
    assert bytes(world.victim.address) not in digest
    assert bytes(world.peer.address) not in digest


def test_intent_digests_are_hashed_once_and_stay_out_of_equality():
    world = make_world()
    source = intra_chain_source(world, world.victim, world.peer)
    twin = replace(source)
    assert source.signing_digest == keccak256(source.serialize())
    assert source.signing_digest is source.signing_digest
    assert source == twin and hash(source) == hash(twin)  # twin's digest not read yet
    sig, digest = build_intent_digest(source, world.victim)
    parsed = RecoverableSignature.from_bytes(sig.to_bytes())
    assert digest == parsed.serial_digest == keccak256(sig.to_bytes())
    assert sig.serial_digest is sig.serial_digest
    assert sig == parsed and hash(sig) == hash(parsed)


def test_intent_must_be_signed_by_the_source_key():
    world = make_world()
    source = intra_chain_source(world, world.victim, world.peer)
    with pytest.raises(SignerMismatch):
        build_intent_digest(source, world.peer)


def test_a_batch_of_intents_matches_one_at_a_time_intents():
    rng = random.Random(3)
    keys = KeyPair.from_privates([rng.randrange(1, 2**200) for _ in range(17)])
    sources = [TransferIntentSource(1, key.address, 9001 + i, keys[-1 - i].address)
               for i, key in enumerate(keys)]
    batch = build_intent_digests(list(zip(sources, keys)))
    for source, key, (sig, digest) in zip(sources, keys, batch):
        twin = replace(source)  # nothing read or cached yet
        alone, alone_digest = build_intent_digest(twin, key)
        assert sig.to_bytes() == alone.to_bytes() and sig._signer == alone._signer
        assert digest == alone_digest == keccak256(sig.to_bytes())
        # the batch filled the caches a one-at-a-time read fills
        assert vars(source)["signing_digest"] == keccak256(source.serialize())
        assert vars(sig)["serial_digest"] == digest
    with pytest.raises(SignerMismatch):
        build_intent_digests([(sources[0], keys[0]), (sources[1], keys[0])])


# -- registration --------------------------------------------------------------------


def test_third_party_registration_stays_incognito():
    world = make_world()
    source = intra_chain_source(world, world.victim, world.peer)
    _sig, digest = build_intent_digest(source, world.victim)
    register_intent(
        world.ledger, QMIG_ADDRESS, world.stranger, digest, source_address=world.victim.address
    )
    world.ledger.build_block()
    assert world.qmig.registry[digest] == 1
    kinds = [ev.kind for ev in world.ledger.events]
    assert "IntentRegistered" in kinds
    assert "IntentSourceExposed" not in kinds


def test_self_registration_emits_exposure_warning():
    world = make_world()
    source = intra_chain_source(world, world.victim, world.peer)
    _sig, digest = build_intent_digest(source, world.victim)
    register_intent(
        world.ledger, QMIG_ADDRESS, world.victim, digest, source_address=world.victim.address
    )
    world.ledger.build_block()
    assert any(ev.kind == "IntentSourceExposed" for ev in world.ledger.events)


def test_reregistration_keeps_the_earliest_height():
    world = make_world()
    source = intra_chain_source(world, world.victim, world.peer)
    _sig, digest = build_intent_digest(source, world.victim)
    register_intent(world.ledger, QMIG_ADDRESS, world.stranger, digest)
    world.ledger.build_block()  # height 1
    world.ledger.build_block()  # height 2
    register_intent(world.ledger, QMIG_ADDRESS, world.peer, digest)
    world.ledger.build_block()  # height 3
    assert world.qmig.registry[digest] == 1


def test_registration_rejects_wrong_digest_size():
    world = make_world()
    register_intent(world.ledger, QMIG_ADDRESS, world.stranger, b"\x00" * 31)
    block = world.ledger.build_block()
    assert block.txs[0][1] == "Reverted:InvalidArgument"
    assert world.qmig.registry == {}


# -- inflection point -----------------------------------------------------------------


def test_inflection_requires_admin_pq_signature():
    world = make_world()
    assert set_inflection(world, 5) == "Executed"
    assert world.qmig.inflection == 5
    assert any(
        ev.kind == "InflectionSet" and ev.get("inflection") == 5
        for ev in world.ledger.events
    )


def test_inflection_rejects_foreign_pq_key():
    world = make_world()
    imposter = PqKeyPair.generate(random.Random(99))
    sig = imposter.sign(inflection_digest(5)).to_bytes()
    assert set_inflection(world, 5, sig_bytes=sig) == "Reverted:BadPqSignature"
    assert world.qmig.inflection is None


def test_inflection_signature_binds_to_the_height():
    world = make_world()
    assert set_inflection(world, 5, signed_height=6) == "Reverted:BadPqSignature"
    assert world.qmig.inflection is None


def test_inflection_rejects_garbage_signature_bytes():
    world = make_world()
    assert set_inflection(world, 5, sig_bytes=b"\x01\x02") == "Reverted:BadPqSignature"


def test_inflection_is_write_once():
    world = make_world()
    assert set_inflection(world, 5) == "Executed"
    second_admin_use = PqKeyPair.generate(random.Random(3))
    sig = second_admin_use.sign(inflection_digest(9)).to_bytes()
    assert set_inflection(world, 9, sig_bytes=sig) == "Reverted:AlreadySet"
    assert world.qmig.inflection == 5


def test_inflection_without_admin_key_reverts():
    world = make_world(with_admin=False)
    height = world.ledger.height
    assert set_inflection(world, 5) == "Reverted:BadPqSignature"
    assert world.ledger.height == height + 1
    assert world.qmig.inflection is None


def test_inflection_rejects_negative_height():
    world = make_world()
    sig = world.admin.sign(inflection_digest(0)).to_bytes()
    tx = call_qmig(world, world.stranger, "setInflectionPoint", (-3, sig))
    block = world.ledger.build_block()
    assert {t.tx_id: o for t, o in block.txs}[tx.tx_id] == "Reverted:InvalidArgument"


# -- verification ----------------------------------------------------------------------


def registered_intent(world, frm, to, register_via=None):
    source = intra_chain_source(world, frm, to)
    sig, digest = build_intent_digest(source, frm)
    register_intent(world.ledger, QMIG_ADDRESS, register_via or world.stranger, digest)
    world.ledger.build_block()
    return source, sig


def test_verification_roundtrip():
    world = make_world()
    source, sig = registered_intent(world, world.victim, world.peer)  # height 1
    set_inflection(world, 2)
    assert world.qmig.verify_transfer_intent(source, sig) is True
    assert (world.victim.address, world.peer.address) in world.qmig.authorized_pairs


def test_verification_requires_inflection():
    world = make_world()
    source, sig = registered_intent(world, world.victim, world.peer)
    with pytest.raises(InflectionUnset):
        world.qmig.verify_transfer_intent(source, sig)


def test_signer_mismatch_checked_before_registry():
    world = make_world()
    source = intra_chain_source(world, world.victim, world.peer)
    forged = sign(world.peer, source.signing_digest)
    set_inflection(world, 2)
    with pytest.raises(SignerMismatch):
        world.qmig.verify_transfer_intent(source, forged)


def test_unregistered_intent_not_found():
    world = make_world()
    source = intra_chain_source(world, world.victim, world.peer)
    sig, _digest = build_intent_digest(source, world.victim)
    set_inflection(world, 2)
    with pytest.raises(IntentNotFound):
        world.qmig.verify_transfer_intent(source, sig)


def test_late_intent_rejected_with_exact_message():
    world = make_world()
    world.ledger.build_block()  # height 1
    world.ledger.build_block()  # height 2
    source, sig = registered_intent(world, world.victim, world.peer)  # height 3
    set_inflection(world, 3)  # equality is late: the check is strict
    with pytest.raises(LateIntent) as err:
        world.qmig.verify_transfer_intent(source, sig)
    assert str(err.value) == LATE_INTENT_MESSAGE
    assert (
        str(err.value) == "Intent to transfer registered after the quantum inflection point!"
    )
    assert world.qmig.authorized_pairs == set()


def test_cross_chain_intents_do_not_authorize_local_inflows():
    world = make_world()
    source = TransferIntentSource(
        world.ledger.chain_id, world.victim.address, 2, world.peer.address
    )
    sig, digest = build_intent_digest(source, world.victim)
    register_intent(world.ledger, QMIG_ADDRESS, world.stranger, digest)
    world.ledger.build_block()
    set_inflection(world, 2)
    assert world.qmig.verify_transfer_intent(source, sig) is True
    assert world.qmig.authorized_pairs == set()


# -- permitted amount --------------------------------------------------------------------


def build_accounting_history(world):
    """Six blocks of movement around an inflection at height 2.

    victim: 1000, sends 100 pre-inflection, 200 post; receives 150 under
    an authorized intent and 40 from a stranger without one.
    """
    transfer(world, world.victim, world.peer.address, 100)
    source, sig = registered_intent(world, world.peer, world.victim)  # block 1
    set_inflection(world, 2)  # block 2
    transfer(world, world.victim, world.stranger.address, 200)
    world.ledger.build_block()  # block 3
    transfer(world, world.peer, world.victim.address, 150)
    transfer(world, world.stranger, world.victim.address, 40)
    world.ledger.build_block()  # block 4
    assert world.qmig.verify_transfer_intent(source, sig) is True
    return world


def test_permitted_amount_accounting():
    world = build_accounting_history(make_world())
    # held 900 at inflection, withdrew 200 since, gained 150 authorized
    assert world.qmig.permitted_amount(world.victim.address, "gold") == 850
    # the stranger's 40 is in the balance but not in the permission
    assert world.ledger.balance_of(world.victim.address, "gold") == 890


def test_permitted_amount_matches_event_replay():
    world = build_accounting_history(make_world())
    for addr in (world.victim.address, world.peer.address, world.stranger.address):
        assert world.qmig.permitted_amount(addr, "gold") == replay_permitted_amount(
            world.ledger.events, addr, "gold", 2, world.qmig.authorized_pairs
        )


def test_permitted_amount_clamps_to_spendable_funds():
    world = build_accounting_history(make_world())
    transfer(world, world.victim, world.stranger.address, 840)
    world.ledger.build_block()  # block 5: balance down to 50
    assert world.qmig.permitted_amount(world.victim.address, "gold") == 50
    # funds already moved across the bridge restore the ceiling
    assert world.qmig.permitted_amount(world.victim.address, "gold", already_bridged=30) == 80
    assert world.qmig.permitted_amount(
        world.victim.address, "gold", already_bridged=30
    ) == replay_permitted_amount(
        world.ledger.events, world.victim.address, "gold", 2,
        world.qmig.authorized_pairs, already_bridged=30,
    )


def test_permitted_amount_needs_reached_inflection():
    world = make_world()
    with pytest.raises(InflectionUnset):
        world.qmig.permitted_amount(world.victim.address, "gold")
    set_inflection(world, 10)  # the chain stands at height 1
    with pytest.raises(InflectionUnset):
        world.qmig.permitted_amount(world.victim.address, "gold")


# -- registry audit -------------------------------------------------------------------


def test_storage_records_hold_no_signature_material():
    world = make_world()
    source = intra_chain_source(world, world.victim, world.peer)
    sig, digest = build_intent_digest(source, world.victim)
    register_intent(world.ledger, QMIG_ADDRESS, world.stranger, digest)
    world.ledger.build_block()
    records = world.qmig.storage_records()
    assert len(records) == 1
    assert len(records[0]) == 40
    assert records[0][:32] == digest
    blob = b"".join(records)
    assert sig.to_bytes() not in blob
    assert source.serialize() not in blob
    [line] = world.qmig.dump_registry()
    assert line == f"digest={digest.hex()} height=1"
