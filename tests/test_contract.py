"""Multisig vault: enrollment, thresholds, replay protection, operations."""

import random
from types import SimpleNamespace

import pytest

from failsafe.contract import (
    DEFAULT_THRESHOLDS,
    CustodianUnavailable,
    InvalidThresholds,
    KeyCustodian,
    MultisigConfig,
    OperationKind,
    PolicyConfig,
    build_execute_tx,
    deploy_failsafe,
    enroll_wallet,
)
from failsafe.crypto import Address, KeyPair, RecoverableSignature, secp256k1, sign
from failsafe.encoding import encode_value
from failsafe.ledger import (
    NATIVE,
    UNLIMITED,
    Approve,
    ContractCall,
    Ledger,
    MalformedTransaction,
    sign_transaction,
)
from failsafe.qmig import QmigContract

QMIG_ADDRESS = Address(bytes(range(1, 21)))


def make_world(n_signers=3, thresholds=None, enroll=True):
    rng = random.Random(77)
    ledger = Ledger()
    ledger.create_token("gold")
    custodian = KeyCustodian()
    signers = [KeyPair.generate(rng) for _ in range(n_signers)]
    for i, key in enumerate(signers):
        custodian.add_role(f"signer{i}", key)
    qmig = QmigContract(ledger, QMIG_ADDRESS, admin_pq_public=None)
    ledger.register_contract(QMIG_ADDRESS, qmig)
    contract = deploy_failsafe(
        ledger,
        "alice",
        [k.address for k in signers],
        thresholds or DEFAULT_THRESHOLDS,
        QMIG_ADDRESS,
        KeyPair.generate(rng),
    )
    hot = KeyPair.generate(rng)
    relayer = KeyPair.generate(rng)
    ledger.genesis_allocate(hot.address, "gold", 1000)
    ledger.genesis_allocate(hot.address, NATIVE, 100)
    policy = PolicyConfig(1, 5, 1, 20, 500, 10)
    receipt = None
    if enroll:
        receipt = enroll_wallet(
            ledger, contract, hot, policy, ["gold"], dest_chain_id=2, dest_address=hot.address
        )
        ledger.build_block()
    return SimpleNamespace(
        ledger=ledger,
        qmig=qmig,
        contract=contract,
        custodian=custodian,
        signers=signers,
        hot=hot,
        relayer=relayer,
        policy=policy,
        receipt=receipt,
    )


def run_execute(world, op, op_args, signer_keys, nonce=None):
    contract = world.contract
    if nonce is None:
        nonce = contract.next_auth_nonce()
    blobs = contract.authorize(op, op_args, nonce, signer_keys)
    return run_with_blobs(world, op, op_args, blobs, nonce)


def run_with_blobs(world, op, op_args, blobs, nonce):
    tx = build_execute_tx(
        world.ledger, world.contract, world.relayer, op, op_args, tuple(blobs), nonce
    )
    world.ledger.submit_transaction(tx)
    block = world.ledger.build_block()
    return {t.tx_id: o for t, o in block.txs}[tx.tx_id]


# -- enrollment ----------------------------------------------------------------


def test_enrollment_registers_wallet_and_both_intents():
    world = make_world()
    record = world.contract.enrollments[world.hot.address]
    assert record.policy == world.policy
    assert record.tokens == ("gold",)
    # intent (a): wallet -> destination chain, registered via the receipt digest
    assert world.receipt.intent_sig.serial_digest in world.qmig.registry
    # intent (b): contract -> wallet custody-release route
    source_b, _sig_b = record.custody_intent
    assert source_b.from_address == world.contract.address
    assert source_b.dest_address == world.hot.address
    assert len(world.qmig.registry) == 2
    # the wallet signed its own registration, so the exposure warning fires
    assert any(ev.kind == "IntentSourceExposed" for ev in world.ledger.events)
    # unlimited pull approval for every protected token
    assert world.ledger.allowance_of("gold", world.hot.address, world.contract.address) is None


def test_second_enrollment_reverts():
    world = make_world()
    receipt = enroll_wallet(
        world.ledger,
        world.contract,
        world.hot,
        world.policy,
        ["gold"],
        dest_chain_id=2,
        dest_address=world.hot.address,
    )
    block = world.ledger.build_block()
    outcomes = {t.tx_id: o for t, o in block.txs}
    assert outcomes[receipt.txs[-1].tx_id] == "Reverted:AlreadyEnrolled"
    # the failed enrollment must not leave a second outbound intent behind
    assert len(world.qmig.registry) == 2


@pytest.mark.parametrize(
    "policy",
    [(2, 1, 0, 1, 500, 10), (1, 5, -1, 20, 500, 10), (1, 0, 0, 1, 500, 10), 5,
     (-1, -2, 1, 20, 500, 10), (1, 5, 1, 20, 500, True), (1, 5, 1, 20, 500),
     bytes([1, 5, 1, 20, 100, 10])],
    ids=["target-above-one", "negative-tolerance", "zero-denominator", "not-a-tuple",
         "negative-denominator", "bool-window", "five-fields", "bytes"],
)
def test_a_bad_enroll_policy_reverts_invalid_policy(policy):
    world = make_world(enroll=False)
    args = (policy, ("gold",), 2, bytes(world.hot.address), bytes(32))
    tx = sign_transaction(world.hot, 0, 1, ContractCall(world.contract.address, "enroll", args))
    world.ledger.submit_transaction(tx)
    block = world.ledger.build_block()
    assert [outcome for _, outcome in block.txs] == ["Reverted:InvalidPolicy"]
    assert (world.contract.enrollments, world.qmig.registry) == ({}, {})


# -- signature thresholds --------------------------------------------------------


def withdraw_args(world, amount):
    return ("fungible", bytes(world.hot.address), "gold", amount)


def fund_contract(world, amount=500):
    run_execute(
        world,
        OperationKind.REBALANCE,
        (bytes(world.hot.address), "gold", amount),
        [world.signers[0]],
    )


def test_withdraw_needs_two_of_three():
    world = make_world()
    fund_contract(world)
    args = withdraw_args(world, 200)
    outcome = run_execute(world, OperationKind.WITHDRAW, args, [world.signers[0]])
    assert outcome == "Reverted:InsufficientSignatures"
    outcome = run_execute(world, OperationKind.WITHDRAW, args, world.signers[:2])
    assert outcome == "Executed"
    assert world.ledger.balance_of(world.hot.address, "gold") == 700


def test_negative_withdraw_reverts():
    world = make_world()
    fund_contract(world)
    args = withdraw_args(world, -50)
    outcome = run_execute(world, OperationKind.WITHDRAW, args, world.signers[:2])
    assert outcome == "Reverted:InvalidAmount"
    assert world.ledger.balance_of(world.contract.address, "gold") == 500


def test_duplicate_signer_counts_once():
    world = make_world()
    fund_contract(world)
    outcome = run_execute(
        world,
        OperationKind.WITHDRAW,
        withdraw_args(world, 10),
        [world.signers[0], world.signers[0]],
    )
    assert outcome == "Reverted:InsufficientSignatures"


def test_outsider_signature_flagged_when_threshold_unmet():
    world = make_world()
    fund_contract(world)
    outsider = KeyPair.generate(random.Random(1234))
    outcome = run_execute(
        world,
        OperationKind.WITHDRAW,
        withdraw_args(world, 10),
        [world.signers[0], outsider],
    )
    assert outcome == "Reverted:UnknownSigner"


def test_outsider_signature_harmless_when_threshold_met():
    world = make_world()
    fund_contract(world)
    outsider = KeyPair.generate(random.Random(1234))
    outcome = run_execute(
        world,
        OperationKind.WITHDRAW,
        withdraw_args(world, 10),
        [world.signers[0], world.signers[1], outsider],
    )
    assert outcome == "Executed"


def test_garbage_signature_blob_is_unknown_signer():
    world = make_world()
    fund_contract(world)
    nonce = world.contract.next_auth_nonce()
    good = world.contract.authorize(
        OperationKind.WITHDRAW, withdraw_args(world, 10), nonce, [world.signers[0]]
    )
    outcome = run_with_blobs(
        world, OperationKind.WITHDRAW, withdraw_args(world, 10), good + (b"\x00" * 65,), nonce
    )
    assert outcome == "Reverted:UnknownSigner"


def test_authorization_cannot_be_replayed():
    world = make_world()
    fund_contract(world)
    args = withdraw_args(world, 50)
    nonce = world.contract.next_auth_nonce()
    blobs = world.contract.authorize(OperationKind.WITHDRAW, args, nonce, world.signers[:2])
    assert run_with_blobs(world, OperationKind.WITHDRAW, args, blobs, nonce) == "Executed"
    assert (
        run_with_blobs(world, OperationKind.WITHDRAW, args, blobs, nonce)
        == "Reverted:ReplayedAuthorization"
    )
    assert world.ledger.balance_of(world.hot.address, "gold") == 550


def test_signatures_bind_to_operation_arguments():
    world = make_world()
    fund_contract(world)
    nonce = world.contract.next_auth_nonce()
    blobs = world.contract.authorize(
        OperationKind.WITHDRAW, withdraw_args(world, 10), nonce, world.signers[:2]
    )
    # replayed against different arguments the signatures recover to
    # addresses outside the signer set, so the execute call must fail
    outcome = run_with_blobs(world, OperationKind.WITHDRAW, withdraw_args(world, 499), blobs, nonce)
    assert outcome == "Reverted:UnknownSigner"
    assert world.ledger.balance_of(world.hot.address, "gold") == 500


# -- signature objects and 65-byte blobs -------------------------------------------


@pytest.fixture
def full_recoveries(monkeypatch):
    """The full recoveries (`_double_multiply` calls) made since the fixture was set up."""
    calls = []
    full = secp256k1._double_multiply

    def counted(*args):
        calls.append(args)
        return full(*args)

    monkeypatch.setattr(secp256k1, "_double_multiply", counted)
    return calls


def test_a_signature_encodes_as_its_bytes():
    sig = sign(KeyPair.generate(random.Random(5)), bytes(range(32)))
    assert encode_value(sig) == encode_value(sig.to_bytes())
    assert encode_value((sig, 1)) == encode_value((sig.to_bytes(), 1))


def test_object_and_byte_blobs_make_one_transaction_and_one_outcome(full_recoveries):
    results = []
    for as_bytes in (False, True):
        world = make_world()
        fund_contract(world)
        args = withdraw_args(world, 10)
        nonce = world.contract.next_auth_nonce()
        blobs = world.contract.authorize(OperationKind.WITHDRAW, args, nonce, world.signers[:2])
        if as_bytes:
            blobs = tuple(blob.to_bytes() for blob in blobs)
        tx = build_execute_tx(
            world.ledger, world.contract, world.relayer, OperationKind.WITHDRAW, args, blobs,
            nonce,
        )
        world.ledger.submit_transaction(tx)
        outcome = dict(world.ledger.build_block().txs)[tx]
        results.append((tx.digest, tx.tx_id, outcome, len(full_recoveries)))
    (digest, tx_id, outcome, objects_recovered), (*same, bytes_recovered) = results
    assert [digest, tx_id, outcome] == same
    assert outcome == "Executed"
    # the vault's own signature objects cost no EC work; their bytes cost one each
    assert (objects_recovered, bytes_recovered) == (0, 2)


def test_a_hand_built_signature_takes_the_full_path(full_recoveries):
    world = make_world()
    fund_contract(world)
    args = withdraw_args(world, 10)
    nonce = world.contract.next_auth_nonce()
    made = world.contract.authorize(OperationKind.WITHDRAW, args, nonce, world.signers[:2])
    hand_built = tuple(RecoverableSignature(sig.r, sig.s, sig.v) for sig in made)
    assert hand_built == made and all(sig._signer is None for sig in hand_built)
    assert run_with_blobs(world, OperationKind.WITHDRAW, args, hand_built, nonce) == "Executed"
    assert len(full_recoveries) == 2


@pytest.mark.parametrize(
    "forms, outcome",
    [(((0, "object"), (1, "bytes")), "Executed"),
     (((0, "bytes"), (1, "object")), "Executed"),
     (((0, "object"), (0, "bytes")), "Reverted:InsufficientSignatures")],
    ids=["object-then-bytes", "bytes-then-object", "one-signer-both-forms"],
)
def test_object_and_byte_blobs_count_toward_one_threshold(forms, outcome):
    world = make_world()
    fund_contract(world)
    args = withdraw_args(world, 10)
    nonce = world.contract.next_auth_nonce()
    made = world.contract.authorize(OperationKind.WITHDRAW, args, nonce, world.signers[:2])
    blobs = tuple(made[i].to_bytes() if form == "bytes" else made[i] for i, form in forms)
    assert run_with_blobs(world, OperationKind.WITHDRAW, args, blobs, nonce) == outcome


@pytest.mark.parametrize("bad", [5, "ab"], ids=["int", "str"])
def test_a_blob_neither_signature_nor_bytes_reverts_invalid_argument(bad):
    world = make_world()
    fund_contract(world)
    args = withdraw_args(world, 10)
    nonce = world.contract.next_auth_nonce()
    made = world.contract.authorize(OperationKind.WITHDRAW, args, nonce, world.signers[:2])
    outcome = run_with_blobs(world, OperationKind.WITHDRAW, args, made + (bad,), nonce)
    assert outcome == "Reverted:InvalidArgument"
    assert world.ledger.balance_of(world.hot.address, "gold") == 500


@pytest.mark.parametrize(
    "r, v",
    [(2**256, 0), (-1, 0), ("1", 0), (1, 256)],
    ids=["r-too-wide", "r-negative", "r-not-int", "v-too-wide"],
)
def test_a_signature_without_65_bytes_is_refused_at_submission(r, v):
    world = make_world()
    args = withdraw_args(world, 10)
    with pytest.raises(MalformedTransaction, match="ContractCall args"):
        run_with_blobs(world, OperationKind.WITHDRAW, args, (RecoverableSignature(r, 1, v),), 0)


# -- operations ------------------------------------------------------------------


def test_intercept_specific_and_full_balance():
    world = make_world()
    args = (bytes(world.hot.address), (("fungible", "gold", 300),))
    assert run_execute(world, OperationKind.INTERCEPT, args, [world.signers[0]]) == "Executed"
    assert world.ledger.balance_of(world.contract.address, "gold") == 300
    # value None means "whatever the wallet currently holds"
    args = (bytes(world.hot.address), (("fungible", "gold", None),))
    assert run_execute(world, OperationKind.INTERCEPT, args, [world.signers[0]]) == "Executed"
    assert world.ledger.balance_of(world.contract.address, "gold") == 1000
    assert world.ledger.balance_of(world.hot.address, "gold") == 0
    # repeating against an empty wallet is a harmless no-op
    args = (bytes(world.hot.address), (("fungible", "gold", None),))
    assert run_execute(world, OperationKind.INTERCEPT, args, [world.signers[0]]) == "Executed"


def test_reverted_intercept_leaves_only_its_revert_record():
    world = make_world()
    ledger, hot, vault = world.ledger, world.hot, world.contract.address
    ledger.create_token("deeds", kind="nft")
    # a finite gold allowance, so the pull writes it; operator rights on deeds
    for token, amount in (("gold", 400), ("deeds", UNLIMITED)):
        payload = Approve(token, vault, amount)
        ledger.submit_transaction(
            sign_transaction(hot, ledger.next_nonce(hot.address), 1, payload)
        )
    ledger.build_block()

    def snapshot():
        return (
            ledger.balance_of(hot.address, "gold"),
            ledger.balance_of(vault, "gold"),
            ledger.allowance_of("gold", hot.address, vault),
            ledger.withdrawals_since(hot.address, "gold", 0),
        )

    before, log_length = snapshot(), len(ledger.events)
    # the gold pull moves funds and logs a Transfer before the NFT pull fails
    args = (bytes(hot.address), (("fungible", "gold", 300), ("nft", "deeds", 7)))
    outcome = run_execute(world, OperationKind.INTERCEPT, args, [world.signers[0]])
    assert outcome == "Reverted:NotOwner"
    assert len(ledger.events) == log_length + 1
    assert (ledger.events[-1].kind, ledger.events[-1].get("outcome")) == (
        "Call", "Reverted:NotOwner"
    )
    assert snapshot() == before == (1000, 0, 400, 0)


def test_rebalance_moves_both_directions():
    world = make_world()
    args = (bytes(world.hot.address), "gold", 400)
    assert run_execute(world, OperationKind.REBALANCE, args, [world.signers[2]]) == "Executed"
    assert world.ledger.balance_of(world.contract.address, "gold") == 400
    args = (bytes(world.hot.address), "gold", -150)
    assert run_execute(world, OperationKind.REBALANCE, args, [world.signers[2]]) == "Executed"
    assert world.ledger.balance_of(world.contract.address, "gold") == 250
    assert world.ledger.balance_of(world.hot.address, "gold") == 750


def test_operations_require_enrollment():
    world = make_world()
    stranger = KeyPair.generate(random.Random(555))
    args = (bytes(stranger.address), (("fungible", "gold", None),))
    assert (
        run_execute(world, OperationKind.INTERCEPT, args, [world.signers[0]])
        == "Reverted:NotEnrolled"
    )


def test_update_config_tightens_withdrawals():
    world = make_world()
    fund_contract(world)
    pairs = tuple(
        (op.value, 3 if op is OperationKind.WITHDRAW else n)
        for op, n in DEFAULT_THRESHOLDS.items()
    )
    outcome = run_execute(world, OperationKind.UPDATE_CONFIG, (pairs,), world.signers[:2])
    assert outcome == "Executed"
    assert world.contract.config.thresholds[OperationKind.WITHDRAW] == 3
    assert (
        run_execute(world, OperationKind.WITHDRAW, withdraw_args(world, 10), world.signers[:2])
        == "Reverted:InsufficientSignatures"
    )
    assert (
        run_execute(world, OperationKind.WITHDRAW, withdraw_args(world, 10), world.signers)
        == "Executed"
    )


def test_update_config_rejects_impossible_thresholds():
    world = make_world()
    pairs = tuple(
        (op.value, 4 if op is OperationKind.WITHDRAW else n)
        for op, n in DEFAULT_THRESHOLDS.items()
    )
    outcome = run_execute(world, OperationKind.UPDATE_CONFIG, (pairs,), world.signers[:2])
    assert outcome == "Reverted:InvalidThresholds"
    assert world.contract.config.thresholds[OperationKind.WITHDRAW] == 2


def test_unknown_operation_reverts():
    world = make_world()
    nonce = world.contract.next_auth_nonce()
    digest = world.contract.authorization_digest(OperationKind.WITHDRAW, (), nonce)
    del digest  # the op string below never parses, signatures are moot
    tx = build_execute_tx(
        world.ledger,
        world.contract,
        world.relayer,
        OperationKind.WITHDRAW,
        (),
        (),
        nonce,
    )
    payload = tx.payload
    from failsafe.ledger import ContractCall, sign_transaction

    bad = sign_transaction(
        world.relayer,
        tx.nonce,
        tx.gas_price,
        ContractCall(payload.contract, "execute", ("selfdestruct", (), nonce, ())),
    )
    world.ledger.submit_transaction(bad)
    block = world.ledger.build_block()
    assert block.txs[0][1] == "Reverted:UnknownOperation"


# -- configuration validation ------------------------------------------------------


def test_deploy_rejects_bad_thresholds():
    bad = dict(DEFAULT_THRESHOLDS)
    bad[OperationKind.WITHDRAW] = 0
    with pytest.raises(InvalidThresholds):
        make_world(thresholds=bad, enroll=False)
    bad[OperationKind.WITHDRAW] = 4
    with pytest.raises(InvalidThresholds):
        make_world(thresholds=bad, enroll=False)
    with pytest.raises(InvalidThresholds):
        make_world(thresholds={OperationKind.WITHDRAW: 1}, enroll=False)


def test_multisig_config_rejects_duplicate_signers():
    key = KeyPair.generate(random.Random(1))
    with pytest.raises(InvalidThresholds):
        MultisigConfig((key.address, key.address), dict(DEFAULT_THRESHOLDS))
    with pytest.raises(InvalidThresholds):
        MultisigConfig((), dict(DEFAULT_THRESHOLDS))


def test_policy_config_bounds():
    for fields in (
        (3, 2, 0, 1, 0, 1),  # target above one
        (-1, 2, 0, 1, 0, 1),  # target below zero
        (1, 0, 0, 1, 0, 1),  # zero denominator
        (-1, -2, 0, 1, 0, 1),  # a negative denominator is not normalised
        (1, 2, 0, -1, 0, 1),
        (1, 2, -1, 10, 0, 1),  # negative tolerance
        (1, 2, 0, 1, -5, 1),  # negative cap
        (1, 2, 0, 1, 0, 0),  # empty window
    ):
        with pytest.raises(ValueError):
            PolicyConfig(*fields)
    for fields in ((1, 2, 0, 1, 5.0, 1), (1, 2, 0, 1, 0, True), ("1", 2, 0, 1, 0, 1)):
        with pytest.raises(TypeError):
            PolicyConfig(*fields)
    # the bounds themselves are policies: all hot or all cold, no tolerance
    assert PolicyConfig(1, 1, 0, 1, 0, 1).target_num == 1
    assert PolicyConfig(0, 7, 0, 3, 0, 1).target_num == 0


def test_custodian_guards_missing_roles():
    custodian = KeyCustodian()
    key = KeyPair.generate(random.Random(2))
    custodian.add_role("relayer", key)
    assert custodian.key_for("relayer").address == key.address
    with pytest.raises(CustodianUnavailable):
        custodian.key_for("guardian")
