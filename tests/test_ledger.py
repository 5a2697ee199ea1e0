"""Ledger core: ordering, nonces, reverts, history queries, private relay."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failsafe.contract import DEFAULT_THRESHOLDS, OperationKind, deploy_failsafe
from failsafe.crypto import Address, KeyPair, RecoverableSignature, secp256k1, sign
from failsafe.ledger import (
    NATIVE,
    UNLIMITED,
    Approve,
    BadSignature,
    ContractCall,
    FutureHeight,
    Ledger,
    MalformedTransaction,
    NativeTransfer,
    NftTransfer,
    PrivateRelayStatus,
    RevertError,
    StaleNonce,
    TokenTransfer,
    TokenTransferFrom,
    Transaction,
    UnknownToken,
    WrongTokenKind,
    compute_tx_digest,
    sign_transaction,
)
from failsafe.qmig import QmigContract
from oracles import (
    reference_block_order,
    replay_balance_from_blocks,
    replay_balance_from_events,
    replay_withdrawals_from_blocks,
    replay_withdrawals_from_events,
)

ALICE = KeyPair.generate(random.Random(11))
BOB = KeyPair.generate(random.Random(12))
CAROL = KeyPair.generate(random.Random(13))


def fresh_ledger(*allocations) -> Ledger:
    ledger = Ledger()
    ledger.create_token("gold")
    for addr, token, amount in allocations:
        ledger.genesis_allocate(addr, token, amount)
    return ledger


def submit_native(ledger, key, to, amount, gas_price=1, nonce=None):
    nonce = ledger.next_nonce(key.address) if nonce is None else nonce
    tx = sign_transaction(key, nonce, gas_price, NativeTransfer(to, amount))
    ledger.submit_transaction(tx)
    return tx


# -- ordering ----------------------------------------------------------------


def test_higher_gas_executes_first():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100), (BOB.address, NATIVE, 100))
    low = submit_native(ledger, ALICE, CAROL.address, 10, gas_price=5)
    high = submit_native(ledger, BOB, CAROL.address, 10, gas_price=50)
    block = ledger.build_block()
    assert [tx.tx_id for tx, _ in block.txs] == [high.tx_id, low.tx_id]


def test_equal_gas_breaks_ties_by_arrival():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100), (BOB.address, NATIVE, 100))
    first = submit_native(ledger, ALICE, CAROL.address, 10, gas_price=7)
    second = submit_native(ledger, BOB, CAROL.address, 10, gas_price=7)
    block = ledger.build_block()
    assert [tx.tx_id for tx, _ in block.txs] == [first.tx_id, second.tx_id]


def test_gas_order_decides_who_gets_scarce_funds():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    drain = submit_native(ledger, BOB, CAROL.address, 100, gas_price=100, nonce=0)
    # Bob holds nothing; the higher-gas transfer out of Alice runs first.
    rescue = submit_native(ledger, ALICE, BOB.address, 100, gas_price=110)
    block = ledger.build_block()
    outcomes = {tx.tx_id: outcome for tx, outcome in block.txs}
    assert outcomes[rescue.tx_id] == "Executed"
    assert outcomes[drain.tx_id] == "Executed"  # Bob just received 100
    assert ledger.balance_of(CAROL.address) == 100


def test_sender_nonce_chain_runs_in_order_within_block():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    # Submitted with ascending nonces but descending gas: nonce order must win.
    txs = [
        sign_transaction(ALICE, n, gas_price=100 - n, payload=NativeTransfer(BOB.address, 10))
        for n in range(3)
    ]
    for tx in txs:
        ledger.submit_transaction(tx)
    block = ledger.build_block()
    assert [tx.nonce for tx, _ in block.txs] == [0, 1, 2]
    assert all(outcome == "Executed" for _, outcome in block.txs)
    assert ledger.balance_of(BOB.address) == 30


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # sender
                st.integers(-1, 3),  # nonce offset from the next free nonce
                st.integers(1, 3),  # gas price: ties are common
                st.booleans(),  # through the private relay
                st.integers(0, 120),  # amount: large ones revert
            ),
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_block_order_matches_the_reference_loop(blocks):
    """Public and private entries, duplicate, stale and future nonces and
    equal gas prices: each block's order and the entries each pool carries
    over are those of the copy-and-rescan reference loop."""
    keys = [ALICE, BOB, CAROL, KeyPair.generate(random.Random(14))]
    ledger = fresh_ledger(*((k.address, NATIVE, 100) for k in keys))
    for submissions in blocks:
        for sender, offset, gas_price, private, amount in submissions:
            key = keys[sender]
            nonce = max(0, ledger.next_nonce(key.address) + offset)
            tx = sign_transaction(key, nonce, gas_price, NativeTransfer(ALICE.address, amount))
            submit = ledger.submit_private_transaction if private else ledger.submit_transaction
            try:
                submit(tx)
            except StaleNonce:
                pass
        expected = reference_block_order(ledger._pool, ledger._private_pool, ledger.nonces)
        block = ledger.build_block()
        assert [tx for tx, _ in block.txs] == expected[0]
        assert (ledger._pool, ledger._private_pool) == expected[1:]


class _RaisingContract:
    """A contract with a bug: every call raises something other than a revert."""

    def call(self, method, args, ctx):
        raise RuntimeError("contract bug")


def test_raising_contract_leaves_other_pending_transactions_pooled():
    ledger = fresh_ledger((BOB.address, NATIVE, 100), (CAROL.address, NATIVE, 100))
    buggy = Address(bytes(range(100, 120)))
    ledger.register_contract(buggy, _RaisingContract())
    rich = submit_native(ledger, BOB, CAROL.address, 7, gas_price=9, nonce=0)
    submit_native(ledger, BOB, ALICE.address, 5, gas_price=1, nonce=0)  # stale once rich runs
    valid = submit_native(ledger, CAROL, BOB.address, 30)
    ledger.submit_transaction(sign_transaction(ALICE, 0, 5, ContractCall(buggy, "run", ())))
    events_before = len(ledger.events)
    with pytest.raises(RuntimeError):
        ledger.build_block()  # rich runs, then the call outbids the transfer and raises
    # what ran before the raise forms the block; the raising call left no trace
    assert ledger.height == 1
    assert [(tx.tx_id, outcome) for tx, outcome in ledger.blocks[1].txs] == [
        (rich.tx_id, "Executed")
    ]
    assert {ev.height for ev in ledger.events[events_before:]} == {1}
    assert ledger.balance_of(CAROL.address) == 107
    assert ledger.next_nonce(BOB.address) == 1  # the stale duplicate is gone
    assert ledger.next_nonce(CAROL.address) == 1  # still pooled
    assert ledger.next_nonce(ALICE.address) == 0
    assert ALICE.address not in ledger.nonces
    retry = sign_transaction(ALICE, 0, 1, NativeTransfer(BOB.address, 0))
    ledger.submit_transaction(retry)  # the raising sender signs again at its old nonce
    block = ledger.build_block()
    assert [(tx.tx_id, outcome) for tx, outcome in block.txs] == [
        (valid.tx_id, "Executed"), (retry.tx_id, "Executed")
    ]
    assert ledger.balance_of(BOB.address) == 100 - 7 + 30


# -- nonces ------------------------------------------------------------------


def test_future_nonce_waits_for_gap_fill():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    future = sign_transaction(ALICE, 1, 10, NativeTransfer(BOB.address, 5))
    ledger.submit_transaction(future)
    block = ledger.build_block()
    assert block.txs == ()
    submit_native(ledger, ALICE, BOB.address, 5, nonce=0)
    block = ledger.build_block()
    assert [tx.nonce for tx, _ in block.txs] == [0, 1]


def test_stale_nonce_rejected_at_submit():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    submit_native(ledger, ALICE, BOB.address, 5, nonce=0)
    ledger.build_block()
    with pytest.raises(StaleNonce):
        ledger.submit_transaction(sign_transaction(ALICE, 0, 10, NativeTransfer(BOB.address, 5)))


def test_duplicate_nonce_in_pool_executes_higher_gas_only():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    cheap = sign_transaction(ALICE, 0, 1, NativeTransfer(BOB.address, 5))
    rich = sign_transaction(ALICE, 0, 9, NativeTransfer(CAROL.address, 5))
    ledger.submit_transaction(cheap)
    ledger.submit_transaction(rich)
    block = ledger.build_block()
    assert [tx.tx_id for tx, _ in block.txs] == [rich.tx_id]
    assert ledger.balance_of(BOB.address) == 0
    assert ledger.balance_of(CAROL.address) == 5


def test_next_nonce_counts_pending():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    assert ledger.next_nonce(ALICE.address) == 0
    submit_native(ledger, ALICE, BOB.address, 1)
    assert ledger.next_nonce(ALICE.address) == 1
    ledger.build_block()
    assert ledger.next_nonce(ALICE.address) == 1


# -- execution and reverts -----------------------------------------------------


def test_insufficient_balance_reverts_without_state_change():
    ledger = fresh_ledger((ALICE.address, NATIVE, 50))
    tx = submit_native(ledger, ALICE, BOB.address, 60)
    block = ledger.build_block()
    assert block.txs[0][1] == "Reverted:InsufficientBalance"
    assert ledger.balance_of(ALICE.address) == 50
    assert ledger.balance_of(BOB.address) == 0
    # the nonce is still consumed, so the failed transfer cannot re-run
    assert ledger.nonces[ALICE.address] == 1
    reverted = [ev for ev in ledger.events if ev.get("outcome") == "Reverted:InsufficientBalance"]
    assert len(reverted) == 1
    assert reverted[0].get("amount") == 60
    assert tx.tx_id  # included despite reverting


def test_negative_amount_reverts_without_dropping_other_transactions():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100), (CAROL.address, NATIVE, 100))
    valid = submit_native(ledger, CAROL, BOB.address, 30)
    negative = submit_native(ledger, ALICE, BOB.address, -50)
    block = ledger.build_block()
    assert ledger.height == 1
    outcomes = {tx.tx_id: outcome for tx, outcome in block.txs}
    assert outcomes == {valid.tx_id: "Executed", negative.tx_id: "Reverted:InvalidAmount"}
    assert ledger.balance_of(ALICE.address) == 100
    assert ledger.balance_of(BOB.address) == 30
    assert ledger.nonces[ALICE.address] == 1


@pytest.mark.parametrize(
    "method",
    ["registerTransferIntent", "execute", "enroll", "updateConfig",
     # an int where bytes belong: bytes(n) would be n zero bytes, or an
     # OverflowError out of build_block once n does not fit a C ssize_t
     "registerTransferIntent-int-digest", "registerTransferIntent-huge-digest",
     "setInflectionPoint-huge-signature", "execute-huge-blob"],
)
def test_malformed_contract_call_reverts_without_dropping_other_transactions(method):
    rng = random.Random(41)
    ledger = fresh_ledger((CAROL.address, NATIVE, 100))
    qmig = QmigContract(ledger, Address(bytes(range(60, 80))), admin_pq_public=None)
    ledger.register_contract(qmig.address, qmig)
    signers = [KeyPair.generate(rng) for _ in range(2)]
    vault = deploy_failsafe(
        ledger, "alice", [k.address for k in signers], DEFAULT_THRESHOLDS, qmig.address,
        KeyPair.generate(rng),
    )
    valid = submit_native(ledger, CAROL, BOB.address, 30)
    if method == "updateConfig":
        # validly signed, but the op name does not decode
        bad = vault.execute_tx(OperationKind.UPDATE_CONFIG, ((("bogus", 1),),), signers, ALICE)
    else:
        payload = {
            "registerTransferIntent": ContractCall(
                qmig.address, "registerTransferIntent", (b"x",)
            ),
            "execute": ContractCall(vault.address, "execute", ("withdraw", ())),
            # a 19-byte destination address
            "enroll": ContractCall(
                vault.address, "enroll",
                ((1, 5, 1, 20, 500, 10), ("gold",), 2, bytes(19), bytes(32)),
            ),
            "registerTransferIntent-int-digest": ContractCall(
                qmig.address, "registerTransferIntent", (32, False)
            ),
            "registerTransferIntent-huge-digest": ContractCall(
                qmig.address, "registerTransferIntent", (2**63, False)
            ),
            "setInflectionPoint-huge-signature": ContractCall(
                qmig.address, "setInflectionPoint", (5, 2**63)
            ),
            "execute-huge-blob": ContractCall(
                vault.address, "execute",
                ("withdraw", ("fungible", bytes(20), "gold", 1), 0, (2**63,)),
            ),
        }[method]
        bad = sign_transaction(ALICE, 0, 1, payload)
    ledger.submit_transaction(bad)
    block = ledger.build_block()
    assert ledger.height == 1
    outcomes = {tx.tx_id: outcome for tx, outcome in block.txs}
    assert outcomes == {valid.tx_id: "Executed", bad.tx_id: "Reverted:InvalidArgument"}
    assert ledger.balance_of(BOB.address) == 30
    assert ledger.nonces[ALICE.address] == 1
    assert (vault.enrollments, qmig.registry, qmig.inflection) == ({}, {}, None)
    assert vault.config.thresholds == dict(DEFAULT_THRESHOLDS)


@pytest.mark.parametrize(
    "gas_price, payload",
    [
        (1, NativeTransfer(BOB.address, "5")),
        (1, TokenTransfer(["gold"], BOB.address, 5)),
        (1, NativeTransfer(bytes(BOB.address), 5)),  # plain bytes, not an Address
        ("1", NativeTransfer(BOB.address, 5)),
        # what the digest's encoding refuses, refused before anything reads the digest
        (1, NativeTransfer(BOB.address, 2**2040)),
        (2**2040, NativeTransfer(BOB.address, 5)),
        (1, ContractCall(BOB.address, "run", (1.5,))),
        (1, ContractCall(BOB.address, "run", ((1, -(2**2040)),))),
    ],
    ids=["str-amount", "list-token", "bytes-recipient", "str-gas-price", "huge-amount",
         "huge-gas-price", "float-arg", "huge-arg"],
)
def test_malformed_transaction_is_refused_at_submission(gas_price, payload):
    ledger = fresh_ledger((ALICE.address, NATIVE, 100), (CAROL.address, NATIVE, 100))
    valid = submit_native(ledger, CAROL, BOB.address, 30, gas_price=2)
    bad = sign_transaction(ALICE, 0, gas_price, payload)
    with pytest.raises(MalformedTransaction):
        ledger.submit_transaction(bad)
    with pytest.raises(MalformedTransaction):
        ledger.submit_private_transaction(bad)
    block = ledger.build_block()
    assert ledger.height == 1
    assert [(tx.tx_id, outcome) for tx, outcome in block.txs] == [(valid.tx_id, "Executed")]
    assert ledger.balance_of(BOB.address) == 30
    assert ledger.next_nonce(ALICE.address) == 0


def test_token_transfer_and_unknown_token_revert():
    ledger = fresh_ledger((ALICE.address, "gold", 30))
    tx = sign_transaction(ALICE, 0, 1, TokenTransfer("gold", BOB.address, 12))
    ledger.submit_transaction(tx)
    bad = sign_transaction(ALICE, 1, 1, TokenTransfer("ghost", BOB.address, 1))
    ledger.submit_transaction(bad)
    block = ledger.build_block()
    outcomes = {t.tx_id: o for t, o in block.txs}
    assert outcomes[tx.tx_id] == "Executed"
    assert outcomes[bad.tx_id] == "Reverted:UnknownToken"
    assert ledger.balance_of(BOB.address, "gold") == 12


def test_revert_event_line_format():
    ledger = fresh_ledger((ALICE.address, NATIVE, 10))
    submit_native(ledger, ALICE, BOB.address, 99)
    ledger.build_block()
    line = ledger.events[-1].format_line()
    assert "outcome=Reverted:InsufficientBalance" in line
    assert line.startswith("height=1 kind=Transfer")


# -- allowances ----------------------------------------------------------------


def approve(ledger, owner, spender, amount, token="gold"):
    tx = sign_transaction(
        owner, ledger.next_nonce(owner.address), 1, Approve(token, spender, amount)
    )
    ledger.submit_transaction(tx)
    return tx


def pull(ledger, spender, owner, to, amount, token="gold", gas_price=1):
    tx = sign_transaction(
        spender,
        ledger.next_nonce(spender.address),
        gas_price,
        TokenTransferFrom(token, owner, to, amount),
    )
    ledger.submit_transaction(tx)
    return tx


def test_allowance_is_decremented_by_pulls():
    ledger = fresh_ledger((ALICE.address, "gold", 100))
    approve(ledger, ALICE, BOB.address, 40)
    ledger.build_block()
    assert ledger.allowance_of("gold", ALICE.address, BOB.address) == 40
    pull(ledger, BOB, ALICE.address, CAROL.address, 25)
    ledger.build_block()
    assert ledger.allowance_of("gold", ALICE.address, BOB.address) == 15
    over = pull(ledger, BOB, ALICE.address, CAROL.address, 16)
    block = ledger.build_block()
    assert dict((t.tx_id, o) for t, o in block.txs)[over.tx_id] == (
        "Reverted:InsufficientAllowance"
    )
    assert ledger.balance_of(CAROL.address, "gold") == 25


def test_unlimited_allowance_never_decrements():
    ledger = fresh_ledger((ALICE.address, "gold", 100))
    approve(ledger, ALICE, BOB.address, UNLIMITED)
    ledger.build_block()
    for _ in range(3):
        pull(ledger, BOB, ALICE.address, CAROL.address, 20)
        ledger.build_block()
    assert ledger.allowance_of("gold", ALICE.address, BOB.address) is UNLIMITED
    assert ledger.balance_of(CAROL.address, "gold") == 60


def test_negative_approval_reverts_and_leaves_the_allowance():
    ledger = fresh_ledger((ALICE.address, "gold", 100))
    approve(ledger, ALICE, BOB.address, 40)
    ledger.build_block()
    negative = approve(ledger, ALICE, BOB.address, -5)
    zero = approve(ledger, ALICE, CAROL.address, 0)
    block = ledger.build_block()
    outcomes = {t.tx_id: o for t, o in block.txs}
    assert outcomes == {negative.tx_id: "Reverted:InvalidAmount", zero.tx_id: "Executed"}
    assert ledger.allowance_of("gold", ALICE.address, BOB.address) == 40
    assert ledger.allowance_of("gold", ALICE.address, CAROL.address) == 0


def test_unapproved_pull_reverts():
    ledger = fresh_ledger((ALICE.address, "gold", 100))
    tx = pull(ledger, BOB, ALICE.address, BOB.address, 1)
    block = ledger.build_block()
    assert block.txs[0][1] == "Reverted:InsufficientAllowance"
    assert ledger.balance_of(ALICE.address, "gold") == 100


# -- NFTs ------------------------------------------------------------------------


def test_nft_transfer_and_not_owner_revert():
    ledger = Ledger()
    ledger.create_token("deeds", kind="nft")
    ledger.genesis_allocate_nft(ALICE.address, "deeds", 7)
    assert ledger.nft_owner_of("deeds", 7) == ALICE.address
    tx = sign_transaction(ALICE, 0, 1, NftTransfer("deeds", BOB.address, 7))
    ledger.submit_transaction(tx)
    ledger.build_block()
    assert ledger.nft_owner_of("deeds", 7) == BOB.address
    theft = sign_transaction(CAROL, 0, 1, NftTransfer("deeds", CAROL.address, 7))
    ledger.submit_transaction(theft)
    block = ledger.build_block()
    assert block.txs[0][1] == "Reverted:NotOwner"
    assert ledger.nft_owner_of("deeds", 7) == BOB.address


# -- history queries ---------------------------------------------------------


def test_balance_at_tracks_heights():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    submit_native(ledger, ALICE, BOB.address, 10)
    ledger.build_block()  # height 1
    ledger.build_block()  # height 2, empty
    submit_native(ledger, ALICE, BOB.address, 20)
    ledger.build_block()  # height 3
    assert ledger.balance_at(ALICE.address, NATIVE, 0) == 100
    assert ledger.balance_at(ALICE.address, NATIVE, 1) == 90
    assert ledger.balance_at(ALICE.address, NATIVE, 2) == 90
    assert ledger.balance_at(ALICE.address, NATIVE, 3) == 70
    assert ledger.balance_at(BOB.address, NATIVE, 3) == 30
    with pytest.raises(FutureHeight):
        ledger.balance_at(ALICE.address, NATIVE, 4)


def test_withdrawals_since_counts_executed_outflows_only():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    submit_native(ledger, ALICE, BOB.address, 10)
    ledger.build_block()  # height 1
    submit_native(ledger, ALICE, BOB.address, 25)
    submit_native(ledger, ALICE, BOB.address, 999)  # reverts
    ledger.build_block()  # height 2
    assert ledger.withdrawals_since(ALICE.address, NATIVE, 0) == 35
    assert ledger.withdrawals_since(ALICE.address, NATIVE, 1) == 25
    assert ledger.withdrawals_since(ALICE.address, NATIVE, 2) == 0
    assert ledger.withdrawals_since(BOB.address, NATIVE, 0) == 0
    with pytest.raises(FutureHeight):
        ledger.withdrawals_since(ALICE.address, NATIVE, 3)


def test_history_queries_match_block_replay_oracle():
    rng = random.Random(42)
    keys = [KeyPair.generate(rng) for _ in range(4)]
    genesis = [(k.address, NATIVE, 500) for k in keys]
    ledger = Ledger()
    for addr, token, amount in genesis:
        ledger.genesis_allocate(addr, token, amount)
    for _ in range(12):
        for _ in range(rng.randrange(3)):
            sender = rng.choice(keys)
            to = rng.choice(keys).address
            amount = rng.randrange(1, 200)
            submit_native(ledger, sender, to, amount, gas_price=rng.randrange(1, 20))
        ledger.build_block()
    for key in keys:
        for h in (0, 3, 7, ledger.height):
            assert ledger.balance_at(key.address, NATIVE, h) == replay_balance_from_blocks(
                genesis, ledger.blocks, key.address, NATIVE, h
            )
            assert ledger.withdrawals_since(
                key.address, NATIVE, h
            ) == replay_withdrawals_from_blocks(ledger.blocks, key.address, NATIVE, h)


ESCROW = Address(bytes(range(200, 220)))
PAYER = Address(bytes(range(220, 240)))


class _PayTwiceContract:
    """Pays amount out of its own balance twice: the second payment can
    revert after the first was logged."""

    def call(self, method, args, ctx):
        token, to, amount = args
        for _ in range(2):
            ctx.transfer_out(token, Address(to), amount)


def _history_payload(kind, key, other, amount, token):
    if kind == "transfer":
        return NativeTransfer(other, amount) if token == NATIVE else TokenTransfer(
            token, other, amount
        )
    if kind == "approve":
        return Approve("gold", other, amount)
    if kind == "transfer_from":
        return TokenTransferFrom("gold", other, key.address, amount)
    return ContractCall(PAYER, "pay", (token, bytes(other), amount))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["transfer", "approve", "transfer_from", "pay_twice", "lock", "block"]),
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(-5, 70),  # negative and oversized amounts revert
            st.sampled_from([NATIVE, "gold"]),
        ),
        max_size=16,
    )
)
def test_history_queries_match_event_replay(ops):
    """Reverts (some after a logged move), transferFrom and bridge locks
    between blocks: at every height, and right after each lock, balance_at
    and withdrawals_since equal the event-log replays."""
    keys = [ALICE, BOB, CAROL]
    holders = [k.address for k in keys] + [PAYER]
    ledger = fresh_ledger(*((a, token, 100) for a in holders for token in (NATIVE, "gold")))
    ledger.register_contract(PAYER, _PayTwiceContract())

    def check():
        for addr in holders + [ESCROW]:
            for token in (NATIVE, "gold"):
                for h in range(ledger.height + 1):
                    assert ledger.balance_at(addr, token, h) == replay_balance_from_events(
                        ledger.events, addr, token, h
                    )
                    assert ledger.withdrawals_since(
                        addr, token, h
                    ) == replay_withdrawals_from_events(ledger.events, addr, token, h)

    for kind, signer, other, amount, token in ops + [("block", 0, 0, 0, NATIVE)]:
        key = keys[signer]
        if kind == "block":
            ledger.build_block()
        elif kind == "lock":
            try:
                ledger.apply_bridge_lock(key.address, ESCROW, token, amount)
            except RevertError:
                continue  # refused before any write
        else:
            payload = _history_payload(kind, key, keys[other].address, amount, token)
            ledger.submit_transaction(
                sign_transaction(key, ledger.next_nonce(key.address), 1, payload)
            )
            continue
        check()


def test_balance_at_raises_for_unknown_and_nft_tokens():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    ledger.create_token("deeds", kind="nft")
    with pytest.raises(UnknownToken):
        ledger.balance_at(ALICE.address, "ghost", 0)
    with pytest.raises(WrongTokenKind):
        ledger.balance_at(ALICE.address, "deeds", 0)


def test_event_replay_matches_live_balances():
    ledger = fresh_ledger((ALICE.address, NATIVE, 80), (ALICE.address, "gold", 40))
    submit_native(ledger, ALICE, BOB.address, 30)
    ledger.submit_transaction(
        sign_transaction(ALICE, 1, 1, TokenTransfer("gold", CAROL.address, 15))
    )
    ledger.build_block()
    for addr in (ALICE.address, BOB.address, CAROL.address):
        for token in (NATIVE, "gold"):
            assert replay_balance_from_events(ledger.events, addr, token) == ledger.balance_of(
                addr, token
            )
            assert replay_withdrawals_from_events(
                ledger.events, addr, token, 0
            ) == ledger.withdrawals_since(addr, token, 0)


# -- private relay and exceptions list -----------------------------------------


def test_private_transactions_skip_the_pending_stream():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    tx = sign_transaction(ALICE, 0, 5, NativeTransfer(BOB.address, 10))
    status = ledger.submit_private_transaction(tx)
    assert status is PrivateRelayStatus.ACCEPTED
    assert ledger.take_pending() == []
    block = ledger.build_block()
    assert block.txs[0][0].tx_id == tx.tx_id
    assert ledger.balance_of(BOB.address) == 10


def test_exceptions_list_filters_private_submissions():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    ledger.add_exception(ALICE.address, sign(ALICE, ledger.exceptions_digest(ALICE.address)))
    tx = sign_transaction(ALICE, 0, 5, NativeTransfer(BOB.address, 10))
    status = ledger.submit_private_transaction(tx)
    assert status is PrivateRelayStatus.FILTERED_BY_EXCEPTIONS_LIST
    block = ledger.build_block()
    assert block.txs == ()
    # the public path is unaffected
    ledger.submit_transaction(tx)
    assert ledger.take_pending() == [tx]


def test_exceptions_list_requires_owner_signature():
    ledger = Ledger()
    digest = ledger.exceptions_digest(ALICE.address)
    with pytest.raises(BadSignature):
        ledger.add_exception(ALICE.address, sign(BOB, digest))
    ledger.add_exception(ALICE.address, sign(ALICE, digest))
    assert ALICE.address in ledger.exceptions_list
    # re-adding is a no-op, not an error
    ledger.add_exception(ALICE.address, sign(ALICE, digest))
    assert ledger.exceptions_list.count(ALICE.address) == 1


def test_forged_sender_rejected():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    honest = sign_transaction(BOB, 0, 1, NativeTransfer(CAROL.address, 5))
    forged = Transaction(ALICE.address, 0, 1, honest.payload, honest.signature)
    with pytest.raises(BadSignature):
        ledger.submit_transaction(forged)
    with pytest.raises(BadSignature):
        ledger.submit_private_transaction(forged)


# -- the key that submission trusts --------------------------------------------------


@pytest.fixture
def recoveries(monkeypatch):
    """Lists that get an entry per submission check by recover_signer ("checked")
    and per point recovery ("full") from now on."""
    import failsafe.ledger as ledger_module

    calls = {"checked": [], "full": []}
    for module, name, kind in ((ledger_module, "recover_signer", "checked"),
                               (secp256k1, "_double_multiply", "full")):
        def counted(*args, original=getattr(module, name), kind=kind):
            calls[kind].append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _call(args: tuple) -> ContractCall:
    return ContractCall(Address(bytes(20)), "run", args)


def test_submission_trusts_the_binding_without_signing(recoveries):
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    tx = submit_native(ledger, ALICE, BOB.address, 5)
    assert "signature" not in vars(tx)  # nothing read it
    assert "digest" not in vars(tx)
    assert recoveries == {"checked": [], "full": []}
    assert ledger.take_pending() == [tx]


@pytest.mark.parametrize(
    "borrow",
    [
        lambda tx: replace(tx, nonce=tx.nonce + 1),
        lambda tx: replace(tx, payload=replace(tx.payload, amount=tx.payload.amount + 1)),
        lambda tx: replace(tx, sender=BOB.address),
        lambda tx: Transaction(BOB.address, 0, 1, NativeTransfer(CAROL.address, 5), tx.signature),
    ],
    ids=["nonce", "amount", "sender", "moved-signature"],
)
@pytest.mark.parametrize("read_first", [False, True], ids=["unsigned", "signed"])
def test_a_borrowed_signature_is_recovered_in_full_and_refused(borrow, read_first, recoveries):
    ledger = fresh_ledger((ALICE.address, NATIVE, 100), (BOB.address, NATIVE, 100))
    honest = sign_transaction(ALICE, 0, 1, NativeTransfer(CAROL.address, 5))
    borrowed = borrow(honest)
    if read_first:  # the signature's hint then names the honest digest
        borrowed.signature.to_bytes()
    for submit in (ledger.submit_transaction, ledger.submit_private_transaction):
        with pytest.raises(BadSignature):
            submit(borrowed)
    assert len(recoveries["checked"]) == len(recoveries["full"]) == 2
    assert ledger.take_pending() == [] and ledger.next_nonce(ALICE.address) == 0


def test_a_parsed_signature_is_recovered_in_full_and_accepted(recoveries):
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    signed = sign_transaction(ALICE, 0, 1, NativeTransfer(BOB.address, 5))
    parsed = RecoverableSignature.from_bytes(signed.signature.to_bytes())
    by_hand = Transaction(signed.sender, signed.nonce, signed.gas_price, signed.payload, parsed)
    ledger.submit_transaction(by_hand)
    assert len(recoveries["checked"]) == len(recoveries["full"]) == 1
    assert ledger.take_pending() == [by_hand]


@pytest.mark.parametrize(
    "rebuild",
    [
        lambda tx: Transaction(tx.sender, tx.nonce, tx.gas_price, tx.payload, tx.signature),
        lambda tx: replace(tx),
        # equal arguments that encode alike (a bool takes the int tag): same digest
        lambda tx: replace(tx, payload=_call((True,))),
    ],
    ids=["hand-built", "replaced", "args-1-vs-true"],
)
def test_a_rebuilt_transaction_is_recovered_not_trusted(rebuild, recoveries):
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    signed = sign_transaction(ALICE, 0, 1, _call((1,)))
    rebuilt = rebuild(signed)
    assert rebuilt.signature is signed.signature
    assert rebuilt.digest == compute_tx_digest(ALICE.address, 0, 1, rebuilt.payload)
    ledger.submit_transaction(rebuilt)
    # recovered over its own digest, which is the one the signature was made
    # over: the signer hint answers without the point arithmetic
    assert recoveries["checked"] == [(rebuilt.digest, signed.signature)]
    assert recoveries["full"] == []
    ledger.submit_transaction(signed)  # the key-holding object itself is not recovered
    assert len(recoveries["checked"]) == 1


def test_take_pending_drains_once():
    ledger = fresh_ledger((ALICE.address, NATIVE, 100))
    tx = submit_native(ledger, ALICE, BOB.address, 1)
    assert ledger.take_pending() == [tx]
    assert ledger.take_pending() == []


# -- chain structure -----------------------------------------------------------


# each payload kind's digest, sent by ALICE at nonce 3 and gas price 7. The
# fields are passed by name and differ from each other, so a tag, or a field
# declared out of order, changes the digest.
GOLDEN_TX_DIGESTS = {
    "native": (NativeTransfer(to=BOB.address, amount=10),
               "c914a4023a86d963e2353146d000803d4e8bdde164b51018ec029a9e3270705f"),
    "token": (TokenTransfer(token="gold", to=BOB.address, amount=25),
              "43b0cf3a9ce10e3c115ef7dac43636ed0ecfc4fccfc1a88270bfd8512755b66e"),
    "transfer-from": (TokenTransferFrom(token="gold", owner=CAROL.address, to=BOB.address,
                                        amount=5),
                      "4463ee6a6a1770fff2d0b084d0dcccbba59b5bfae651c6ded4a03fe4e5c6ae54"),
    "approve": (Approve(token="gold", spender=BOB.address, amount=40),
                "685c93190b927961b40f73f203b5104ea33a8f6844167c763e592419c3e78454"),
    "approve-unlimited": (Approve(token="gold", spender=BOB.address, amount=UNLIMITED),
                          "733bde166ed151ed16f342eb58fc64b5a05b43b9ab9bfd0dba88660b438bbfb7"),
    "nft": (NftTransfer(token="deeds", to=BOB.address, token_id=2),
            "29141ad485442b27cafe1a81f28d90fa4069257c72b16e63f6b19657709fa929"),
    "call": (ContractCall(contract=CAROL.address, method="execute",
                          args=("withdraw", (1, b"\x01", ("gold", -3)), None)),
             "9b6e7c90f7c5b621a5e15ad14d5526dbbd7cfeddccf307ceec7d06a0cad7d1f0"),
}


@pytest.mark.parametrize("payload, digest", GOLDEN_TX_DIGESTS.values(), ids=GOLDEN_TX_DIGESTS)
def test_each_payload_kind_has_a_pinned_digest(payload, digest):
    assert compute_tx_digest(ALICE.address, 3, 7, payload).hex() == digest


def test_a_transaction_id_is_pinned():
    tx = sign_transaction(ALICE, 3, 7, NativeTransfer(BOB.address, 10))
    assert tx.tx_id.hex() == "8569bac67f569d07f811ecc2fd0b5d8e34bc7feb41dcc995c71ee2f351383d35"


def test_identical_fields_yield_identical_tx_id():
    a = sign_transaction(ALICE, 0, 5, NativeTransfer(BOB.address, 10))
    b = sign_transaction(ALICE, 0, 5, NativeTransfer(BOB.address, 10))
    c = sign_transaction(ALICE, 0, 6, NativeTransfer(BOB.address, 10))
    assert a.tx_id == b.tx_id
    assert a.tx_id != c.tx_id


def test_signed_and_hand_built_transactions_have_the_same_digest():
    payload = NativeTransfer(BOB.address, 10)
    expected = compute_tx_digest(ALICE.address, 4, 5, payload)
    signed = sign_transaction(ALICE, 4, 5, payload)
    assert signed.digest == expected
    by_hand = Transaction(ALICE.address, 4, 5, payload, signed.signature)
    assert "digest" not in vars(by_hand)  # computed on first read
    assert by_hand.digest == expected
    assert by_hand == signed
    assert by_hand.tx_id == signed.tx_id


def _signed_payload(kind, signer, other, amount, token):
    """One drawn payload; amounts may be negative and tokens unknown or of the wrong kind."""
    if kind == "native":
        return NativeTransfer(other, amount)
    if kind == "token":
        return TokenTransfer(token, other, amount)
    if kind == "approve":
        return Approve(token, other, UNLIMITED if amount > 50 else amount)
    if kind == "transfer_from":
        return TokenTransferFrom(token, other, signer, amount)
    return NftTransfer(token, other, amount % 4)


@settings(max_examples=15)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["native", "token", "approve", "transfer_from", "nft"]),
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(-5, 60),
            st.sampled_from(["gold", "deeds", "ghost"]),
        ),
        max_size=12,
    )
)
def test_native_supply_is_conserved(moves):
    """Mixed signed payloads: every block builds, every fungible supply is
    conserved, and history queries match the block replay oracles."""
    rng = random.Random(99)
    keys = [KeyPair.generate(rng) for _ in range(4)]
    ledger = fresh_ledger()
    ledger.create_token("deeds", kind="nft")
    genesis = [(k.address, token, 100) for k in keys for token in (NATIVE, "gold")]
    for addr, token, amount in genesis:
        ledger.genesis_allocate(addr, token, amount)
    for i, k in enumerate(keys):
        ledger.genesis_allocate_nft(k.address, "deeds", i)
    for i, (kind, signer, other, amount, token) in enumerate(moves):
        key = keys[signer]
        payload = _signed_payload(kind, key.address, keys[other].address, amount, token)
        ledger.submit_transaction(
            sign_transaction(key, ledger.next_nonce(key.address), 1 + i % 3, payload)
        )
        if i % 3 == 2:
            ledger.build_block()
    ledger.build_block()
    for token in (NATIVE, "gold"):
        assert ledger.total_supply(token) == 400
        for k in keys:
            assert ledger.balance_of(k.address, token) == replay_balance_from_blocks(
                genesis, ledger.blocks, k.address, token, ledger.height
            )
            for h in range(ledger.height + 1):
                assert ledger.withdrawals_since(
                    k.address, token, h
                ) == replay_withdrawals_from_blocks(ledger.blocks, k.address, token, h)
