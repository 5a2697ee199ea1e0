"""Acceptance: ten verifiable end-to-end properties of the defense stack.

Each test prints exactly one `criterion NN <name>: PASS|FAIL` line so the
whole list is auditable from the terminal in one glance.
"""

import contextlib
import random
from fractions import Fraction

import pytest

from failsafe.bridge import (
    Bridge,
    BridgeTransfer,
    ExceedsPermitted,
    QuantumSafeLedger,
    pq_address,
)
from failsafe.cli import bundled_scenarios
from failsafe.contract import (
    KeyCustodian,
    OperationKind,
    PolicyConfig,
    deploy_failsafe,
    enroll_wallet,
)
from failsafe.crypto import Address, KeyPair, PqKeyPair, keccak256
from failsafe.ledger import (
    NATIVE,
    ContractCall,
    Ledger,
    NativeTransfer,
    TokenTransfer,
    sign_transaction,
)
from failsafe.qmig import (
    LATE_INTENT_MESSAGE,
    LateIntent,
    QmigContract,
    TransferIntentSource,
    build_intent_digest,
    inflection_digest,
)
from failsafe.scenario import Scenario, ScenarioRunner
from conftest import register_intent
from oracles import (
    reference_keccak256,
    replay_balance_from_blocks,
    replay_permitted_amount,
    replay_withdrawals_from_blocks,
)

# scenario-driven criteria share one deterministic run per (name, disabled)
_RUNS: dict = {}


def cached_run(name: str, disabled: tuple = ()):
    key = (name, tuple(disabled))
    if key not in _RUNS:
        runner = ScenarioRunner(Scenario.load(bundled_scenarios()[name]), disabled=disabled)
        _RUNS[key] = (runner, runner.run())
    return _RUNS[key]


@contextlib.contextmanager
def criterion(capsys, number: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:02d} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number:02d} {name}: PASS")


def test_criterion_01_front_run_interception(capsys):
    with criterion(capsys, 1, "front-run interception"):
        runner, report = cached_run("key-theft-intercept")
        drain = runner.labels["drain"]
        assert drain.gas_price == 100
        decision, itx, _ = runner.fis.intercept_records[0]
        assert decision.attacker_tx.tx_id == drain.tx_id
        assert itx.gas_price == 110
        height, outcome = runner.tx_outcomes.committed(itx)
        assert outcome == "Executed"
        order = [tx for tx, _ in runner.ledger.blocks[height].txs]
        assert order.index(itx) < order.index(drain)
        assert runner.tx_outcomes[drain.tx_id] == "Reverted:InsufficientBalance"
        assert report.assets_lost == 0

        exposed_runner, exposed = cached_run("key-theft-intercept", disabled=("fis",))
        full_hot_balance = sum(
            g["amount"] for g in exposed_runner.scenario.genesis if g["to"] == "alice"
        )
        # the disabled interceptor is built but never ticked
        assert exposed_runner.fis.intercept_records == []
        assert exposed_runner.fis.alerts == []
        assert exposed.assets_lost == full_hot_balance == 1000


def test_criterion_02_keccak_bit_exactness(capsys):
    with criterion(capsys, 2, "Keccak-256 bit-exactness"):
        assert keccak256(b"") == reference_keccak256(b"")
        assert keccak256(b"abc") == reference_keccak256(b"abc")


def test_criterion_03_qmig_round_trip(capsys):
    with criterion(capsys, 3, "qMig intent round trip"):
        rng = random.Random(303)
        ledger = Ledger(chain_id=1)
        ledger.create_token("gold")
        admin = PqKeyPair.generate(rng)
        qmig_addr = Address(bytes(range(20)))
        qmig = QmigContract(ledger, qmig_addr, admin_pq_public=admin.public)
        ledger.register_contract(qmig_addr, qmig)
        owner = KeyPair.generate(rng)
        courier = KeyPair.generate(rng)
        dest = pq_address(PqKeyPair.generate(rng).public)

        def registered(intent_owner, dest_addr):
            source = TransferIntentSource(1, intent_owner.address, 2, dest_addr)
            sig, digest = build_intent_digest(source, intent_owner)
            register_intent(ledger, qmig_addr, courier, digest)
            return source, sig

        early = registered(owner, dest)
        ledger.build_block()  # h0 = 1: early intent on chain

        # the inflection lands at height 2; an intent in the same block is late
        boundary_owner = KeyPair.generate(rng)
        boundary = registered(boundary_owner, dest)
        pq_sig = admin.sign(inflection_digest(2)).to_bytes()
        tx = sign_transaction(
            courier,
            ledger.next_nonce(courier.address),
            1,
            ContractCall(qmig_addr, "setInflectionPoint", (2, pq_sig)),
        )
        ledger.submit_transaction(tx)
        ledger.build_block()  # h1 = 2

        late_owner = KeyPair.generate(rng)
        late = registered(late_owner, dest)
        ledger.build_block()  # height 3 > inflection

        assert qmig.verify_transfer_intent(*early) is True
        for source, sig in (boundary, late):
            with pytest.raises(LateIntent) as err:
                qmig.verify_transfer_intent(source, sig)
            assert str(err.value) == LATE_INTENT_MESSAGE
            assert (
                str(err.value)
                == "Intent to transfer registered after the quantum inflection point!"
            )


def test_criterion_04_stolen_funds_exclusion(capsys):
    with criterion(capsys, 4, "stolen-funds exclusion"):
        rng = random.Random(404)
        ledger = Ledger(chain_id=1)
        ledger.create_token("gold")
        admin = PqKeyPair.generate(rng)
        qmig_addr = Address(bytes(range(1, 21)))
        qmig = QmigContract(ledger, qmig_addr, admin_pq_public=admin.public)
        ledger.register_contract(qmig_addr, qmig)
        dest_ledger = QuantumSafeLedger(chain_id=2)
        bridge = Bridge(ledger, dest_ledger, qmig)

        victim = KeyPair.generate(rng)  # robbed after the inflection point
        attacker = KeyPair.generate(rng)
        honest = KeyPair.generate(rng)
        courier = KeyPair.generate(rng)
        ledger.genesis_allocate(victim.address, "gold", 900)
        ledger.genesis_allocate(attacker.address, "gold", 50)
        ledger.genesis_allocate(honest.address, "gold", 700)

        def intent_for(key):
            dest = pq_address(PqKeyPair.generate(rng).public)
            source = TransferIntentSource(1, key.address, 2, dest)
            sig, digest = build_intent_digest(source, key)
            register_intent(ledger, qmig_addr, courier, digest)
            return source, sig, dest

        attacker_intent = intent_for(attacker)
        honest_intent = intent_for(honest)
        ledger.build_block()  # height 1: intents registered

        pq_sig = admin.sign(inflection_digest(2)).to_bytes()
        tx = sign_transaction(
            courier, ledger.next_nonce(courier.address), 1,
            ContractCall(qmig_addr, "setInflectionPoint", (2, pq_sig)),
        )
        ledger.submit_transaction(tx)
        ledger.build_block()  # height 2: inflection

        # post-inflection theft: the victim's key is assumed broken
        theft = sign_transaction(
            victim, 0, 1, TokenTransfer("gold", attacker.address, 900)
        )
        ledger.submit_transaction(theft)
        ledger.build_block()  # height 3
        assert ledger.balance_of(attacker.address, "gold") == 950

        def oracle_permitted(addr, already=0):
            return replay_permitted_amount(
                ledger.events, addr, "gold", 2, qmig.authorized_pairs, already_bridged=already
            )

        def req(intent, amount):
            source, sig, _ = intent
            return BridgeTransfer(source, "gold", amount, sig)

        # the 900 that arrived after the inflection point stays excluded
        assert qmig.permitted_amount(attacker.address, "gold") == 50
        assert oracle_permitted(attacker.address) == 50
        for too_much in (51, 900, 950):
            with pytest.raises(ExceedsPermitted):
                bridge.bridge_transfer(req(attacker_intent, too_much))
        ledger.build_block()

        # the attacker's own pre-inflection 50 remains bridgeable
        bridge.bridge_transfer(req(attacker_intent, 50))
        ledger.build_block()
        assert dest_ledger.balance_of(attacker_intent[2], "gold") == 50
        assert qmig.permitted_amount(attacker.address, "gold", already_bridged=50) == 50
        assert oracle_permitted(attacker.address, already=50) == 50
        with pytest.raises(ExceedsPermitted):
            bridge.bridge_transfer(req(attacker_intent, 1))

        # the honest victim moves their full pre-inflection balance
        assert qmig.permitted_amount(honest.address, "gold") == 700
        assert oracle_permitted(honest.address) == 700
        bridge.bridge_transfer(req(honest_intent, 400))
        ledger.build_block()
        bridge.bridge_transfer(req(honest_intent, 300))
        ledger.build_block()
        assert dest_ledger.balance_of(honest_intent[2], "gold") == 700
        assert ledger.balance_of(honest.address, "gold") == 0
        assert bridge.book.conservation_holds()


def test_criterion_05_multisig_thresholds(capsys):
    with criterion(capsys, 5, "multisig thresholds"):
        rng = random.Random(505)
        ledger = Ledger()
        ledger.create_token("gold")
        custodian = KeyCustodian()
        signers = [KeyPair.generate(rng) for _ in range(5)]
        qmig_addr = Address(bytes(range(2, 22)))
        ledger.register_contract(qmig_addr, QmigContract(ledger, qmig_addr, None))
        contract = deploy_failsafe(
            ledger,
            "vaulted",
            [k.address for k in signers],
            {
                OperationKind.INTERCEPT: 1,
                OperationKind.REBALANCE: 1,
                OperationKind.WITHDRAW: 3,
                OperationKind.UPDATE_CONFIG: 3,
            },
            qmig_addr,
            KeyPair.generate(rng),
        )
        custodian.add_role("intercept", signers[0])
        hot = KeyPair.generate(rng)
        relayer = KeyPair.generate(rng)
        ledger.genesis_allocate(hot.address, "gold", 100)
        ledger.genesis_allocate(contract.address, "gold", 5000)
        enroll_wallet(
            ledger, contract, hot,
            PolicyConfig(1, 5, 1, 2, 10 ** 9, 5),
            ["gold"], dest_chain_id=2, dest_address=hot.address,
        )
        ledger.build_block()

        def submit_execute(op, op_args, blobs, auth_nonce, gas_price=1):
            payload = ContractCall(
                contract.address, "execute", (op.value, op_args, auth_nonce, blobs)
            )
            tx = sign_transaction(
                relayer, ledger.next_nonce(relayer.address), gas_price, payload
            )
            ledger.submit_transaction(tx)
            return tx

        # interception clears with exactly one signature
        intercept_args = (bytes(hot.address), (("fungible", "gold", 40),))
        nonce = contract.next_auth_nonce()
        blobs = contract.authorize(
            OperationKind.INTERCEPT, intercept_args, nonce, [signers[0]]
        )
        assert len(blobs) == 1
        # as 65 bytes: a parsed blob carries no signer hint, so it is recovered in full
        blobs = tuple(blob.to_bytes() for blob in blobs)
        itx = submit_execute(OperationKind.INTERCEPT, intercept_args, blobs, nonce)
        ledger.build_block()
        assert next(
            o for b in ledger.blocks for t, o in b.txs if t.tx_id == itx.tx_id
        ) == "Executed"
        assert ledger.balance_of(contract.address, "gold") == 5040

        # a withdraw at threshold 3: every 2-distinct set fails, every
        # 3-distinct set passes; sweep 1000 random signer subsets
        withdraw_args = ("fungible", bytes(hot.address), "gold", 1)
        shared_nonce = contract.next_auth_nonce()
        shared_digest_blobs = contract.authorize(
            OperationKind.WITHDRAW, withdraw_args, shared_nonce, signers
        )
        expectations = []  # (tx, expected outcome)
        successes = 0
        for case in range(1000):
            if rng.random() < 0.4:
                picks = rng.choices(range(5), k=rng.randint(0, 5))  # duplicates allowed
            else:
                picks = rng.sample(range(5), k=rng.randint(0, 5))
            if len(set(picks)) >= 3:
                auth_nonce = contract.next_auth_nonce()
                blobs = contract.authorize(
                    OperationKind.WITHDRAW, withdraw_args, auth_nonce,
                    [signers[i] for i in picks],
                )
                expected = "Executed"
                successes += 1
            else:
                # failures never consume the digest, so one pre-signed
                # authorization serves every failing subset
                auth_nonce = shared_nonce
                blobs = tuple(shared_digest_blobs[i] for i in picks)
                expected = "Reverted:InsufficientSignatures"
            if case % 50 == 0:
                # every 50th subset as 65-byte blobs: the full recovery path
                # under the same threshold logic as the signature objects
                blobs = tuple(blob.to_bytes() for blob in blobs)
            tx = submit_execute(OperationKind.WITHDRAW, withdraw_args, blobs, auth_nonce)
            expectations.append((tx, expected))
            if len(expectations) % 100 == 0:
                ledger.build_block()
        ledger.build_block()

        outcomes = {t.tx_id: o for b in ledger.blocks for t, o in b.txs}
        for tx, expected in expectations:
            assert outcomes[tx.tx_id] == expected
        assert ledger.balance_of(contract.address, "gold") == 5040 - successes
        assert 0 < successes < 1000  # both branches actually exercised


def test_criterion_06_digest_hiding(capsys):
    with criterion(capsys, 6, "registry digest hiding"):
        checked_records = 0
        for name in bundled_scenarios():
            runner, _ = cached_run(name)
            signature_blobs = {
                tx.signature.to_bytes()
                for block in runner.ledger.blocks
                for tx, _ in block.txs
            }
            signature_blobs.update(
                sig.to_bytes() for _, sig in runner.intents.values()
            )
            for vault in runner.vaults.values():
                signature_blobs.update(
                    record.custody_intent[1].to_bytes() for record in vault.enrollments.values()
                )
            for record in runner.qmig.storage_records():
                checked_records += 1
                assert len(record) <= 40
                for blob in signature_blobs:
                    assert len(blob) == 65
                    assert blob not in record
        assert checked_records > 0


def test_criterion_07_rebalance_convergence(capsys):
    with criterion(capsys, 7, "rebalance convergence"):
        runner, report = cached_run("rebalance-drift")
        erin = runner.resolve_address("erin")
        vault = runner.vaults["erin"].address
        ledger = runner.ledger
        # the scripted inflow leaves the hot fraction at 0.5 after block 2
        h2, c2 = ledger.balance_at(erin, "gold", 2), ledger.balance_at(vault, "gold", 2)
        assert Fraction(h2, h2 + c2) == Fraction(1, 2)
        # one balancer tick plus one block restores the 0.2 target
        h3, c3 = ledger.balance_at(erin, "gold", 3), ledger.balance_at(vault, "gold", 3)
        total = h3 + c3
        assert total == h2 + c2
        assert abs(Fraction(h3, total) - Fraction(1, 5)) <= Fraction(1, total)
        rebalances = [a for a in runner.balancer.actions]
        assert len(rebalances) == 1 and rebalances[0].delta == 480


def test_criterion_08_balance_replay(capsys):
    with criterion(capsys, 8, "balance replay"):
        keys = [KeyPair.generate(random.Random(80 + i)) for i in range(4)]
        for round_index in range(50):
            rng = random.Random(8000 + round_index)
            genesis = []
            ledger = Ledger()
            ledger.create_token("gold")
            for key in keys:
                for token in (NATIVE, "gold"):
                    amount = rng.randrange(200, 800)
                    ledger.genesis_allocate(key.address, token, amount)
                    genesis.append((key.address, token, amount))
            for _ in range(200):
                if rng.random() < 0.35:
                    sender = rng.choice(keys)
                    to = rng.choice(keys).address
                    token = rng.choice((NATIVE, "gold"))
                    amount = rng.randrange(1, 400)  # overdrafts revert on purpose
                    payload = (
                        NativeTransfer(to, amount)
                        if token == NATIVE
                        else TokenTransfer(token, to, amount)
                    )
                    tx = sign_transaction(
                        sender,
                        ledger.next_nonce(sender.address),
                        rng.randrange(1, 50),
                        payload,
                    )
                    ledger.submit_transaction(tx)
                ledger.build_block()
            assert ledger.height == 200
            heights = {0, 1, 200} | {rng.randrange(1, 200) for _ in range(3)}
            for height in heights:
                for key in keys:
                    for token in (NATIVE, "gold"):
                        assert ledger.balance_at(
                            key.address, token, height
                        ) == replay_balance_from_blocks(
                            genesis, ledger.blocks, key.address, token, height
                        )
                        assert ledger.withdrawals_since(
                            key.address, token, height
                        ) == replay_withdrawals_from_blocks(
                            ledger.blocks, key.address, token, height
                        )


def test_criterion_09_determinism(capsys):
    with criterion(capsys, 9, "scenario determinism"):
        for name, path in bundled_scenarios().items():
            _, first = cached_run(name)
            second = ScenarioRunner(Scenario.load(path)).run()
            first_log = "\n".join(first.log_lines).encode()
            second_log = "\n".join(second.log_lines).encode()
            assert first_log == second_log, f"{name} diverged between runs"
            assert first_log  # a scenario with an empty log proves nothing


def test_criterion_10_private_tx_bypass_pair(capsys):
    with criterion(capsys, 10, "private-tx bypass pair"):
        bypass_runner, bypass = cached_run("private-tx-bypass")
        assert bypass_runner.private_status["drain"] == "Accepted"
        assert bypass.intercept_count == 0
        assert bypass.assets_lost == bypass.assets_at_risk == 600

        shielded_runner, shielded = cached_run("private-tx-bypass-protected")
        assert shielded_runner.private_status["drain-private"] == "FilteredByExceptionsList"
        filtered_tx = shielded_runner.labels["drain-private"]
        assert filtered_tx.tx_id not in shielded_runner.tx_outcomes  # never included
        assert shielded.assets_lost == 0
        assert shielded.assets_saved == shielded.assets_at_risk == 600
