"""Scenario runner: parsing, determinism, service toggles, reporting, CLI."""

import copy
import gc
import hashlib

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from failsafe.bridge import ESCROW_ADDRESS
from failsafe.cli import bundled_scenarios, main
from failsafe.contract import OperationKind
from failsafe.crypto import RecoverableSignature, keccak256, recover_signer, sign
from failsafe.ledger import NATIVE, compute_tx_digest
from failsafe.scenario import CUSTODIAN_ROLES, ParseError, Scenario, ScenarioRunner, UnknownActor
from oracles import replay_balance_from_events

MINIMAL = {
    "name": "minimal",
    "seed": 5,
    "actors": {"alice": {}, "bob": {}},
    "tokens": [{"id": "gold"}],
    "genesis": [{"to": "alice", "token": "gold", "amount": 100}],
    "steps": [
        {"at": 1, "action": "transfer", "signer": "alice", "to": "bob",
         "token": "gold", "amount": 40, "label": "pay"},
    ],
    "assertions": [
        {"check": "balance", "address": "bob", "token": "gold", "equals": 40},
        {"check": "outcome", "label": "pay", "equals": "Executed"},
    ],
}


def scenario_path(name: str):
    return bundled_scenarios()[name]


# -- parsing and validation ---------------------------------------------------------


def test_minimal_scenario_runs_clean():
    report = ScenarioRunner(Scenario.from_dict(MINIMAL)).run()
    assert report.exit_code == 0
    assert report.blocks_built == 3  # last step + 2 settle blocks
    assert report.assertions_passed == 2


def edited(**overrides):
    data = copy.deepcopy(MINIMAL)
    data.update(overrides)
    return data


def numbered(prefix: str, rows):
    """Each (number, *args, message) row as a test named `<prefix><number>-<message>`.
    A row keeps the number it was first given, so deleting one renames no other."""
    return [pytest.param(*args, id=f"{prefix}{number}-{args[-1]}") for number, *args in rows]


@pytest.mark.parametrize(
    "broken, fragment",
    numbered("broken", [
        (0, edited(actors={}), "non-empty 'actors'"),
        # sections a scenario no longer has are unknown keys
        (1, edited(services={"firewall": True}), "unknown scenario keys: ['services']"),
        (2, edited(fbr_config={"threshold": 1}), "unknown scenario keys: ['fbr_config']"),
        (
            3,
            edited(steps=[
                {"at": 2, "action": "transfer"},
                {"at": 1, "action": "transfer"},
            ]),
            "sorted by 'at'",
        ),
        (4, edited(steps=[{"at": 0, "action": "transfer"}]), "'at' must be >= 1"),
        (5, edited(steps=[{"at": 1}]), "needs 'at' and 'action'"),
        (6, edited(steps=[{"at": "soon", "action": "transfer"}]),
         "step 0: 'at' must be an integer"),
        (7, edited(seed="abc"), "'seed' must be an integer"),
        (8, edited(run_blocks=[3]), "'run_blocks' must be an integer"),
        (9, edited(actors={"alice": True}), "actor 'alice' must be a mapping"),
        (10, edited(genesis={"to": "alice"}), "'genesis' must be a list"),
        (11, edited(genesis=["alice"]), "genesis entry 0 must be a mapping"),
        (12, edited(at_risk=["gold"]), "at_risk must be a mapping"),
        (13, edited(failsafe=[{"owner": "alice", "enrollments": [None]}]),
         "failsafe entry 0 enrollments entry 0 must be a mapping"),
        (16, edited(custodian_roles=5), "unknown scenario keys: ['custodian_roles']"),
        (18, edited(assertions=5), "'assertions' must be a list of mappings"),
        (19, edited(assertions=["balance"]), "'assertions' must be a list of mappings"),
        (
            20,
            edited(assertions=[{"check": "balanse", "address": "bob", "token": "gold",
                                "equals": 40}]),
            "assertion 0: unknown check 'balanse'",
        ),
        (21, edited(assertions=[{"address": "bob", "equals": 4}]),
         "assertion 0: unknown check 'None'"),
        (
            22,
            edited(assertions=[{"check": "balance", "address": "bob", "token": "gold"}]),
            "assertion 0 (balance) needs equals/at_least/at_most",
        ),
        (
            23,
            edited(assertions=[{"check": "outcome", "label": "pay", "at_least": 1}]),
            "assertion 0 (outcome) needs equals",
        ),
        (
            27,
            edited(assertions=[{"check": "intercepts", "at_least": "many"}]),
            "assertion 0 (intercepts): 'at_least' must be an integer, got 'many'",
        ),
        (
            28,
            edited(assertions=[{"check": "balance", "address": "bob", "token": "gold",
                                "ledger": "dset", "equals": 40}]),
            "assertion 0 (balance): 'ledger' must be one of source/dest, got 'dset'",
        ),
        (29, edited(steps=[{"at": 2, "action": "transfr"}]), "step 0: unknown action 'transfr'"),
        (30, edited(failsafe=[{"owner": "alice", "thresholds": 5}]),
         "failsafe entry 0 thresholds must be a mapping"),
        (
            31,
            edited(assertions=[{"check": "balance", "address": "bob", "token": "gold",
                                "equals": 40, "at_most": 3}]),
            "assertion 0 (balance) takes one of equals/at_least/at_most, got equals and at_most",
        ),
        (32, edited(asertions=[]), "unknown scenario keys: ['asertions']"),
        (33, {**MINIMAL, 1: 2, "windw": 3}, "unknown scenario keys: [1, 'windw']"),
        (
            34,
            edited(run_blocks=1, steps=[{"at": 2, "action": "clear_threat"},
                                        {"at": 3, "action": "clear_threat"}]),
            "step at block 2 beyond run_blocks=1",
        ),
        # a block count past the cap is refused before anything runs
        (35, edited(run_blocks=2**70), "'run_blocks' must be <= 1000000"),
        (36, edited(steps=[{"at": 10**6 + 1, "action": "clear_threat"}]),
         "step 0: 'at' must be <= 1000000"),
        # so is one below 1, as 'at' is
        (37, edited(run_blocks=-3, steps=[]), "'run_blocks' must be >= 1, got -3"),
        (38, edited(run_blocks=0, steps=[]), "'run_blocks' must be >= 1, got 0"),
    ]),
)
def test_structural_validation(broken, fragment):
    with pytest.raises(ParseError) as err:
        Scenario.from_dict(broken)
    assert fragment in str(err.value)


_POLICY = {"hot_fraction_target": 1, "hot_fraction_tolerance": 0,
           "max_value_per_window": 100, "window_length": 5}


def _enrolled(policy=None, **fields):
    enrollment = {"wallet": "alice", "policy": dict(_POLICY, **(policy or {})),
                  "tokens": ["gold"], "dest": "bob", **fields}
    return [{"owner": "alice", "signers": ["alice", "bob"], "enrollments": [enrollment]}]


_ART = {"tokens": [{"id": "gold"}, {"id": "art", "kind": "nft"}],
        "genesis": [MINIMAL["genesis"][0], {"to": "alice", "token": "art", "token_id": 7}]}


@pytest.mark.parametrize(
    "overrides, message",
    numbered("overrides", [
        (0, {"genesis": [{"token": "gold", "amount": 100}]},
         "genesis entry 0: missing parameter 'to'"),
        (1, {"failsafe": [{"signers": ["bob"]}]}, "failsafe entry 0: missing parameter 'owner'"),
        (2, {"blacklist": [{"category": "theft"}]},
         "blacklist entry 0: missing parameter 'address'"),
        (3, {"at_risk": {"token": "gold", "amount": 10}}, "at_risk: missing parameter 'attacker'"),
        (
            4,
            {"steps": [{"at": 1, "action": "withdraw", "owner": "alice", "wallet": "alice",
                        "token": "gold", "amount": 1, "signers": ["alice"]}]},
            "step 0 (withdraw): no FailSafe vault deployed for 'alice'",
        ),
        (5, {"assertions": [{"check": "intercepts"}]},
         "assertion 0 (intercepts) needs equals/at_least/at_most"),
        (6, {"assertions": [{"check": "balance", "token": "gold", "equals": 40}]},
         "assertion 0 (balance): missing parameter 'address'"),
        (7, {"assertions": [{"check": "outcome", "equals": "Executed"}]},
         "assertion 0 (outcome): missing parameter 'label'"),
        (8, {"assertions": [{"check": "permitted", "token": "gold", "equals": 0}]},
         "assertion 0 (permitted): missing parameter 'wallet'"),
        (9, {"assertions": [{"check": "alerts", "equals": 0}]},
         "assertion 0 (alerts): missing parameter 'user'"),
        (10, {"asertions": []}, "unknown scenario keys: ['asertions']"),
        (11, {"services": {"fis": 1}}, "unknown scenario keys: ['services']"),
        (12, {"custodian_roles": ["relayer", "relayer"]},
         "unknown scenario keys: ['custodian_roles']"),
        (13, {"fbr_config": {"window_length": 2.5}}, "unknown scenario keys: ['fbr_config']"),
        # a token the file never declares, or one of the wrong kind
        (14, {"at_risk": {"token": "silver", "amount": 10, "attacker": "bob"}},
         "at_risk: unknown token 'silver'"),
        (15, dict(_ART, at_risk={"token": "art", "amount": 1, "attacker": "bob"}),
         "at_risk: token 'art' is not fungible"),
        (16, {"genesis": [{"to": "alice", "token": "silver", "amount": 5}]},
         "genesis entry 0: unknown token 'silver'"),
        (17, {"failsafe": _enrolled(tokens=5)},
         "failsafe entry 0 enrollments entry 0: 'tokens' must be a list, got 5"),
        # an enrollment whose Approval of a token would revert, leaving it unprotected
        (18, {"failsafe": _enrolled(tokens=["gold", "silver"])},
         "failsafe entry 0 enrollments entry 0: unknown token 'silver'"),
        (19, {"failsafe": _enrolled(tokens=[NATIVE])},
         "failsafe entry 0 enrollments entry 0: unknown token 'native'"),
    ]),
)
def test_incomplete_section_is_a_parse_error(overrides, message, tmp_path, capsys):
    path = tmp_path / "incomplete.yaml"
    path.write_text(yaml.safe_dump(edited(**overrides)))
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_enrolled_nft_is_protected():
    # an NFT enrollment is no parse error: its Approval grants the vault operator
    # rights, so FIS can pull the NFT into custody before a drain lands
    vault = dict(_enrolled(tokens=["gold", "art"])[0], signers=["role:intercept", "alice"])
    data = edited(**_ART, failsafe=[vault],
                  blacklist=[{"address": "bob", "category": "FraudContract"}],
                  steps=[{"at": 2, "action": "nft_transfer", "signer": "alice", "to": "bob",
                          "token": "art", "token_id": 7, "gas_price": 5, "label": "drain"}],
                  assertions=[{"check": "outcome", "label": "drain",
                               "equals": "Reverted:NotOwner"}])
    runner = ScenarioRunner(Scenario.from_dict(data))
    assert runner.run().exit_code == 0
    assert runner.fis.intercept_count == 1
    assert runner.ledger.nft_owner_of("art", 7) == runner.vaults["alice"].address


def _transfer(**fields):
    return [dict(MINIMAL["steps"][0], **fields)]


_INTENT = {"at": 1, "action": "make_intent", "source": "alice", "dest": "bob", "store": "x"}
_INFLECTION = {"action": "set_inflection", "signer": "alice", "height": 5}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"steps": _transfer(amount="ten")},
         "step 0 (transfer): 'amount' must be an integer, got 'ten'"),
        ({"steps": _transfer(gas_price="high")},
         "step 0 (transfer): 'gas_price' must be an integer, got 'high'"),
        (
            {"steps": [_INTENT, {"at": 1, "action": "bridge", "intent": "x", "token": "gold",
                                 "amount": 0}]},
            "step 1 (bridge): bridge amount must be positive, got 0",
        ),
        ({"steps": _transfer(to="0x" + "zz" * 20)}, "step 0 (transfer): non-hexadecimal"),
        ({"steps": _transfer(amount=2**2040)},
         "step 0 (transfer): TokenTransfer amount: integer too large to encode"),
        (
            {"genesis": [{"to": "alice", "token": "gold", "amount": "lots"}]},
            "genesis entry 0: 'amount' must be an integer, got 'lots'",
        ),
        ({"tokens": [{"id": "gold"}, {"id": "gold"}]}, "tokens entry 1: token 'gold' already exists"),
        (
            {"failsafe": [{"owner": "alice", "signers": ["alice"], "thresholds": {"bogus": 1}}]},
            "failsafe entry 0 thresholds: 'bogus' is not a valid OperationKind",
        ),
        ({"steps": 5}, "'steps' must be a list"),
        (
            {"actors": {"alice": {"pq": True}, "bob": {}}, "qmig_admin": "alice",
             "steps": [dict(_INFLECTION, at=1), dict(_INFLECTION, at=2)]},
            "step 1 (set_inflection): Lamport key already used",
        ),
        ({"failsafe": [{"owner": "alice", "signers": []}]},
         "failsafe entry 0: signer set must not be empty"),
        ({"failsafe": [{"owner": "alice", "signers": ["bob", "bob"]}]},
         "failsafe entry 0: signer addresses must be distinct"),
        (
            {"failsafe": [{"owner": "alice", "signers": ["alice", "bob"],
                           "thresholds": {"withdraw": 3}}]},
            "failsafe entry 0: threshold 3 for withdraw outside 1..2",
        ),
        (
            {"failsafe": [{"owner": "alice", "signers": ["alice", "bob"]}] * 2},
            "failsafe entry 1: owner 'alice' already has a vault",
        ),
        ({"blacklist": [{"address": "bob", "category": "theft"}]},
         "blacklist entry 0: unknown blacklist category 'theft'"),
        ({"failsafe": _enrolled({"hot_fraction_target": "1/0"})},
         "failsafe entry 0 enrollments entry 0 policy: policy denominators must be at least 1"),
        # a fraction is an integer or p/q text; an exponent must not stall the parser
        ({"failsafe": _enrolled({"hot_fraction_target": "0.2"})},
         "failsafe entry 0 enrollments entry 0 policy: 'hot_fraction_target' must be p/q or an "
         "integer, got '0.2'"),
        ({"failsafe": _enrolled({"hot_fraction_tolerance": "1e-10000000"})},
         "failsafe entry 0 enrollments entry 0 policy: 'hot_fraction_tolerance' must be p/q or an "
         "integer, got '1e-10000000'"),
        ({"steps": _transfer(signer="role:phantom")},
         "step 0 (transfer): no custodian role named 'role:phantom'"),
        # a negative amount would leave a balance, or a reported loss, below zero
        ({"genesis": [{"to": "alice", "token": "gold", "amount": -100}]},
         "genesis entry 0: cannot allocate a negative amount -100 of gold"),
        ({"at_risk": {"token": "gold", "amount": -10, "attacker": "bob"}},
         "at_risk: 'amount' must be >= 0, got -10"),
        # an unknown name is reported where it was read
        ({"steps": _transfer(signer="nobody")},
         "step 0 (transfer): cannot resolve signing key 'nobody'"),
        ({"steps": _transfer(to="nobody")}, "step 0 (transfer): cannot resolve address 'nobody'"),
        ({"failsafe": [{"owner": "alice", "signers": ["alice", "ghost"]}]},
         "failsafe entry 0: cannot resolve address 'ghost'"),
        ({"genesis": [{"to": "nobody", "token": "gold", "amount": 1}]},
         "genesis entry 0: cannot resolve address 'nobody'"),
        ({"blacklist": [{"address": "nobody", "category": "FraudContract"}]},
         "blacklist entry 0: cannot resolve address 'nobody'"),
        ({"at_risk": {"token": "gold", "amount": 10, "attacker": "nobody.contract"}},
         "at_risk: no FailSafe contract deployed for 'nobody'"),
        ({"qmig_admin": "bob"}, "qmig_admin: 'bob' is not a pq actor"),
        ({"failsafe": _enrolled(wallet="nobody")},
         "failsafe entry 0 enrollments entry 0: wallet 'nobody' is not an actor"),
    ],
    ids=["amount", "gas-price", "bridge-amount", "hex-address", "unencodable-amount",
         "genesis-amount", "duplicate-token", "threshold-name", "steps-not-a-list",
         "reused-lamport-key", "no-signers", "repeated-signer", "threshold-range",
         "duplicate-owner", "blacklist-category", "policy-zero-denominator",
         "policy-decimal", "policy-exponent", "unknown-role",
         "genesis-negative-amount", "at-risk-negative-amount", "unknown-step-signer",
         "unknown-step-address", "unknown-vault-signer", "unknown-genesis-address",
         "unknown-blacklist-address", "unknown-at-risk-attacker", "unknown-qmig-admin",
         "unknown-enrollment-wallet"],
)
def test_refused_file_value_is_a_parse_error(overrides, message, tmp_path, capsys):
    path = tmp_path / "bad-value.yaml"
    path.write_text(yaml.safe_dump(edited(**overrides)))
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"seed": 5.9}, "scenario: 'seed' must be an integer, got 5.9"),
        ({"chain_id": "7"}, "scenario: 'chain_id' must be an integer, got '7'"),
        ({"dest_chain_id": True}, "scenario: 'dest_chain_id' must be an integer, got True"),
        ({"run_blocks": 3.5}, "scenario: 'run_blocks' must be an integer, got 3.5"),
        ({"steps": _transfer(at=1.7)}, "step 0: 'at' must be an integer, got 1.7"),
        ({"steps": _transfer(amount=40.9)},
         "step 0 (transfer): 'amount' must be an integer, got 40.9"),
        ({"steps": _transfer(amount=True)},
         "step 0 (transfer): 'amount' must be an integer, got True"),
        ({"steps": _transfer(gas_price=True)},
         "step 0 (transfer): 'gas_price' must be an integer, got True"),
        (
            {"steps": [{"at": 1, "action": "approve", "signer": "alice", "token": "gold",
                        "spender": "bob", "amount": True}]},
            "step 0 (approve): 'amount' must be an integer, got True",
        ),
        (
            dict(_ART, steps=[{"at": 1, "action": "nft_transfer", "signer": "alice",
                               "to": "bob", "token": "art", "token_id": "7"}]),
            "step 0 (nft_transfer): 'token_id' must be an integer, got '7'",
        ),
        (
            {"actors": {"alice": {"pq": True}, "bob": {}}, "qmig_admin": "alice",
             "steps": [dict(_INFLECTION, at=1, height=5.5)]},
            "step 0 (set_inflection): 'height' must be an integer, got 5.5",
        ),
        ({"steps": [dict(_INTENT, dest_chain="9001")]},
         "step 0 (make_intent): 'dest_chain' must be an integer, got '9001'"),
        (
            {"steps": [_INTENT, {"at": 1, "action": "bridge", "intent": "x", "token": "gold",
                                 "amount": 2.5}]},
            "step 1 (bridge): 'amount' must be an integer, got 2.5",
        ),
        ({"genesis": [{"to": "alice", "token": "gold", "amount": 100.5}]},
         "genesis entry 0: 'amount' must be an integer, got 100.5"),
        (dict(_ART, genesis=[{"to": "alice", "token": "art", "token_id": 7.0}]),
         "genesis entry 0: 'token_id' must be an integer, got 7.0"),
        ({"at_risk": {"token": "gold", "amount": True, "attacker": "bob"}},
         "at_risk: 'amount' must be an integer, got True"),
        (
            {"failsafe": [{"owner": "alice", "signers": ["alice", "bob"],
                           "thresholds": {"withdraw": True}}]},
            "failsafe entry 0 thresholds: 'withdraw' must be an integer, got True",
        ),
        ({"failsafe": _enrolled({"max_value_per_window": 100.7})},
         "failsafe entry 0 enrollments entry 0 policy: 'max_value_per_window' must be an "
         "integer, got 100.7"),
        ({"failsafe": _enrolled({"window_length": True})},
         "failsafe entry 0 enrollments entry 0 policy: 'window_length' must be an integer, "
         "got True"),
        ({"failsafe": _enrolled(dest_chain="9001")},
         "failsafe entry 0 enrollments entry 0: 'dest_chain' must be an integer, got '9001'"),
        ({"steps": _transfer(private="false")},
         "step 0 (transfer): 'private' must be true or false, got 'false'"),
        ({"actors": {"alice": {"pq": "no"}, "bob": {}}},
         "actor 'alice': 'pq' must be true or false, got 'no'"),
        ({"failsafe": [{"owner": "alice", "signers": 5}]},
         "failsafe entry 0: 'signers' must be a list, got 5"),
        (
            {"failsafe": [{"owner": "alice", "signers": ["alice", "bob"]}],
             "steps": [{"at": 1, "action": "withdraw", "owner": "alice", "wallet": "alice",
                        "token": "gold", "amount": 1, "signers": "alice"}]},
            "step 0 (withdraw): 'signers' must be a list, got 'alice'",
        ),
    ],
    ids=["seed", "chain-id", "dest-chain-id", "run-blocks", "at", "amount-float",
         "amount-bool", "gas-price", "approve-amount", "token-id", "height", "dest-chain",
         "bridge-amount", "genesis-amount", "genesis-token-id", "at-risk-amount", "threshold",
         "policy-cap", "policy-window", "enrollment-dest-chain",
         "private", "pq", "vault-signers", "withdraw-signers"],
)
def test_mistyped_file_value_is_a_parse_error(overrides, message, tmp_path, capsys):
    path = tmp_path / "mistyped.yaml"
    path.write_text(yaml.safe_dump(edited(**overrides)))
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_numeric_label_is_text():
    data = edited(steps=_transfer(label=5),
                  assertions=[{"check": "outcome", "label": 5, "equals": "Executed"}])
    report = ScenarioRunner(Scenario.from_dict(data)).run()
    assert report.assertion_results == [(True, "outcome[5] = Executed")]


def test_missing_step_parameter_is_a_parse_error(tmp_path, capsys):
    data = copy.deepcopy(MINIMAL)
    del data["steps"][0]["to"]
    path = tmp_path / "no-recipient.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "error: step 0 (transfer): missing parameter 'to'" in capsys.readouterr().err


# grace and hal sign at block 1, hal's transfer reverting; ivy never signs.
# The inflection is height 3, so a theft first succeeds in block 4.
_THEFT = {
    "name": "theft",
    "seed": 9,
    "actors": {"grace": {}, "hal": {}, "ivy": {}, "mallory": {}, "admin": {"pq": True}},
    "qmig_admin": "admin",
    "tokens": [{"id": "gold"}],
    "genesis": [{"to": victim, "token": "gold", "amount": 500}
                for victim in ("grace", "hal", "ivy")],
    "steps": [
        {"at": 1, "action": "transfer", "signer": "grace", "to": "mallory",
         "token": "gold", "amount": 10},
        {"at": 1, "action": "transfer", "signer": "hal", "to": "mallory",
         "token": "gold", "amount": 1000},
        {"at": 1, "action": "set_inflection", "signer": "admin", "height": 3},
    ],
}


@pytest.mark.parametrize(
    "at, victim, derivable",
    [(3, "grace", False), (4, "ivy", False), (4, "grace", True), (4, "hal", True)],
    ids=["before-inflection", "never-signed", "exposed", "exposed-by-revert"],
)
def test_quantum_steal_needs_inflection_and_exposed_key(at, victim, derivable):
    steal = {"at": at, "action": "quantum_steal", "victim": victim, "to": "mallory",
             "token": "gold", "amount": 400, "label": "steal"}
    data = dict(_THEFT, steps=[*_THEFT["steps"], steal])
    runner = ScenarioRunner(Scenario.from_dict(data))
    report = runner.run()
    stolen = runner.ledger.balance_of(runner.resolve_address("mallory"), "gold") - 10
    if derivable:
        assert report.assertion_results == []
        assert runner.tx_outcomes[runner.labels["steal"].tx_id] == "Executed"
        assert stolen == 400
    else:
        failure = f"quantum_steal at block {at}: key for {victim} not derivable"
        assert report.assertion_results == [(False, failure)]
        assert f"assert FAIL: {failure}" in report.format_summary()
        assert "steal" not in runner.labels
        assert runner.ledger.blocks[at].txs == ()
        assert stolen == 0


def test_private_register_intent_goes_through_the_relay():
    data = edited(
        steps=[{"at": 1, "action": "register_intent", "source": "alice", "dest": "bob",
                "private": True, "label": "reg"}],
        assertions=[
            {"check": "private_status", "label": "reg", "equals": "Accepted"},
            {"check": "outcome", "label": "reg", "equals": "Executed"},
        ],
    )
    report = ScenarioRunner(Scenario.from_dict(data)).run()
    assert report.assertion_results == [
        (True, "private_status[reg] = Accepted"),
        (True, "outcome[reg] = Executed"),
    ]


def test_steps_beyond_run_blocks_rejected():
    data = edited(run_blocks=2)
    data["steps"] = [dict(data["steps"][0], at=5)]
    with pytest.raises(ParseError) as err:
        ScenarioRunner(Scenario.from_dict(data)).run()
    assert "beyond run_blocks" in str(err.value)


def test_unknown_action_rejected():
    data = edited(steps=[{"at": 1, "action": "teleport"}])
    with pytest.raises(ParseError):
        ScenarioRunner(Scenario.from_dict(data)).run()


def test_unknown_actor_rejected():
    data = edited(steps=[
        {"at": 1, "action": "transfer", "signer": "mallory", "to": "bob",
         "token": "gold", "amount": 1},
    ])
    with pytest.raises(ParseError, match=r"^step 0 \(transfer\): cannot resolve signing key"):
        ScenarioRunner(Scenario.from_dict(data)).run()


def test_load_rejects_non_mapping(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ParseError):
        Scenario.load(path)


def test_load_reports_yaml_syntax_errors(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("name: broken\nsteps: [\n")
    with pytest.raises(ParseError):
        Scenario.load(path)


# the YAML parser itself raises ValueError for an integer past Python's digit
# limit and for a date that does not exist
@pytest.mark.parametrize("text", ["seed: " + "1" * 5000, "seed: 2020-13-45"],
                         ids=["huge-integer", "bad-date"])
def test_load_reports_values_the_yaml_parser_refuses(text, tmp_path, capsys):
    path = tmp_path / "refused.yaml"
    path.write_text(f"actors: {{alice: {{}}}}\n{text}\n")
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_load_parses_like_safe_load(name):
    path = scenario_path(name)
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    assert Scenario.load(path) == Scenario.from_dict(data, default_name=name)


def _sites(node, path=()):
    """Every (path, value) inside a parsed scenario document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from _sites(child, path + (key,))


# small block numbers and amounts keep a mutated run short; the huge ones probe the caps
_NUMBERS = st.one_of(st.integers(-3, 40), st.sampled_from([2**70, -2**70, 10**6 + 1]),
                     st.floats(-5, 5), st.booleans())
_SHAPES = st.sampled_from([None, "", [], {}, [1], {"x": 1}])
_UNRESOLVED = ("nobody", "role:phantom", "nobody.contract", "nobody@dest", "0x12")
# the keys whose values the runner resolves as names
_NAME_KEYS = {"signer", "signers", "to", "address", "wallet", "owner", "dest", "attacker",
              "victim", "spender", "source", "submitter", "intent"}


# CI runs 1000 examples with --hypothesis-profile=fuzz
@given(st.data())
def test_a_mutated_bundled_scenario_fails_only_as_a_parse_error(data):
    """Delete one key or replace one value anywhere in a bundled scenario: the file
    loads, builds and runs, or it is refused as a ParseError (exit 2)."""
    name = data.draw(st.sampled_from(sorted(bundled_scenarios())))
    doc = yaml.safe_load(scenario_path(name).read_text(encoding="utf-8"))
    sites = [path for path, _ in _sites(doc)]
    # a name site is a value under a name key, or an item of a list under one
    name_sites = [path for path in sites if _NAME_KEYS.intersection(path[-2:])]
    # a replacement may also name a real actor, token, action or key, or an alias
    # of each kind that resolves to nothing
    words = sorted({w for path, value in _sites(doc) for w in (path[-1], value)
                    if isinstance(w, str)} | set(_UNRESOLVED))
    aimed = data.draw(st.booleans())  # every bundled scenario has name sites
    *parents, site = data.draw(st.sampled_from(name_sites if aimed else sites))
    node = doc
    for key in parents:
        node = node[key]
    if aimed:
        node[site] = data.draw(st.sampled_from(_UNRESOLVED))
    elif data.draw(st.booleans()):
        del node[site]
    else:
        values = (_NUMBERS, _SHAPES, st.sampled_from(words), st.text(max_size=3))
        node[site] = data.draw(st.one_of(*values))
    try:
        ScenarioRunner(Scenario.from_dict(doc, default_name=name)).run()
    except ParseError:
        pass


def test_load_reads_bundled_file():
    scenario = Scenario.load(scenario_path("key-theft-intercept"))
    assert scenario.name == "key-theft-intercept"
    assert scenario.seed == 101
    assert scenario.at_risk["amount"] == 1000


# -- address aliases -------------------------------------------------------------------


def test_address_aliases_resolve():
    runner = ScenarioRunner(Scenario.load(scenario_path("key-theft-intercept")))
    alice = runner.resolve_address("alice")
    assert runner.resolve_address("0x" + alice.hex()) == alice
    assert runner.resolve_address("escrow") == ESCROW_ADDRESS
    intercept = runner.custodian.key_for("intercept")
    assert runner.resolve_address("role:intercept") == intercept.address
    vault = runner.resolve_address("alice.contract")
    assert vault == runner.vaults["alice"].address
    with pytest.raises(UnknownActor):
        runner.resolve_address("nobody.contract")
    with pytest.raises(UnknownActor):
        runner.resolve_key("role:phantom")
    with pytest.raises(UnknownActor):
        runner.resolve_address("role:phantom")


def test_the_custodian_holds_only_its_roles():
    """A vault keeps its own key, so every bundled world gives the custodian
    exactly the four service roles."""
    for path in bundled_scenarios().values():
        runner = ScenarioRunner(Scenario.load(path))
        assert list(runner.custodian._keys) == list(CUSTODIAN_ROLES)


# -- determinism and service toggles -----------------------------------------------------


def test_same_seed_same_log():
    path = scenario_path("key-theft-intercept")
    first = ScenarioRunner(Scenario.load(path)).run()
    second = ScenarioRunner(Scenario.load(path)).run()
    assert first.log_lines == second.log_lines
    assert first.assets_saved == second.assets_saved


def test_run_starts_with_empty_young_generations():
    # whatever the process allocated before, the run's own allocations alone
    # decide in which blocks the collector's young collections fall
    before = [[] for _ in range(5000)]
    ScenarioRunner(Scenario.load(scenario_path("key-theft-intercept")))
    assert gc.get_count()[1] == 0
    del before


def test_seed_override_changes_addresses_not_verdicts():
    path = scenario_path("key-theft-intercept")
    base = ScenarioRunner(Scenario.load(path)).run()
    reseeded = ScenarioRunner(Scenario.load(path), seed=999).run()
    assert base.log_lines != reseeded.log_lines
    assert reseeded.exit_code == 0
    assert (reseeded.assets_lost, reseeded.intercept_count) == (0, 1)


def test_disabling_fis_lets_the_theft_through():
    path = scenario_path("key-theft-intercept")
    protected = ScenarioRunner(Scenario.load(path)).run()
    assert protected.assets_lost == 0
    assert protected.assets_saved == 1000
    assert protected.intercept_count == 1
    assert protected.intercept_latency_blocks == 1
    exposed = ScenarioRunner(Scenario.load(path), disabled=("fis",)).run()
    assert exposed.intercept_count == 0
    assert exposed.assets_lost == 1000  # the entire hot balance
    assert exposed.assets_saved == 0


def test_disabling_unknown_service_rejected():
    with pytest.raises(ParseError):
        ScenarioRunner(Scenario.from_dict(MINIMAL), disabled=("firewall",))


# erin's hot wallet holds 200 gold, enrolled with a 1/5 hot target; her vault
# holds 800 gold and one NFT from genesis
_VAULT = {
    "seed": 12,
    "actors": {"erin": {}, "whale": {}, "attacker": {}},
    "tokens": [{"id": "gold"}, {"id": "art", "kind": "nft"}],
    "blacklist": [{"address": "attacker", "category": "FraudContract"}],
    "genesis": [{"to": "erin", "token": "gold", "amount": 200},
                {"to": "erin.contract", "token": "gold", "amount": 800},
                {"to": "erin.contract", "token": "art", "token_id": 7},
                {"to": "whale", "token": "gold", "amount": 2000}],
    "failsafe": [{
        "owner": "erin", "signers": ["role:intercept", "role:rebalance", "role:guardian"],
        "enrollments": [{"wallet": "erin", "tokens": ["gold"], "dest": "erin@dest", "policy": {
            "hot_fraction_target": "1/5", "hot_fraction_tolerance": "1/20",
            "max_value_per_window": 100000, "window_length": 10}}],
    }],
}


@pytest.mark.parametrize("cleared", [False, True], ids=["flagged", "cleared"])
def test_rebalancing_resumes_once_the_threat_flag_is_cleared(cleared):
    steps = [
        # a drain to the blacklisted attacker: FIS pulls the hot 200 into
        # custody and flags erin, which stops the balancer for her vault
        {"at": 2, "action": "transfer", "signer": "erin", "to": "attacker", "token": "gold",
         "amount": 100, "gas_price": 100},
        # the hot share becomes 600/1600, far outside 1/5 +/- 1/20
        {"at": 3, "action": "transfer", "signer": "whale", "to": "erin", "token": "gold",
         "amount": 600},
    ]
    if cleared:
        steps.append({"at": 5, "action": "clear_threat", "owner": "erin"})
    runner = ScenarioRunner(Scenario.from_dict(dict(_VAULT, steps=steps, run_blocks=6)))
    runner.run()
    erin, vault = runner.resolve_address("erin"), runner.vaults["erin"].address
    balances = runner.ledger.balance_of(erin, "gold"), runner.ledger.balance_of(vault, "gold")
    rebalanced = [ev.height for ev in runner.ledger.events
                  if ev.kind == "MultisigExecuted" and ev.get("op") == "rebalance"]
    assert runner.fis.intercept_count == 1
    if cleared:
        assert runner.threat_flags == set()
        assert [action.delta for action in runner.balancer.actions] == [600 - 320]
        assert rebalanced == [5]  # in the block of the step that cleared the flag
        assert balances == (320, 1280)
    else:
        assert runner.threat_flags == {"erin"}
        assert runner.balancer.actions == [] and rebalanced == []
        assert balances == (600, 1000)


def test_withdraw_releases_an_nft_from_custody():
    step = {"at": 1, "action": "withdraw", "owner": "erin", "wallet": "erin", "token": "art",
            "asset_kind": "nft", "token_id": 7, "signers": ["role:guardian", "role:rebalance"],
            "label": "release"}
    runner = ScenarioRunner(Scenario.from_dict(dict(_VAULT, steps=[step])))
    assert runner.ledger.nft_owner_of("art", 7) == runner.vaults["erin"].address
    runner.run()
    assert runner.tx_outcomes.committed(runner.labels["release"])[1] == "Executed"
    assert runner.ledger.nft_owner_of("art", 7) == runner.resolve_address("erin")


def test_a_custody_intent_verifies_after_the_inflection():
    # the vault registered its intent towards erin when she enrolled, in block 1
    data = dict(
        _VAULT, actors={**_VAULT["actors"], "admin": {"pq": True}}, qmig_admin="admin",
        steps=[{"at": 1, "action": "set_inflection", "signer": "admin", "height": 2},
               {"at": 3, "action": "verify_intent", "intent": "erin:custody", "label": "custody"}],
        assertions=[{"check": "verify", "label": "custody", "equals": "true"}],
    )
    runner = ScenarioRunner(Scenario.from_dict(data))
    pair = (runner.vaults["erin"].address, runner.resolve_address("erin"))
    report = runner.run()
    assert runner.qmig.inflection == 2
    assert report.assertion_results == [(True, "verify[custody] = true")]
    assert pair in runner.qmig.authorized_pairs


def test_at_risk_accounting_is_conserved():
    for name in ("key-theft-intercept", "private-tx-bypass", "policy-limit-trip"):
        report = ScenarioRunner(Scenario.load(scenario_path(name))).run()
        assert report.assets_saved + report.assets_lost == report.assets_at_risk


def test_event_replay_reproduces_final_balances():
    runner = ScenarioRunner(Scenario.load(scenario_path("quantum-stolen-funds-rejected")))
    runner.run()
    ledger = runner.ledger
    addresses = [runner.resolve_address(name) for name in runner.scenario.actors]
    addresses += [vault.address for vault in runner.vaults.values()]
    addresses.append(ESCROW_ADDRESS)
    tokens = [NATIVE] + [t["id"] for t in runner.scenario.tokens]
    for addr in addresses:
        for token in tokens:
            assert replay_balance_from_events(ledger.events, addr, token) == ledger.balance_of(
                addr, token
            )


# sha256 of each bundled scenario's event log at its file seed; a change
# here is a change of simulated behaviour and must be deliberate
GOLDEN_LOG_SHA256 = {
    "approval-phish": "b386c16664c873c1177cb047cd6e29f65fd8ffe66a7204fba5b7cd00946e5784",
    "key-theft-intercept": "cc8d9096c2510ab8d66ab1ec604a258f9f69269d6d2293222563fd6122124b51",
    "policy-limit-trip": "28c9e91186f48979ffdc5c64267eb9734a916ff1fd0f19c32dd84501877d4b4a",
    "private-tx-bypass-protected": "b73347dbe1ba6f5103817b41ca1a12c0f199611f1a9a17882539aba2d670aad9",
    "private-tx-bypass": "299cc6e61cdb180a1689bdea615d44d87d6bb6a6af970019a7618e9b09f1861f",
    "quantum-migration-honest": "cdd05d9838d9df31558912cfb120db146c21fa33f4faa0ad94f0d549141a7ac9",
    "quantum-stolen-funds-rejected": "dd9a19325104ce294b6a32ec528a54bf837f4e6596f1b17c5e4e68aea63c9fb3",
    "rebalance-drift": "bae06d0bce0d120cb988dbdf27b9153b79ec447928de1093916c12412b992eff",
}


# sha256 of the event log with one defence switched off, at the file seed.
# Each differs from the scenario's golden log, so a disabled service that
# still acted, or an enabled one that did not, changes a value here.
DISABLED_LOG_SHA256 = {
    ("approval-phish", "fbr"): "329b92f4d52cff31f046b7a2828a291400daa9f0c84f80332e29e2504e39b257",
    ("key-theft-intercept", "fis"): "b2bc0c8448fd71733a5c19c5151909617a92c372d48edb99f6a454d236d64659",
    ("rebalance-drift", "balancer"): "cd7c0f5dc53df96d4feae064661660755ef1280e9d83c69df4d3cfecdcf14cf9",
}


@pytest.mark.parametrize("name, service", sorted(DISABLED_LOG_SHA256))
def test_a_disabled_service_changes_the_log_it_is_pinned_to(name, service):
    report = ScenarioRunner(Scenario.load(scenario_path(name)), disabled=(service,)).run()
    digest = hashlib.sha256("\n".join(report.log_lines).encode()).hexdigest()
    assert digest == DISABLED_LOG_SHA256[name, service] != GOLDEN_LOG_SHA256[name]


def test_all_bundled_scenarios_hold_their_assertions():
    assert set(bundled_scenarios()) == set(GOLDEN_LOG_SHA256)
    for name, path in bundled_scenarios().items():
        report = ScenarioRunner(Scenario.load(path)).run()
        failures = [line for ok, line in report.assertion_results if not ok]
        assert report.exit_code == 0, f"{name}: {failures}"
        digest = hashlib.sha256("\n".join(report.log_lines).encode()).hexdigest()
        assert digest == GOLDEN_LOG_SHA256[name], f"{name}: event log changed"


def test_committed_signatures_recover_from_their_bytes():
    # `sign` leaves a signer hint that recovery trusts; a signature parsed from
    # its bytes has none, so this re-checks what the runs relied on the full way
    intents = blobs = 0
    for path in bundled_scenarios().values():
        runner = ScenarioRunner(Scenario.load(path))
        runner.run()
        vaults = {vault.address: vault for vault in runner.vaults.values()}
        for block in runner.ledger.blocks:
            for tx, _ in block.txs:
                parsed = RecoverableSignature.from_bytes(tx.signature.to_bytes())
                assert recover_signer(tx.digest, parsed) == tx.sender
                vault = vaults.get(getattr(tx.payload, "contract", None))
                if vault is None or tx.payload.method != "execute":
                    continue
                # each multisig blob, recovered from its 65 bytes over the
                # digest the vault checked, is one of the vault's signers
                op, op_args, nonce, sigs = tx.payload.args
                digest = vault.authorization_digest(OperationKind(op), op_args, nonce)
                for sig in sigs:
                    parsed = RecoverableSignature.from_bytes(sig.to_bytes())
                    assert recover_signer(digest, parsed) in vault.config.signers
                    blobs += 1
        for source, sig in runner.intents.values():
            parsed = RecoverableSignature.from_bytes(sig.to_bytes())
            assert recover_signer(source.signing_digest, parsed) == source.from_address
            intents += 1
    assert intents > 0 and blobs > 0


def _unsigned(tx) -> bool:
    """Whether nothing has read tx's signature since sign_transaction made it."""
    return "signature" not in vars(tx)


def test_signatures_made_when_read_equal_eager_ones():
    deferred = 0
    for path in bundled_scenarios().values():
        runner = ScenarioRunner(Scenario.load(path))
        runner.run()
        keys = {key.address: key for key in (
            *runner.actor_keys.values(),
            *map(runner.custodian.key_for, CUSTODIAN_ROLES),
        )}
        for i, (tx, _) in enumerate(tx for block in runner.ledger.blocks for tx in block.txs):
            deferred += _unsigned(tx)
            # the first read differs from one transaction to the next
            (lambda: tx.digest, lambda: tx.signature.to_bytes(), lambda: tx.tx_id)[i % 3]()
            digest = compute_tx_digest(tx.sender, tx.nonce, tx.gas_price, tx.payload)
            eager = sign(keys[tx.sender], digest).to_bytes()
            assert tx.digest == digest
            assert tx.signature.to_bytes() == eager
            assert tx.tx_id == keccak256(b"FS-TXID" + digest + eager)
    assert deferred > 0


def test_a_run_signs_only_the_transactions_whose_ids_it_prints():
    runner = ScenarioRunner(Scenario.load(scenario_path("key-theft-intercept")))
    runner.run()
    committed = [tx for block in runner.ledger.blocks for tx, _ in block.txs]
    printed = {part.split("=")[1] for line in runner.fis.alerts for part in line.split()
               if part.startswith(("attackerTx=", "interceptTx="))}
    signed = [tx for tx in committed if not _unsigned(tx)]
    assert {tx.tx_id_hex for tx in signed} == printed and len(printed) == 2
    assert sorted(runner.tx_outcomes.values()) == sorted(outcome for block in runner.ledger.blocks
                                                         for _, outcome in block.txs)
    assert len(runner.tx_outcomes) == len(committed)
    assert [tx for tx in committed if not _unsigned(tx)] == signed  # counting signed nothing
    drain = runner.labels["drain"]
    assert runner.tx_outcomes[drain.tx_id] == "Reverted:InsufficientBalance"
    assert runner.tx_outcomes.get(drain.tx_id) == "Reverted:InsufficientBalance"
    assert runner.tx_outcomes.get(bytes(32), "none") == "none"
    assert list(runner.tx_outcomes) == [tx.tx_id for tx in committed]


# -- command line ------------------------------------------------------------------------


def test_cli_run_prints_summary_and_writes_log(tmp_path, capsys):
    out = tmp_path / "run.log"
    code = main(["run", "--scenario", "key-theft-intercept", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "scenario=key-theft-intercept" in captured
    assert "saved=1000" in captured
    text = out.read_text()
    assert "kind=Transfer" in text
    assert "alert user=alice" in text


def test_cli_run_rejects_an_unwritable_out_path(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "run.log"
    assert main(["run", "--scenario", "key-theft-intercept", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write --out: ")


def test_cli_run_honors_disable_flag(capsys):
    code = main(["run", "--scenario", "key-theft-intercept", "--disable", "fis"])
    captured = capsys.readouterr().out
    assert code == 1  # protection assertions fail without the interceptor
    assert "lost=1000" in captured


def test_cli_rejects_unknown_scenario(capsys):
    assert main(["run", "--scenario", "no-such-story"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no scenario file 'no-such-story'")
    assert "key-theft-intercept" in err  # lists what exists


def test_cli_rejects_unreadable_scenario(tmp_path, capsys):
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary):
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_list_scenarios(capsys):
    code = main(["list-scenarios"])
    captured = capsys.readouterr().out
    assert code == 0
    for name in bundled_scenarios():
        assert name in captured


def test_cli_registry_dump_and_verify_intent(tmp_path, capsys):
    code = main(["registry-dump", "--scenario", "quantum-migration-honest"])
    dump = capsys.readouterr().out
    assert code == 0
    lines = [line for line in dump.splitlines() if line.startswith("digest=")]
    assert lines
    registry_file = tmp_path / "registry.txt"
    registry_file.write_text(dump)

    # reconstruct the matching intent materials from the same deterministic run
    runner = ScenarioRunner(Scenario.load(scenario_path("quantum-migration-honest")))
    runner.run()
    source, sig = runner.intents["frank:migrate"]
    argv = [
        "verify-intent",
        "--source",
        f"{source.from_chain_id}:0x{source.from_address.hex()}"
        f":{source.dest_chain_id}:0x{source.dest_address.hex()}",
        "--sig",
        sig.to_bytes().hex(),
        "--registry",
        str(registry_file),
    ]
    code = main(argv + ["--inflection", "4"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"

    code = main(argv + ["--inflection", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "LateIntent" in out
    assert "Intent to transfer registered after the quantum inflection point!" in out


GOOD_SOURCE = f"1:0x{'11' * 20}:2:0x{'22' * 20}"


def verify_intent_error(capsys, source, sig, *extra) -> str:
    code = main(["verify-intent", "--source", source, "--sig", sig, "--inflection", "1", *extra])
    assert code == 2  # malformed input, not a verdict (exit 1)
    return capsys.readouterr().err


def test_cli_rejects_malformed_source(capsys):
    assert verify_intent_error(capsys, "nonsense", "00" * 65).startswith(
        "error: --source must be"
    )
    short = f"1:0x{'11' * 19}:2:0x{'22' * 20}"
    assert verify_intent_error(capsys, short, "00" * 65).startswith("error: bad --source")


def test_cli_rejects_malformed_sig(capsys):
    assert verify_intent_error(capsys, GOOD_SOURCE, "00").startswith(
        "error: bad --sig: signature must be 65 bytes"
    )
    assert verify_intent_error(capsys, GOOD_SOURCE, "zz" * 65).startswith("error: bad --sig")


def test_cli_rejects_malformed_registry_line(tmp_path, capsys):
    registry_file = tmp_path / "registry.txt"
    registry_file.write_text("# dump\ngarbage\n")
    err = verify_intent_error(capsys, GOOD_SOURCE, "00" * 65, "--registry", str(registry_file))
    assert err.startswith(f"error: {registry_file}:2: bad registry line")
    absent = str(tmp_path / "absent.txt")
    err = verify_intent_error(capsys, GOOD_SOURCE, "00" * 65, "--registry", absent)
    assert err.startswith("error: cannot read --registry")
