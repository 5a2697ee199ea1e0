"""Deterministic scenario runner.

A scenario file declares actors, tokens, genesis allocations, FailSafe
deployments, scripted steps, and end-state assertions. The runner builds
the world from a seed, drives the scheduler one block per tick, and
produces a report with asset-preservation metrics.

One tick: execute this block's scripted steps, deliver pending
transactions to FIS, let the balancer act, deliver committed events to
FBR, then build the block. The fixed service order is part of the
determinism contract: same file plus same seed yields a byte-identical
event log.
"""

from __future__ import annotations

import gc
import operator
import random
import re
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .balancer import BalancerService
from .bridge import ESCROW_ADDRESS, Bridge, BridgeTransfer, QuantumSafeLedger, pq_address
from .contract import (
    DEFAULT_THRESHOLDS,
    CustodianUnavailable,
    FailSafeContract,
    KeyCustodian,
    OperationKind,
    PolicyConfig,
    deploy_failsafe,
    enroll_wallets,
    find_enrollment,
)
from .crypto import (
    Address,
    KeyExhausted,
    KeyPair,
    PqKeyPair,
    QuantumOracle,
    sign,
)
from .crypto.secp256k1 import N
from .fbr import RiskService
from .fis import InterceptorService
from .ledger import (
    Approve,
    Block,
    ContractCall,
    Ledger,
    MalformedTransaction,
    NATIVE,
    NativeTransfer,
    NftTransfer,
    RevertError,
    TokenTransfer,
    TokenTransferFrom,
    Transaction,
    UNLIMITED,
    sign_transaction,
)
from .qmig import (
    InflectionUnset,
    QmigContract,
    TransferIntentSource,
    VerifyError,
    build_intent_digest,
    inflection_digest,
    register_intent_call,
)

# the custodian's fixed roles, their keys drawn in this order: FIS signs intercepts, the
# balancer rebalances, the relayer submits every vault call, a guardian only co-signs
CUSTODIAN_ROLES = ("intercept", "rebalance", "relayer", "guardian")
SERVICE_NAMES = ("fis", "fbr", "balancer")
# the most blocks a scenario may run, far above any bundled or generated one
MAX_BLOCKS = 1_000_000
# libyaml's parser when PyYAML was built with it, else PyYAML's own; `_read_yaml` builds
# the document from its events, and its resolver and constructors type the scalars
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_MERGE, _VALUE = "tag:yaml.org,2002:merge", "tag:yaml.org,2002:value"
_TAGS = {dict: "tag:yaml.org,2002:map", list: "tag:yaml.org,2002:seq"}
# a mapping's key slot while its next key is due, and the scalar cache's miss
_KEY = object()


class ParseError(Exception):
    """Scenario file fails schema validation."""


class UnknownActor(ValueError):
    """A step or assertion references an undeclared name; `_reading` adds where."""


class _Params(dict):
    """A mapping read from the file: a missing or mistyped value is a ParseError naming where."""

    def __init__(self, where: str, items):
        super().__init__(items)
        self.where = where

    def __missing__(self, key):
        raise ParseError(f"{self.where}: missing parameter {key!r}")

    def integer(self, key, *default) -> int:
        """The key's value, an int: YAML's true and false are bools, not numbers."""
        return self._typed(key, default, int, "an integer")

    def flag(self, key, *default) -> bool:
        """The key's value, YAML's true or false."""
        return self._typed(key, default, bool, "true or false")

    def sequence(self, key, *default) -> list:
        """The key's value, a YAML list."""
        return self._typed(key, default, list, "a list")

    def fraction(self, key) -> tuple[int, int]:
        """The key's value, a non-negative integer or p/q text, as (p, q)."""
        match = re.fullmatch(r"([0-9]+)(?:/([0-9]+))?", str(self[key]))
        if match is None:
            raise ParseError(f"{self.where}: {key!r} must be p/q or an integer, got {self[key]!r}")
        return int(match[1]), int(match[2] or 1)

    def _typed(self, key, default: tuple, kind: type, name: str):
        value = self.get(key, *default) if default else self[key]
        if type(value) is not kind:
            raise ParseError(f"{self.where}: {key!r} must be {name}, got {value!r}")
        return value


@contextmanager
def _reading(where: str):
    """Report a file value the program refuses (a bad fraction or address, an
    unknown or duplicate name, a reused one-time key, a signer set or threshold a vault
    refuses, an undeclared token or one of the wrong kind, a number no
    transaction can encode) as a ParseError naming where."""
    try:
        yield
    except (ValueError, TypeError, ArithmeticError, KeyExhausted, RevertError,
            MalformedTransaction) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _read_yaml(text: str):
    """yaml.load(text, Loader=_YAML_LOADER), built from the loader's events with no node
    graph, each distinct scalar typed once, and `<<` and `=` keys read as flatten_mapping
    reads them. It also refuses a collection tagged other than !!map or !!seq, and a `<<`
    of an unfinished collection."""
    loader, root, anchors, scalars = _YAML_LOADER(text), [], {}, {}
    stack = [[root, None, None]]  # each open collection: [it, key slot, merged pairs]
    try:
        while (kind := type(event := loader.get_event())) is not yaml.StreamEndEvent:
            if kind is yaml.ScalarEvent:
                value = scalars.get(key := (event.tag, event.value, event.implicit), _KEY)
                if value is _KEY:
                    value = scalars[key] = _scalar(loader, event)
            elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
                value, _, merged = stack.pop()
                if merged:  # merged pairs come first, and the mapping's own win
                    merged += value.items()
                    value.clear()
                    value.update(merged)
            elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
                value = {} if kind is yaml.MappingStartEvent else []
                if event.tag not in (None, "!", _TAGS[type(value)]):
                    raise _refused(f"found a collection tagged {event.tag!r}", event)
            elif kind is yaml.AliasEvent:
                if event.anchor not in anchors:
                    raise _refused(f"found undefined alias {event.anchor!r}", event)
                value = anchors[event.anchor]
            elif kind is yaml.DocumentStartEvent and root:
                raise _refused("expected a single document in the stream", event)
            else:  # the stream's start, or a document's start or end
                continue
            if kind is not yaml.AliasEvent and getattr(event, "anchor", None) is not None:
                if event.anchor in anchors:
                    raise _refused(f"found duplicate anchor {event.anchor!r}", event)
                anchors[event.anchor] = value
            if kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
                stack.append([value, _KEY, None])  # it takes its place when it ends
                continue
            collection, key, merged = frame = stack[-1]
            if type(value) is tuple and (key is not _KEY or type(collection) is list):
                raise _refused(f"found {value[0]!r} outside a mapping's keys", event)
            if type(collection) is list:
                collection.append(value)
            elif key is _KEY:
                if type(value) is dict or type(value) is list:
                    raise _refused("found unhashable key", event)
                frame[1] = value[1] if type(value) is tuple and value[0] == _VALUE else value
            elif type(key) is not tuple:
                collection[key] = value
                frame[1] = _KEY
            else:  # `<<` merges a mapping, or a list of mappings with the first one's last
                sources = value[::-1] if type(value) is list else [value]
                unfinished = {id(opened[0]) for opened in stack}
                if id(value) in unfinished or any(type(source) is not dict
                                                  or id(source) in unfinished for source in sources):
                    raise _refused("expected a finished mapping or list of mappings to merge", event)
                frame[1:] = _KEY, (merged or []) + [pair for src in sources for pair in src.items()]
        return root[0] if root else None
    finally:
        loader.dispose()


def _scalar(loader, event):
    """What the loader's resolver and constructors make of a scalar; a `<<` or `=` scalar
    is (tag, text), which only a mapping's key may be."""
    tag = event.tag
    if tag in (None, "!"):
        tag = loader.resolve(yaml.ScalarNode, event.value, event.implicit)
    if tag in (_MERGE, _VALUE):
        return tag, event.value
    if tag == loader.DEFAULT_SCALAR_TAG:
        return event.value
    node = yaml.ScalarNode(tag, event.value, event.start_mark, event.end_mark, event.style)
    try:
        return loader.construct_document(node)
    except (AttributeError, LookupError, ValueError) as exc:
        raise _refused(f"cannot construct a {tag} scalar: {exc}", event) from exc


def _refused(problem: str, event) -> yaml.MarkedYAMLError:
    return yaml.MarkedYAMLError(None, None, problem, event.start_mark)


@dataclass(frozen=True)
class Step:
    at: int
    action: str
    params: _Params
    label: str | None


@dataclass
class Scenario:
    name: str
    description: str
    seed: int
    chain_id: int
    dest_chain_id: int
    run_blocks: int
    tokens: list[_Params]
    actors: dict[str, _Params]
    qmig_admin: str | None
    blacklist: list[_Params]
    genesis: list[_Params]
    failsafe: list[_Params]
    at_risk: _Params | None
    steps: list[Step]
    assertions: list[dict]

    @classmethod
    def load(cls, path) -> "Scenario":
        try:
            data = _read_yaml(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, yaml.YAMLError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError(f"{path}: scenario document must be a mapping")
        return cls.from_dict(data, default_name=Path(path).stem)

    @classmethod
    def from_dict(cls, data: dict, default_name: str = "scenario") -> "Scenario":
        def need(condition: bool, message: str):
            if not condition:
                raise ParseError(message)

        def section(where: str, raw, keys: str | None = None) -> _Params:
            # a mapping of the file; unless keys is None, each key it gives is one of keys
            need(isinstance(raw, dict), f"{where} must be a mapping")
            allowed = raw if keys is None else keys.split()
            for key in raw:
                if key not in allowed:
                    raise ParseError(f"{where}: unknown key {key!r}")
            return _Params(where, raw.items())

        def entries(name: str, raw, keys: str) -> list[_Params]:
            need(isinstance(raw, list), f"'{name}' must be a list")
            return [section(f"{name} entry {i}", entry, keys) for i, entry in enumerate(raw)]

        unknown = sorted(set(data) - set(cls.__dataclass_fields__), key=str)
        need(not unknown, f"unknown scenario keys: {unknown}")
        data = _Params("scenario", data)
        steps = []
        answered = set()  # (label, label check) for each check a labelled step records
        last_at = 1
        need(isinstance(data.get("steps", []), list), "'steps' must be a list")
        for i, raw in enumerate(data.get("steps", [])):
            need(isinstance(raw, dict), f"step {i} must be a mapping")
            need("at" in raw and "action" in raw, f"step {i} needs 'at' and 'action'")
            at = _Params(f"step {i}", raw).integer("at")
            need(at >= 1, f"step {i}: 'at' must be >= 1")
            need(at <= MAX_BLOCKS, f"step {i}: 'at' must be <= {MAX_BLOCKS}")
            need(at >= last_at, f"step {i}: steps must be sorted by 'at'")
            last_at = at
            action = str(raw["action"])
            need(action in ScenarioRunner._STEP_HANDLERS, f"step {i}: unknown action {action!r}")
            _, keys = ScenarioRunner._STEP_HANDLERS[action]
            params = section(f"step {i} ({action})", raw, f"at action label {keys}")
            label = raw.get("label")
            steps.append(Step(at, action, params, None if label is None else str(label)))
            if label is not None:
                answered.update((str(label), check) for check, by in _LABEL_ACTIONS.items()
                                if by == action or by is None and "private" in keys.split())

        actors = data.get("actors", {})
        need(isinstance(actors, dict) and actors, "scenario needs a non-empty 'actors' mapping")

        failsafe = entries("failsafe", data.get("failsafe", []),
                           "owner signers thresholds enrollments")
        for entry in failsafe:
            where = entry.where
            # a threshold's name is an operation kind, read where the vault is built
            entry["thresholds"] = section(f"{where} thresholds", entry.get("thresholds") or {})
            entry["enrollments"] = entries(f"{where} enrollments", entry.get("enrollments", []),
                                           "wallet policy tokens dest dest_chain")
            for enrollment in entry["enrollments"]:
                enrollment["policy"] = section(
                    f"{enrollment.where} policy", enrollment["policy"],
                    "hot_fraction_target hot_fraction_tolerance max_value_per_window window_length")
        at_risk = data.get("at_risk")
        if at_risk is not None:
            at_risk = section("at_risk", at_risk, "token amount attacker")
        # what an assertion may name: a label some step carries, a vault's owner
        labels = {step.label for step in steps}
        owners = {str(entry["owner"]) for entry in failsafe if "owner" in entry}
        assertions = data.get("assertions", [])
        need(
            isinstance(assertions, list) and all(isinstance(a, dict) for a in assertions),
            "'assertions' must be a list of mappings",
        )
        for i, raw in enumerate(assertions):
            check = str(raw.get("check"))
            need(check in _CHECKS, f"assertion {i}: unknown check {check!r}")
            raw = _Params(f"assertion {i} ({check})", raw)
            _, numeric, reads = _CHECKS[check]
            keys = tuple(_BOUNDS) if numeric else ("equals",)
            given = [key for key in keys if key in raw]
            need(given, f"assertion {i} ({check}) needs {'/'.join(keys)}")
            need(len(given) == 1, f"assertion {i} ({check}) takes one of {'/'.join(keys)}, "
                                  f"got {' and '.join(given)}")
            if numeric:
                for key in keys:
                    raw.integer(key, 0)
            for key, allowed in reads.items():
                value = raw.get(key, allowed[0]) if allowed else raw[key]
                need(not allowed or value in allowed,
                     f"assertion {i} ({check}): {key!r} must be one of "
                     f"{'/'.join(allowed)}, got {raw.get(key)!r}")
            if reads is _LABEL:
                label = str(raw["label"])
                need(label in labels, f"assertion {i} ({check}): no step carries label {label!r}")
                need((label, check) in answered,
                     f"assertion {i} ({check}): label {label!r} is on no "
                     f"{_LABEL_ACTIONS[check] or 'submitting'} step")
            if check == "alerts":
                need(str(raw["user"]) in owners,
                     f"assertion {i} ({check}): {str(raw['user'])!r} owns no FailSafe vault")

        scenario = cls(
            name=str(data.get("name", default_name)),
            description=str(data.get("description", "")).strip(),
            seed=data.integer("seed", 0),
            chain_id=data.integer("chain_id", 1),
            dest_chain_id=data.integer("dest_chain_id", 9001),
            run_blocks=data.integer("run_blocks", (steps[-1].at if steps else 1) + 2),
            tokens=entries("tokens", data.get("tokens", []), "id kind"),
            actors={str(k): section(f"actor {k!r}", v or {}, "pq") for k, v in actors.items()},
            qmig_admin=data.get("qmig_admin"),
            blacklist=entries("blacklist", data.get("blacklist", []), "address category source"),
            genesis=entries("genesis", data.get("genesis", []), "to token amount token_id"),
            failsafe=failsafe,
            at_risk=at_risk,
            steps=steps,
            assertions=assertions,
        )
        need(scenario.run_blocks >= 1, f"'run_blocks' must be >= 1, got {scenario.run_blocks}")
        need(scenario.run_blocks <= MAX_BLOCKS,
             f"'run_blocks' must be <= {MAX_BLOCKS}, got {scenario.run_blocks}")
        late = next((step.at for step in steps if step.at > scenario.run_blocks), None)
        need(late is None, f"step at block {late} beyond run_blocks={scenario.run_blocks}")
        return scenario


@dataclass
class RunReport:
    scenario: str
    seed: int
    blocks_built: int
    assertion_results: list[tuple[bool, str]]
    assets_at_risk: int
    assets_saved: int
    assets_lost: int
    intercept_count: int
    intercept_latency_blocks: int | None
    log_lines: list[str] = field(default_factory=list)

    @property
    def assertions_passed(self) -> int:
        return sum(1 for ok, _ in self.assertion_results if ok)

    @property
    def assertions_failed(self) -> int:
        return sum(1 for ok, _ in self.assertion_results if not ok)

    @property
    def exit_code(self) -> int:
        return 0 if self.assertions_failed == 0 else 1

    def format_summary(self) -> str:
        lines = [
            f"scenario={self.scenario} seed={self.seed} blocks={self.blocks_built}",
        ]
        for ok, message in self.assertion_results:
            lines.append(f"assert {'ok' if ok else 'FAIL'}: {message}")
        lines.append(
            f"assertions passed={self.assertions_passed} failed={self.assertions_failed}"
        )
        latency = "n/a" if self.intercept_latency_blocks is None else self.intercept_latency_blocks
        lines.append(
            f"assets at_risk={self.assets_at_risk} saved={self.assets_saved} "
            f"lost={self.assets_lost} intercepts={self.intercept_count} "
            f"intercept_latency_blocks={latency}"
        )
        return "\n".join(lines)


class TxOutcomes(Mapping):
    """Each committed transaction's outcome by tx id, read from the blocks.

    Reading the outcomes hashes nothing, and neither does `committed`, which
    finds a transaction by identity. A lookup by id reads each committed
    transaction's `tx_id`, which signs and hashes it the first time.
    """

    def __init__(self, blocks: list[Block]):
        self._blocks = blocks
        # id(tx) -> (height, outcome) over the first _indexed blocks; the
        # blocks keep each indexed transaction alive, so no other takes its id
        self._by_identity: dict[int, tuple[int, str]] = {}
        self._indexed = 0

    def committed(self, tx: Transaction) -> tuple[int, str] | None:
        """The height and outcome of tx, this very object, if a block holds it."""
        for block in self._blocks[self._indexed:]:
            self._by_identity.update((id(t), (block.height, outcome)) for t, outcome in block.txs)
        self._indexed = len(self._blocks)
        return self._by_identity.get(id(tx))

    def __getitem__(self, tx_id) -> str:
        for block in self._blocks:
            for tx, outcome in block.txs:
                if tx.tx_id == tx_id:
                    return outcome
        raise KeyError(tx_id)

    def __iter__(self):
        return (tx.tx_id for block in self._blocks for tx, _ in block.txs)

    def __len__(self) -> int:
        return sum(len(block.txs) for block in self._blocks)

    def values(self) -> list[str]:
        return [outcome for block in self._blocks for _, outcome in block.txs]


class ScenarioRunner:
    def __init__(self, scenario: Scenario, seed: int | None = None,
                 disabled: tuple[str, ...] = ()):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        for name in disabled:
            if name not in SERVICE_NAMES:
                raise ParseError(f"cannot disable unknown service {name!r}")
        # a disabled service is built like the others but never ticked
        self.disabled = frozenset(disabled)
        self.rng = random.Random(self.seed)

        self.ledger = Ledger(chain_id=scenario.chain_id)
        self.dest_ledger = QuantumSafeLedger(chain_id=scenario.dest_chain_id)
        self.oracle = QuantumOracle()
        self.custodian = KeyCustodian()
        self.risk = RiskService()
        self.threat_flags: set[str] = set()
        self.actor_keys: dict[str, KeyPair] = {}
        self.actor_pq_keys: dict[str, PqKeyPair] = {}
        self.dest_keys: dict[str, PqKeyPair] = {}
        self.vaults: dict[str, FailSafeContract] = {}
        self.intents: dict[str, tuple[TransferIntentSource, object]] = {}
        self.tx_outcomes = TxOutcomes(self.ledger.blocks)
        self.labels: dict[str, Transaction] = {}
        self.private_status: dict[str, str] = {}
        self.verify_outcomes: dict[str, str] = {}
        self.bridge_outcomes: dict[str, str] = {}
        self.step_failures: list[str] = []

        self._build_world()
        # Leave the run with empty young generations: the collector's counts
        # then depend on the run's own allocations, so its young collections
        # fall in the same blocks on every run of one scenario, whatever the
        # process allocated before.
        gc.collect(1)

    # -- construction ---------------------------------------------------------

    def _draw_world_keys(self) -> list[KeyPair]:
        """The secp256k1 keys of the actors, roles, qMig and vaults, in that order.

        Their private scalars are drawn in the order the world is built, with
        the Lamport keys drawn between them; the public points and addresses
        are then made in one batch each.
        """
        sc, rng = self.scenario, self.rng
        scalars = []
        for name, attrs in sc.actors.items():
            scalars.append(rng.randrange(1, N))
            if attrs.flag("pq", False):
                self.actor_pq_keys[name] = PqKeyPair.generate(rng)
        scalars.extend(rng.randrange(1, N) for _ in CUSTODIAN_ROLES)
        scalars.append(rng.randrange(1, N))  # qMig
        if sc.qmig_admin is None:
            # no administrator, so the inflection can never be set; draw the
            # bytes a Lamport keygen would so later keys keep their addresses
            rng.randbytes(2 * 256 * 32)
        for deployment in sc.failsafe:
            # a vault's signers resolve before its key is drawn and its
            # enrollments' destinations after, each drawing its @dest key;
            # a missing value is reported where the world is built
            self._draw_dest_keys(deployment.sequence("signers", []))
            scalars.append(rng.randrange(1, N))
            self._draw_dest_keys(e.get("dest") for e in deployment["enrollments"])
        return KeyPair.from_privates(scalars)

    def _build_world(self) -> None:
        sc = self.scenario
        keys = iter(self._draw_world_keys())
        self.actor_keys.update(zip(sc.actors, keys))
        role_keys = list(zip(CUSTODIAN_ROLES, keys))
        qmig_key = next(keys)
        for key in self.actor_keys.values():
            self.oracle.register_actor(key)
        for role, key in role_keys:
            self.custodian.add_role(role, key)
            self.oracle.register_actor(key)

        for token in sc.tokens:
            with _reading(token.where):
                self.ledger.create_token(str(token["id"]), str(token.get("kind", "fungible")))

        admin_pq_public = None
        if sc.qmig_admin is not None:
            admin_pq = self.actor_pq_keys.get(sc.qmig_admin)
            if admin_pq is None:
                raise ParseError(f"qmig_admin: {sc.qmig_admin!r} is not a pq actor")
            admin_pq_public = admin_pq.public
        self.qmig = QmigContract(self.ledger, qmig_key.address, admin_pq_public)
        self.ledger.register_contract(self.qmig.address, self.qmig)
        self.bridge = Bridge(self.ledger, self.dest_ledger, self.qmig)

        enrolling = []  # (where, wallet name, enroll_wallets item) in file order
        for deployment in sc.failsafe:
            owner = str(deployment["owner"])
            thresholds = dict(DEFAULT_THRESHOLDS)
            over = deployment["thresholds"]
            with _reading(over.where):
                for op in over:
                    thresholds[OperationKind(str(op))] = over.integer(op)
            with _reading(deployment.where):
                if owner in self.vaults:
                    raise ValueError(f"owner {owner!r} already has a vault")
                signers = [self.resolve_address(s) for s in deployment.sequence("signers")]
                vault = deploy_failsafe(
                    self.ledger, owner, signers, thresholds, self.qmig.address, next(keys)
                )
            self.oracle.register_actor(vault.key)
            self.vaults[owner] = vault
            for enrollment in deployment["enrollments"]:
                wallet_name = str(enrollment["wallet"])
                hot_key = self.actor_keys.get(wallet_name)
                if hot_key is None:
                    raise ParseError(f"{enrollment.where}: wallet {wallet_name!r} is not an actor")
                policy = enrollment["policy"]
                with _reading(policy.where):
                    config = PolicyConfig(
                        *policy.fraction("hot_fraction_target"),
                        *policy.fraction("hot_fraction_tolerance"),
                        policy.integer("max_value_per_window"),
                        policy.integer("window_length"),
                    )
                with _reading(enrollment.where):
                    # an undeclared token's Approval would revert, leaving the
                    # wallet enrolled but unprotected; an NFT's grants operator rights
                    tokens = [str(t) for t in enrollment.sequence("tokens")]
                    for token in tokens:
                        if token not in self.ledger.tokens:
                            raise ParseError(f"{enrollment.where}: unknown token {token!r}")
                    source = TransferIntentSource(
                        self.ledger.chain_id, hot_key.address,
                        enrollment.integer("dest_chain", sc.dest_chain_id),
                        self.resolve_address(enrollment["dest"]))
                enrolling.append((enrollment.where, wallet_name,
                                  (vault, hot_key, config, tokens, source)))
        # every intent is hashed and signed in one batch; each bundle is
        # submitted, and refused, under its own enrollment's name
        receipts = enroll_wallets(self.ledger, [item for _, _, item in enrolling])
        for where, wallet_name, _ in enrolling:
            with _reading(where):
                receipt = next(receipts)
            self.intents[f"{wallet_name}:enroll"] = (receipt.intent_source, receipt.intent_sig)

        # genesis after contract deployment so allocations can target
        # contract addresses (pre-funded cold storage)
        for alloc in sc.genesis:
            with _reading(alloc.where):
                to = self.resolve_address(alloc["to"])
                token = str(alloc["token"])
                if "token_id" in alloc:
                    self.ledger.genesis_allocate_nft(to, token, alloc.integer("token_id"))
                else:
                    self.ledger.genesis_allocate(to, token, alloc.integer("amount"))

        contracts = list(self.vaults.values())
        self.fis = InterceptorService(
            self.ledger, self.risk, self.custodian, contracts, self.threat_flags
        )
        self.balancer = BalancerService(self.ledger, self.custodian, contracts, self.threat_flags)

    # -- name resolution ---------------------------------------------------------

    def resolve_address(self, alias) -> Address:
        alias = str(alias)
        dest = self._dest_name(alias)
        if dest is not None:
            return pq_address(self._dest_key(dest).public)
        if alias in self.actor_keys or alias.startswith("role:"):
            return self.resolve_key(alias).address
        if alias.endswith(".contract"):
            owner = alias[: -len(".contract")]
            vault = self.vaults.get(owner)
            if vault is None:
                raise UnknownActor(f"no FailSafe contract deployed for {owner!r}")
            return vault.address
        if alias == "escrow":
            return ESCROW_ADDRESS
        if alias.startswith("0x") and len(alias) == 42:
            return Address.from_hex(alias)
        raise UnknownActor(f"cannot resolve address {alias!r}")

    def _dest_name(self, alias: str) -> str | None:
        """The destination key `<name>@dest` names, unless it is an actor or a role."""
        if alias in self.scenario.actors or alias.startswith("role:"):
            return None
        return alias[: -len("@dest")] if alias.endswith("@dest") else None

    def _draw_dest_keys(self, aliases) -> None:
        """Draw, in order, the destination keys that resolving these aliases draws."""
        for alias in aliases:
            name = self._dest_name(str(alias))
            if name is not None:
                self._dest_key(name)

    def _dest_key(self, name: str) -> PqKeyPair:
        key = self.dest_keys.get(name)
        if key is None:
            key = PqKeyPair.generate(self.rng)
            self.dest_keys[name] = key
        return key

    def resolve_key(self, alias) -> KeyPair:
        alias = str(alias)
        if alias in self.actor_keys:
            return self.actor_keys[alias]
        if alias.startswith("role:"):
            try:
                return self.custodian.key_for(alias[len("role:"):])
            except CustodianUnavailable:
                raise UnknownActor(f"no custodian role named {alias!r}") from None
        raise UnknownActor(f"cannot resolve signing key {alias!r}")

    def resolve_intent(self, name: str) -> tuple[TransferIntentSource, object]:
        stored = self.intents.get(name)
        if stored is not None:
            return stored
        if name.endswith(":custody"):
            wallet = self.resolve_address(name[: -len(":custody")])
            hit = find_enrollment(self.vaults.values(), wallet)
            if hit is not None:
                return hit[1].custody_intent
        raise UnknownActor(f"no stored intent named {name!r}")

    # -- step execution --------------------------------------------------------------

    def _submit(self, step: Step, tx: Transaction) -> None:
        if step.params.flag("private", False):
            status = self.ledger.submit_private_transaction(tx)
            if step.label:
                self.private_status[step.label] = status.value
        else:
            self.ledger.submit_transaction(tx)
        if step.label:
            self.labels[step.label] = tx

    def _sign_and_submit(self, step: Step, key: KeyPair, payload) -> None:
        gas_price = step.params.integer("gas_price", 1)
        nonce = self.ledger.next_nonce(key.address)
        self._submit(step, sign_transaction(key, nonce, gas_price, payload))

    def _transfer_payload(self, p: _Params):
        token = str(p.get("token", NATIVE))
        to = self.resolve_address(p["to"])
        amount = p.integer("amount")
        return NativeTransfer(to, amount) if token == NATIVE else TokenTransfer(token, to, amount)

    def _build_intent(self, p: _Params) -> tuple[TransferIntentSource, object, bytes]:
        source_key = self.resolve_key(p["source"])
        source = TransferIntentSource(
            self.ledger.chain_id,
            source_key.address,
            p.integer("dest_chain", self.scenario.dest_chain_id),
            self.resolve_address(p["dest"]),
        )
        sig, digest = build_intent_digest(source, source_key)
        return source, sig, digest

    def execute_step(self, step: Step) -> None:
        with _reading(step.params.where):
            self._STEP_HANDLERS[step.action][0](self, step, step.params)

    def _step_transfer(self, step: Step, p: _Params) -> None:
        self._sign_and_submit(step, self.resolve_key(p["signer"]), self._transfer_payload(p))

    def _step_transfer_from(self, step: Step, p: _Params) -> None:
        payload = TokenTransferFrom(
            str(p["token"]),
            self.resolve_address(p["owner"]),
            self.resolve_address(p["to"]),
            p.integer("amount"),
        )
        self._sign_and_submit(step, self.resolve_key(p["signer"]), payload)

    def _step_approve(self, step: Step, p: _Params) -> None:
        amount = p.get("amount", "unlimited")
        payload = Approve(
            str(p["token"]),
            self.resolve_address(p["spender"]),
            UNLIMITED if amount == "unlimited" else p.integer("amount"),
        )
        self._sign_and_submit(step, self.resolve_key(p["signer"]), payload)

    def _step_nft_transfer(self, step: Step, p: _Params) -> None:
        payload = NftTransfer(str(p["token"]), self.resolve_address(p["to"]), p.integer("token_id"))
        self._sign_and_submit(step, self.resolve_key(p["signer"]), payload)

    def _step_quantum_steal(self, step: Step, p: _Params) -> None:
        victim = self.resolve_address(p["victim"])
        # a committed transaction, executed or reverted, wrote its sender's
        # nonce: the senders in the nonce table are the exposed public keys
        key = self.oracle.derive_private(
            victim, self.ledger.height, self.qmig.inflection, victim in self.ledger.nonces
        )
        if key is None:
            self.step_failures.append(
                f"quantum_steal at block {step.at}: key for {p['victim']} not derivable"
            )
            return
        self._sign_and_submit(step, key, self._transfer_payload(p))

    def _step_add_exception(self, step: Step, p: _Params) -> None:
        wallet_key = self.resolve_key(p["wallet"])
        digest = self.ledger.exceptions_digest(wallet_key.address)
        self.ledger.add_exception(wallet_key.address, sign(wallet_key, digest))

    def _step_set_inflection(self, step: Step, p: _Params) -> None:
        admin_pq = self.actor_pq_keys.get(self.scenario.qmig_admin or "")
        if admin_pq is None:
            raise UnknownActor("set_inflection requires a 'qmig_admin' pq actor")
        height = p.integer("height")
        pq_sig = admin_pq.sign(inflection_digest(height))
        payload = ContractCall(
            self.qmig.address, "setInflectionPoint", (height, pq_sig.to_bytes())
        )
        self._sign_and_submit(step, self.resolve_key(p["signer"]), payload)

    def _step_register_intent(self, step: Step, p: _Params) -> None:
        source, sig, digest = self._build_intent(p)
        submitter = self.resolve_key(p.get("submitter", p["source"]))
        payload = register_intent_call(
            self.qmig.address, submitter.address, digest, source.from_address
        )
        self._sign_and_submit(step, submitter, payload)
        if "store" in p:
            self.intents[str(p["store"])] = (source, sig)

    def _step_make_intent(self, step: Step, p: _Params) -> None:
        # sign and store an intent without ever registering it on chain
        source, sig, _ = self._build_intent(p)
        self.intents[str(p["store"])] = (source, sig)

    def _step_verify_intent(self, step: Step, p: _Params) -> None:
        source, sig = self.resolve_intent(str(p["intent"]))
        try:
            self.qmig.verify_transfer_intent(source, sig)
            outcome = "true"
        except (VerifyError, InflectionUnset) as exc:
            outcome = type(exc).__name__
        if step.label:
            self.verify_outcomes[step.label] = outcome

    def _step_bridge(self, step: Step, p: _Params) -> None:
        source, sig = self.resolve_intent(str(p["intent"]))
        request = BridgeTransfer(source, str(p["token"]), p.integer("amount"), sig)
        try:
            self.bridge.bridge_transfer(request)
            outcome = "ok"
        except Exception as exc:
            outcome = f"error:{type(exc).__name__}"
        if step.label:
            self.bridge_outcomes[step.label] = outcome

    def _step_withdraw(self, step: Step, p: _Params) -> None:
        vault = self.vaults.get(str(p["owner"]))
        if vault is None:
            raise ParseError(f"{p.where}: no FailSafe vault deployed for {p['owner']!r}")
        wallet = self.resolve_address(p["wallet"])
        asset_kind = str(p.get("asset_kind", "fungible"))
        value = p.integer("amount") if asset_kind == "fungible" else p.integer("token_id")
        tx = vault.execute_tx(
            OperationKind.WITHDRAW,
            (asset_kind, bytes(wallet), str(p["token"]), value),
            [self.resolve_key(s) for s in p.sequence("signers")],
            self.custodian.key_for("relayer"),
            p.integer("gas_price", 1),
        )
        self._submit(step, tx)

    def _step_clear_threat(self, step: Step, p: _Params) -> None:
        self.threat_flags.discard(str(p["owner"]))

    # action -> (its handler, every key its step may give besides at, action and
    # label); a step that signs and submits also reads gas_price and private
    _STEP_HANDLERS = {
        "transfer": (_step_transfer, "signer to token amount gas_price private"),
        "transfer_from": (_step_transfer_from, "signer token owner to amount gas_price private"),
        "approve": (_step_approve, "signer token spender amount gas_price private"),
        "nft_transfer": (_step_nft_transfer, "signer token to token_id gas_price private"),
        "quantum_steal": (_step_quantum_steal, "victim to token amount gas_price private"),
        "add_exception": (_step_add_exception, "wallet"),
        "set_inflection": (_step_set_inflection, "signer height gas_price private"),
        "register_intent": (_step_register_intent,
                            "source dest dest_chain submitter store gas_price private"),
        "make_intent": (_step_make_intent, "source dest dest_chain store"),
        "verify_intent": (_step_verify_intent, "intent"),
        "bridge": (_step_bridge, "intent token amount"),
        "withdraw": (_step_withdraw,
                     "owner wallet token asset_kind amount token_id signers gas_price private"),
        "clear_threat": (_step_clear_threat, "owner"),
    }

    # -- scheduler ---------------------------------------------------------------------

    def run(self) -> RunReport:
        sc = self.scenario
        if "fbr" not in self.disabled:  # the blacklist seeds FBR's verdicts
            for entry in sc.blacklist:
                with _reading(entry.where):
                    self.risk.add_entry(
                        self.resolve_address(entry["address"]),
                        str(entry["category"]),
                        str(entry.get("source", "scenario")),
                    )
        at_risk_amount = 0
        attacker = None
        attacker_start = 0
        if sc.at_risk is not None:
            # snapshot at genesis, before any step or block runs
            with _reading(sc.at_risk.where):
                at_risk_amount = sc.at_risk.integer("amount")
                if at_risk_amount < 0:
                    raise ValueError(f"'amount' must be >= 0, got {at_risk_amount}")
                attacker = self.resolve_address(sc.at_risk["attacker"])
                attacker_start = self.ledger.balance_of(attacker, str(sc.at_risk["token"]))

        step_index = seen = 0
        for target_height in range(1, sc.run_blocks + 1):
            while step_index < len(sc.steps) and sc.steps[step_index].at == target_height:
                self.execute_step(sc.steps[step_index])
                step_index += 1
            new_events = self.ledger.events[seen:]
            seen = len(self.ledger.events)
            pending = self.ledger.take_pending()
            if "fis" not in self.disabled:
                self.fis.on_block_events(new_events)
                self.fis.on_tick(pending)
            if "balancer" not in self.disabled:
                self.balancer.on_tick()
            if "fbr" not in self.disabled:
                # catch the clock up first: bridge events carry the height of
                # the block this tick is about to build
                self.risk.advance_to(self.ledger.height)
                for ev in new_events:
                    self.risk.record_observation(ev)
            self.ledger.build_block()

        return self._report(at_risk_amount, attacker, attacker_start)

    # -- reporting -----------------------------------------------------------------------

    def _report(self, at_risk_amount, attacker, attacker_start) -> RunReport:
        lost = 0
        if self.scenario.at_risk is not None:
            token = str(self.scenario.at_risk["token"])
            gained = self.ledger.balance_of(attacker, token) - attacker_start
            # what the attacker holds on the destination chain counts as gained too
            dest_key = self.dest_keys.get(str(self.scenario.at_risk["attacker"]))
            if dest_key is not None:
                gained += self.dest_ledger.balance_of(pq_address(dest_key.public), token)
            lost = min(max(gained, 0), at_risk_amount)
        saved = at_risk_amount - lost

        latency = None
        if self.fis.intercept_records:
            _, itx, seen = self.fis.intercept_records[0]
            included = self.tx_outcomes.committed(itx)
            if included is not None:
                latency = included[0] - seen

        results = [(False, failure) for failure in self.step_failures]
        for i, raw in enumerate(self.scenario.assertions):
            results.append(self._evaluate_assertion(i, raw))

        return RunReport(
            scenario=self.scenario.name,
            seed=self.seed,
            blocks_built=self.ledger.height,
            assertion_results=results,
            assets_at_risk=at_risk_amount,
            assets_saved=saved,
            assets_lost=lost,
            intercept_count=self.fis.intercept_count,
            intercept_latency_blocks=latency,
            log_lines=self.render_log(),
        )

    def _evaluate_assertion(self, i: int, raw: dict) -> tuple[bool, str]:
        read, _, _ = _CHECKS[str(raw["check"])]
        with _reading(f"assertion {i} ({raw['check']})"):  # an unknown name is a ParseError
            try:
                return _compare(raw, *read(self, raw))
            except InflectionUnset as exc:  # a run may end before qMig's inflection is set
                return False, f"assertion {raw!r} errored: {type(exc).__name__}: {exc}"

    # -- log rendering ----------------------------------------------------------------------

    def render_log(self) -> list[str]:
        lines = [ev.format_line() for ev in self.ledger.events]
        lines.extend(f"chain=dest {ev.format_line()}" for ev in self.dest_ledger.events)
        lines.extend(f"alert {line}" for line in self.fis.alerts)
        return lines


# ---------------------------------------------------------------------------
# Assertions: each check reads (actual value, label) from a finished run and
# judges it against the assertion's expected value.

# the keys an assertion may read its expected value from, with how the actual
# value must relate to it. "equals" compares text: an outcome label, or an
# integer that from_dict checked. A numeric check gives exactly one of the
# keys, any other check gives "equals".
_BOUNDS = {"equals": (lambda actual, bound: str(actual) == str(bound), ""),
           "at_least": (operator.ge, ">= "), "at_most": (operator.le, "<= ")}


def _compare(raw: dict, actual, label: str) -> tuple[bool, str]:
    key = next(key for key in _BOUNDS if key in raw)  # "equals" first: a check may take only it
    holds, relation = _BOUNDS[key]
    bound = raw[key]
    ok = holds(actual, bound)
    return ok, f"{label} = {actual}" + ("" if ok else f" (expected {relation}{bound})")


def _balance(run: ScenarioRunner, raw: dict):
    where = str(raw.get("ledger", "source"))
    addr = run.resolve_address(raw["address"])
    token = str(raw["token"])
    ledger = run.dest_ledger if where == "dest" else run.ledger
    return ledger.balance_of(addr, token), f"balance[{where}] {raw['address']}:{token}"


def _outcome(run: ScenarioRunner, raw: dict):
    tx = run.labels.get(str(raw["label"]))
    included = None if tx is None else run.tx_outcomes.committed(tx)
    return "not-included" if included is None else included[1], f"outcome[{raw['label']}]"


def _labelled(check: str, outcomes: str):
    """A reader of the outcome a runner dict holds under the assertion's label."""
    def read(run: ScenarioRunner, raw: dict):
        return getattr(run, outcomes).get(str(raw["label"]), "missing"), f"{check}[{raw['label']}]"
    return read


def _permitted(run: ScenarioRunner, raw: dict):
    actual = run.qmig.permitted_amount(run.resolve_address(raw["wallet"]), str(raw["token"]))
    return actual, f"permitted[{raw['wallet']}:{raw['token']}]"


def _alerts(run: ScenarioRunner, raw: dict):
    user = str(raw["user"])
    return len(run.fis.alerts_by_user.get(user, [])), f"alerts[{user}]"


def _intercepts(run: ScenarioRunner, raw: dict):
    return run.fis.intercept_count, "intercepts"


def _rebalances(run: ScenarioRunner, raw: dict):
    return len(run.balancer.actions), "rebalances"


_LABEL = {"label": ()}
# each label check, with the action of the steps that record its result; None
# for any step that submits a transaction (one that takes 'private')
_LABEL_ACTIONS = {"outcome": None, "private_status": None,
                  "verify": "verify_intent", "bridge": "bridge"}

# check name -> (reader, whether its expected value is an integer, {key the
# reader reads: the values it may take, default first, or () when the
# assertion must give the key})
_CHECKS = {
    "balance": (_balance, True, {"address": (), "token": (), "ledger": ("source", "dest")}),
    "outcome": (_outcome, False, _LABEL),
    "private_status": (_labelled("private_status", "private_status"), False, _LABEL),
    "verify": (_labelled("verify", "verify_outcomes"), False, _LABEL),
    "bridge": (_labelled("bridge", "bridge_outcomes"), False, _LABEL),
    "intercepts": (_intercepts, True, {}),
    "rebalances": (_rebalances, True, {}),
    "permitted": (_permitted, True, {"wallet": (), "token": ()}),
    "registry_size": (lambda run, raw: (len(run.qmig.registry), "registry_size"), True, {}),
    "alerts": (_alerts, True, {"user": ()}),
}
