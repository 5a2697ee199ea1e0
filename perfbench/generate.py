"""Seeded scenario generators for the `flood` and `migration` workloads.

Each generator returns the text of one scenario file. The same seed gives
byte-identical text, and the program under test receives only that file.
Every outcome the generator designs (an intercepted drain, a filtered
private submission, a bridge that must be refused) is written into the
file as a scenario assertion, so the runner itself checks it.

The generators keep a small model of the world: exact balances of the
accounts no defence service touches, a lower bound on the hot balance of
every enrolled wallet, allowances, NFT owners and revealed public keys.
They only script transactions whose outcome the model decides.
"""

from __future__ import annotations

import random
from itertools import cycle

import yaml

# -- flood --------------------------------------------------------------------

FLOOD_PLAIN = 900  # accounts without a vault
FLOOD_VAULTS = 100  # FailSafe vaults, one enrolled hot wallet each
FLOOD_ATTACKERS = 8  # blacklisted addresses
FLOOD_BLOCKS = 100  # blocks of scripted traffic
FLOOD_PER_BLOCK = 20  # honest transactions per traffic block
FLOOD_DRAINS = 10  # stolen-key drains of a vault wallet to an attacker
FLOOD_PHISHES = 6  # phished approvals followed by transfer_from
FLOOD_POLICY_TRIPS = 6  # honest spends that exceed the window cap
FLOOD_RELAY_DRAINS = 6  # private drains from exceptions-listed accounts
FLOOD_NFTS = 200
FLOOD_MIGRATING = 20  # vault wallets that bridge small amounts while traffic runs

PLAIN_USD = 5000
PLAIN_NATIVE = 1000
HOT_USD = 2000
COLD_USD = 8000
HONEST_POLICY = {
    "hot_fraction_target": "1/5",
    "hot_fraction_tolerance": "1/20",
    "max_value_per_window": 1_000_000,
    "window_length": 10,
}
TRIP_CAP = 150
TRIP_SPEND = 100
TRIP_POLICY = dict(HONEST_POLICY, max_value_per_window=TRIP_CAP, window_length=5)
# honest outgoing transfers per vault wallet; with the balancer holding the
# hot share near 1/5 of at least 7000, the hot balance never drops below
# ~950, so every such transfer (at most 100) executes
VAULT_OUT_MAX = 100
VAULT_OUT_LIMIT = 30
BRIDGE_AMOUNT = 10  # per request; no migrating wallet bridges more than 60

EXECUTED = "Executed"
DRAINED = "Reverted:InsufficientBalance"


def _dump(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=4096)


def _assert_outcome(assertions: list, label: str, outcome: str) -> None:
    assertions.append({"check": "outcome", "label": label, "equals": outcome})


def generate_flood(seed: int) -> str:
    """A defended exchange under steady traffic and scripted theft attempts."""
    rng = random.Random(f"flood:{seed}")
    plain = [f"u{i:03d}" for i in range(FLOOD_PLAIN)]
    wallets = [f"w{i:02d}" for i in range(FLOOD_VAULTS)]
    attackers = [f"x{i}" for i in range(FLOOD_ATTACKERS)]

    usd = {a: PLAIN_USD for a in plain}
    native = {a: PLAIN_NATIVE for a in plain}
    nft_owner = {tid: rng.choice(plain) for tid in range(FLOOD_NFTS)}
    initial_nft = dict(nft_owner)
    allowances: dict[tuple[str, str], int] = {}

    chosen = rng.sample(wallets, FLOOD_DRAINS + FLOOD_PHISHES + FLOOD_POLICY_TRIPS
                        + FLOOD_MIGRATING)
    migrating = chosen[:FLOOD_MIGRATING]
    victims = chosen[FLOOD_MIGRATING:]
    drain_victims = victims[:FLOOD_DRAINS]
    phish_victims = victims[FLOOD_DRAINS:FLOOD_DRAINS + FLOOD_PHISHES]
    trip_victims = victims[FLOOD_DRAINS + FLOOD_PHISHES:]
    honest_wallets = [w for w in wallets if w not in chosen]
    listed = rng.sample(plain, FLOOD_RELAY_DRAINS)

    first, last = 2, FLOOD_BLOCKS + 1
    # one theft event per chosen block; phishing needs the block after too
    event_blocks = sorted(
        rng.sample(range(first + 2, last - 1), len(victims) + FLOOD_RELAY_DRAINS)
    )
    events: dict[int, tuple[str, str]] = {}
    for block, (kind, who) in zip(
        event_blocks,
        [("drain", v) for v in drain_victims]
        + [("phish", v) for v in phish_victims]
        + [("trip", v) for v in trip_victims]
        + [("relay", a) for a in listed],
    ):
        events[block] = (kind, who)

    steps: list[dict] = []
    assertions: list[dict] = []
    vault_out: dict[str, int] = {w: 0 for w in wallets}
    pending_phish: dict[int, tuple[str, str]] = {}
    intercepts = 0
    alerts: dict[str, int] = {}
    at_risk = 0
    label_no = 0

    def label() -> str:
        nonlocal label_no
        label_no += 1
        return f"t{label_no:05d}"

    steps.extend({"at": first, "action": "add_exception", "wallet": a} for a in listed)
    # the admin sets the inflection at once, so bridge requests can run
    # alongside the traffic and sample the whole run
    steps.append({"at": first, "action": "set_inflection", "signer": "admin",
                  "height": first + 1, "label": "inflect"})
    _assert_outcome(assertions, "inflect", EXECUTED)
    bridged = {w: 0 for w in migrating}

    for block in range(first, last + 1):
        busy: set[str] = set()  # one transaction per sender per block
        spent: dict[str, int] = {}  # committed usd outflow this block
        credit: dict[str, int] = {}  # usd inflow, usable from the next block
        native_credit: dict[str, int] = {}

        def available(acct: str) -> int:
            return usd[acct] - spent.get(acct, 0)

        def move_usd(frm: str, to: str, amount: int) -> None:
            spent[frm] = spent.get(frm, 0) + amount
            if to in usd:
                credit[to] = credit.get(to, 0) + amount

        # designed theft attempts first, so their victims leave the pool
        event = events.get(block)
        if block in pending_phish:
            victim, attacker = pending_phish.pop(block)
            lbl = label()
            steps.append({"at": block, "action": "transfer_from", "signer": attacker,
                          "token": "usd", "owner": victim, "to": attacker, "amount": 400,
                          "gas_price": 100, "label": lbl})
            _assert_outcome(assertions, lbl, DRAINED)
            intercepts += 1
            alerts[victim] += 1
            busy.add(attacker)
        if event is not None:
            kind, who = event
            lbl = label()
            if kind == "drain":
                amount = 1500
                steps.append({"at": block, "action": "transfer", "signer": who, "token": "usd",
                              "to": attackers[0], "amount": amount, "gas_price": 100,
                              "label": lbl})
                _assert_outcome(assertions, lbl, DRAINED)
                at_risk += amount
                intercepts += 1
                alerts[who] = 1
            elif kind == "phish":
                attacker = rng.choice(attackers[1:])
                steps.append({"at": block, "action": "approve", "signer": who, "token": "usd",
                              "spender": attacker, "amount": "unlimited", "gas_price": 5,
                              "label": lbl})
                _assert_outcome(assertions, lbl, EXECUTED)
                pending_phish[block + 1] = (who, attacker)
                intercepts += 1
                alerts[who] = 1
            elif kind == "trip":
                # the first spend stays under the cap; the second, one block
                # later, projects over it and the wallet is swept
                to = rng.choice(plain)
                steps.append({"at": block - 1, "action": "transfer", "signer": who,
                              "token": "usd", "to": to, "amount": TRIP_SPEND, "label": lbl})
                _assert_outcome(assertions, lbl, EXECUTED)
                usd[to] += TRIP_SPEND
                lbl = label()
                steps.append({"at": block, "action": "transfer", "signer": who, "token": "usd",
                              "to": rng.choice(plain), "amount": TRIP_SPEND, "label": lbl})
                _assert_outcome(assertions, lbl, DRAINED)
                intercepts += 1
                alerts[who] = 1
            else:  # relay: stolen key of an exceptions-listed account
                steps.append({"at": block, "action": "transfer", "signer": who, "token": "usd",
                              "to": attackers[-1], "amount": 1000, "private": True,
                              "gas_price": 50, "label": lbl})
                assertions.append({"check": "private_status", "label": lbl,
                                   "equals": "FilteredByExceptionsList"})
                _assert_outcome(assertions, lbl, "not-included")
            busy.add(who)

        if block >= first + 2:
            # migrating wallets have no other traffic, so the balancer leaves
            # them alone and each may bridge all it held at the inflection
            w = migrating[block % FLOOD_MIGRATING]
            bridged[w] += BRIDGE_AMOUNT
            lbl = f"bridge-{block}"
            steps.append({"at": block, "action": "bridge", "intent": f"{w}:enroll",
                          "token": "usd", "amount": BRIDGE_AMOUNT, "label": lbl})
            assertions.append({"check": "bridge", "label": lbl, "equals": "ok"})

        honest = 0
        while honest < FLOOD_PER_BLOCK:
            roll = rng.random()
            if roll < 0.30:  # token transfer between plain accounts
                frm, to = rng.sample(plain, 2)
                amount = rng.randint(1, 50)
                if frm in busy or available(frm) < amount:
                    continue
                step = {"action": "transfer", "signer": frm, "token": "usd", "to": to,
                        "amount": amount}
                move_usd(frm, to, amount)
            elif roll < 0.40:  # native transfer
                frm, to = rng.sample(plain, 2)
                amount = rng.randint(1, 20)
                if frm in busy or native[frm] < amount:
                    continue
                step = {"action": "transfer", "signer": frm, "to": to, "amount": amount}
                native[frm] -= amount
                native_credit[to] = native_credit.get(to, 0) + amount
            elif roll < 0.47:  # approval between plain accounts
                owner, spender = rng.sample(plain, 2)
                if owner in busy:
                    continue
                amount = rng.randint(50, 200)
                step = {"action": "approve", "signer": owner, "token": "usd",
                        "spender": spender, "amount": amount}
                allowances[(owner, spender)] = -amount  # usable from the next block
            elif roll < 0.54:  # transfer_from under an earlier approval
                ready = [k for k, v in allowances.items() if v > 0]
                if not ready:
                    continue
                owner, spender = ready[rng.randrange(len(ready))]
                amount = min(allowances[(owner, spender)], rng.randint(1, 60))
                if spender in busy or available(owner) < amount:
                    continue
                step = {"action": "transfer_from", "signer": spender, "token": "usd",
                        "owner": owner, "to": spender, "amount": amount}
                allowances[(owner, spender)] -= amount
                move_usd(owner, spender, amount)
            elif roll < 0.62:  # NFT move
                tid = rng.randrange(FLOOD_NFTS)
                owner = nft_owner[tid]
                to = rng.choice(plain)
                if owner in busy or owner == to or tid in busy:
                    continue
                step = {"action": "nft_transfer", "signer": owner, "token": "art", "to": to,
                        "token_id": tid}
                busy.add(tid)
                nft_owner[tid] = to
            elif roll < 0.70:  # private-relay submission
                frm, to = rng.sample(plain, 2)
                amount = rng.randint(1, 50)
                if frm in busy or frm in listed or available(frm) < amount:
                    continue
                step = {"action": "transfer", "signer": frm, "token": "usd", "to": to,
                        "amount": amount, "private": True}
                move_usd(frm, to, amount)
            elif roll < 0.85:  # vault wallet pays a plain account
                frm = rng.choice(honest_wallets)
                to = rng.choice(plain)
                if frm in busy or vault_out[frm] >= VAULT_OUT_LIMIT:
                    continue
                amount = rng.randint(10, VAULT_OUT_MAX)
                step = {"action": "transfer", "signer": frm, "token": "usd", "to": to,
                        "amount": amount}
                vault_out[frm] += 1
                credit[to] = credit.get(to, 0) + amount
            else:  # plain account pays a vault wallet; large ones trip the balancer
                frm = rng.choice(plain)
                to = rng.choice(honest_wallets)
                amount = rng.randint(800, 1500) if rng.random() < 0.3 else rng.randint(10, 100)
                if frm in busy or available(frm) < amount:
                    continue
                step = {"action": "transfer", "signer": frm, "token": "usd", "to": to,
                        "amount": amount}
                spent[frm] = spent.get(frm, 0) + amount
            busy.add(step["signer"])
            step = {"at": block, **step}
            if rng.random() < 0.25:  # a quarter of honest traffic is asserted
                step["label"] = lbl = label()
                _assert_outcome(assertions, lbl, EXECUTED)
                if step.get("private"):
                    assertions.append({"check": "private_status", "label": lbl,
                                       "equals": "Accepted"})
            steps.append(step)
            honest += 1

        for acct, amount in spent.items():
            usd[acct] -= amount
        for acct, amount in credit.items():
            usd[acct] += amount
        for acct, amount in native_credit.items():
            native[acct] += amount
        for key, value in allowances.items():
            if value < 0:
                allowances[key] = -value

    # swept wallets hold nothing they may bridge
    bridge_block = last + 1
    for w in victims:
        lbl = f"bridge-{w}"
        steps.append({"at": bridge_block, "action": "bridge", "intent": f"{w}:enroll",
                      "token": "usd", "amount": BRIDGE_AMOUNT, "label": lbl})
        assertions.append({"check": "bridge", "label": lbl,
                           "equals": "error:ExceedsPermitted"})
    assertions.extend({"check": "balance", "address": w, "token": "usd", "ledger": "dest",
                       "equals": n} for w, n in bridged.items())

    assertions.append({"check": "intercepts", "equals": intercepts})
    assertions.extend({"check": "alerts", "user": v, "equals": n} for v, n in alerts.items())
    assertions.append({"check": "rebalances", "at_least": 1})
    assertions.append({"check": "registry_size", "equals": 2 * FLOOD_VAULTS})
    assertions.append({"check": "balance", "address": "escrow", "token": "usd",
                       "equals": sum(bridged.values())})
    assertions.extend({"check": "balance", "address": a, "token": "usd", "equals": 0}
                      for a in attackers)
    assertions.extend({"check": "balance", "address": a, "token": "usd", "equals": usd[a]}
                      for a in plain[::9])
    assertions.extend({"check": "balance", "address": a, "token": "native",
                       "equals": native[a]} for a in plain[::9])

    genesis = []
    for a in plain:
        genesis.append({"to": a, "token": "usd", "amount": PLAIN_USD})
        genesis.append({"to": a, "token": "native", "amount": PLAIN_NATIVE})
    for w in wallets:
        genesis.append({"to": w, "token": "usd", "amount": HOT_USD})
        genesis.append({"to": f"{w}.contract", "token": "usd", "amount": COLD_USD})
    genesis.extend({"to": owner, "token": "art", "token_id": tid}
                   for tid, owner in initial_nft.items())

    doc = {
        "name": "flood",
        "description": "Generated defended exchange: steady traffic, theft attempts, "
                       "and vault wallets migrating alongside",
        "seed": seed,
        "chain_id": 1,
        "dest_chain_id": 9001,
        "run_blocks": bridge_block,
        "tokens": [{"id": "usd", "kind": "fungible"}, {"id": "art", "kind": "nft"}],
        "actors": {**{a: {} for a in plain + wallets + attackers}, "admin": {"pq": True}},
        "qmig_admin": "admin",
        "blacklist": [
            {"address": a, "category": ("Sanctioned", "FraudContract", "RugPull")[i % 3],
             "source": "generated"}
            for i, a in enumerate(attackers)
        ],
        "genesis": genesis,
        "failsafe": [
            {"owner": w,
             "signers": ["role:intercept", "role:rebalance", "role:guardian"],
             "enrollments": [{"wallet": w,
                              "policy": TRIP_POLICY if w in trip_victims else HONEST_POLICY,
                              "tokens": ["usd"], "dest": w}]}
            for w in wallets
        ],
        "at_risk": {"token": "usd", "amount": at_risk, "attacker": attackers[0]},
        "steps": sorted(steps, key=lambda s: s["at"]),
        "assertions": assertions,
    }
    return _dump(doc)


# -- migration ----------------------------------------------------------------

MIG_HOLDERS = 400
MIG_COURIERS = 2  # couriers chain the registrations of half the holders
MIG_THIEVES = 8
MIG_VICTIMS_PER_THIEF = 2
MIG_PQ_DESTS = 4  # holders whose destination is a fresh Lamport address
# share of holders with a pre-history transfer; the self-submitting half is
# revealed by its own registration, the rest stay incognito
MIG_REVEALED = 0.3
MIG_PREHISTORY_BLOCKS = 20
# bridge requests per block, repeated through the wave: the light blocks
# hold the median tick and the bulk blocks the 90th percentile, each inside
# a cluster of like ticks that spans the whole wave
MIG_WAVE_PATTERN = (16, 16, 16, 64)
MIG_LEGS = 3  # bridge requests per holder
THEFT_AMOUNT = 300


def generate_migration(seed: int) -> str:
    """A qMig wave: pre-history, a registration rush, thefts, then bridging."""
    rng = random.Random(f"migration:{seed}")
    holders = [f"h{i:04d}" for i in range(MIG_HOLDERS)]
    couriers = [f"c{i}" for i in range(MIG_COURIERS)]
    thieves = [f"t{i}" for i in range(MIG_THIEVES)]

    gold = {h: 1000 + rng.randrange(1000) for h in holders}
    gold.update({t: 50 + rng.randrange(50) for t in thieves})
    genesis = [{"to": a, "token": "gold", "amount": amount} for a, amount in gold.items()]

    steps: list[dict] = []
    assertions: list[dict] = []

    # pre-history: a transfer to a sink reveals the sender's public key
    revealed = rng.sample(holders, int(MIG_HOLDERS * MIG_REVEALED))
    per_block = -(-len(revealed) // MIG_PREHISTORY_BLOCKS)
    for i, h in enumerate(revealed):
        step = {"at": 1 + i // per_block, "action": "transfer", "signer": h, "token": "gold",
                "to": "sink", "amount": 1}
        if i % 10 == 0:
            step["label"] = f"pre-{h}"
            _assert_outcome(assertions, f"pre-{h}", EXECUTED)
        steps.append(step)
        gold[h] -= 1

    # registration rush: every holder and thief registers in one block; the
    # self-submitted half exposes its key, the couriered half chains nonces
    rush = MIG_PREHISTORY_BLOCKS + 1
    pq_dests = set(rng.sample(holders, MIG_PQ_DESTS))
    self_submit = set(rng.sample(holders, MIG_HOLDERS // 2))
    order = holders + thieves
    rng.shuffle(order)
    for i, a in enumerate(order):
        submitter = a if a in self_submit or a in thieves else couriers[i % MIG_COURIERS]
        step = {"at": rush, "action": "register_intent", "source": a,
                "dest": f"{a}@dest" if a in pq_dests else a, "submitter": submitter,
                "store": f"{a}:intent"}
        if i % 25 == 0:
            step["label"] = f"reg-{a}"
            _assert_outcome(assertions, f"reg-{a}", EXECUTED)
        steps.append(step)
    revealed_set = set(revealed) | self_submit

    inflection = rush + 2
    steps.append({"at": rush + 1, "action": "set_inflection", "signer": "admin",
                  "height": inflection, "label": "inflect"})
    _assert_outcome(assertions, "inflect", EXECUTED)

    # thefts once the oracle has seen the inflection; victims are holders
    # whose key is on chain, so the derivation is possible
    theft_block = inflection + 1
    victims = rng.sample(sorted(revealed_set), MIG_THIEVES * MIG_VICTIMS_PER_THIEF)
    stolen = {t: 0 for t in thieves}
    late = []
    for i, v in enumerate(victims):
        thief = thieves[i % MIG_THIEVES]
        lbl = f"steal-{v}"
        steps.append({"at": theft_block, "action": "quantum_steal", "victim": v, "to": thief,
                      "token": "gold", "amount": THEFT_AMOUNT, "label": lbl})
        _assert_outcome(assertions, lbl, EXECUTED)
        gold[v] -= THEFT_AMOUNT
        stolen[thief] += THEFT_AMOUNT
        if i < MIG_THIEVES:
            # a fresh intent signed with the derived key registers too late
            steps.append({"at": theft_block, "action": "register_intent", "source": v,
                          "dest": thief, "submitter": thief, "store": f"late:{v}"})
            late.append((v, thief))
    steps.extend({"at": theft_block + 1, "action": "verify_intent", "intent": f"late:{v}",
                  "label": f"verify-late-{v}"} for v, _ in late)
    assertions.extend({"check": "verify", "label": f"verify-late-{v}", "equals": "LateIntent"}
                      for v, _ in late)

    # bridge wave: every holder moves its whole balance in equal legs;
    # thieves first try their balance including stolen funds, then only
    # their own
    requests = []
    for leg in range(MIG_LEGS):
        for h in holders:
            amount = gold[h] // MIG_LEGS + (gold[h] % MIG_LEGS if leg == MIG_LEGS - 1 else 0)
            requests.append((f"{h}:intent", amount, f"bridge-{h}-{leg}", "ok"))
    for t in thieves:
        own = gold[t]
        requests.append((f"{t}:intent", own + stolen[t], f"bridge-all-{t}",
                         "error:ExceedsPermitted"))
        requests.append((f"{t}:intent", own, f"bridge-own-{t}", "ok"))
    for v, _ in late:
        requests.append((f"late:{v}", THEFT_AMOUNT, f"bridge-late-{v}", "error:LateIntent"))
    heights = (theft_block + 2 + i for i, size in enumerate(cycle(MIG_WAVE_PATTERN))
               for _ in range(size))
    for (intent, amount, lbl, outcome), at in zip(requests, heights):
        steps.append({"at": at, "action": "bridge",
                      "intent": intent, "token": "gold", "amount": amount, "label": lbl})
        assertions.append({"check": "bridge", "label": lbl, "equals": outcome})
    last_block = at

    escrow = sum(gold[h] for h in holders) + sum(gold[t] for t in thieves)
    assertions.append({"check": "balance", "address": "escrow", "token": "gold",
                       "equals": escrow})
    assertions.extend({"check": "balance", "address": t, "token": "gold",
                       "equals": stolen[t]} for t in thieves)
    assertions.extend({"check": "balance", "address": f"{h}@dest", "token": "gold",
                       "ledger": "dest", "equals": gold[h]} for h in sorted(pq_dests))
    assertions.append({"check": "registry_size", "equals": len(order) + len(late)})

    doc = {
        "name": "migration",
        "description": "Generated qMig wave: pre-history, registration rush, inflection, "
                       "quantum thefts, bridge wave",
        "seed": seed,
        "chain_id": 1,
        "dest_chain_id": 9001,
        "run_blocks": last_block,
        "tokens": [{"id": "gold", "kind": "fungible"}],
        "actors": {**{a: {} for a in holders + couriers + thieves + ["sink"]},
                   "admin": {"pq": True}},
        "qmig_admin": "admin",
        "genesis": genesis,
        "steps": sorted(steps, key=lambda s: s["at"]),
        "assertions": assertions,
    }
    return _dump(doc)


GENERATORS = {"flood": generate_flood, "migration": generate_migration}
