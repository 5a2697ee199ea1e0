"""Span tracing of the simulator's layers, installed from outside at run time.

`Tracer.install` replaces each traced function with a wrapper on every
module-level binding of it inside the `failsafe` package (a function
imported by name, such as `keccak256` in `ledger`, `qmig` or
`crypto.lamport`, has one binding per importing module) and on the class
for methods. `uninstall` puts every original back. Each call records a
span: layer name, start, end and the span that was open when it began. A
call made while the same function is already open (the recursion of
`encode_value`) is folded into the open span. Self time is a span's
duration minus the durations of its child spans.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# metric prefix -> functions it covers, as (module, qualified name)
TARGETS = {
    "crypto.keccak256": [("failsafe.crypto.keccak", "keccak256")],
    "crypto.sign": [("failsafe.crypto.secp256k1", "sign")],
    "crypto.recover_signer": [("failsafe.crypto.secp256k1", "recover_signer")],
    "crypto.keypair_generate": [("failsafe.crypto.secp256k1", "KeyPair.generate")],
    "crypto.pq_keygen": [("failsafe.crypto.lamport", "PqKeyPair.generate")],
    "crypto.pq_verify": [("failsafe.crypto.lamport", "pq_verify")],
    "encoding.encode_value": [("failsafe.encoding", "encode_value")],
    "ledger.submit": [("failsafe.ledger", "Ledger.submit_transaction"),
                      ("failsafe.ledger", "Ledger.submit_private_transaction")],
    "ledger.build_block": [("failsafe.ledger", "Ledger.build_block")],
    "ledger.next_nonce": [("failsafe.ledger", "Ledger.next_nonce")],
    "ledger.balance_at": [("failsafe.ledger", "Ledger.balance_at")],
    "ledger.withdrawals_since": [("failsafe.ledger", "Ledger.withdrawals_since")],
    "contract.call": [("failsafe.contract", "FailSafeContract.call")],
    "contract.authorize": [("failsafe.contract", "FailSafeContract.authorize")],
    "fbr.advance_to": [("failsafe.fbr", "RiskService.advance_to")],
    "fbr.record_observation": [("failsafe.fbr", "RiskService.record_observation")],
    "fbr.risk_score": [("failsafe.fbr", "RiskService.risk_score")],
    "fis.on_tick": [("failsafe.fis", "InterceptorService.on_tick")],
    "fis.on_block_events": [("failsafe.fis", "InterceptorService.on_block_events")],
    "balancer.on_tick": [("failsafe.balancer", "BalancerService.on_tick")],
    "qmig.verify_transfer_intent": [("failsafe.qmig", "QmigContract.verify_transfer_intent")],
    "qmig.permitted_amount": [("failsafe.qmig", "QmigContract.permitted_amount")],
    "qmig.call": [("failsafe.qmig", "QmigContract.call")],
    "bridge.bridge_transfer": [("failsafe.bridge", "Bridge.bridge_transfer")],
    "scenario.load": [("failsafe.scenario", "Scenario.load")],
    "scenario.build_world": [("failsafe.scenario", "ScenarioRunner._build_world")],
    "scenario.execute_step": [("failsafe.scenario", "ScenarioRunner.execute_step")],
    "scenario.run": [("failsafe.scenario", "ScenarioRunner.run")],
}
NAMES = list(TARGETS)
# no FailSafe vault and no risk query runs on `migration`; a time that reads
# 0 on every run says nothing, so these stay in the printed table only
IDLE_ON_SOME = ("contract.call.self_s", "contract.authorize.self_s", "fbr.risk_score.self_s")
COUNTS = ("crypto.keccak256.bytes", "ledger.pool.max", "ledger.pool.carried", "fbr.addresses",
          "fis.intercepts", "fis.alerts", "balancer.rebalances", "qmig.registry_size",
          "ledger.txs.executed", "ledger.txs.reverted", "ledger.events")

# rows of the per-call cost table: (label, metric prefix, extra measurement)
COST_ROWS = [
    ("keccak256", "crypto.keccak256", "bytes"),
    ("sign", "crypto.sign", None),
    ("recover_signer", "crypto.recover_signer", None),
    ("KeyPair.generate", "crypto.keypair_generate", None),
    ("PqKeyPair.generate", "crypto.pq_keygen", None),
    ("pq_verify", "crypto.pq_verify", None),
    ("submit", "ledger.submit", None),
    ("build_block", "ledger.build_block", "pool"),
    ("permitted_amount", "qmig.permitted_amount", "log"),
]


def _pool_size(ledger) -> int:
    # read-only look at the mempool, for the pool-size counters
    return len(ledger._pool) + len(ledger._private_pool)


class Tracer:
    def __init__(self):
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._open = [0] * len(NAMES)
        self._patches: list[tuple[object, str, object]] = []
        self._first_span = 0
        self.counts: Counter = Counter()

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = NAMES.index(name)
        stack, is_open = self._stack, self._open
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counts = self.counts
        before, after = self._hooks(name)

        def traced(*args, **kwargs):
            if is_open[idx]:
                return fn(*args, **kwargs)
            span = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(span)
            is_open[idx] += 1
            if before is not None:
                before(args)
            outcome = None
            starts.append(perf_counter_ns())
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                ends[span] = perf_counter_ns()
                is_open[idx] -= 1
                stack.pop()
                if after is not None:
                    after(args, outcome)

        return traced

    def _hooks(self, name: str):
        counts = self.counts
        if name == "crypto.keccak256":
            def before(args):
                counts["crypto.keccak256.bytes"] += len(args[0])

            return before, None
        if name == "ledger.build_block":
            def before(args):
                size = _pool_size(args[0])
                counts["ledger.pool.total"] += size
                counts["ledger.pool.max"] = max(counts["ledger.pool.max"], size)

            def after(args, _block):
                counts["ledger.pool.carried"] += _pool_size(args[0])

            return before, after
        if name == "qmig.permitted_amount":
            def before(args):
                counts["qmig.log.total"] += len(args[0].ledger.events)

            return before, None
        if name == "ledger.submit":
            def after(_args, status):
                if getattr(status, "value", None) == "FilteredByExceptionsList":
                    counts["ledger.submit.filtered"] += 1

            return None, after
        if name == "fbr.record_observation":
            seen = set()

            def before(args):
                for side in ("from", "to"):
                    addr = args[1].get(side)
                    if isinstance(addr, bytes) and addr not in seen:
                        seen.add(addr)
                        counts["fbr.addresses"] += 1

            return before, None
        return None, None

    def install(self) -> None:
        """Wrap every binding of every target, in the classes and the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "failsafe" or n.startswith("failsafe."))]
        for name, targets in TARGETS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._patch(cls, attr, wrapped)
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-pass results ------------------------------------------------------------

    def collect(self, runner) -> None:
        """Add the counts a finished run exposes through its public objects."""
        c = self.counts
        outcomes = Counter(o.split(":")[0] for o in runner.tx_outcomes.values())
        c["ledger.txs.executed"] += outcomes["Executed"]
        c["ledger.txs.reverted"] += outcomes["Reverted"]
        c["ledger.events"] += len(runner.ledger.events)
        c["qmig.registry_size"] += len(runner.qmig.registry)
        if runner.fis is not None:
            c["fis.intercepts"] += runner.fis.intercept_count
            c["fis.alerts"] += len(runner.fis.alerts)
            c["fis.intercepts_won"] += sum(
                runner.tx_outcomes.get(d.attacker_tx.tx_id, "").startswith("Reverted")
                for d, _, _ in runner.fis.intercept_records
            )
        if runner.balancer is not None:
            c["balancer.rebalances"] += len(runner.balancer.actions)

    def finish_pass(self) -> dict:
        """Per-layer calls and self time of the spans since the last call."""
        first, last = self._first_span, len(self.span_name)
        self._first_span = last
        calls = [0] * len(NAMES)
        total = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        child = {}
        for i in range(last - 1, first - 1, -1):
            duration = self.span_end[i] - self.span_start[i]
            idx = self.span_name[i]
            calls[idx] += 1
            total[idx] += duration
            self_ns[idx] += duration - child.pop(i, 0)
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] = child.get(parent, 0) + duration
        layers = {}
        for idx, name in enumerate(NAMES):
            layers[f"{name}.calls"] = calls[idx]
            layers[f"{name}.self_s"] = self_ns[idx] / 1e9
            layers[f"{name}.total_s"] = total[idx] / 1e9
        c, self.counts = self.counts, Counter()
        layers.update(c)
        return layers

    # -- reporting ---------------------------------------------------------------------

    @staticmethod
    def _medians(traced: list) -> dict:
        keys = set().union(*(p.layers for p in traced))
        return {k: statistics.median(p.layers.get(k, 0) for p in traced) for k in keys}

    def summarize(self, traced: list, plain: list) -> dict:
        """Per-layer metrics (median over traced passes) with their units."""
        median = self._medians(traced)
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = (median[f"{name}.calls"], "count")
            out[f"{name}.self_s"] = (median[f"{name}.self_s"], "s")
        for key in COUNTS:
            out[key] = (median.get(key, 0), "count")
        rejected = median.get("ledger.submit.raised", 0) + median.get("ledger.submit.filtered", 0)
        out["ledger.submit.rejected"] = (rejected, "count")
        intercepts = median.get("fis.intercepts", 0)
        won = median.get("fis.intercepts_won", 0)
        out["fis.intercept_won_ratio"] = (won / intercepts if intercepts else 0.0, "ratio")
        bridges = median["bridge.bridge_transfer.calls"]
        failed = median.get("bridge.bridge_transfer.raised", 0)
        out["bridge.ok_ratio"] = ((bridges - failed) / bridges if bridges else 0.0, "ratio")
        traced_sim = statistics.median(p.sim_s for p in traced)
        plain_sim = statistics.median(p.sim_s for p in plain)
        out["trace.overhead_ratio"] = (traced_sim / plain_sim - 1, "ratio")
        return out

    def cost_table(self, traced: list) -> list[str]:
        """Per-call cost lines: self and inclusive time per call, with context."""
        m = self._medians(traced)
        lines = ["cost call calls self_us_per_call total_us_per_call context"]
        for label, name, extra in COST_ROWS:
            calls = m[f"{name}.calls"]
            if not calls:
                lines.append(f"cost {label} 0 - - -")
                continue
            context = "-"
            if extra == "bytes":
                context = f"mean_bytes={m['crypto.keccak256.bytes'] / calls:.1f}"
            elif extra == "pool":
                context = (f"mean_pool={m['ledger.pool.total'] / calls:.1f} "
                           f"max_pool={m['ledger.pool.max']}")
            elif extra == "log":
                context = f"mean_event_log={m['qmig.log.total'] / calls:.0f}"
            lines.append(f"cost {label} {calls} {m[f'{name}.self_s'] / calls * 1e6:.1f} "
                         f"{m[f'{name}.total_s'] / calls * 1e6:.1f} {context}")
        return lines

    def write_spans(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                out.write(f"{i},{self.span_parent[i]},{NAMES[self.span_name[i]]},"
                          f"{self.span_start[i]},{self.span_end[i]}\n")
        return path
