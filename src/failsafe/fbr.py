"""FailSafe Blockchain Reconnaissance: counterparty risk scoring.

A blacklist (sanctioned addresses, fraud and rug-pull contracts) gives
hard 100-point verdicts. On top of that, two behavioral heuristics watch
the committed event stream: a drain pattern (funds aggregated from
several senders and immediately forwarded) and a young address suddenly
receiving high value. Verdicts are a pure function of the blacklist and
the ordered event history, so replaying a log reproduces them exactly.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .crypto import Address
from .ledger import EXECUTED, LedgerEvent

BLACKLIST_CATEGORIES = ("Sanctioned", "FraudContract", "RugPull")

_ADDRESS_RE = re.compile(r"^(0x)?[0-9a-fA-F]{40}$")


class ParseError(Exception):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class OutOfOrderEvent(Exception):
    """Observation stream regressed to an earlier block height."""


@dataclass(frozen=True)
class RiskVerdict:
    score: int
    category: str  # Clean | Sanctioned | FraudContract | RugPull | Anomaly
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class BlacklistEntry:
    address: Address
    category: str
    source: str
    added_at: int


@dataclass(frozen=True)
class FbrConfig:
    window_length: int = 20
    drain_min_senders: int = 3
    # forward fraction as numerator/denominator: outflow >= 9/10 of inflow
    drain_forward_num: int = 9
    drain_forward_den: int = 10
    young_age_blocks: int = 10
    young_inflow_threshold: int = 10_000
    intercept_score_threshold: int = 70


@dataclass
class _Activity:
    first_seen: int | None = None
    inbound: deque = field(default_factory=deque)  # (height, sender, amount)
    outbound: deque = field(default_factory=deque)  # (height, amount)


class RiskService:
    def __init__(self, config: FbrConfig | None = None):
        self.config = config or FbrConfig()
        self._entries: dict[tuple[Address, str], BlacklistEntry] = {}
        self._activity: dict[Address, _Activity] = {}
        self._last_height = 0

    # -- blacklist ingestion ---------------------------------------------------

    def ingest_blacklist(self, path) -> int:
        """Load `<hex address> <category> <source>` lines; returns new entries."""
        text = Path(path).read_text(encoding="utf-8")
        new = 0
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(number, f"expected 3 fields, got {len(parts)}")
            addr_text, category, source = parts
            if not _ADDRESS_RE.match(addr_text):
                raise ParseError(number, f"malformed address {addr_text!r}")
            if category not in BLACKLIST_CATEGORIES:
                raise ParseError(
                    number,
                    f"unknown category {category!r}; expected one of "
                    + ", ".join(BLACKLIST_CATEGORIES),
                )
            address = Address.from_hex(addr_text)
            if self.add_entry(address, category, source):
                new += 1
        return new

    def add_entry(self, address: Address, category: str, source: str) -> bool:
        """Merge one entry; returns False when it was already present."""
        if category not in BLACKLIST_CATEGORIES:
            raise ValueError(f"unknown blacklist category {category!r}")
        key = (address, category)
        if key in self._entries:
            return False
        self._entries[key] = BlacklistEntry(address, category, source, self._last_height)
        return True

    # -- observations ------------------------------------------------------------

    def advance_to(self, height: int) -> None:
        if height < self._last_height:
            raise OutOfOrderEvent(f"height {height} < last observed {self._last_height}")
        self._last_height = height

    def record_observation(self, event: LedgerEvent) -> None:
        self.advance_to(event.height)
        for side in ("from", "to"):
            addr = event.get(side)
            if isinstance(addr, Address):
                activity = self._activity.setdefault(addr, _Activity())
                if activity.first_seen is None:
                    activity.first_seen = event.height
        if event.kind != "Transfer" or event.get("outcome") != EXECUTED:
            return
        sender, recipient = event.get("from"), event.get("to")
        amount = event.get("amount")
        self._activity[recipient].inbound.append((event.height, sender, amount))
        self._activity[sender].outbound.append((event.height, amount))

    # -- scoring -------------------------------------------------------------------

    def risk_score(self, addr: Address) -> RiskVerdict:
        for category in BLACKLIST_CATEGORIES:
            entry = self._entries.get((addr, category))
            if entry is not None:
                return RiskVerdict(
                    100, category, (f"blacklisted as {category} by {entry.source}",)
                )
        activity = self._activity.get(addr)
        if activity is None:
            return RiskVerdict(0, "Clean", ())

        cfg = self.config
        floor = self._last_height - cfg.window_length + 1
        for ring in (activity.inbound, activity.outbound):
            while ring and ring[0][0] < floor:
                ring.popleft()
        inflow = sum(a for _, _, a in activity.inbound)
        outflow = sum(a for _, a in activity.outbound)
        senders = {s for _, s, _ in activity.inbound}

        score = 0
        reasons = []
        if (
            len(senders) >= cfg.drain_min_senders
            and inflow > 0
            and outflow * cfg.drain_forward_den >= inflow * cfg.drain_forward_num
        ):
            score += 40
            reasons.append(
                f"drain pattern: {len(senders)} senders, forwarded {outflow} of {inflow}"
            )
        age = None if activity.first_seen is None else self._last_height - activity.first_seen
        if age is not None and age < cfg.young_age_blocks and inflow > cfg.young_inflow_threshold:
            score += 20
            reasons.append(f"young address (age {age} blocks) received {inflow}")
        score = min(score, 100)
        category = "Anomaly" if score > 0 else "Clean"
        return RiskVerdict(score, category, tuple(reasons))
