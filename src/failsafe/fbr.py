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


# the behavioral heuristics' thresholds, fixed: no input sets them
WINDOW_LENGTH = 20  # blocks of transfers each verdict weighs
DRAIN_MIN_SENDERS = 3
# forward fraction as numerator/denominator: outflow >= 9/10 of inflow
DRAIN_FORWARD_NUM = 9
DRAIN_FORWARD_DEN = 10
YOUNG_AGE_BLOCKS = 10
YOUNG_INFLOW_THRESHOLD = 10_000
# FIS intercepts a counterparty whose verdict scores at least this
INTERCEPT_SCORE_THRESHOLD = 70


@dataclass
class _Activity:
    first_seen: int  # height of the first event naming the address
    inbound: deque = field(default_factory=deque)  # (height, sender, amount)
    outbound: deque = field(default_factory=deque)  # (height, amount)


class RiskService:
    def __init__(self):
        self._sources: dict[tuple[Address, str], str] = {}  # (address, category) -> source
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
        if key in self._sources:
            return False
        self._sources[key] = source
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
            if isinstance(addr, Address) and addr not in self._activity:
                self._activity[addr] = _Activity(event.height)
        if event.kind != "Transfer" or event.get("outcome") != EXECUTED:
            return
        sender, recipient = event.get("from"), event.get("to")
        amount = event.get("amount")
        self._activity[recipient].inbound.append((event.height, sender, amount))
        self._activity[sender].outbound.append((event.height, amount))

    # -- scoring -------------------------------------------------------------------

    def risk_score(self, addr: Address) -> RiskVerdict:
        for category in BLACKLIST_CATEGORIES:
            source = self._sources.get((addr, category))
            if source is not None:
                return RiskVerdict(100, category, (f"blacklisted as {category} by {source}",))
        activity = self._activity.get(addr)
        if activity is None:
            return RiskVerdict(0, "Clean", ())

        floor = self._last_height - WINDOW_LENGTH + 1
        for ring in (activity.inbound, activity.outbound):
            while ring and ring[0][0] < floor:
                ring.popleft()
        inflow = sum(a for _, _, a in activity.inbound)
        outflow = sum(a for _, a in activity.outbound)
        senders = {s for _, s, _ in activity.inbound}

        score = 0
        reasons = []
        if (
            len(senders) >= DRAIN_MIN_SENDERS
            and inflow > 0
            and outflow * DRAIN_FORWARD_DEN >= inflow * DRAIN_FORWARD_NUM
        ):
            score += 40
            reasons.append(
                f"drain pattern: {len(senders)} senders, forwarded {outflow} of {inflow}"
            )
        age = self._last_height - activity.first_seen
        if age < YOUNG_AGE_BLOCKS and inflow > YOUNG_INFLOW_THRESHOLD:
            score += 20
            reasons.append(f"young address (age {age} blocks) received {inflow}")
        score = min(score, 100)
        category = "Anomaly" if score > 0 else "Clean"
        return RiskVerdict(score, category, tuple(reasons))
