"""Risk scoring: blacklist ingestion, drain/young heuristics, event windowing."""

import random

import pytest

from failsafe.crypto import Address, KeyPair
from failsafe.fbr import (
    BLACKLIST_CATEGORIES,
    INTERCEPT_SCORE_THRESHOLD,
    WINDOW_LENGTH,
    OutOfOrderEvent,
    ParseError,
    RiskService,
)
from failsafe.ledger import LedgerEvent

RNG = random.Random(31)
ADDRS = [KeyPair.generate(RNG).address for _ in range(8)]


def transfer(height, frm, to, amount, outcome="Executed"):
    return LedgerEvent(
        height,
        "Transfer",
        {"from": frm, "to": to, "token": "native", "amount": amount, "outcome": outcome},
    )


def feed(service, events):
    for ev in events:
        service.record_observation(ev)


# -- blacklist file ingestion -----------------------------------------------------


def test_ingest_accepts_comments_and_both_hex_forms(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text(
        "# threat intel drop, test fixture\n"
        "\n"
        f"0x{'11' * 20} Sanctioned ofac\n"
        f"{'22' * 20} FraudContract chainwatch  # inline note\n"
        f"0x{'33' * 20} RugPull forum\n"
    )
    service = RiskService()
    assert service.ingest_blacklist(path) == 3
    assert service.risk_score(Address(bytes.fromhex("11" * 20))).category == "Sanctioned"
    assert service.risk_score(Address(bytes.fromhex("22" * 20))).category == "FraudContract"
    assert service.risk_score(Address(bytes.fromhex("33" * 20))).score == 100
    # re-ingesting the same file adds nothing
    assert service.ingest_blacklist(path) == 0


@pytest.mark.parametrize(
    "line, lineno, fragment",
    [
        (f"0x{'11' * 20} Sanctioned", 1, "expected 3 fields"),
        (f"0x{'11' * 19}zz Sanctioned ofac", 1, "malformed address"),
        (f"0x{'11' * 20} Suspicious ofac", 1, "unknown category"),
    ],
)
def test_ingest_reports_line_numbers(tmp_path, line, lineno, fragment):
    path = tmp_path / "bad.txt"
    path.write_text("# header comment\n" + line + "\n", encoding="utf-8")
    service = RiskService()
    with pytest.raises(ParseError) as err:
        service.ingest_blacklist(path)
    assert err.value.line_number == lineno + 1
    assert fragment in str(err.value)


def test_add_entry_rejects_unknown_category():
    service = RiskService()
    with pytest.raises(ValueError):
        service.add_entry(ADDRS[0], "Naughty", "nobody")


def test_category_priority_is_fixed():
    service = RiskService()
    service.add_entry(ADDRS[0], "RugPull", "forum")
    service.add_entry(ADDRS[0], "Sanctioned", "ofac")
    verdict = service.risk_score(ADDRS[0])
    assert verdict.score == 100
    assert verdict.category == "Sanctioned"
    assert BLACKLIST_CATEGORIES[0] == "Sanctioned"


def test_unknown_address_is_clean():
    verdict = RiskService().risk_score(ADDRS[0])
    assert (verdict.score, verdict.category, verdict.reasons) == (0, "Clean", ())


# -- behavioral heuristics ----------------------------------------------------------


def test_drain_pattern_scores_forty():
    service = RiskService()
    sink = ADDRS[0]
    feed(service, [transfer(1, ADDRS[i], sink, 1000) for i in (1, 2, 3)])
    feed(service, [transfer(2, sink, ADDRS[4], 2800)])
    verdict = service.risk_score(sink)
    assert verdict.score == 40
    assert verdict.category == "Anomaly"
    assert any("drain pattern" in r for r in verdict.reasons)


def test_drain_needs_enough_distinct_senders():
    service = RiskService()
    sink = ADDRS[0]
    feed(service, [transfer(1, ADDRS[1], sink, 1000), transfer(1, ADDRS[2], sink, 2000)])
    feed(service, [transfer(2, sink, ADDRS[4], 3000)])
    assert service.risk_score(sink).score == 0


def test_drain_needs_high_forward_fraction():
    service = RiskService()
    sink = ADDRS[0]
    feed(service, [transfer(1, ADDRS[i], sink, 1000) for i in (1, 2, 3)])
    feed(service, [transfer(2, sink, ADDRS[4], 2699)])  # just under 9/10 of 3000
    assert service.risk_score(sink).score == 0
    feed(service, [transfer(3, sink, ADDRS[4], 1)])  # tips the fraction over
    assert service.risk_score(sink).score == 40


def test_young_address_with_heavy_inflow_scores_twenty():
    service = RiskService()
    target = ADDRS[0]
    feed(service, [transfer(5, ADDRS[1], target, 10_001)])
    verdict = service.risk_score(target)
    assert verdict.score == 20
    assert any("young address" in r for r in verdict.reasons)
    # equal-to-threshold inflow does not trip the rule
    other = ADDRS[2]
    feed(service, [transfer(5, ADDRS[1], other, 10_000)])
    assert service.risk_score(other).score == 0


def test_old_address_with_heavy_inflow_is_clean():
    service = RiskService()
    target = ADDRS[0]
    feed(service, [transfer(1, ADDRS[1], target, 1)])
    service.advance_to(15)
    feed(service, [transfer(15, ADDRS[2], target, 50_000)])
    assert service.risk_score(target).score == 0


def test_combined_heuristics_stay_below_intercept_threshold():
    service = RiskService()
    sink = ADDRS[0]
    feed(service, [transfer(1, ADDRS[i], sink, 4000) for i in (1, 2, 3)])
    feed(service, [transfer(2, sink, ADDRS[4], 11_000)])
    verdict = service.risk_score(sink)
    assert verdict.score == 60
    assert len(verdict.reasons) == 2
    assert verdict.score < INTERCEPT_SCORE_THRESHOLD


def test_blacklist_dominates_heuristics():
    service = RiskService()
    sink = ADDRS[0]
    service.add_entry(sink, "FraudContract", "intel")
    feed(service, [transfer(1, ADDRS[i], sink, 4000) for i in (1, 2, 3)])
    verdict = service.risk_score(sink)
    assert (verdict.score, verdict.category) == (100, "FraudContract")


def test_reverted_transfers_never_count():
    service = RiskService()
    sink = ADDRS[0]
    feed(
        service,
        [transfer(1, ADDRS[i], sink, 1000, outcome="Reverted:InsufficientBalance")
         for i in (1, 2, 3)],
    )
    feed(service, [transfer(2, sink, ADDRS[4], 2800, outcome="Reverted:InsufficientBalance")])
    assert service.risk_score(sink).score == 0


# -- windowing and ordering ---------------------------------------------------------


def test_activity_outside_window_is_pruned():
    service = RiskService()
    sink = ADDRS[0]
    feed(service, [transfer(1, ADDRS[i], sink, 1000) for i in (1, 2, 3)])
    feed(service, [transfer(2, sink, ADDRS[4], 2800)])
    service.advance_to(WINDOW_LENGTH)  # the window still holds heights 1 and 2
    assert service.risk_score(sink).score == 40
    service.advance_to(WINDOW_LENGTH + 2)  # window floor moves past both heights
    assert service.risk_score(sink).score == 0


def test_observations_must_not_regress():
    service = RiskService()
    service.advance_to(5)
    service.advance_to(5)
    with pytest.raises(OutOfOrderEvent):
        service.record_observation(transfer(4, ADDRS[0], ADDRS[1], 1))


def test_verdicts_replay_identically():
    def run():
        service = RiskService()
        service.add_entry(ADDRS[5], "RugPull", "forum")
        feed(service, [transfer(1, ADDRS[i], ADDRS[0], 700) for i in (1, 2, 3)])
        feed(service, [transfer(2, ADDRS[0], ADDRS[4], 2100)])
        return [service.risk_score(a) for a in ADDRS]

    assert run() == run()
