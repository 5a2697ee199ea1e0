import functools
import runpy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from failsafe.ledger import sign_transaction
from failsafe.qmig import register_intent_call

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the loader's mutation fuzz test runs this many in CI, apart from tier-1
settings.register_profile("fuzz", parent=settings.get_profile("ci"), max_examples=1000)
settings.load_profile("ci")


def register_intent(ledger, qmig_address, submitter_key, incognito, source_address=None):
    """Sign and submit an intent registration from the submitter's wallet."""
    payload = register_intent_call(qmig_address, submitter_key.address, incognito, source_address)
    nonce = ledger.next_nonce(submitter_key.address)
    ledger.submit_transaction(sign_transaction(submitter_key, nonce, 1, payload))


@pytest.fixture(scope="session")
def generated():
    """generated(name, seed): the text perfbench/generate.py's generator name writes at seed,
    made once per session. The generators are imported read-only; they dump with PyYAML's
    pure-Python dumper, so each text takes about half a second."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"
    generators = runpy.run_path(str(path))["GENERATORS"]
    return functools.cache(lambda name, seed: generators[name](seed))
