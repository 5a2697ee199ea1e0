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
settings.load_profile("ci")


def register_intent(ledger, qmig_address, submitter_key, incognito, source_address=None):
    """Sign and submit an intent registration from the submitter's wallet."""
    payload = register_intent_call(qmig_address, submitter_key.address, incognito, source_address)
    nonce = ledger.next_nonce(submitter_key.address)
    ledger.submit_transaction(sign_transaction(submitter_key, nonce, 1, payload))
