import hashlib
import random
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import failsafe.ledger as ledger_module
from failsafe.crypto import PqKeyPair, keccak256
from failsafe.crypto import secp256k1
from failsafe.crypto.secp256k1 import (
    _AFFINE_CUT,
    Address,
    KeyPair,
    N,
    P,
    RecoverableSignature,
    RecoveryError,
    _add_affine,
    _double_multiply,
    _g_table,
    _mult_g,
    _rfc6979_nonces,
    derive_address,
    recover_signer,
    sign,
    sign_batch,
)
from failsafe.ledger import NativeTransfer, Transaction, compute_tx_digest, sign_transaction
from failsafe.scenario import CUSTODIAN_ROLES, Scenario, ScenarioRunner
from oracles import reference_point_add, reference_point_mul

# deterministic-nonce test vector for secp256k1 with SHA-256, private key 1,
# message "Satoshi Nakamoto"; appears in public ECDSA library test suites
SATOSHI_DIGEST = hashlib.sha256(b"Satoshi Nakamoto").digest()
EXPECTED_K = 0x8F8A276C19F4149656B280621E358CCE24F5F52542772691EE69063B74F15D15
EXPECTED_R = 0x934B1EA10A4B3C1757E2B0C017D0B6143CE3C9A7E6A4A49860D7A6AB210EE3D8
EXPECTED_S = 0x2442CE9D2B916064108014783E923EC36B49743E2FFA1C4496F01A512AAFD9E5


def test_deterministic_nonce_vector():
    assert next(iter(_rfc6979_nonces(1, SATOSHI_DIGEST))) == EXPECTED_K


def test_signature_component_vector():
    sig = sign(KeyPair.from_private(1), SATOSHI_DIGEST)
    assert (sig.r, sig.s) == (EXPECTED_R, EXPECTED_S)


def test_known_address_for_private_key_one():
    key = KeyPair.from_private(1)
    assert str(key.address) == "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"


def test_address_is_keccak_of_public_key():
    key = KeyPair.from_private(0xDEADBEEF)
    assert key.address == Address(keccak256(key.public_bytes)[12:])
    assert derive_address(key.public_bytes) == key.address


def test_address_is_derived_once_and_keys_stay_comparable():
    key = KeyPair.from_private(0xC0FFEE)
    assert key.address == derive_address(key.public_bytes)
    assert key.address is key.address
    twin = KeyPair.from_private(0xC0FFEE)  # address not read yet
    assert key == twin
    assert hash(key) == hash(twin)


def test_signature_roundtrip_bytes():
    sig = sign(KeyPair.from_private(7), bytes(32))
    raw = sig.to_bytes()
    assert len(raw) == 65
    assert RecoverableSignature.from_bytes(raw) == sig
    with pytest.raises(ValueError):
        RecoverableSignature.from_bytes(raw[:64])


def test_signing_is_deterministic():
    key = KeyPair.from_private(123456789)
    digest = keccak256(b"same message")
    assert sign(key, digest).to_bytes() == sign(key, digest).to_bytes()


def test_recovery_of_wrong_digest_mismatches():
    key = KeyPair.from_private(42)
    sig = sign(key, keccak256(b"real"))
    forged = keccak256(b"forged")
    recovered = recover_signer(forged, sig)  # the signer hint is for another digest
    assert recovered != key.address
    assert recovered == recover_signer(forged, RecoverableSignature.from_bytes(sig.to_bytes()))


def test_invalid_signature_components_rejected():
    with pytest.raises(RecoveryError):
        recover_signer(bytes(32), RecoverableSignature(0, 1, 0))
    with pytest.raises(RecoveryError):
        recover_signer(bytes(32), RecoverableSignature(1, N, 0))


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=N - 1), st.binary(min_size=32, max_size=32))
def test_sign_recover_roundtrip(private, digest):
    key = KeyPair.from_private(private)
    sig = sign(key, digest)
    assert sig.s <= N // 2  # canonical low-s form
    assert sig.v in (0, 1)
    assert sig._signer == (digest, key.address)
    parsed = RecoverableSignature.from_bytes(sig.to_bytes())
    assert parsed._signer is None  # so its recovery takes the full path
    assert recover_signer(digest, sig) == recover_signer(digest, parsed) == key.address


def test_generated_keys_are_seed_deterministic():
    a = KeyPair.generate(random.Random(99))
    b = KeyPair.generate(random.Random(99))
    c = KeyPair.generate(random.Random(100))
    assert a.address == b.address
    assert a.address != c.address


scalars = st.integers(min_value=1, max_value=N - 1)


# every signed 7-bit digit is 65, read as -63 and a carry: the carry runs
# through the 36 full rows into the top one
ALL_65 = sum(65 * 128**w for w in range(36))


@settings(max_examples=20)
@given(scalars)
@example(1)
@example(2)
@example(15)
@example(16)
@example(17)
@example(16**63)
@example(15 * 16**63)
@example(64)  # the largest positive digit
@example(65)  # the smallest digit read as negative
@example(127)  # digit -1 and a carry
@example(128)
@example(129)
@example(2**255)
@example(ALL_65)
@example(N - 2)
@example(N - 1)
def test_fixed_base_multiply_matches_oracle(k):
    assert _mult_g([k]) == [reference_point_mul(k)]


# the examples above as one batch, exactly the size that takes the affine path
FIXED_BASE_EXAMPLES = [1, 2, 15, 16, 17, 16**63, 15 * 16**63, 64, 65, 127, 128, 129, 2**255,
                       ALL_65, N - 2, N - 1]


# the profile's example count: 30 in tier-1, 1000 under the fuzz profile in CI
@given(st.lists(scalars, min_size=_AFFINE_CUT, max_size=40))
@example(FIXED_BASE_EXAMPLES)
@example([*FIXED_BASE_EXAMPLES, 0, N])  # no digit at all; a top row that cancels the rest
def test_batched_fixed_base_multiply_matches_oracle(ks):
    assert len(ks) >= _AFFINE_CUT == len(FIXED_BASE_EXAMPLES)
    assert _mult_g(ks) == [reference_point_mul(k) for k in ks]


def test_affine_sums_double_equal_points_and_cancel_opposite_ones():
    p, q = reference_point_mul(5), reference_point_mul(9)
    minus_p = (p[0], P - p[1])
    lefts = [p, p, p, None, p, None, q]
    rights = [p, minus_p, q, q, None, None, q]
    assert _add_affine(lefts, rights) == [reference_point_add(a, b) for a, b in zip(lefts, rights)]
    assert _add_affine([p], [p]) == [reference_point_mul(10)]  # one slope, alone
    assert _add_affine([p, None], [minus_p, None]) == [None, None]  # no slope to invert
    assert _add_affine([], []) == []


@pytest.mark.parametrize("row", [0, 1, 36])
@pytest.mark.parametrize("digit", [1, 2, 63, 64])
def test_fixed_base_table_entries_match_oracle(row, digit):
    assert _g_table()[row][digit] == reference_point_mul(digit * 128**row % N)


def test_batched_keys_match_one_at_a_time_generation():
    rng = random.Random(5)
    scalars = [rng.randrange(1, N) for _ in range(6)]
    one_by_one = random.Random(5)
    expected = [KeyPair.generate(one_by_one) for _ in range(6)]
    assert KeyPair.from_privates(scalars) == expected
    assert _mult_g([*scalars, 0]) == [key.public for key in expected] + [None]


def test_world_keys_match_one_at_a_time_generation():
    policy = {"hot_fraction_target": 1, "hot_fraction_tolerance": 0,
              "max_value_per_window": 100, "window_length": 10}
    runner = ScenarioRunner(Scenario.from_dict({
        "seed": 8,
        "tokens": [{"id": "gold"}],
        "actors": {"alice": {}, "bob": {"pq": True}, "carol": {}},
        "qmig_admin": "bob",
        "failsafe": [
            {"owner": "alice", "signers": ["role:intercept", "role:guardian"],
             "enrollments": [{"wallet": "alice", "policy": policy, "tokens": ["gold"],
                              "dest": "zed@dest"}]},
            {"owner": "carol", "signers": ["role:intercept", "role:guardian"]},
        ],
    }))
    # the order the world drew its keys in when each was made on its own
    rng = random.Random(8)
    alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
    bob_pq = PqKeyPair.generate(rng)
    carol = KeyPair.generate(rng)
    roles = [KeyPair.generate(rng) for _ in CUSTODIAN_ROLES]
    qmig, alice_vault = KeyPair.generate(rng), KeyPair.generate(rng)
    zed_pq = PqKeyPair.generate(rng)  # alice's enrollment resolves zed@dest
    carol_vault = KeyPair.generate(rng)

    assert runner.actor_keys == {"alice": alice, "bob": bob, "carol": carol}
    assert runner.actor_pq_keys["bob"].public == bob_pq.public
    assert [runner.custodian.key_for(role) for role in CUSTODIAN_ROLES] == roles
    assert runner.qmig.address == qmig.address
    assert runner.vaults["alice"].key == alice_vault
    assert runner.dest_keys["zed"].public == zed_pq.public
    assert runner.vaults["carol"].key == carol_vault
    world = [*runner.actor_keys.values(), *map(runner.custodian.key_for, CUSTODIAN_ROLES),
             *(vault.key for vault in runner.vaults.values())]
    assert all(vars(key)["address"] == derive_address(key.public_bytes) for key in world)


def test_a_signature_batch_matches_one_at_a_time_signing(monkeypatch):
    rng = random.Random(11)
    keys = KeyPair.from_privates([rng.randrange(1, N) for _ in range(_AFFINE_CUT + 1)])
    digests = [rng.randbytes(32) for _ in keys]
    # the last pair's first nonce is k, and its digest is z = -r * d: s = 0, so it draws again
    k = 0xC0FFEE
    r = reference_point_mul(k)[0]
    digests[-1] = (-r * keys[-1].private % N).to_bytes(32, "big")
    draws = []

    def nonces(private, digest, real=_rfc6979_nonces):
        if digest == digests[-1]:
            draws.append(k)
            yield k
        yield from real(private, digest)

    monkeypatch.setattr(secp256k1, "_rfc6979_nonces", nonces)
    batch = sign_batch(keys, digests)
    assert draws == [k]
    one_by_one = [sign(key, digest) for key, digest in zip(keys, digests)]
    assert draws == [k, k]
    assert [sig.to_bytes() for sig in batch] == [sig.to_bytes() for sig in one_by_one]
    assert batch[-1].r != r  # the retry's signature, made with the next nonce
    for sig, key, digest in zip(batch, keys, digests):
        assert sig._signer == (digest, key.address)
        parsed = RecoverableSignature.from_bytes(sig.to_bytes())
        assert recover_signer(digest, parsed) == key.address
    with pytest.raises(ValueError):  # a key with no digest signs nothing
        sign_batch(keys, digests[:-1])


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=N - 1), scalars, scalars)
@example(0, 5, 1)
@example(3, 3, 1)  # q = G: u1's windows add the point the accumulator holds
@example(3, 3, N - 1)  # q = -G: they add its negation, and the sum cancels
@example(7, 2, N - 1)
def test_double_multiply_matches_oracle(u1, u2, q_scalar):
    q = reference_point_mul(q_scalar)
    expected = reference_point_add(reference_point_mul(u1), reference_point_mul(u2, q))
    assert _double_multiply(u1, u2, q) == expected


@settings(max_examples=10)
@given(scalars, st.binary(min_size=32, max_size=32))
def test_recovery_from_bytes_matches_oracle_address(private, digest):
    x, y = reference_point_mul(private)
    sig = sign(KeyPair.from_private(private), digest)
    recovered = recover_signer(digest, RecoverableSignature.from_bytes(sig.to_bytes()))
    assert recovered == derive_address(x.to_bytes(32, "big") + y.to_bytes(32, "big"))


# -- the signer hint that `sign` leaves on its signatures ---------------------------


def test_rebuilt_signatures_carry_no_hint():
    key = KeyPair.from_private(42)
    digest = keccak256(b"message")
    sig = sign(key, digest)
    assert replace(sig)._signer is None
    assert RecoverableSignature.from_bytes(sig.to_bytes())._signer is None
    assert RecoverableSignature(sig.r, sig.s, sig.v)._signer is None
    tampered = replace(sig, s=sig.s - 1)
    assert tampered._signer is None
    assert recover_signer(digest, tampered) != key.address


@pytest.mark.parametrize(
    "name, value",
    [("s", lambda sig: N - sig.s), ("s", lambda sig: 0), ("r", lambda sig: N), ("v", lambda sig: 2)],
    ids=["high-s", "zero-s", "r-of-n", "v-of-2"],
)
def test_hint_does_not_skip_the_signature_checks(name, value):
    digest = keccak256(b"message")
    sig = sign(KeyPair.from_private(42), digest)
    object.__setattr__(sig, name, value(sig))
    assert sig._signer is not None
    with pytest.raises(RecoveryError):
        recover_signer(digest, sig)


def test_hint_and_serial_digest_leave_equality_hash_and_repr_alone():
    sig = sign(KeyPair.from_private(42), keccak256(b"message"))
    parsed = RecoverableSignature.from_bytes(sig.to_bytes())
    assert sig.serial_digest == keccak256(sig.to_bytes())
    assert sig.serial_digest is sig.serial_digest  # hashed once
    assert sig == parsed  # parsed has neither hint nor cached digest
    assert hash(sig) == hash(parsed)
    assert repr(sig) == repr(parsed) == f"RecoverableSignature(r={sig.r}, s={sig.s}, v={sig.v})"


def test_batched_keys_carry_their_addresses():
    rng = random.Random(21)
    keys = KeyPair.from_privates([rng.randrange(1, N) for _ in range(5)])
    cached = [vars(key)["address"] for key in keys]
    assert cached == [derive_address(key.public_bytes) for key in keys]
    assert all(type(address) is Address for address in cached)
    # a key pair built any other way derives its address when first read
    assert KeyPair(keys[0].private, keys[0].public).address == cached[0]


# -- signatures that `sign_transaction` makes when first read ------------------------


@pytest.fixture
def made(monkeypatch):
    """The arguments of each digest the ledger hashes and each signature it makes from now on."""
    calls = {"compute_tx_digest": [], "sign": []}
    for name in calls:
        def counted(*args, original=getattr(ledger_module, name), name=name):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(ledger_module, name, counted)
    return calls


PAYMENT = NativeTransfer(Address(bytes(range(20))), 5)
OTHER = Transaction(Address(bytes(20)), 3, 7, PAYMENT, RecoverableSignature(1, 1, 0))


@pytest.mark.parametrize(
    "read",
    [lambda tx: tx.signature, lambda tx: tx.signature.r, lambda tx: tx.signature.s,
     lambda tx: tx.signature.v, lambda tx: tx.signature.to_bytes(),
     lambda tx: tx.signature.serial_digest, lambda tx: tx.signature._signer,
     lambda tx: tx.tx_id, lambda tx: tx.tx_id_hex, repr, hash, lambda tx: tx == OTHER,
     lambda tx: replace(tx)],
    ids=["signature", "r", "s", "v", "to_bytes", "serial_digest", "hint", "tx_id", "tx_id_hex",
         "repr", "hash", "eq", "replace"],
)
def test_a_deferred_signature_is_made_on_first_read_and_equals_the_eager_one(read, made):
    key = KeyPair.from_private(42)
    tx = sign_transaction(key, 3, 7, PAYMENT)
    assert made == {"compute_tx_digest": [], "sign": []}  # nothing computed yet
    read(tx)
    digest = compute_tx_digest(key.address, 3, 7, PAYMENT)
    assert made == {"compute_tx_digest": [(key.address, 3, 7, PAYMENT)], "sign": [(key, digest)]}
    eager = sign(key, digest)
    assert tx.signature.to_bytes() == eager.to_bytes()
    assert tx.signature._signer == eager._signer == (digest, key.address)
    assert tx.digest == digest
    assert tx.tx_id == keccak256(b"FS-TXID" + digest + eager.to_bytes())
    assert len(made["compute_tx_digest"]) == len(made["sign"]) == 1  # each made once
    by_hand = Transaction(key.address, 3, 7, PAYMENT, eager)
    assert tx == by_hand and hash(tx) == hash(by_hand) and repr(tx) == repr(by_hand)


def test_reading_the_digest_signs_nothing(made):
    tx = sign_transaction(KeyPair.from_private(42), 3, 7, PAYMENT)
    assert tx.digest is tx.digest  # hashed once
    assert len(made["compute_tx_digest"]) == 1
    assert made["sign"] == [] and "signature" not in vars(tx)


def test_a_deferred_signature_is_recovered_like_an_eager_one():
    key = KeyPair.from_private(42)
    tx = sign_transaction(key, 3, 7, PAYMENT)
    forged = keccak256(b"forged")
    recovered = recover_signer(forged, tx.signature)  # the hint is for another digest
    assert recovered != key.address
    parsed = RecoverableSignature.from_bytes(tx.signature.to_bytes())
    assert recovered == recover_signer(forged, parsed)
    assert recover_signer(tx.digest, tx.signature) == key.address
    assert replace(tx.signature)._signer is None  # rebuilt: no hint
    # the key is no field, so a rebuilt transaction and asdict() leave it out
    assert "_key" in vars(tx) and "_key" not in vars(replace(tx))
    assert "_key" not in {f.name for f in fields(Transaction)} and "_key" not in asdict(tx)
