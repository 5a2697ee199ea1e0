import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failsafe.crypto import keccak, keccak256
from failsafe.crypto.keccak import keccak256_batch
from oracles import reference_keccak256

# frozen from the bit-level reference implementation in oracles.py
EMPTY_DIGEST = "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
ABC_DIGEST = "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
RANGE200_DIGEST = "bfb0aa97863e797943cf7c33bb7e880bb4543f3d2703c0923c6901c2af57b890"


def test_empty_input_digest():
    assert keccak256(b"").hex() == EMPTY_DIGEST


def test_abc_digest():
    assert keccak256(b"abc").hex() == ABC_DIGEST


def test_long_input_digest():
    assert keccak256(bytes(range(200))).hex() == RANGE200_DIGEST


def test_differs_from_nist_sha3():
    # the 0x01 multi-rate padding predates the NIST 0x06 domain byte;
    # the two functions must not collide on any input
    import hashlib

    assert keccak256(b"") != hashlib.sha3_256(b"").digest()
    assert keccak256(b"abc") != hashlib.sha3_256(b"abc").digest()


def test_rate_boundary_lengths_match_reference():
    # exercise the padding branches: one below, at, and above the
    # 136-byte rate, plus the two-block boundary
    for length in (0, 1, 135, 136, 137, 271, 272, 273):
        data = bytes(i % 251 for i in range(length))
        assert keccak256(data) == reference_keccak256(data)


@settings(max_examples=25)
@given(st.binary(min_size=0, max_size=400))
def test_matches_bit_level_reference(data):
    assert keccak256(data) == reference_keccak256(data)


# -- batched hashing ------------------------------------------------------------------


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=600), st.integers(min_value=0, max_value=2**32))
def test_batch_matches_scalar_at_every_size(count, seed):
    rng = random.Random(seed)
    messages = [rng.randbytes(rng.randrange(300)) for _ in range(count)]
    assert keccak256_batch(messages) == [keccak256(m) for m in messages]


def test_batch_covers_every_one_block_length():
    messages = [bytes(i % 251 for i in range(length)) for length in range(136)]
    assert keccak256_batch(messages) == [keccak256(m) for m in messages]
    assert keccak256_batch([]) == []


def test_batch_matches_bit_level_reference():
    messages = [b"", b"abc", bytes(range(32)), bytes(range(134)), bytes(135)]
    assert keccak256_batch(messages) == [reference_keccak256(m) for m in messages]
    assert keccak256_batch([b""])[0].hex() == EMPTY_DIGEST


def test_empty_batch_runs_no_permutation(monkeypatch):
    # every block whose transaction ids are all known asks for an empty batch
    def permute(*args):
        raise AssertionError("permutation run over zero messages")

    monkeypatch.setattr(keccak, "_keccak_f", permute)
    assert keccak256_batch([]) == []


@pytest.mark.parametrize("length", [136, 137, 300])
def test_batch_takes_messages_of_a_full_block(length):
    messages = [b"abc", bytes(length)]
    assert keccak256_batch(messages) == [reference_keccak256(m) for m in messages]


# the empty, one-message, few-message and many-message batches against scalar
# hashing; keccak256 is the batch of one, so count 1 checks it against itself
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 64])
def test_batch_equals_scalar_on_both_sides_of_the_scalar_cut(count):
    messages = [bytes(range(i % 7, i % 7 + (31 * i) % 136)) for i in range(count)]
    assert keccak256_batch(messages) == [keccak256(m) for m in messages]


@pytest.mark.parametrize("count", [1, 2, 3, 4, 64])
def test_batch_takes_a_full_block_at_every_size(count):
    expected = [reference_keccak256(b"abc")] * (count - 1) + [reference_keccak256(bytes(136))]
    assert keccak256_batch([b"abc"] * (count - 1) + [bytes(136)]) == expected


def test_batch_of_mixed_lengths_keeps_input_order():
    # 1, 2, 3 and 121 padded blocks interleaved, with the one-byte pad (135,
    # 271) and the full-block pad (136, 272) at each block boundary
    lengths = [272, 0, 16384, 135, 271, 1, 136, 300, 137, 273, 10, 135]
    messages = [bytes((i + 7 * n) % 251 for i in range(length)) for n, length in enumerate(lengths)]
    expected = [reference_keccak256(m) for m in messages]
    assert keccak256_batch(messages) == expected
    assert [keccak256(m) for m in messages] == expected


@pytest.mark.parametrize(
    "lengths, permutations",
    [([10, 10, 200], 1 + 2), ([10, 200, 10, 200], 1 + 2), ([135, 136, 271, 272], 1 + 2 + 3),
     ([16384], 121)],
    ids=["two-groups", "interleaved", "block-boundaries", "16KiB"],
)
def test_batch_permutes_once_per_block_of_each_length_group(lengths, permutations, monkeypatch):
    messages = [bytes(length) for length in lengths]
    expected = [keccak256(m) for m in messages]
    runs = []
    permute = keccak._keccak_f

    def counted(*args):
        runs.append(args)
        permute(*args)

    monkeypatch.setattr(keccak, "_keccak_f", counted)
    assert keccak256_batch(messages) == expected
    assert len(runs) == permutations
