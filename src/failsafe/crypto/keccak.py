"""Keccak-256, the pre-NIST padding variant used for addresses and digests.

This is not hashlib.sha3_256: the NIST standard changed the padding domain
byte (0x06), while this chain convention keeps the original 0x01 multi-rate
padding. Digests differ between the two for every input.
"""

from __future__ import annotations

from functools import cache
from operator import xor

_RATE_BYTES = 136  # 1088-bit rate, 512-bit capacity

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# The rho rotation offsets in increasing order: _keccak_f unpacks their masks
# in this order, after the all-ones mask.
_OFFSETS = (1, 2, 3, 6, 8, 10, 14, 15, 18, 20, 21, 25,
            27, 28, 36, 39, 41, 43, 44, 45, 55, 56, 61, 62)


@cache
def _lane_params(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rotation masks and round constants for n 64-bit slots packed in one int.

    full has every bit of every slot set; chi complements with it, since
    ~x is a negative int and slower to AND with. For each offset r, h_r keeps
    bits [r, 64) of every slot and l_r bits [0, r). A rotation shifts the
    whole int both ways, and the masks keep the bits that stayed in their
    slot and the ones brought back across it. They are kept per n: the same
    sizes recur (one slot for keccak256, 512 and 256 for a Lamport key).
    """
    ones = int.from_bytes((b"\x01" + bytes(7)) * n, "little")
    full = ((1 << 64) - 1) * ones
    masks = [full]
    for r in _OFFSETS:
        low = ((1 << r) - 1) * ones
        masks += (full ^ low, low)
    return tuple(masks), tuple(rc * ones for rc in _ROUND_CONSTANTS)


def _keccak_f(lanes: list[int], masks: tuple[int, ...],
              round_constants: tuple[int, ...]) -> None:
    # Unrolled over 25 locals: list indexing and per-lane loop overhead
    # triple the permutation cost in CPython, and every digest in the
    # system funnels through here. Lane a[x + 5y] holds column x, row y;
    # the rho rotation offsets and the pi destination b[y + 5*((2x+3y)%5)]
    # are baked into the straight-line body. Each lane may hold many 64-bit
    # slots (see _lane_params); theta, chi and iota act on all of them at once.
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = lanes
    (full, h1, l1, h2, l2, h3, l3, h6, l6, h8, l8, h10, l10, h14, l14, h15, l15,
     h18, l18, h20, l20, h21, l21, h25, l25, h27, l27, h28, l28, h36, l36,
     h39, l39, h41, l41, h43, l43, h44, l44, h45, l45, h55, l55, h56, l56,
     h61, l61, h62, l62) = masks
    for rc in round_constants:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) & h1) | ((c1 >> 63) & l1))
        d1 = c0 ^ (((c2 << 1) & h1) | ((c2 >> 63) & l1))
        d2 = c1 ^ (((c3 << 1) & h1) | ((c3 >> 63) & l1))
        d3 = c2 ^ (((c4 << 1) & h1) | ((c4 >> 63) & l1))
        d4 = c3 ^ (((c0 << 1) & h1) | ((c0 >> 63) & l1))
        a0 ^= d0; a5 ^= d0; a10 ^= d0; a15 ^= d0; a20 ^= d0
        a1 ^= d1; a6 ^= d1; a11 ^= d1; a16 ^= d1; a21 ^= d1
        a2 ^= d2; a7 ^= d2; a12 ^= d2; a17 ^= d2; a22 ^= d2
        a3 ^= d3; a8 ^= d3; a13 ^= d3; a18 ^= d3; a23 ^= d3
        a4 ^= d4; a9 ^= d4; a14 ^= d4; a19 ^= d4; a24 ^= d4
        # rho + pi
        b0 = a0
        b10 = ((a1 << 1) & h1) | ((a1 >> 63) & l1)
        b20 = ((a2 << 62) & h62) | ((a2 >> 2) & l62)
        b5 = ((a3 << 28) & h28) | ((a3 >> 36) & l28)
        b15 = ((a4 << 27) & h27) | ((a4 >> 37) & l27)
        b16 = ((a5 << 36) & h36) | ((a5 >> 28) & l36)
        b1 = ((a6 << 44) & h44) | ((a6 >> 20) & l44)
        b11 = ((a7 << 6) & h6) | ((a7 >> 58) & l6)
        b21 = ((a8 << 55) & h55) | ((a8 >> 9) & l55)
        b6 = ((a9 << 20) & h20) | ((a9 >> 44) & l20)
        b7 = ((a10 << 3) & h3) | ((a10 >> 61) & l3)
        b17 = ((a11 << 10) & h10) | ((a11 >> 54) & l10)
        b2 = ((a12 << 43) & h43) | ((a12 >> 21) & l43)
        b12 = ((a13 << 25) & h25) | ((a13 >> 39) & l25)
        b22 = ((a14 << 39) & h39) | ((a14 >> 25) & l39)
        b23 = ((a15 << 41) & h41) | ((a15 >> 23) & l41)
        b8 = ((a16 << 45) & h45) | ((a16 >> 19) & l45)
        b18 = ((a17 << 15) & h15) | ((a17 >> 49) & l15)
        b3 = ((a18 << 21) & h21) | ((a18 >> 43) & l21)
        b13 = ((a19 << 8) & h8) | ((a19 >> 56) & l8)
        b14 = ((a20 << 18) & h18) | ((a20 >> 46) & l18)
        b24 = ((a21 << 2) & h2) | ((a21 >> 62) & l2)
        b9 = ((a22 << 61) & h61) | ((a22 >> 3) & l61)
        b19 = ((a23 << 56) & h56) | ((a23 >> 8) & l56)
        b4 = ((a24 << 14) & h14) | ((a24 >> 50) & l14)
        # chi
        a0 = b0 ^ (b2 & (b1 ^ full))
        a1 = b1 ^ (b3 & (b2 ^ full))
        a2 = b2 ^ (b4 & (b3 ^ full))
        a3 = b3 ^ (b0 & (b4 ^ full))
        a4 = b4 ^ (b1 & (b0 ^ full))
        a5 = b5 ^ (b7 & (b6 ^ full))
        a6 = b6 ^ (b8 & (b7 ^ full))
        a7 = b7 ^ (b9 & (b8 ^ full))
        a8 = b8 ^ (b5 & (b9 ^ full))
        a9 = b9 ^ (b6 & (b5 ^ full))
        a10 = b10 ^ (b12 & (b11 ^ full))
        a11 = b11 ^ (b13 & (b12 ^ full))
        a12 = b12 ^ (b14 & (b13 ^ full))
        a13 = b13 ^ (b10 & (b14 ^ full))
        a14 = b14 ^ (b11 & (b10 ^ full))
        a15 = b15 ^ (b17 & (b16 ^ full))
        a16 = b16 ^ (b18 & (b17 ^ full))
        a17 = b17 ^ (b19 & (b18 ^ full))
        a18 = b18 ^ (b15 & (b19 ^ full))
        a19 = b19 ^ (b16 & (b15 ^ full))
        a20 = b20 ^ (b22 & (b21 ^ full))
        a21 = b21 ^ (b23 & (b22 ^ full))
        a22 = b22 ^ (b24 & (b23 ^ full))
        a23 = b23 ^ (b20 & (b24 ^ full))
        a24 = b24 ^ (b21 & (b20 ^ full))
        # iota
        a0 ^= rc
    lanes[:] = (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
                a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of data: the batch of one."""
    return keccak256_batch((data,))[0]


def keccak256_batch(messages) -> list[bytes]:
    """Return [keccak256(m) for m in messages], messages of any length.

    Messages with the same padded block count form a group, and each group
    takes one permutation run per block: lane i of its k-th message sits in
    64-bit slot k of one int (SIMD within a register). Digests come back in
    input order. An empty batch forms no group and so runs no permutation.
    """
    groups: dict[int, list[tuple[int, bytes]]] = {}  # padded blocks -> (index, message)
    for j, data in enumerate(messages):
        groups.setdefault(len(data) // _RATE_BYTES + 1, []).append((j, data))
    digests = [b""] * len(messages)
    for blocks, members in groups.items():
        n = len(members)
        size = blocks * _RATE_BYTES
        padded = bytearray()
        for _, data in members:
            block = bytearray(size)
            block[: len(data)] = data
            block[len(data)] ^= 0x01
            block[-1] ^= 0x80  # both in one byte (0x81) when the pad is one byte
            padded += block
        # word w of every message makes lane w % 17 of block w // 17; with one
        # message, each word is its lane as it stands
        slots = memoryview(padded).cast("Q")
        words = slots.tolist() if n == 1 else [
            int.from_bytes(slots[w :: 17 * blocks].tobytes(), "little") for w in range(17 * blocks)]
        lanes = [0] * 25
        for start in range(0, len(words), 17):
            lanes[:17] = map(xor, lanes[:17], words[start : start + 17])
            _keccak_f(lanes, *_lane_params(n))

        out = memoryview(bytearray(32 * n)).cast("Q")
        for i in range(4):
            out[i::4] = memoryview(lanes[i].to_bytes(8 * n, "little")).cast("Q")
        raw = out.tobytes()
        for k, (j, _) in enumerate(members):
            digests[j] = raw[32 * k : 32 * k + 32]
    return digests
