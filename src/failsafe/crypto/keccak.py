"""Keccak-256, the pre-NIST padding variant used for addresses and digests.

This is not hashlib.sha3_256: the NIST standard changed the padding domain
byte (0x06), while this chain convention keeps the original 0x01 multi-rate
padding. Digests differ between the two for every input.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_RATE_BYTES = 136  # 1088-bit rate, 512-bit capacity

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _keccak_f(lanes: list[int]) -> None:
    # Unrolled over 25 locals: list indexing and per-lane loop overhead
    # triple the permutation cost in CPython, and every digest in the
    # system funnels through here. Lane a[x + 5y] holds column x, row y;
    # the rho rotation offsets and the pi destination b[y + 5*((2x+3y)%5)]
    # are baked into the straight-line body.
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = lanes
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & _MASK)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & _MASK)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & _MASK)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & _MASK)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & _MASK)
        a0 ^= d0; a5 ^= d0; a10 ^= d0; a15 ^= d0; a20 ^= d0
        a1 ^= d1; a6 ^= d1; a11 ^= d1; a16 ^= d1; a21 ^= d1
        a2 ^= d2; a7 ^= d2; a12 ^= d2; a17 ^= d2; a22 ^= d2
        a3 ^= d3; a8 ^= d3; a13 ^= d3; a18 ^= d3; a23 ^= d3
        a4 ^= d4; a9 ^= d4; a14 ^= d4; a19 ^= d4; a24 ^= d4
        # rho + pi
        b0 = a0
        b10 = ((a1 << 1) | (a1 >> 63)) & _MASK
        b20 = ((a2 << 62) | (a2 >> 2)) & _MASK
        b5 = ((a3 << 28) | (a3 >> 36)) & _MASK
        b15 = ((a4 << 27) | (a4 >> 37)) & _MASK
        b16 = ((a5 << 36) | (a5 >> 28)) & _MASK
        b1 = ((a6 << 44) | (a6 >> 20)) & _MASK
        b11 = ((a7 << 6) | (a7 >> 58)) & _MASK
        b21 = ((a8 << 55) | (a8 >> 9)) & _MASK
        b6 = ((a9 << 20) | (a9 >> 44)) & _MASK
        b7 = ((a10 << 3) | (a10 >> 61)) & _MASK
        b17 = ((a11 << 10) | (a11 >> 54)) & _MASK
        b2 = ((a12 << 43) | (a12 >> 21)) & _MASK
        b12 = ((a13 << 25) | (a13 >> 39)) & _MASK
        b22 = ((a14 << 39) | (a14 >> 25)) & _MASK
        b23 = ((a15 << 41) | (a15 >> 23)) & _MASK
        b8 = ((a16 << 45) | (a16 >> 19)) & _MASK
        b18 = ((a17 << 15) | (a17 >> 49)) & _MASK
        b3 = ((a18 << 21) | (a18 >> 43)) & _MASK
        b13 = ((a19 << 8) | (a19 >> 56)) & _MASK
        b14 = ((a20 << 18) | (a20 >> 46)) & _MASK
        b24 = ((a21 << 2) | (a21 >> 62)) & _MASK
        b9 = ((a22 << 61) | (a22 >> 3)) & _MASK
        b19 = ((a23 << 56) | (a23 >> 8)) & _MASK
        b4 = ((a24 << 14) | (a24 >> 50)) & _MASK
        # chi
        a0 = b0 ^ (b2 & ~b1)
        a1 = b1 ^ (b3 & ~b2)
        a2 = b2 ^ (b4 & ~b3)
        a3 = b3 ^ (b0 & ~b4)
        a4 = b4 ^ (b1 & ~b0)
        a5 = b5 ^ (b7 & ~b6)
        a6 = b6 ^ (b8 & ~b7)
        a7 = b7 ^ (b9 & ~b8)
        a8 = b8 ^ (b5 & ~b9)
        a9 = b9 ^ (b6 & ~b5)
        a10 = b10 ^ (b12 & ~b11)
        a11 = b11 ^ (b13 & ~b12)
        a12 = b12 ^ (b14 & ~b13)
        a13 = b13 ^ (b10 & ~b14)
        a14 = b14 ^ (b11 & ~b10)
        a15 = b15 ^ (b17 & ~b16)
        a16 = b16 ^ (b18 & ~b17)
        a17 = b17 ^ (b19 & ~b18)
        a18 = b18 ^ (b15 & ~b19)
        a19 = b19 ^ (b16 & ~b15)
        a20 = b20 ^ (b22 & ~b21)
        a21 = b21 ^ (b23 & ~b22)
        a22 = b22 ^ (b24 & ~b23)
        a23 = b23 ^ (b20 & ~b24)
        a24 = b24 ^ (b21 & ~b20)
        # iota
        a0 ^= rc
    lanes[:] = (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
                a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of data."""
    pad_len = _RATE_BYTES - (len(data) % _RATE_BYTES)
    if pad_len == 1:
        padded = data + b"\x81"
    else:
        padded = data + b"\x01" + b"\x00" * (pad_len - 2) + b"\x80"

    lanes = [0] * 25
    for start in range(0, len(padded), _RATE_BYTES):
        block = padded[start : start + _RATE_BYTES]
        for i in range(17):
            lanes[i] ^= int.from_bytes(block[8 * i : 8 * i + 8], "little")
        _keccak_f(lanes)

    return b"".join(lanes[i].to_bytes(8, "little") for i in range(4))


# Lane a[x + 5y] is rotated by _RHO[x + 5y] and moved to b[_PI[x + 5y]]; the
# same offsets and destinations that _keccak_f bakes into its body.
_RHO = (0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39,
        41, 45, 15, 21, 8, 18, 2, 61, 56, 14)
_PI = tuple(y + 5 * ((2 * x + 3 * y) % 5) for y in range(5) for x in range(5))


def keccak256_batch(messages) -> list[bytes]:
    """Return [keccak256(m) for m in messages] for messages of at most 135 bytes.

    Every message fits one rate block, so all of them go through a single
    permutation run: lane i of message j sits in 64-bit slot j of one int
    (SIMD within a register), and theta, chi and iota act on every slot at
    once. A rotation shifts the whole int, then masks keep the bits that
    stayed in their slot and bring back the ones that crossed into the next.
    Fewer than 3 messages go through the scalar loop, which is faster there.
    """
    if any(len(data) >= _RATE_BYTES for data in messages):
        raise ValueError(f"batched message must be under {_RATE_BYTES} bytes")
    n = len(messages)
    if n < 3:
        return [keccak256(data) for data in messages]
    padded = bytearray()
    for data in messages:
        block = bytearray(_RATE_BYTES)
        block[: len(data)] = data
        block[len(data)] ^= 0x01
        block[-1] ^= 0x80  # both in one byte (0x81) when the pad is one byte
        padded += block
    words = memoryview(padded).cast("Q")
    a = [int.from_bytes(words[i::17].tobytes(), "little") for i in range(17)] + [0] * 8

    ones = int.from_bytes((b"\x01" + bytes(7)) * n, "little")
    full = _MASK * ones
    low = {r: ((1 << r) - 1) * ones for r in _RHO if r}  # bits [0, r) of each slot
    high = {r: full ^ m for r, m in low.items()}  # bits [r, 64) of each slot

    def rotl(v: int, r: int) -> int:
        return ((v << r) & high[r]) | ((v >> (64 - r)) & low[r])

    for rc in _ROUND_CONSTANTS:
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[x - 1] ^ rotl(c[(x + 1) % 5], 1) for x in range(5)]
        b = [0] * 25
        for i, r in enumerate(_RHO):
            v = a[i] ^ d[i % 5]
            b[_PI[i]] = rotl(v, r) if r else v
        a = [b[i] ^ (b[i - i % 5 + (i + 2) % 5] & ~b[i - i % 5 + (i + 1) % 5]) for i in range(25)]
        a[0] ^= rc * ones

    out = memoryview(bytearray(32 * n)).cast("Q")
    for i in range(4):
        out[i::4] = memoryview(a[i].to_bytes(8 * n, "little")).cast("Q")
    raw = out.tobytes()
    return [raw[32 * j : 32 * j + 32] for j in range(n)]
