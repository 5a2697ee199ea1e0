"""Recoverable ECDSA over secp256k1 with deterministic RFC 6979 nonces.

Pure Python on purpose: the simulation needs deterministic, dependency-free
signing, and signature recovery (which standard library bindings do not
expose). All point arithmetic goes through one routine, `_accumulate`, which
adds affine points to a Jacobian accumulator. Signing and key generation feed
it a fixed-base table of signed 7-bit windows for the generator (digits in
[-63, 64], so 37 additions and no doublings per multiply; cf. libsecp256k1's
`ecmult_gen`). Recovery doubles and adds over the recovered point, then feeds
the same accumulator the generator's windows. Key generation makes many key
pairs with one shared inversion and their addresses with one Keccak batch.

A signature made by `sign` remembers its digest and signer, so recovering it
over that digest skips the point arithmetic; parsed, hand-built or rebuilt
signatures carry no such hint and always take the full recovery. RFC 6979
makes a signature a pure function of (key, digest), so a caller may sign
whenever it first needs the signature and get the same bytes.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from .keccak import keccak256, keccak256_batch

P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_HALF_N = N // 2
_INFINITY = (0, 0, 0)  # Jacobian point at infinity (Z = 0)


class RecoveryError(Exception):
    """Signature is non-canonical or does not recover to a valid point."""


class Address(bytes):
    """A 20-byte account identifier, shown as 0x-prefixed hex."""

    def __new__(cls, value: bytes) -> "Address":
        if len(value) != 20:
            raise ValueError(f"address must be 20 bytes, got {len(value)}")
        return super().__new__(cls, value)

    def __str__(self) -> str:
        return "0x" + self.hex()

    def __repr__(self) -> str:
        return f"Address({self})"

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        text = text.lower()
        if text.startswith("0x"):
            text = text[2:]
        return cls(bytes.fromhex(text))


# ---------------------------------------------------------------------------
# Point arithmetic (Jacobian accumulator, affine addends, a = 0)

def _accumulate(acc: tuple[int, int, int], points, doublings: int) -> tuple[int, int, int]:
    """Double acc `doublings` times before each affine point, then add it (None adds nothing)."""
    # The module's only doubling and addition formulas, inlined: recovery runs
    # this loop ~290 times per call. secp256k1 has odd prime order, so no
    # finite point has y = 0 and the doubling needs no degenerate-case check.
    x, y, z = acc
    repeat = range(doublings)
    for pt in points:
        if z:
            for _ in repeat:
                ysq = y * y % P
                s4 = 4 * x * ysq % P
                m = 3 * x * x % P
                nx = (m * m - 2 * s4) % P
                z = 2 * y * z % P
                y = (m * (s4 - nx) - 8 * ysq * ysq) % P
                x = nx
        if pt is None:
            continue
        if not z:
            (x, y), z = pt, 1
            continue
        px, py = pt
        zz = z * z % P
        u = px * zz % P
        s = py * zz * z % P
        if u == x:  # pt = acc doubles it; pt = -acc cancels to infinity
            x, y, z = _accumulate((x, y, z), (None,), 1) if s == y else _INFINITY
            continue
        h = (u - x) % P
        r = (s - y) % P
        h2 = h * h % P
        h3 = h * h2 % P
        xh2 = x * h2 % P
        nx = (r * r - h3 - 2 * xh2) % P
        y = (r * (xh2 - nx) - y * h3) % P
        x = nx
        z = z * h % P
    return (x, y, z)


def _normalize(points: list[tuple[int, int, int]]) -> list[tuple[int, int] | None]:
    """Affine forms of Jacobian points with one shared inversion; None for infinity."""
    zs = [z for _, _, z in points if z]
    prefix = [1]
    for z in zs:
        prefix.append(prefix[-1] * z % P)
    inv = pow(prefix[-1], -1, P)  # 1 / (product of every finite z)
    out: list[tuple[int, int] | None] = [None] * len(points)
    i = len(zs)
    for idx in range(len(points) - 1, -1, -1):
        x, y, z = points[idx]
        if z:
            i -= 1
            zi = prefix[i] * inv % P
            inv = inv * z % P
            zi2 = zi * zi % P
            out[idx] = (x * zi2 % P, y * zi2 % P * zi % P)
    return out


_ROWS = 37  # 7-bit digits: 37 * 7 = 259 bits hold a 256-bit scalar and its last carry
_G_TABLE: list[list[tuple[int, int] | None]] | None = None


def _g_table() -> list[list[tuple[int, int] | None]]:
    """Signed 7-bit fixed-base windows: table[w][d] = d * 128^w * G in affine
    for d = 0..64, None for d = 0; a digit -d reads table[w][d] negated."""
    global _G_TABLE
    if _G_TABLE is None:
        table = []
        base = (GX, GY)
        for _ in range(_ROWS):
            row = [(*base, 1)]  # Jacobian d * base for d = 1..64, then 128 * base
            for d in (*range(2, 65), 128):
                # an even multiple doubles its half (row[d // 2 - 1]): a
                # doubling costs two thirds of an addition
                row.append(_accumulate(row[d // 2 - 1], (None,), 1) if d % 2 == 0
                           else _accumulate(row[-1], (base,), 0))
            *multiples, base = _normalize(row)  # 1..64 * base, then 128 * base
            table.append([None, *multiples])
        _G_TABLE = table
    return _G_TABLE


def _signed_windows(k: int):
    """The table entries whose sum is k * G: k in signed 7-bit digits, low first."""
    carry = 0
    for row in _g_table():
        d = (k & 127) + carry
        k >>= 7
        if d > 64:  # digit d - 128 in [-63, 0]: add -(128 - d) * 128^w * G, carry 1
            pt = row[128 - d]
            yield None if pt is None else (pt[0], P - pt[1])
            carry = 1
        else:
            yield row[d]
            carry = 0


def _mult_g(scalars: list[int]) -> list[tuple[int, int] | None]:
    """k * G in affine for each k below 2^256 (None for infinity), with one shared inversion."""
    return _normalize([_accumulate(_INFINITY, _signed_windows(k), 0) for k in scalars])


def _double_multiply(u1: int, u2: int, q: tuple[int, int]) -> tuple[int, int] | None:
    """u1 * G + u2 * q in affine (None for infinity): double-and-add, then u1's signing windows."""
    bits = (q if u2 >> b & 1 else None for b in range(u2.bit_length() - 1, -1, -1))
    return _normalize([_accumulate(_accumulate(_INFINITY, bits, 1), _signed_windows(u1), 0)])[0]


# ---------------------------------------------------------------------------
# Keys and addresses

def derive_address(public: bytes) -> Address:
    """Last 20 bytes of keccak256 over the uncompressed 64-byte public key."""
    if len(public) != 64:
        raise ValueError("public key must be the 64-byte uncompressed form")
    return Address(keccak256(public)[12:])


@dataclass(frozen=True)
class KeyPair:
    """A secp256k1 private scalar with its public point."""

    private: int
    public: tuple[int, int]

    @classmethod
    def from_privates(cls, privates: list[int]) -> list["KeyPair"]:
        """One key pair per private scalar: one shared inversion, one Keccak batch of addresses."""
        for private in privates:
            if not 1 <= private < N:
                raise ValueError("private scalar out of range [1, n-1]")
        keys = [cls(private, public) for private, public in zip(privates, _mult_g(privates))]
        for key, digest in zip(keys, keccak256_batch([key.public_bytes for key in keys])):
            vars(key)["address"] = Address(digest[12:])
        return keys

    @classmethod
    def from_private(cls, private: int) -> "KeyPair":
        return cls.from_privates([private])[0]

    @classmethod
    def generate(cls, rng) -> "KeyPair":
        return cls.from_private(rng.randrange(1, N))

    @property
    def public_bytes(self) -> bytes:
        return self.public[0].to_bytes(32, "big") + self.public[1].to_bytes(32, "big")

    @cached_property
    def address(self) -> Address:
        return derive_address(self.public_bytes)


@dataclass(frozen=True)
class RecoverableSignature:
    """Canonical low-s ECDSA signature with recovery id, serialized r||s||v.

    `_signer` is (digest, address) for a signature that `sign` made and None
    for one parsed, built by hand or rebuilt by `replace`; recovery is a pure
    function of (digest, r, s, v), so over that digest it must return that
    address.
    """

    r: int
    s: int
    v: int
    _signer: tuple[bytes, Address] | None = field(default=None, init=False, repr=False,
                                                  compare=False)

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @cached_property
    def serial_digest(self) -> bytes:
        """keccak256 of the 65 bytes of to_bytes(), hashed once per object."""
        return keccak256(self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RecoverableSignature":
        if len(raw) != 65:
            raise ValueError(f"signature must be 65 bytes, got {len(raw)}")
        return cls(
            int.from_bytes(raw[:32], "big"),
            int.from_bytes(raw[32:64], "big"),
            raw[64],
        )


# ---------------------------------------------------------------------------
# RFC 6979 deterministic nonces (HMAC-SHA256, qlen = hlen = 256)

def _hmac_sha256(key: bytes, msg: bytes) -> bytes:
    return hmac.new(key, msg, hashlib.sha256).digest()


def _rfc6979_nonces(private: int, digest: bytes):
    x = private.to_bytes(32, "big")
    h = (int.from_bytes(digest, "big") % N).to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = _hmac_sha256(k, v + b"\x00" + x + h)
    v = _hmac_sha256(k, v)
    k = _hmac_sha256(k, v + b"\x01" + x + h)
    v = _hmac_sha256(k, v)
    while True:
        v = _hmac_sha256(k, v)
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            yield candidate
        k = _hmac_sha256(k, v + b"\x00")
        v = _hmac_sha256(k, v)


# ---------------------------------------------------------------------------
# Sign / recover

def sign(key: KeyPair, digest: bytes) -> RecoverableSignature:
    """Deterministically sign a 32-byte digest; always low-s, v in {0, 1}."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    z = int.from_bytes(digest, "big") % N
    for k in _rfc6979_nonces(key.private, digest):
        (point,) = _mult_g([k])
        assert point is not None
        xr, yr = point
        if xr >= N:  # would need a recovery id outside {0, 1}; draw again
            continue
        r = xr
        if r == 0:
            continue
        s = pow(k, -1, N) * (z + r * key.private) % N
        if s == 0:
            continue
        v = yr & 1
        if s > _HALF_N:
            s = N - s
            v ^= 1
        sig = RecoverableSignature(r, s, v)
        vars(sig)["_signer"] = (bytes(digest), key.address)
        return sig
    raise AssertionError("unreachable: nonce stream is infinite")


def recover_signer(digest: bytes, sig: RecoverableSignature) -> Address:
    """Return the unique address whose key produced sig over digest."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    if not 1 <= sig.r < N or not 1 <= sig.s < N:
        raise RecoveryError("r or s out of range")
    if sig.s > _HALF_N:
        raise RecoveryError("non-canonical high-s signature")
    if sig.v not in (0, 1):
        raise RecoveryError(f"recovery id must be 0 or 1, got {sig.v}")
    hint = sig._signer
    if hint is not None and hint[0] == digest:
        return hint[1]
    x = sig.r
    y_sq = (pow(x, 3, P) + 7) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if y * y % P != y_sq:
        raise RecoveryError("r is not the x coordinate of a curve point")
    if (y & 1) != sig.v:
        y = P - y
    z = int.from_bytes(digest, "big") % N
    r_inv = pow(sig.r, -1, N)
    u1 = -z * r_inv % N
    u2 = sig.s * r_inv % N
    q = _double_multiply(u1, u2, (x, y))
    if q is None:
        raise RecoveryError("recovered point at infinity")
    return derive_address(q[0].to_bytes(32, "big") + q[1].to_bytes(32, "big"))
