"""Recoverable ECDSA over secp256k1 with deterministic RFC 6979 nonces.

Pure Python on purpose: the simulation needs deterministic, dependency-free
signing, and signature recovery (which standard library bindings do not
expose). Point arithmetic uses Jacobian coordinates; signing uses a
precomputed fixed-base window table for the generator.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass
from functools import cached_property

from .keccak import keccak256

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
# Point arithmetic (Jacobian coordinates, a = 0)

def _jac_double(pt: tuple[int, int, int]) -> tuple[int, int, int]:
    x, y, z = pt
    if z == 0 or y == 0:
        return _INFINITY
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def _jac_add(p1: tuple[int, int, int], p2: tuple[int, int, int]) -> tuple[int, int, int]:
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2z2 * z2 % P
    s2 = y2 * z1z1 * z1 % P
    if u1 == u2:
        if s1 != s2:
            return _INFINITY
        return _jac_double(p1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    h2 = h * h % P
    h3 = h * h2 % P
    u1h2 = u1 * h2 % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - s1 * h3) % P
    nz = h * z1 * z2 % P
    return (nx, ny, nz)


def _jac_add_affine(p1: tuple[int, int, int], p2: tuple[int, int]) -> tuple[int, int, int]:
    if p1[2] == 0:
        return (p2[0], p2[1], 1)
    x1, y1, z1 = p1
    x2, y2 = p2
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1z1 * z1 % P
    if u2 == x1:
        if s2 != y1:
            return _INFINITY
        return _jac_double(p1)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    h2 = h * h % P
    h3 = h * h2 % P
    x1h2 = x1 * h2 % P
    nx = (r * r - h3 - 2 * x1h2) % P
    ny = (r * (x1h2 - nx) - y1 * h3) % P
    nz = h * z1 % P
    return (nx, ny, nz)


def _to_affine(pt: tuple[int, int, int]) -> tuple[int, int] | None:
    x, y, z = pt
    if z == 0:
        return None
    zi = pow(z, -1, P)
    zi2 = zi * zi % P
    return (x * zi2 % P, y * zi2 % P * zi % P)


def _batch_inverse(values: list[int]) -> list[int]:
    prefix = [1] * (len(values) + 1)
    for i, v in enumerate(values):
        prefix[i + 1] = prefix[i] * v % P
    acc = pow(prefix[-1], -1, P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * acc % P
        acc = acc * values[i] % P
    return out


_G_TABLE: list[list[tuple[int, int]]] | None = None


def _g_table() -> list[list[tuple[int, int]]]:
    """4-bit fixed-base windows: table[w][d-1] = d * 16^w * G in affine."""
    global _G_TABLE
    if _G_TABLE is None:
        rows: list[list[tuple[int, int, int]]] = []
        base = (GX, GY, 1)
        for _ in range(64):
            row = [base]
            for _ in range(14):
                row.append(_jac_add(row[-1], base))
            rows.append(row)
            nxt = row[0]
            for _ in range(4):
                nxt = _jac_double(nxt)
            base = nxt
        flat = [pt for row in rows for pt in row]
        z_invs = _batch_inverse([pt[2] for pt in flat])
        affine: list[tuple[int, int]] = []
        for pt, zi in zip(flat, z_invs):
            zi2 = zi * zi % P
            affine.append((pt[0] * zi2 % P, pt[1] * zi2 % P * zi % P))
        _G_TABLE = [affine[i * 15 : (i + 1) * 15] for i in range(64)]
    return _G_TABLE


def _mult_g(k: int) -> tuple[int, int, int]:
    table = _g_table()
    acc = _INFINITY
    for w in range(64):
        digit = (k >> (4 * w)) & 0xF
        if digit:
            acc = _jac_add_affine(acc, table[w][digit - 1])
    return acc


def _shamir(u1: int, u2: int, q: tuple[int, int]) -> tuple[int, int, int]:
    """Compute u1*G + u2*q with a shared doubling chain, 2-bit windows."""
    g1 = (GX, GY, 1)
    q1 = (q[0], q[1], 1)
    g_multiples = [_INFINITY, g1, _jac_double(g1)]
    g_multiples.append(_jac_add(g_multiples[2], g1))
    q_multiples = [_INFINITY, q1, _jac_double(q1)]
    q_multiples.append(_jac_add(q_multiples[2], q1))
    combos: list[tuple[int, int, int]] = []
    for i in range(4):
        for j in range(4):
            combos.append(_jac_add(g_multiples[i], q_multiples[j]))
    finite = [(idx, pt) for idx, pt in enumerate(combos) if pt[2] != 0]
    z_invs = _batch_inverse([pt[2] for _, pt in finite])
    affine: list[tuple[int, int] | None] = [None] * 16
    for (idx, pt), zi in zip(finite, z_invs):
        zi2 = zi * zi % P
        affine[idx] = (pt[0] * zi2 % P, pt[1] * zi2 % P * zi % P)

    # Hot path: the loop below runs ~128 times per recovery, so the group
    # arithmetic is inlined. secp256k1 has odd prime order, hence no finite
    # point has y = 0 and the doubling needs no degenerate-case check.
    ax, ay, az = _INFINITY
    top = (max(u1.bit_length(), u2.bit_length()) + 1) // 2
    for limb in range(top - 1, -1, -1):
        if az:
            for _ in (0, 1):
                ysq = ay * ay % P
                s4 = 4 * ax * ysq % P
                m = 3 * ax * ax % P
                nx = (m * m - 2 * s4) % P
                az = 2 * ay * az % P
                ay = (m * (s4 - nx) - 8 * ysq * ysq) % P
                ax = nx
        d1 = (u1 >> (2 * limb)) & 3
        d2 = (u2 >> (2 * limb)) & 3
        if d1 or d2:
            pt = affine[4 * d1 + d2]
            if pt is None:  # the combo itself summed to infinity
                continue
            if az:
                x2, y2 = pt
                z1z1 = az * az % P
                u2x = x2 * z1z1 % P
                s2y = y2 * z1z1 * az % P
                if u2x == ax:
                    if s2y != ay:
                        ax, ay, az = _INFINITY
                    else:
                        ax, ay, az = _jac_double((ax, ay, az))
                else:
                    h = (u2x - ax) % P
                    r = (s2y - ay) % P
                    h2 = h * h % P
                    h3 = h * h2 % P
                    x1h2 = ax * h2 % P
                    nx = (r * r - h3 - 2 * x1h2) % P
                    ay = (r * (x1h2 - nx) - ay * h3) % P
                    ax = nx
                    az = az * h % P
            else:
                ax, ay = pt
                az = 1
    return (ax, ay, az)


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
    def from_private(cls, private: int | bytes) -> "KeyPair":
        if isinstance(private, bytes):
            private = int.from_bytes(private, "big")
        if not 1 <= private < N:
            raise ValueError("private scalar out of range [1, n-1]")
        pub = _to_affine(_mult_g(private))
        assert pub is not None
        return cls(private, pub)

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
    """Canonical low-s ECDSA signature with recovery id, serialized r||s||v."""

    r: int
    s: int
    v: int

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

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
        point = _to_affine(_mult_g(k))
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
        return RecoverableSignature(r, s, v)
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
    q = _to_affine(_shamir(u1, u2, (x, y)))
    if q is None:
        raise RecoveryError("recovered point at infinity")
    public = q[0].to_bytes(32, "big") + q[1].to_bytes(32, "big")
    return derive_address(public)
