"""Canonical byte encoding for everything that gets hashed or signed.

The encoding is type-tagged and length-prefixed so that distinct values
can never serialize to the same bytes. Digest stability across runs and
platforms is the only goal; this is not a wire format.
"""

from __future__ import annotations

from .crypto.secp256k1 import RecoverableSignature

_TAG_NONE = b"\x00"
_TAG_INT = b"\x01"
_TAG_STR = b"\x02"
_TAG_BYTES = b"\x03"
_TAG_TUPLE = b"\x04"
_TAG_NEG_INT = b"\x05"

MAX_INT_BITS = 8 * 255  # a magnitude's byte count must fit its one length byte


def _encode_uint(n: int) -> bytes:
    """Length byte followed by the big-endian magnitude (0 -> just b'\\x00')."""
    if n == 0:
        return b"\x00"
    if n.bit_length() > MAX_INT_BITS:
        raise ValueError("integer too large to encode")
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([len(raw)]) + raw


def encode_value(value) -> bytes:
    if value is None:
        return _TAG_NONE
    if isinstance(value, bool):
        return _TAG_INT + _encode_uint(int(value))
    if isinstance(value, int):
        # sign lives in the tag; magnitudes share one injective uint encoding
        if value < 0:
            return _TAG_NEG_INT + _encode_uint(-value)
        return _TAG_INT + _encode_uint(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return _TAG_STR + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        return _TAG_BYTES + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, (tuple, list)):
        body = b"".join(encode_value(item) for item in value)
        return _TAG_TUPLE + len(value).to_bytes(4, "big") + body
    if isinstance(value, RecoverableSignature):  # a multisig blob, encoded as its bytes
        return encode_value(value.to_bytes())
    raise TypeError(f"no canonical encoding for {type(value).__name__}")
