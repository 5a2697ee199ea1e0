"""Independent reference implementations used as test oracles.

Everything in this file is deliberately structured differently from the
package code so that agreement between the two routes is meaningful
evidence. The Keccak oracle works on a 5x5x64 bit array and derives its
round constants and rotation offsets at runtime from the FIPS 202
definitions; the package implementation is lane-oriented with frozen
tables. The Lamport oracle hashes one preimage at a time, each a batch
of one through keccak256, where the package hashes a whole signature's
256 preimages in one batch. The secp256k1 oracle multiplies points by textbook
affine double-and-add with one modular inverse per step; the package
accumulates window tables in Jacobian coordinates. The ledger oracles
replay raw block/transaction outcomes or the event log and never read the
package's transfer index; the block-order oracle is the copy-and-rescan
selection loop the ledger used before it built blocks in place. The
rebalance oracle judges the balancer's band in exact rationals, where the
package cross-multiplies integers.
"""

from __future__ import annotations

from fractions import Fraction

from failsafe.crypto.keccak import keccak256
from failsafe.crypto.secp256k1 import GX, GY

_W = 64  # lane width in bits for Keccak-f[1600]
_RATE_BYTES = 136  # 1088-bit rate for 512-bit capacity (Keccak-256)


def _rc_bit(t: int) -> int:
    """FIPS 202 Algorithm 5: LFSR over GF(2) with x^8 + x^6 + x^5 + x^4 + 1."""
    if t % 255 == 0:
        return 1
    r = [1, 0, 0, 0, 0, 0, 0, 0]
    for _ in range(t % 255):
        r = [0] + r
        r[0] ^= r[8]
        r[4] ^= r[8]
        r[5] ^= r[8]
        r[6] ^= r[8]
        r = r[:8]
    return r[0]


def _round_constant_lane(round_index: int) -> list[int]:
    lane = [0] * _W
    for j in range(7):  # l = 6, so bits 2^j - 1 for j in 0..6
        lane[(1 << j) - 1] = _rc_bit(j + 7 * round_index)
    return lane


_ROUND_CONSTANT_LANES = [_round_constant_lane(i) for i in range(24)]


def _rho_offsets() -> dict[tuple[int, int], int]:
    offsets = {(0, 0): 0}
    x, y = 1, 0
    for t in range(24):
        offsets[(x, y)] = ((t + 1) * (t + 2) // 2) % _W
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


_RHO = _rho_offsets()


def _keccak_f(a: list[list[list[int]]]) -> list[list[list[int]]]:
    """One Keccak-f[1600] permutation over a [x][y][z] bit array."""
    for rnd in range(24):
        # theta
        c = [
            [a[x][0][z] ^ a[x][1][z] ^ a[x][2][z] ^ a[x][3][z] ^ a[x][4][z] for z in range(_W)]
            for x in range(5)
        ]
        d = [
            [c[(x - 1) % 5][z] ^ c[(x + 1) % 5][(z - 1) % _W] for z in range(_W)]
            for x in range(5)
        ]
        a = [[[a[x][y][z] ^ d[x][z] for z in range(_W)] for y in range(5)] for x in range(5)]
        # rho
        a = [
            [[a[x][y][(z - _RHO[(x, y)]) % _W] for z in range(_W)] for y in range(5)]
            for x in range(5)
        ]
        # pi: A'[x, y] = A[(x + 3y) mod 5, x]
        a = [[a[(x + 3 * y) % 5][x] for y in range(5)] for x in range(5)]
        # chi
        a = [
            [
                [a[x][y][z] ^ ((a[(x + 1) % 5][y][z] ^ 1) & a[(x + 2) % 5][y][z]) for z in range(_W)]
                for y in range(5)
            ]
            for x in range(5)
        ]
        # iota
        rc = _ROUND_CONSTANT_LANES[rnd]
        a[0][0] = [a[0][0][z] ^ rc[z] for z in range(_W)]
    return a


def reference_keccak256(data: bytes) -> bytes:
    """Keccak-256 with the pre-NIST 0x01 multi-rate padding, bit by bit."""
    padded = bytearray(data)
    pad_len = _RATE_BYTES - (len(padded) % _RATE_BYTES)
    if pad_len == 1:
        padded += b"\x81"
    else:
        padded += b"\x01" + b"\x00" * (pad_len - 2) + b"\x80"

    state = [[[0] * _W for _ in range(5)] for _ in range(5)]
    for start in range(0, len(padded), _RATE_BYTES):
        block = padded[start : start + _RATE_BYTES]
        for i in range(_RATE_BYTES * 8):
            lane_index = i // _W
            x, y = lane_index % 5, lane_index // 5
            state[x][y][i % _W] ^= (block[i // 8] >> (i % 8)) & 1
        state = _keccak_f(state)

    out = bytearray(32)
    for i in range(32 * 8):
        lane_index = i // _W
        x, y = lane_index % 5, lane_index // 5
        out[i // 8] |= state[x][y][i % _W] << (i % 8)
    return bytes(out)


def reference_pq_verify(public_hashes, digest: bytes, preimages) -> bool:
    """Lamport verification one preimage at a time, each hashed alone by keccak256.

    Walks the digest byte by byte and each byte's bits from the top, and
    stops at the first preimage that does not hash to its committed image.
    """
    if len(digest) != 32 or len(preimages) != 256:
        return False
    for byte_index, byte in enumerate(digest):
        for shift in range(7, -1, -1):
            i = 8 * byte_index + 7 - shift
            preimage = preimages[i]
            if len(preimage) != 32 or keccak256(preimage) != public_hashes[i][(byte >> shift) & 1]:
                return False
    return True


_SECP_P = 2**256 - 2**32 - 977  # the secp256k1 field prime, in its SEC 2 form


def reference_point_add(a, b):
    """Affine sum on y^2 = x^3 + 7; None is the point at infinity."""
    if a is None:
        return b
    if b is None:
        return a
    (x1, y1), (x2, y2) = a, b
    if x1 == x2 and (y1 + y2) % _SECP_P == 0:
        return None
    if a == b:
        slope = 3 * x1 * x1 * pow(2 * y1, -1, _SECP_P) % _SECP_P
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, _SECP_P) % _SECP_P
    x3 = (slope * slope - x1 - x2) % _SECP_P
    return (x3, (slope * (x1 - x3) - y1) % _SECP_P)


def reference_point_mul(k: int, point=(GX, GY)):
    """k * point by right-to-left double-and-add over affine points."""
    result = None
    while k:
        if k & 1:
            result = reference_point_add(result, point)
        point = reference_point_add(point, point)
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# Ledger replay oracles
#
# These reconstruct balances and withdrawal totals from raw materials (the
# genesis allocation list plus either committed block/transaction outcomes
# or the event log), without reading the package's transfer index or
# calling its query methods.


def reference_block_order(public, private, nonces):
    """Block order and carried-over pools, by the ledger's former selection loop.

    public and private are the pools' (seq, transaction) entries in pool
    order, and nonces maps senders to account nonces. The loop copies both
    pools into one candidate list and rescans it for every pick, dropping
    stale entries as it goes; each pick consumes its sender's nonce, as an
    executed or reverted transaction does. Returns the picked transactions
    and the (seq, transaction) entries left in each pool.
    """
    nonces = dict(nonces)
    candidates = [(seq, tx, False) for seq, tx in public] + [(seq, tx, True) for seq, tx in private]
    order = []
    while True:
        best = None
        remaining = []
        for entry in candidates:
            seq, tx, _ = entry
            account_nonce = nonces.get(tx.sender, 0)
            if tx.nonce < account_nonce:
                continue
            remaining.append(entry)
            if tx.nonce == account_nonce and (
                best is None or (tx.gas_price, -seq) > (best[1].gas_price, -best[0])
            ):
                best = entry
        candidates = remaining
        if best is None:
            break
        candidates.remove(best)
        order.append(best[1])
        nonces[best[1].sender] = best[1].nonce + 1
    carried = {flag: [(seq, tx) for seq, tx, is_private in candidates if is_private == flag]
               for flag in (False, True)}
    return order, carried[False], carried[True]


def _apply_tx_to_balances(balances: dict, tx, token_kinds: dict) -> None:
    """Mutate a {(addr, token): amount} map with one executed transaction.

    Only understands plain value-moving payloads; histories containing
    contract calls must use the event replay instead.
    """
    p = tx.payload
    name = type(p).__name__
    if name == "NativeTransfer":
        balances[(tx.sender, "native")] = balances.get((tx.sender, "native"), 0) - p.amount
        balances[(p.to, "native")] = balances.get((p.to, "native"), 0) + p.amount
    elif name == "TokenTransfer":
        balances[(tx.sender, p.token)] = balances.get((tx.sender, p.token), 0) - p.amount
        balances[(p.to, p.token)] = balances.get((p.to, p.token), 0) + p.amount
    elif name == "TokenTransferFrom":
        balances[(p.owner, p.token)] = balances.get((p.owner, p.token), 0) - p.amount
        balances[(p.to, p.token)] = balances.get((p.to, p.token), 0) + p.amount
    elif name in ("Approve", "NftTransfer"):
        pass  # no fungible balance effect
    else:
        raise AssertionError(f"block replay oracle cannot interpret {name}")


def replay_balance_from_blocks(genesis, blocks, addr, token, height) -> int:
    """Balance of addr in token as of the end of `height`, from scratch."""
    balances: dict = {}
    for g_addr, g_token, g_amount in genesis:
        balances[(g_addr, g_token)] = balances.get((g_addr, g_token), 0) + g_amount
    for block in blocks:
        if 0 < block.height <= height:
            for tx, outcome in block.txs:
                if outcome == "Executed":
                    _apply_tx_to_balances(balances, tx, {})
    return balances.get((addr, token), 0)


def replay_withdrawals_from_blocks(blocks, addr, token, height) -> int:
    """Total moved out of addr in token in blocks strictly after `height`."""
    total = 0
    for block in blocks:
        if block.height > height:
            for tx, outcome in block.txs:
                if outcome != "Executed":
                    continue
                p = tx.payload
                name = type(p).__name__
                if name == "NativeTransfer" and token == "native" and tx.sender == addr:
                    total += p.amount
                elif name == "TokenTransfer" and p.token == token and tx.sender == addr:
                    total += p.amount
                elif name == "TokenTransferFrom" and p.token == token and p.owner == addr:
                    total += p.amount
    return total


def replay_balance_from_events(events, addr, token, height=None) -> int:
    """Balance reconstructed from the event log alone.

    Counts Genesis credits plus executed Transfer and BridgeLock moves;
    handles contract-driven moves too, since those emit Transfer events.
    """
    balance = 0
    for ev in events:
        if height is not None and ev.height > height:
            continue
        if ev.get("token") != token:
            continue
        if ev.kind == "Genesis":
            if ev.get("to") == addr:
                balance += ev.get("amount")
        elif ev.kind in ("Transfer", "BridgeLock") and ev.get("outcome") == "Executed":
            if ev.get("from") == addr:
                balance -= ev.get("amount")
            if ev.get("to") == addr:
                balance += ev.get("amount")
    return balance


def replay_withdrawals_from_events(events, addr, token, height) -> int:
    """Executed Transfer outflows strictly after `height` (bridge locks excluded)."""
    return sum(
        ev.get("amount")
        for ev in events
        if ev.height > height
        and ev.kind == "Transfer"
        and ev.get("outcome") == "Executed"
        and ev.get("token") == token
        and ev.get("from") == addr
    )


def replay_permitted_amount(
    events, source, token, inflection, authorized_pairs, already_bridged=0
) -> int:
    """Post-inflection bridgeable total, recomputed from the event log.

    `authorized_pairs` is the set of (sender, recipient) routes proven by
    pre-inflection intents; the oracle checks the accounting arithmetic,
    not the registry logic that produces the set.
    """
    base = replay_balance_from_events(events, source, token, inflection)
    base -= replay_withdrawals_from_events(events, source, token, inflection)
    base = max(0, base)
    inflows = sum(
        ev.get("amount")
        for ev in events
        if ev.height > inflection
        and ev.kind == "Transfer"
        and ev.get("outcome") == "Executed"
        and ev.get("token") == token
        and ev.get("to") == source
        and (ev.get("from"), source) in authorized_pairs
    )
    current = replay_balance_from_events(events, source, token)
    return min(base + inflows, current + already_bridged)


def reference_rebalance_delta(hot: int, cold: int, target: Fraction, tolerance: Fraction):
    """The balancer's move for one wallet in rational arithmetic: None inside the
    band |hot/total - target| <= tolerance, else hot less target*total rounded
    half up (None when that is zero)."""
    total = hot + cold
    if total == 0:
        return None
    if abs(Fraction(hot, total) - target) <= tolerance:
        return None
    x = target * total
    rounded = int(x + Fraction(1, 2)) if x >= 0 else -int(-x + Fraction(1, 2))
    return hot - rounded or None
