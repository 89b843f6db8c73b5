"""Two-party secret sharing and the protocol suite on top of it.

Arithmetic shares are additive mod 2^64; binary shares are bitwise XOR
shares packed into u64 words.  Multiplication uses precomputed Beaver
triples from a trusted dealer.  The dealer is deterministic in its seed,
so both parties can hold replica dealers and draw identical triple
streams without communicating (the offline phase is excluded from
metering).

Round contracts (per call, enforced by tests):
  mul / matmul / AND        1
  a2b                       7   (1 share distribution + 6 adder levels)
  bit_to_arith / b2a_full   1
  ltz                       8
  truncate_share            0   (local probabilistic truncation)
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .ring import DEFAULT_CONFIG, RING_BITS, FixedPointConfig, FixedTensor
from .runtime import Channel


class AuditError(RuntimeError):
    """Plain (unmasked) opening attempted while the channel forbids it."""


@dataclass
class ArithShareTensor:
    party_id: int
    data: np.ndarray
    config: FixedPointConfig = DEFAULT_CONFIG

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint64)

    @property
    def shape(self):
        return self.data.shape

    def _check(self, other):
        if self.party_id != other.party_id:
            raise ValueError("shares belong to different parties")
        if self.config != other.config:
            raise ValueError("fixed-point config mismatch")

    def __add__(self, other):
        self._check(other)
        return ArithShareTensor(self.party_id, self.data + other.data, self.config)

    def __sub__(self, other):
        self._check(other)
        return ArithShareTensor(self.party_id, self.data - other.data, self.config)

    def add_public(self, const):
        """[x] + c: the public constant is added by party 0 only."""
        const = np.asarray(const, dtype=np.uint64)
        shape = np.broadcast_shapes(self.data.shape, const.shape)
        data = np.broadcast_to(self.data, shape).copy()
        if self.party_id == 0:
            data = data + const
        return ArithShareTensor(self.party_id, data, self.config)

    def mul_public(self, const):
        """c * [x] in the ring (no rescaling)."""
        return ArithShareTensor(self.party_id, self.data * np.asarray(const, np.uint64),
                                self.config)

    def reshape(self, *shape):
        return ArithShareTensor(self.party_id, self.data.reshape(*shape), self.config)


@dataclass
class BinShareTensor:
    party_id: int
    data: np.ndarray  # u64 words, each bit XOR-shared

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint64)

    @property
    def shape(self):
        return self.data.shape

    def __xor__(self, other):
        if self.party_id != other.party_id:
            raise ValueError("shares belong to different parties")
        return BinShareTensor(self.party_id, self.data ^ other.data)

    def shift_right_logical(self, bits: int):
        return BinShareTensor(self.party_id, self.data >> np.uint64(bits))


@dataclass
class TripleShare:
    """One party's share of a Beaver triple (a, b, c = a*b or a AND b)."""
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass
class InputPairShare:
    """Correlated randomness for a product of two privately-known inputs.

    Party 0 knows the mask ``known`` = a in full, party 1 knows b in full,
    and c = a*b (or a AND b) is secret-shared.
    """
    known: np.ndarray
    c: np.ndarray


def _rand_words(rng, shape):
    return rng.integers(0, 1 << RING_BITS, size=shape, dtype=np.uint64)


class TripleDealer:
    """Trusted dealer with full knowledge of the triples it issues.

    Deterministic: the same seed yields the identical triple stream.  Use
    ``for_party`` to obtain the per-party view handed to protocol code.
    """

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def arith_triple(self, shape_x, shape_y=None):
        shape_y = shape_x if shape_y is None else shape_y
        rng = self._rng
        a = _rand_words(rng, shape_x)
        b = _rand_words(rng, shape_y)
        c = a * b
        a0, b0, c0 = _rand_words(rng, a.shape), _rand_words(rng, b.shape), _rand_words(rng, c.shape)
        return (TripleShare(a0, b0, c0), TripleShare(a - a0, b - b0, c - c0))

    def matmul_triple(self, shape_a, shape_b):
        rng = self._rng
        a = _rand_words(rng, shape_a)
        b = _rand_words(rng, shape_b)
        c = kernels.matmul_u64(a, b)
        a0, b0, c0 = _rand_words(rng, a.shape), _rand_words(rng, b.shape), _rand_words(rng, c.shape)
        return (TripleShare(a0, b0, c0), TripleShare(a - a0, b - b0, c - c0))

    def bin_triple(self, shape):
        rng = self._rng
        a = _rand_words(rng, shape)
        b = _rand_words(rng, shape)
        c = a & b
        a0, b0, c0 = _rand_words(rng, shape), _rand_words(rng, shape), _rand_words(rng, shape)
        return (TripleShare(a0, b0, c0), TripleShare(a ^ a0, b ^ b0, c ^ c0))

    def arith_input_pair(self, shape):
        rng = self._rng
        a = _rand_words(rng, shape)
        b = _rand_words(rng, shape)
        c = a * b
        c0 = _rand_words(rng, shape)
        return (InputPairShare(a, c0), InputPairShare(b, c - c0))

    def bin_input_pair(self, shape):
        rng = self._rng
        a = _rand_words(rng, shape)
        b = _rand_words(rng, shape)
        c = a & b
        c0 = _rand_words(rng, shape)
        return (InputPairShare(a, c0), InputPairShare(b, c ^ c0))

    def for_party(self, party_id: int) -> "PartyDealer":
        return PartyDealer(self, party_id)


class PartyDealer:
    """The view of a dealer held by one party."""

    def __init__(self, dealer: TripleDealer, party_id: int):
        self._dealer = dealer
        self.party_id = party_id

    def arith_triple(self, shape_x, shape_y=None):
        return self._dealer.arith_triple(shape_x, shape_y)[self.party_id]

    def matmul_triple(self, shape_a, shape_b):
        return self._dealer.matmul_triple(shape_a, shape_b)[self.party_id]

    def bin_triple(self, shape):
        return self._dealer.bin_triple(shape)[self.party_id]

    def arith_input_pair(self, shape):
        return self._dealer.arith_input_pair(shape)[self.party_id]

    def bin_input_pair(self, shape):
        return self._dealer.bin_input_pair(shape)[self.party_id]


def party_dealer(seed: int, party_id: int) -> PartyDealer:
    """Replica dealer: both parties construct one from the shared seed."""
    return TripleDealer(seed).for_party(party_id)


# ---------------------------------------------------------------------------
# sharing / reconstruction

def share_arith(x: FixedTensor, rng) -> tuple:
    s0 = _rand_words(rng, x.shape)
    return (ArithShareTensor(0, s0, x.config),
            ArithShareTensor(1, x.data - s0, x.config))


def reconstruct_arith(s0: ArithShareTensor, s1: ArithShareTensor) -> FixedTensor:
    if s0.shape != s1.shape:
        raise ValueError(f"share shape mismatch: {s0.shape} vs {s1.shape}")
    if s0.config != s1.config:
        raise ValueError("fixed-point config mismatch")
    return FixedTensor(s0.data + s1.data, s0.config)


def share_bin(x: np.ndarray, rng) -> tuple:
    s0 = _rand_words(rng, np.shape(x))
    return (BinShareTensor(0, s0), BinShareTensor(1, np.asarray(x, np.uint64) ^ s0))


def reconstruct_bin(s0: BinShareTensor, s1: BinShareTensor) -> np.ndarray:
    return s0.data ^ s1.data


def open_values(share: ArithShareTensor, channel: Channel,
                label: str = "open") -> FixedTensor:
    """Interactive reconstruction: exchange shares, both sides learn x."""
    if channel.forbid_plain_open:
        raise AuditError("plain opening is forbidden on this channel")
    (peer,) = channel.exchange(label, [share.data])
    return FixedTensor(share.data + peer, share.config)


# ---------------------------------------------------------------------------
# multiplication

def mul_beaver_many(pairs, triples, channel: Channel,
                    label: str = "beaver-open"):
    """Batch of elementwise share*share products in one round.

    Results are raw ring products (scale 2^2f for two fixed-point inputs);
    callers truncate.
    """
    eps_deltas = []
    for (x, y), t in zip(pairs, triples):
        if t.a.shape != x.shape or t.b.shape != y.shape:
            raise ValueError(
                f"triple shape {t.a.shape}x{t.b.shape} does not match "
                f"operands {x.shape}x{y.shape}")
        eps_deltas.append(x.data - t.a)
        eps_deltas.append(y.data - t.b)
    opened = channel.exchange(label, eps_deltas)
    out = []
    for i, ((x, y), t) in enumerate(zip(pairs, triples)):
        eps = eps_deltas[2 * i] + opened[2 * i]
        delta = eps_deltas[2 * i + 1] + opened[2 * i + 1]
        z = t.c + eps * t.b + t.a * delta
        if channel.party_id == 0:
            z = z + eps * delta
        out.append(ArithShareTensor(x.party_id, z, x.config))
    return out


def matmul_beaver_many(pairs, triples, channel: Channel,
                       label: str = "beaver-open"):
    """Batch of share x share matrix products in one round (raw scale)."""
    msgs = []
    for (x, y), t in zip(pairs, triples):
        if t.a.shape != x.shape or t.b.shape != y.shape:
            raise ValueError(
                f"matrix triple {t.a.shape}x{t.b.shape} does not match "
                f"operands {x.shape}x{y.shape}")
        msgs.append(x.data - t.a)
        msgs.append(y.data - t.b)
    opened = channel.exchange(label, msgs)
    out = []
    for i, ((x, y), t) in enumerate(zip(pairs, triples)):
        E = msgs[2 * i] + opened[2 * i]
        D = msgs[2 * i + 1] + opened[2 * i + 1]
        z = t.c + kernels.matmul_u64(E, t.b) + kernels.matmul_u64(t.a, D)
        if channel.party_id == 0:
            z = z + kernels.matmul_u64(E, D)
        out.append(ArithShareTensor(x.party_id, z, x.config))
    return out


def truncate_share(x: ArithShareTensor) -> ArithShareTensor:
    """Local probabilistic truncation from scale 2^2f back to 2^f.

    Party 0 floor-divides its share, party 1 negates/divides/negates; the
    reconstruction is within 1 ulp of the true truncated value except
    with negligible probability under the 2^62 headroom guard.
    """
    f = np.uint64(x.config.frac_bits)
    if x.party_id == 0:
        data = x.data >> f
    else:
        data = np.uint64(0) - ((np.uint64(0) - x.data) >> f)
    return ArithShareTensor(x.party_id, data, x.config)


# ---------------------------------------------------------------------------
# binary protocols

def and_beaver_many(pairs, triples, channel: Channel, label: str = "beaver-open"):
    msgs = []
    for (x, y), t in zip(pairs, triples):
        msgs.append(np.asarray(x, np.uint64) ^ t.a)
        msgs.append(np.asarray(y, np.uint64) ^ t.b)
    opened = channel.exchange(label, msgs)
    out = []
    for i, ((x, y), t) in enumerate(zip(pairs, triples)):
        e = msgs[2 * i] ^ opened[2 * i]
        d = msgs[2 * i + 1] ^ opened[2 * i + 1]
        z = t.c ^ (e & t.b) ^ (t.a & d)
        if channel.party_id == 0:
            z = z ^ (e & d)
        out.append(z)
    return out


# ---------------------------------------------------------------------------
# conversions

def a2b(x: ArithShareTensor, dealer: PartyDealer, channel: Channel) -> BinShareTensor:
    """Arithmetic -> binary conversion, 7 rounds.

    Each party XOR-shares its own arithmetic share; because that share is
    known to its owner in the clear, the distribution round doubles as the
    masked opening for the adder's first generate word (dealer-assisted
    product of privately-known inputs).  The two shared summands are then
    added with a Kogge-Stone adder: 6 AND levels for 64 bits.
    """
    pid = channel.party_id
    s_own = x.data
    pair = dealer.bin_input_pair(x.shape)
    masked = s_own ^ pair.known
    (peer_masked,) = channel.exchange("a2b-dist", [masked])
    m0, m1 = (masked, peer_masked) if pid == 0 else (peer_masked, masked)

    # XOR-shares of the two summands s0, s1 and of p = s0 ^ s1.
    if pid == 0:
        p = pair.known ^ m1
        g = pair.c ^ (pair.known & m1) ^ (m0 & m1)
    else:
        p = m0 ^ pair.known
        g = pair.c ^ (m0 & pair.known)

    def and_fn(op_pairs):
        triples = [dealer.bin_triple(x.shape) for _ in op_pairs]
        return and_beaver_many(op_pairs, triples, channel, label="a2b-adder")

    carries = kernels.kogge_stone_carries(p, g, and_fn)
    bits = p ^ (carries << np.uint64(1))
    return BinShareTensor(pid, bits)


def bit_to_arith(b: BinShareTensor, pair: InputPairShare,
                 channel: Channel) -> ArithShareTensor:
    """Single-bit XOR shares -> additive shares of the same bit, 1 round.

    b = b0 + b1 - 2*b0*b1 where each party knows its own XOR share, so the
    cross product costs one dealer-assisted masked opening.  Result is at
    integer scale.
    """
    pid = channel.party_id
    own = b.data
    if np.any(own > 1):
        raise ValueError("bit_to_arith expects 0/1-valued shares")
    masked = own - pair.known
    (peer,) = channel.exchange("bit-open", [masked])
    if pid == 0:
        prod = pair.c + pair.known * peer + masked * peer
    else:
        prod = pair.c + peer * pair.known
    data = own - np.uint64(2) * prod
    return ArithShareTensor(pid, data, DEFAULT_CONFIG)


def b2a_full(x: BinShareTensor, dealer: PartyDealer, channel: Channel,
             config: FixedPointConfig = DEFAULT_CONFIG) -> ArithShareTensor:
    """Binary -> arithmetic over all 64 bits, batched into one round."""
    shape = x.shape
    planes = np.stack([(x.data >> np.uint64(j)) & np.uint64(1)
                       for j in range(RING_BITS)])
    pair = dealer.arith_input_pair(planes.shape)
    bit_shares = bit_to_arith(BinShareTensor(x.party_id, planes), pair, channel)
    weights = (np.uint64(1) << np.arange(RING_BITS, dtype=np.uint64)).reshape(
        (RING_BITS,) + (1,) * len(shape))
    data = np.sum(bit_shares.data * weights, axis=0, dtype=np.uint64) if shape \
        else np.sum(bit_shares.data * weights.ravel(), dtype=np.uint64)
    return ArithShareTensor(x.party_id, np.asarray(data, np.uint64), config)


def ltz(x: ArithShareTensor, dealer: PartyDealer, channel: Channel) -> ArithShareTensor:
    """Private sign test: 1 iff x < 0, at integer scale.  8 rounds."""
    bits = a2b(x, dealer, channel)
    msb = bits.shift_right_logical(RING_BITS - 1)
    pair = dealer.arith_input_pair(x.shape)
    b = bit_to_arith(msb, pair, channel)
    return ArithShareTensor(x.party_id, b.data, x.config)
