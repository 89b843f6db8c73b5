"""Two-party secret sharing and the protocol suite on top of it.

Both share kinds are plain u64 word arrays: arithmetic shares are
additive mod 2^64, binary shares XOR-share each bit; every protocol
returns arrays, 0-d for a 0-d share (numpy turns a ufunc's 0-d result into
a scalar, whose arithmetic warns on the wrap mod 2^64).  Every protocol
takes its operands, this party's dealer view and its channel, and draws
the Beaver triples or input pairs that its operands' shapes call for; no
other module draws from the dealer.  The dealer is not yet a third party:
each party builds its own view of it from a seed both parties know, so
either party can regenerate every triple and unmask the peer's openings.
The engine is therefore not yet private against its peer.  The views
split the dealer's work the way a trusted third party would: party 0's
view only expands randomness, and party 1's view draws the same stream
and computes the corrections.

The Beaver opening, the product of two privately known inputs and the
dealer's split are each written once, over both share rings: a ring is
a ``(mask, add)`` pair of numpy ufuncs (``ARITH``: subtract/add mod 2^64,
``BINARY``: XOR/XOR), and the product (elementwise, matrix or AND) is
passed alongside it.

Round contracts (per call, enforced by tests):
  mul / matmul / AND        1
  a2b                       7   (1 share distribution + 6 adder levels)
  bit_to_arith              1
  ltz                       8
  truncate_share            0   (local probabilistic truncation)
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .ring import DEFAULT_CONFIG, RING_BITS
from .runtime import Channel


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
    """Full-range u64 words: the PCG64 stream's raw outputs, the same words
    ``rng.integers(0, 2**64, dtype=np.uint64)`` draws, at less cost per call."""
    return rng.bit_generator.random_raw(shape)


def _draw(rng, *shapes):
    """Consecutive words of the stream, one array per shape, split from one
    draw: the words and stream state of one ``_rand_words`` call per shape."""
    sizes = [math.prod(s) for s in shapes]
    words = _rand_words(rng, sum(sizes))
    ends = itertools.accumulate(sizes)
    return [words[end - n:end].reshape(s) for s, n, end in zip(shapes, sizes, ends)]


# A share ring as (mask, add): masking x with a gives the word a party opens,
# and add recombines shares.  The product is passed separately.
ARITH = (np.subtract, np.add)
BINARY = (np.bitwise_xor, np.bitwise_xor)


class TripleDealer:
    """One party's view of the replica dealer, deterministic in its seed.

    Both views walk one PCG64 stream: a, b, then party 0's words a0, b0, c0
    for a triple (party 1 gets a - a0, b - b0, a*b - c0), or a, b, c0 for
    an input pair (party 0 gets a, c0; party 1 gets b, a*b - c0), with XOR
    and AND in the binary ring.  Party 0's view skips the words it does not
    need and never computes the product.  Words a view takes back to back
    come from one draw.  Each method checks shapes before drawing and
    returns a pair indexed by party id, ``None`` in the other slot; the
    protocols below draw from the view and index their own slot.
    """

    def __init__(self, seed: int, party_id: int):
        self.party_id = party_id
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def _skip(self, *shapes):
        # Each word is one raw 64-bit output of the stream.
        self._rng.bit_generator.advance(sum(math.prod(s) for s in shapes))

    def _triple(self, shape_a, shape_b, shape_c, product, ring):
        rng = self._rng
        if self.party_id == 0:
            self._skip(shape_a, shape_b)
            a0, b0, c0 = _draw(rng, shape_a, shape_b, shape_c)
            return TripleShare(a0, b0, c0), None
        mask = ring[0]
        a, b, a0, b0, c0 = _draw(rng, shape_a, shape_b, shape_a, shape_b, shape_c)
        return None, TripleShare(mask(a, a0), mask(b, b0), mask(product(a, b), c0))

    def _input_pair(self, shape, product, ring):
        rng = self._rng
        if self.party_id == 0:
            a = _rand_words(rng, shape)
            self._skip(shape)
            return InputPairShare(a, _rand_words(rng, shape)), None
        a, b, c0 = _draw(rng, shape, shape, shape)
        return None, InputPairShare(b, ring[0](product(a, b), c0))

    def arith_triple(self, shape_x, shape_y=None):
        shape_y = shape_x if shape_y is None else shape_y
        return self._triple(shape_x, shape_y, np.broadcast_shapes(shape_x, shape_y),
                            np.multiply, ARITH)

    def matmul_triple(self, shape_a, shape_b):
        return self._triple(shape_a, shape_b, kernels.matmul_shape(shape_a, shape_b),
                            kernels.matmul_u64, ARITH)

    def bin_triple(self, shape):
        return self._triple(shape, shape, shape, np.bitwise_and, BINARY)

    def arith_input_pair(self, shape):
        return self._input_pair(shape, np.multiply, ARITH)

    def bin_input_pair(self, shape):
        return self._input_pair(shape, np.bitwise_and, BINARY)


# ---------------------------------------------------------------------------
# sharing

def share_arith(x: np.ndarray, rng) -> tuple:
    """Additively share u64 words: party 0's words, then party 1's."""
    s0 = _rand_words(rng, np.shape(x))
    return s0, np.asarray(x, np.uint64) - s0


# ---------------------------------------------------------------------------
# multiplication

def _beaver_many(pairs, draw, channel: Channel, label, product, ring):
    """Beaver products of raw share words, one round for the whole batch.

    ``draw(x, y)`` draws the dealer's triple for operands x and y, a pair
    indexed by party id; every pair's is drawn, in order, before the round.
    Each party opens e = x - a and d = y - b (XOR in the binary ring); then
    z = c + e*b + a*d, plus e*d on party 0.  Party 0 folds its two
    e-products into e*(b + d), which is exact: the product distributes over
    addition mod 2^64, and AND over XOR.
    """
    mask, add = ring
    triples = [draw(x, y)[channel.party_id] for x, y in pairs]
    msgs = []
    for (x, y), t in zip(pairs, triples):
        msgs += [mask(x, t.a), mask(y, t.b)]
    opened = channel.exchange(label, msgs)
    out = []
    for i, t in enumerate(triples):
        e = add(msgs[2 * i], opened[2 * i])
        d = add(msgs[2 * i + 1], opened[2 * i + 1])
        b = add(t.b, d) if channel.party_id == 0 else t.b
        out.append(np.asarray(add(add(t.c, product(e, b)), product(t.a, d))))
    return out


def _known_product(own, pair: InputPairShare, channel: Channel, label,
                   product, ring):
    """Shares of own_0 * own_1 where each party knows its own factor in full.

    Each party opens its factor masked by ``pair.known``, in one round.
    With m_i = own_i - known_i, own_0*own_1 = c + own_0*m_1 + m_0*known_1,
    so party 0 adds own_0*m_1 and party 1 adds m_0*known_1.  Returns this
    party's share and the peer's masked factor.
    """
    mask, add = ring
    masked = mask(own, pair.known)
    (peer,) = channel.exchange(label, [masked])
    cross = product(own, peer) if channel.party_id == 0 else product(peer, pair.known)
    return np.asarray(add(pair.c, cross)), peer


def mul_beaver_many(pairs, dealer: TripleDealer, channel: Channel,
                    label: str = "beaver-open"):
    """Batch of elementwise share*share products in one round.

    Results are raw ring products (scale 2^2f for two fixed-point inputs);
    callers truncate.
    """
    return _beaver_many(pairs, lambda x, y: dealer.arith_triple(x.shape, y.shape),
                        channel, label, np.multiply, ARITH)


def matmul_beaver_many(pairs, dealer: TripleDealer, channel: Channel,
                       label: str = "beaver-open"):
    """Batch of share x share matrix products in one round (raw scale)."""
    return _beaver_many(pairs, lambda x, y: dealer.matmul_triple(x.shape, y.shape),
                        channel, label, kernels.matmul_u64, ARITH)


def truncate_share(x: np.ndarray, party_id: int, extra_bits: int = 0) -> np.ndarray:
    """Local probabilistic truncation from scale 2^2f back to 2^f, shifting
    ``extra_bits`` further (see ``ring.truncate``).

    Party 0 floor-divides its share, party 1 negates/divides/negates; the
    reconstruction is within 1 ulp of the true truncated value except
    with negligible probability under the 2^62 headroom guard.
    """
    f = np.uint64(DEFAULT_CONFIG.frac_bits + extra_bits)
    if party_id == 0:
        return np.asarray(x >> f)
    # np.negative wraps mod 2^64 silently; on a 0-d share `0 - x` would be
    # numpy scalar arithmetic, which warns on that wrap.
    return np.asarray(np.negative(np.negative(x) >> f))


# ---------------------------------------------------------------------------
# binary protocols

def and_beaver_many(pairs, dealer: TripleDealer, channel: Channel,
                    label: str = "beaver-open"):
    """Batch of bitwise ANDs of XOR-shared u64 words in one round."""
    return _beaver_many(pairs, lambda x, y: dealer.bin_triple(x.shape),
                        channel, label, np.bitwise_and, BINARY)


# ---------------------------------------------------------------------------
# conversions

def a2b(x: np.ndarray, dealer: TripleDealer, channel: Channel) -> np.ndarray:
    """Arithmetic -> binary conversion, 7 rounds; returns this party's XOR words.

    Each party XOR-shares its own arithmetic share; because that share is
    known to its owner in the clear, the distribution round doubles as the
    masked opening for the adder's first generate word (dealer-assisted
    product of privately-known inputs).  The two shared summands are then
    added with a Kogge-Stone adder: 6 AND levels for 64 bits.
    """
    pair = dealer.bin_input_pair(x.shape)[channel.party_id]
    # XOR-shares of the summands' generate word g = s0 & s1 and of the
    # propagate word p = s0 ^ s1 (the peer's masked share ^ our mask).
    g, peer = _known_product(x, pair, channel, "a2b-dist",
                             np.bitwise_and, BINARY)
    p = pair.known ^ peer
    carries = kernels.kogge_stone_carries(
        p, g, lambda op_pairs: and_beaver_many(op_pairs, dealer, channel, "a2b-adder"))
    return np.asarray(p ^ (carries << np.uint64(1)))


def bit_to_arith(bits: np.ndarray, dealer: TripleDealer,
                 channel: Channel) -> np.ndarray:
    """Single-bit XOR shares -> additive shares of the same bit, 1 round.

    b = b0 + b1 - 2*b0*b1 where each party knows its own XOR share, so the
    cross product costs one dealer-assisted masked opening.  Result is at
    integer scale.
    """
    if np.any(bits > 1):
        raise ValueError("bit_to_arith expects 0/1-valued shares")
    pair = dealer.arith_input_pair(np.shape(bits))[channel.party_id]
    prod, _ = _known_product(bits, pair, channel, "bit-open", np.multiply, ARITH)
    return np.asarray(np.subtract(bits, np.uint64(2) * prod))


def ltz(x: np.ndarray, dealer: TripleDealer, channel: Channel) -> np.ndarray:
    """Private sign test: 1 iff x < 0, at integer scale.  8 rounds."""
    msb = a2b(x, dealer, channel) >> np.uint64(RING_BITS - 1)
    return bit_to_arith(msb, dealer, channel)
