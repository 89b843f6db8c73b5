"""Two-party test harness shared by the protocol tests."""

import numpy as np

from mpcadapter.ring import RING_BITS
from mpcadapter.runtime import run_two_party
from mpcadapter.sharing import TripleDealer, bit_to_arith, share_arith


def share_bin(x, rng) -> tuple:
    """XOR-share u64 words: party 0's words, the ones ``share_arith`` draws,
    then party 1's."""
    s0, _ = share_arith(x, rng)
    return s0, np.asarray(x, np.uint64) ^ s0


def b2a_full(words, dealer, channel) -> np.ndarray:
    """Binary -> arithmetic shares over all 64 bits, batched into one
    ``bit_to_arith`` round."""
    shifts = np.arange(RING_BITS, dtype=np.uint64).reshape(
        (RING_BITS,) + (1,) * np.ndim(words))
    planes = (words >> shifts) & np.uint64(1)
    bit_shares = bit_to_arith(planes, dealer, channel)
    return np.asarray(np.sum(bit_shares << shifts, axis=0, dtype=np.uint64))


def run_protocol(fn, seed=0, timeout=30.0):
    """Run fn(party_id, channel, dealer) for both parties concurrently.

    Returns (out0, out1, (meter0, meter1)).  Both parties get their views
    of one replica dealer, built from the same seed.
    """
    def make(pid):
        def proto(channel):
            return fn(pid, channel, TripleDealer(seed, pid))
        return proto

    return run_two_party(make(0), make(1), timeout=timeout)
