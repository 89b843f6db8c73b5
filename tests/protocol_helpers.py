"""Two-party test harness shared by the protocol tests."""

from mpcadapter.runtime import run_two_party
from mpcadapter.sharing import party_dealer


def run_protocol(fn, seed=0, timeout=30.0):
    """Run fn(party_id, channel, dealer) for both parties concurrently.

    Returns (out0, out1, (meter0, meter1)).  Both parties get replica
    dealers built from the same seed.
    """
    def make(pid):
        def proto(channel):
            return fn(pid, channel, party_dealer(seed, pid))
        return proto

    return run_two_party(make(0), make(1), timeout=timeout)
