import gc
import math
import socket
import struct
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcadapter.runtime import (ABORT_REASON_BYTES, ABORT_TAG, ENVS, FRAME_MAGIC, LAN, WAN, Channel,
                                ChannelError, CommMeter, FrameError,
                                MeterSummary, NetworkEnv,
                                ProtocolMismatchError, TcpEnd,
                                decode_frame_header,
                                in_process_pair, merge_meters, run_two_party,
                                simulate_latency, tcp_channel)


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


# ---------------------------------------------------------------------------
# meters and the latency model

def test_meter_counts():
    m = CommMeter()
    m.record("open", 800)
    m.record("open", 8)
    m.record("linear", 64)
    assert m.rounds == 3
    assert m.bytes_sent == 872
    assert m.breakdown["open"] == [2, 808]
    snap = m.snapshot()
    m.record("relu", 8)
    assert m.since(snap) == (1, 8)


def test_merge_meters():
    a, b = CommMeter(), CommMeter()
    a.record("x", 100)
    a.record("x", 100)
    b.record("x", 50)
    merged = merge_meters(a, b)
    assert merged.rounds == 2
    assert merged.total_bytes == 250


def test_simulate_latency_hand_values():
    assert simulate_latency(MeterSummary(0, 0), WAN) == 0.0
    assert simulate_latency(MeterSummary(29, 0), WAN) == pytest.approx(0.232)
    got = simulate_latency(MeterSummary(29, int(0.06e9)), WAN)
    assert got == pytest.approx(0.232 + 0.06e9 * 8 / 4e8)


def test_simulate_latency_monotone():
    base = simulate_latency(MeterSummary(10, 1000), WAN)
    assert simulate_latency(MeterSummary(11, 1000), WAN) > base
    assert simulate_latency(MeterSummary(10, 2000), WAN) > base
    assert simulate_latency(MeterSummary(10, 1000), LAN) < base


def test_network_env_validation():
    with pytest.raises(ValueError):
        NetworkEnv("bad", 0, 0.1)
    with pytest.raises(ValueError):
        NetworkEnv("bad", 1e9, -1)
    assert ENVS["LAN"].bandwidth_bps == 1e9
    assert ENVS["WAN"].latency_s == 4e-3


# ---------------------------------------------------------------------------
# framing

def test_frame_roundtrip():
    frame = FRAME_MAGIC + struct.pack("<IQ", 7, 7) + b"payload"
    tag, length = decode_frame_header(frame[:16])
    assert tag == 7 and length == 7
    assert frame[16:] == b"payload"


def test_frame_bad_magic():
    frame = b"XXXX" + struct.pack("<IQ", 1, 0)
    with pytest.raises(FrameError):
        decode_frame_header(frame[:16])


def test_frame_short_header():
    with pytest.raises(FrameError):
        decode_frame_header(b"CP01")


# ---------------------------------------------------------------------------
# channels

def test_exchange_is_one_round():
    def proto(ch):
        a = np.arange(10, dtype=np.uint64)
        b = np.arange(4, dtype=np.uint64).reshape(2, 2)
        got = ch.exchange("batch", [a, b])
        assert np.array_equal(got[0], a)
        assert got[1].shape == (2, 2)
        return ch.meter.rounds

    r0, r1, (m0, m1) = run_two_party(proto, proto)
    assert r0 == 1 and r1 == 1
    assert m0.bytes_sent == 14 * 8 == m1.bytes_sent


def test_empty_protocol_meters():
    out0, out1, (m0, m1) = run_two_party(lambda ch: None, lambda ch: None)
    assert (m0.rounds, m0.bytes_sent) == (0, 0)
    assert (m1.rounds, m1.bytes_sent) == (0, 0)


def test_exchange_asymmetric_shapes():
    def p0(ch):
        (got,) = ch.exchange("t", [np.zeros(0, np.uint64)], [(3,)])
        return got

    def p1(ch):
        ch.exchange("t", [np.array([1, 2, 3], np.uint64)], [(0,)])
        return None

    out0, _, _ = run_two_party(p0, p1)
    assert list(out0) == [1, 2, 3]


def test_receive_timeout_is_mismatch_error():
    ch0, _ = in_process_pair(timeout=0.05)
    with pytest.raises(ProtocolMismatchError):
        ch0.end.recv_frame(0.05, 0)


def test_error_propagates_and_aborts_peer():
    def p0(ch):
        raise RuntimeError("boom")

    def p1(ch):
        ch.exchange("t", [np.zeros(1, np.uint64)])

    with pytest.raises(RuntimeError, match="boom"):
        run_two_party(p0, p1, timeout=5)


def test_stuck_party_one_raises():
    release = threading.Event()

    def p0(ch):
        return "done"

    def p1(ch):
        release.wait(timeout=60)

    try:
        with pytest.raises(ProtocolMismatchError, match="party 1"):
            run_two_party(p0, p1, timeout=0.1)
    finally:
        release.set()


# ---------------------------------------------------------------------------
# TCP transport

def _tcp_pair(timeout=10.0, listen_after=0.0):
    """Party 1 connects at once; party 0 listens ``listen_after`` s later."""
    port = _free_port()
    result = {}

    def listen():
        time.sleep(listen_after)
        result[0] = tcp_channel(0, "127.0.0.1", port, timeout)

    t = threading.Thread(target=listen)
    t.start()
    ch1 = tcp_channel(1, "127.0.0.1", port, timeout)
    t.join()
    return result[0], ch1


def _both(ch0, ch1, proto):
    """Run ``proto(ch1)`` in a thread and ``proto(ch0)`` here, at once.
    Returns {party_id: result}; an error on either side is re-raised."""
    out, errors = {}, []

    def run(ch):
        try:
            out[ch.party_id] = proto(ch)
        except Exception as e:  # noqa: BLE001 - re-raised below
            errors.append(e)

    t = threading.Thread(target=run, args=(ch1,))
    t.start()
    run(ch0)
    t.join(timeout=60)
    assert not t.is_alive()
    if errors:
        raise errors[0]
    return out


def _echo(ch0, ch1, payload):
    return _both(ch0, ch1, lambda ch: ch.exchange("echo", [payload])[0])


def test_tcp_echo_1mb(rng):
    ch0, ch1 = _tcp_pair()
    payload = rng.integers(0, 1 << 64, size=1 << 17, dtype=np.uint64)  # 1 MB
    out = _echo(ch0, ch1, payload)
    assert np.array_equal(out[0], payload)
    assert np.array_equal(out[1], payload)
    assert ch0.meter.bytes_sent == payload.nbytes
    ch0.end.close()
    ch1.end.close()


_EXCHANGE_SHAPES = {  # shapes party 0 sends, shapes party 1 sends
    "0-d": ([()], [()]),
    "empty": ([(0,)], [(0,)]),
    "empty-3d": ([(2, 0, 3)], [(2, 0, 3)]),
    "mixed": ([(), (5,), (0,), (2, 3)], [(4,), (2, 0, 3), (3, 1, 2)]),
}


@pytest.mark.parametrize("shapes", _EXCHANGE_SHAPES.values(), ids=_EXCHANGE_SHAPES)
@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_exchange_contract(transport, shapes, rng):
    """Each party receives the peer's words in the shapes it asked for, as
    read-only arrays, and meters 8 bytes per word it sent."""
    sent = [[rng.integers(0, 1 << 64, size=s, dtype=np.uint64) for s in party]
            for party in shapes]
    ch0, ch1 = in_process_pair(5.0) if transport == "in-process" else _tcp_pair()
    try:
        out = _both(ch0, ch1, lambda ch: ch.exchange(
            "t", sent[ch.party_id], shapes[1 - ch.party_id]))
    finally:
        ch0.end.close()
        ch1.end.close()
    for pid, ch in enumerate((ch0, ch1)):
        assert [g.shape for g in out[pid]] == [w.shape for w in sent[1 - pid]]
        for got, want in zip(out[pid], sent[1 - pid]):
            assert np.array_equal(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0
        assert ch.meter.bytes_sent == 8 * sum(math.prod(s) for s in shapes[pid])


@pytest.mark.parametrize("make", [lambda w: np.array(w, np.uint64), np.uint64],
                         ids=["0-d array", "scalar"])
@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_exchange_default_shape_keeps_0d(transport, make):
    """Without recv_shapes, a 0-d array or numpy scalar comes back as a
    read-only 0-d array holding the peer's word."""
    words = [3, (1 << 64) - 4]
    ch0, ch1 = in_process_pair(5.0) if transport == "in-process" else _tcp_pair()
    try:
        out = _both(ch0, ch1, lambda ch: ch.exchange("t", [make(words[ch.party_id])]))
    finally:
        ch0.end.close()
        ch1.end.close()
    for pid in (0, 1):
        (got,) = out[pid]
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.dtype == np.uint64 and int(got) == words[1 - pid]
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0


@pytest.mark.parametrize("mib", [(8, 8), (8, 6)], ids=["symmetric", "asymmetric"])
def test_tcp_round_larger_than_socket_buffers(mib):
    """Both parties send a frame far larger than 64 KiB socket buffers at
    once.  The round completes, and the transport leaves no thread behind."""
    threads = threading.active_count()
    a, b = socket.socketpair()
    for sock in (a, b):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 << 10)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 << 10)
        sock.settimeout(5.0)  # a send that blocks for good fails instead
    ch0, ch1 = Channel(0, TcpEnd(a), 5.0), Channel(1, TcpEnd(b), 5.0)
    sent = [np.arange(n << 17, dtype=np.uint64) + pid for pid, n in enumerate(mib)]
    try:
        out = _both(ch0, ch1, lambda ch: ch.exchange(
            "big", [sent[ch.party_id]], [sent[1 - ch.party_id].shape]))
    finally:
        ch0.end.close()
        ch1.end.close()
    assert np.array_equal(out[0][0], sent[1]) and np.array_equal(out[1][0], sent[0])
    assert threading.active_count() == threads


def test_tcp_connect_retries_until_listening():
    """Party 1 may start before party 0 listens."""
    ch0, ch1 = _tcp_pair(timeout=2.0, listen_after=0.2)
    payload = np.arange(4, dtype=np.uint64)
    out = _echo(ch0, ch1, payload)
    assert np.array_equal(out[0], payload) and np.array_equal(out[1], payload)
    assert ch0.meter.rounds == ch1.meter.rounds == 1
    ch0.end.close()
    ch1.end.close()


@pytest.mark.parametrize("tag", [1, ABORT_TAG])
def test_tcp_oversize_frame_rejected_unread(tag):
    """A forged 2^40-byte length is refused from the header alone."""
    a, b = socket.socketpair()
    try:
        a.sendall(FRAME_MAGIC + struct.pack("<IQ", tag, 1 << 40) + b"x" * 64)
        ch = Channel(0, TcpEnd(b), timeout=5.0)
        with pytest.raises(FrameError, match="exceeds"):
            ch.exchange("t", [np.zeros(2, np.uint64)])
        assert len(a.recv(1 << 10)) == 16 + 16  # our own frame arrived
        b.setblocking(False)
        assert len(b.recv(1 << 10)) == 64  # the forged payload was left unread
    finally:
        a.close()
        b.close()


def test_tcp_short_frame_is_mismatch_error():
    a, b = socket.socketpair()
    try:
        a.sendall(FRAME_MAGIC + struct.pack("<IQ", 1, 8) + b"\0" * 8)
        ch = Channel(0, TcpEnd(b), timeout=5.0)
        with pytest.raises(ProtocolMismatchError, match="payload size"):
            ch.exchange("t", [np.zeros(2, np.uint64)])
    finally:
        a.close()
        b.close()


def test_tcp_abort_reason_within_cap():
    a, b = socket.socketpair()
    try:
        Channel(1, TcpEnd(a)).abort("x" * 100_000)
        ch = Channel(0, TcpEnd(b), timeout=5.0)
        with pytest.raises(ChannelError, match="peer aborted"):
            ch.exchange("t", [np.zeros(2, np.uint64)])
    finally:
        a.close()
        b.close()


_HEADERS = st.builds(
    lambda tag, length, rest: FRAME_MAGIC + struct.pack("<IQ", tag, length) + rest,
    st.sampled_from([0, 1, ABORT_TAG]) | st.integers(0, (1 << 32) - 1),
    st.integers(0, 96) | st.integers(0, (1 << 64) - 1),
    st.binary(max_size=96))


@settings(max_examples=300)
@given(st.binary(max_size=96) | _HEADERS, st.integers(0, 64) | st.integers(0, 1 << 40))
def test_tcp_recv_frame_any_bytes(stream, max_bytes):
    """Whatever the peer wrote before closing, recv_frame returns a frame
    within its bound or raises a ChannelError, and does so promptly."""
    a, b = socket.socketpair()
    try:
        a.sendall(stream)
        a.close()
        t0 = time.monotonic()
        try:
            tag, payload = TcpEnd(b).recv_frame(0.2, max_bytes)
        except ChannelError:
            pass
        else:
            assert len(payload) <= (ABORT_REASON_BYTES if tag == ABORT_TAG else max_bytes)
        assert time.monotonic() - t0 < 1.0
    finally:
        a.close()
        b.close()


def test_tcp_connection_refused():
    """Nobody listening: the connect retries until its timeout, then raises."""
    t0 = time.monotonic()
    with pytest.raises(ConnectionRefusedError):
        tcp_channel(1, "127.0.0.1", _free_port(), timeout=0.3)
    assert 0.3 <= time.monotonic() - t0 < 1.0


def test_tcp_accept_timeout_closes_listener():
    """Nobody connects: the accept times out and the listening socket is closed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            tcp_channel(0, "127.0.0.1", _free_port(), timeout=0.2)
        except TimeoutError:
            pass
        else:
            pytest.fail("accept did not time out")
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
