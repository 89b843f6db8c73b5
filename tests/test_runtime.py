import socket
import struct
import threading
import time

import numpy as np
import pytest

from mpcadapter.runtime import (ABORT_TAG, ENVS, FRAME_MAGIC, LAN, WAN, Channel,
                                ChannelError, CommMeter, FrameError,
                                MeterSummary, NetworkEnv,
                                ProtocolMismatchError, TcpEnd,
                                decode_frame_header, encode_frame,
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
    frame = encode_frame(7, b"payload")
    tag, length = decode_frame_header(frame[:16])
    assert tag == 7 and length == 7
    assert frame[16:] == b"payload"


def test_frame_bad_magic():
    frame = b"XXXX" + encode_frame(1, b"")[4:]
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

def _tcp_pair(timeout=10.0):
    port = _free_port()
    result = {}

    def listen():
        result[0] = tcp_channel(0, "127.0.0.1", port, timeout)

    t = threading.Thread(target=listen)
    t.start()
    deadline = time.monotonic() + timeout
    while True:
        try:
            ch1 = tcp_channel(1, "127.0.0.1", port, timeout)
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)
    t.join()
    return result[0], ch1


def test_tcp_echo_1mb(rng):
    ch0, ch1 = _tcp_pair()
    payload = rng.integers(0, 1 << 64, size=1 << 17, dtype=np.uint64)  # 1 MB
    out = {}

    def run(ch):
        (got,) = ch.exchange("echo", [payload])
        out[ch.party_id] = got

    t = threading.Thread(target=run, args=(ch1,))
    t.start()
    run(ch0)
    t.join()
    assert np.array_equal(out[0], payload)
    assert np.array_equal(out[1], payload)
    assert ch0.meter.bytes_sent == payload.nbytes
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
        a.sendall(encode_frame(1, b"\0" * 8))
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


def test_tcp_connection_refused():
    with pytest.raises(OSError):
        tcp_channel(1, "127.0.0.1", _free_port(), timeout=0.5)
