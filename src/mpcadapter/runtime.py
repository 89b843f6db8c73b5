"""Two-party execution: channels, transports, metering, latency model.

Both parties run as independent sequential state machines.  A "round" is
one synchronized batched exchange (each side sends one message and
receives the peer's); rounds and payload bytes are counted at the
protocol layer, so meters are identical across transports.
"""

import queue
import socket
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

FRAME_MAGIC = b"CP01"
ABORT_TAG = 0xFFFFFFFF
ABORT_REASON_BYTES = 4096  # abort frames carry at most this much reason text
DEFAULT_TIMEOUT = 30.0


class ChannelError(RuntimeError):
    pass


class ProtocolMismatchError(ChannelError):
    """Raised when a receive times out (likely desynchronized parties)."""


class FrameError(ChannelError):
    pass


@dataclass
class NetworkEnv:
    label: str
    bandwidth_bps: float  # bits per second
    latency_s: float      # one-way

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be nonnegative")


LAN = NetworkEnv("LAN", 1e9, 0.5e-3)
WAN = NetworkEnv("WAN", 400e6, 4e-3)

ENVS = {"LAN": LAN, "WAN": WAN}


class CommMeter:
    """Per-party counters of rounds and payload bytes sent."""

    def __init__(self):
        self.rounds = 0
        self.bytes_sent = 0
        self.breakdown = {}  # label -> [rounds, bytes]

    def record(self, label: str, nbytes: int):
        self.rounds += 1
        self.bytes_sent += nbytes
        entry = self.breakdown.setdefault(label, [0, 0])
        entry[0] += 1
        entry[1] += nbytes

    def snapshot(self):
        return (self.rounds, self.bytes_sent)

    def since(self, snap):
        """(rounds, bytes) accumulated since a snapshot()."""
        return (self.rounds - snap[0], self.bytes_sent - snap[1])


@dataclass
class MeterSummary:
    rounds: int
    total_bytes: int  # both directions summed


def merge_meters(m0: CommMeter, m1: CommMeter) -> MeterSummary:
    return MeterSummary(rounds=max(m0.rounds, m1.rounds),
                        total_bytes=m0.bytes_sent + m1.bytes_sent)


def simulate_latency(meter: MeterSummary, env: NetworkEnv) -> float:
    """Closed-form communication time: RTT per round plus serialization.

    rounds * 2 * latency + total_bytes * 8 / bandwidth.  Monotone in every
    argument; deterministic.
    """
    return meter.rounds * 2.0 * env.latency_s + meter.total_bytes * 8.0 / env.bandwidth_bps


def encode_frame(tag: int, payload: bytes) -> bytes:
    return FRAME_MAGIC + struct.pack("<IQ", tag, len(payload)) + payload


def _recv_exact(sock, n):
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise ChannelError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def decode_frame_header(header: bytes):
    if len(header) != 16:
        raise FrameError("short frame header")
    if header[:4] != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {header[:4]!r}")
    tag, length = struct.unpack("<IQ", header[4:])
    return tag, length


class InProcessEnd:
    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox = inbox
        self._outbox = outbox

    def send_frame(self, tag: int, payload: bytes):
        self._outbox.put((tag, payload))

    def recv_frame(self, timeout: float, max_bytes: int):
        """Next frame from the peer thread.  ``max_bytes`` is unused: the
        frame is already in memory."""
        try:
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise ProtocolMismatchError(
                f"no message within {timeout}s; parties are out of step"
            ) from None

    def close(self):
        pass


class TcpEnd:
    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send_frame(self, tag: int, payload: bytes):
        self._sock.sendall(encode_frame(tag, payload))

    def recv_frame(self, timeout: float, max_bytes: int):
        """Next frame from the socket.  A payload longer than ``max_bytes``
        (ABORT_REASON_BYTES for an abort frame) raises FrameError before
        any of it is read."""
        self._sock.settimeout(timeout)
        try:
            tag, length = decode_frame_header(_recv_exact(self._sock, 16))
            limit = ABORT_REASON_BYTES if tag == ABORT_TAG else max_bytes
            if length > limit:
                raise FrameError(f"frame of {length} bytes exceeds the "
                                 f"{limit} bytes expected")
            return tag, _recv_exact(self._sock, length)
        except socket.timeout:
            raise ProtocolMismatchError(
                f"no message within {timeout}s; parties are out of step"
            ) from None

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class Channel:
    """One party's endpoint.  Owned exclusively by that party.

    ``forbid_plain_open`` is the OWC audit flag: while set, open_values
    refuses to reveal anything (Beaver openings bypass it because the
    opened values are masked).
    """

    def __init__(self, party_id: int, end, timeout: float = DEFAULT_TIMEOUT):
        self.party_id = party_id
        self.end = end
        self.meter = CommMeter()
        self.timeout = timeout
        self.forbid_plain_open = False
        self._tag = 0

    def exchange(self, label: str, send_arrays, recv_shapes=None):
        """One communication round: send a batch of u64 arrays, receive
        the peer's batch.  recv_shapes defaults to the sent shapes."""
        send_arrays = [np.ascontiguousarray(a, dtype=np.uint64) for a in send_arrays]
        if recv_shapes is None:
            recv_shapes = [a.shape for a in send_arrays]
        counts = [int(np.prod(shape, dtype=np.int64)) if shape else 1
                  for shape in recv_shapes]
        expected = 8 * sum(counts)
        payload = b"".join(a.astype("<u8").tobytes() for a in send_arrays)
        self._tag += 1
        self.end.send_frame(self._tag, payload)
        tag, raw = self.end.recv_frame(self.timeout, expected)
        if tag == ABORT_TAG:
            raise ChannelError("peer aborted: " + raw.decode(errors="replace"))
        if tag != self._tag:
            raise ProtocolMismatchError(
                f"round tag mismatch: sent {self._tag}, received {tag}"
            )
        self.meter.record(label, len(payload))
        if len(raw) != expected:
            raise ProtocolMismatchError(
                f"payload size mismatch: expected {expected} bytes, got {len(raw)}"
            )
        flat = np.frombuffer(raw, dtype="<u8")
        out = []
        pos = 0
        for shape, count in zip(recv_shapes, counts):
            out.append(flat[pos:pos + count].reshape(shape).astype(np.uint64))
            pos += count
        return out

    def abort(self, reason: str):
        try:
            self.end.send_frame(ABORT_TAG, reason.encode()[:ABORT_REASON_BYTES])
        except Exception:
            pass


def in_process_pair(timeout: float = DEFAULT_TIMEOUT):
    q01, q10 = queue.Queue(), queue.Queue()
    ch0 = Channel(0, InProcessEnd(inbox=q10, outbox=q01), timeout)
    ch1 = Channel(1, InProcessEnd(inbox=q01, outbox=q10), timeout)
    return ch0, ch1


def tcp_channel(party_id: int, host: str, port: int,
                timeout: float = DEFAULT_TIMEOUT) -> Channel:
    """Party 0 listens, party 1 connects."""
    if party_id == 0:
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)
        srv.settimeout(timeout)
        sock, _ = srv.accept()
        srv.close()
    else:
        sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Channel(party_id, TcpEnd(sock), timeout)


def run_two_party(proto0, proto1, timeout: float = DEFAULT_TIMEOUT):
    """Run both party closures concurrently over an in-process transport.

    Returns (output0, output1, (meter0, meter1)).  A protocol exception on
    either side aborts the peer and is re-raised.  Party 1 still running
    ``timeout + 5`` seconds after party 0 returned raises
    ``ProtocolMismatchError``.
    """
    ch0, ch1 = in_process_pair(timeout)
    results = [None, None]
    errors = [None, None]

    def runner(idx, proto, ch):
        try:
            results[idx] = proto(ch)
        except BaseException as e:  # noqa: BLE001 - forwarded to caller
            errors[idx] = e
            ch.abort(f"party {idx}: {e!r}")

    t1 = threading.Thread(target=runner, args=(1, proto1, ch1), daemon=True)
    t1.start()
    runner(0, proto0, ch0)
    join_s = timeout + 5
    t1.join(timeout=join_s)
    for e in errors:
        if e is not None and not isinstance(e, ChannelError):
            raise e
    for e in errors:
        if e is not None:
            raise e
    if t1.is_alive():
        raise ProtocolMismatchError(
            f"party 1 still running {join_s:g} s after party 0 finished")
    return results[0], results[1], (ch0.meter, ch1.meter)
