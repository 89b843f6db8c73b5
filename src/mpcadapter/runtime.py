"""Two-party execution: channels, transports, metering, latency model.

Both parties run as independent sequential state machines.  A "round" is
one synchronized batched exchange (each side sends one message and
receives the peer's); rounds and payload bytes are counted at the
protocol layer, so meters are identical across transports.

A round copies the words it sends once, joining them into one frame, and
returns the peer's words as read-only views of the frame it received.
Over TCP a round is full duplex: a party writes its frame while it reads
the peer's, so a round completes whatever the socket buffers hold.
"""

import math
import numbers
import operator
import queue
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

FRAME_MAGIC = b"CP01"
ABORT_TAG = 0xFFFFFFFF
ABORT_REASON_BYTES = 4096  # abort frames carry at most this much reason text
DEFAULT_TIMEOUT = 30.0
CONNECT_RETRY_S = 0.01  # first backoff after a refused connect; doubles
CONNECT_RETRY_MAX_S = 0.5


class ChannelError(RuntimeError):
    pass


class ProtocolMismatchError(ChannelError):
    """Raised when a receive times out (likely desynchronized parties)."""


class PayloadSizeError(ProtocolMismatchError):
    """Raised when a round's payload is not the size its receiver expects."""


class FrameError(ChannelError):
    pass


_KINDS = {int: numbers.Integral, float: numbers.Real, str: str}
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def check_fields(record):
    """The field rule of every dataclass built from outside input, run by
    its ``__post_init__``: an ``int`` field holds an integer, Python or numpy,
    ``float`` a real that a finite float holds exactly, ``str`` a string, and
    none a bool (else TypeError).  A real no float holds, or a value past a
    bound the field's metadata maps ">=", ">" or "<=" to, raises ValueError."""
    for f in (f for f in fields(record) if f.type in _KINDS):
        value, kind = getattr(record, f.name), _KINDS[f.type]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        try:
            holds = f.type is not float or math.isfinite(value) and float(value) == value
        except OverflowError:  # an integer past the largest float
            holds = False
        if not holds:
            raise ValueError(f"{f.name} must be a finite float, got {value!r}")
        for op, low in f.metadata.items():
            if not _BOUNDS[op](value, low):
                raise ValueError(f"{f.name} must be {op} {low}, got {value!r}")


@dataclass
class NetworkEnv:
    label: str
    bandwidth_bps: float = field(metadata={">": 0})  # bits per second
    latency_s: float = field(metadata={">=": 0})     # one-way
    __post_init__ = check_fields


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


def decode_frame_header(header: bytes):
    if len(header) != 16:
        raise FrameError("short frame header")
    if header[:4] != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {header[:4]!r}")
    tag, length = struct.unpack("<IQ", header[4:])
    return tag, length


class InProcessEnd:
    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue):
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
    """Frames over a socket in non-blocking mode.  ``send_frame`` writes
    what the socket takes at once; ``recv_frame`` writes the rest while it
    reads the peer's frame, so two parties that both send a frame larger
    than the socket buffers hold do not wait on each other."""

    def __init__(self, sock: socket.socket):
        sock.setblocking(False)
        self._sock = sock
        self._unsent = []  # memoryviews of frame bytes not yet written

    def send_frame(self, tag: int, payload: bytes):
        self._unsent += [memoryview(FRAME_MAGIC + struct.pack("<IQ", tag, len(payload))),
                         memoryview(payload)]
        self._write()

    def recv_frame(self, timeout: float, max_bytes: int):
        """Next frame from the socket, once this end's own frames are
        written too; all within ``timeout`` seconds.  A payload longer than
        ``max_bytes`` (ABORT_REASON_BYTES for an abort frame) raises
        FrameError before any of it is read."""
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self._sock, selectors.EVENT_READ)
            try:
                tag, length = decode_frame_header(self._read(16, sel, deadline))
                limit = ABORT_REASON_BYTES if tag == ABORT_TAG else max_bytes
                if length > limit:
                    raise FrameError(f"frame of {length} bytes exceeds the "
                                     f"{limit} bytes expected")
                payload = self._read(length, sel, deadline)
                while self._unsent:
                    self._wait(sel, deadline, 0)
            except TimeoutError:
                raise ProtocolMismatchError(
                    f"no message within {timeout}s; parties are out of step"
                ) from None
        return tag, payload

    def _write(self):
        """Write unsent bytes until the socket would block."""
        try:
            while self._unsent:
                sent = self._sock.send(self._unsent[0])
                self._unsent[0] = self._unsent[0][sent:]
                if not self._unsent[0]:
                    del self._unsent[0]
        except BlockingIOError:
            pass

    def _read(self, n, sel, deadline):
        """``n`` bytes from the socket, in reads of at most 1 MiB."""
        chunks = []
        while n:
            self._wait(sel, deadline, selectors.EVENT_READ)
            try:
                chunk = self._sock.recv(min(n, 1 << 20))
            except BlockingIOError:
                continue
            if not chunk:
                raise ChannelError("connection closed mid-frame")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def _wait(self, sel, deadline, events):
        """Write what the socket takes, then wait until it is ready for
        ``events``, or for writing while bytes are unsent."""
        self._write()
        events |= selectors.EVENT_WRITE if self._unsent else 0
        if events:
            sel.modify(self._sock, events)
            if not sel.select(max(0.0, deadline - time.monotonic())):
                raise TimeoutError

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class Channel:
    """One party's endpoint.  Owned exclusively by that party."""

    def __init__(self, party_id: int, end, timeout: float = DEFAULT_TIMEOUT):
        self.party_id = party_id
        self.end = end
        self.meter = CommMeter()
        self.timeout = timeout
        self._tag = 0

    def exchange(self, label: str, send_arrays, recv_shapes=None):
        """One communication round: send a batch of u64 arrays, receive
        the peer's batch as read-only views of its frame.  recv_shapes
        defaults to the sent shapes."""
        if recv_shapes is None:
            recv_shapes = [np.shape(a) for a in send_arrays]
        send_arrays = [np.ascontiguousarray(a, dtype="<u8") for a in send_arrays]
        counts = [math.prod(shape) for shape in recv_shapes]
        expected = 8 * sum(counts)
        payload = b"".join(send_arrays)
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
            raise PayloadSizeError(
                f"payload size mismatch: expected {expected} bytes, got {len(raw)}"
            )
        words = np.frombuffer(raw, "<u8")
        parts, start = [], 0
        for count, shape in zip(counts, recv_shapes):
            parts.append(words[start:start + count].reshape(shape))
            start += count
        return parts

    def abort(self, reason: str):
        try:
            self.end.send_frame(ABORT_TAG, reason.encode()[:ABORT_REASON_BYTES])
        except Exception:
            pass


def in_process_pair(timeout: float = DEFAULT_TIMEOUT):
    q01, q10 = queue.SimpleQueue(), queue.SimpleQueue()
    ch0 = Channel(0, InProcessEnd(inbox=q10, outbox=q01), timeout)
    ch1 = Channel(1, InProcessEnd(inbox=q01, outbox=q10), timeout)
    return ch0, ch1


def _connect_retrying(host: str, port: int, timeout: float):
    """Connect, retrying a refused connect with capped exponential backoff
    until ``timeout`` has passed, so party 1 may start before party 0."""
    deadline = time.monotonic() + timeout
    delay = CONNECT_RETRY_S
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except ConnectionRefusedError:
            left = deadline - time.monotonic()
            if left <= 0:
                raise
            time.sleep(min(delay, left))
            delay = min(2 * delay, CONNECT_RETRY_MAX_S)


def tcp_channel(party_id: int, host: str, port: int,
                timeout: float = DEFAULT_TIMEOUT) -> Channel:
    """Party 0 listens, party 1 connects (retrying until party 0 listens)."""
    if party_id == 0:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind((host, port))
            srv.listen(1)
            srv.settimeout(timeout)
            sock, _ = srv.accept()
    else:
        sock = _connect_retrying(host, port, timeout)
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
