"""Span tracing of the library, installed from outside it.

``Tracer.install`` replaces public functions and methods of ``kernels``,
``sharing``, ``runtime``, ``nn`` and ``ring`` with wrappers that record a
span per call: name, start, end, parent span, party, and the run phase
(scope) it belongs to.  Module functions are replaced in every
``mpcadapter`` module that holds them by name (``nn`` imports
``matmul_beaver_many`` and others directly), methods on their class.
``uninstall`` restores the originals.

Spans stay in per-thread lists in memory until the run ends.  The party
of a span is a per-thread value: the request wrapper sets it while one
party's protocol runs, and set-up code sets it with ``Tracer.party``.

Each span records its wall time and the CPU time of its thread.  Self
time is a span's thread CPU time minus its direct children's: the two
parties share one CPU, so a span's wall time also holds whatever the
other party ran meanwhile.  Waits (``runtime.recv``, ``runtime.send``,
``runtime.connect``) are reported as wall time.
Rounds and bytes of the ``nn`` stage spans and of the request span come
from ``channel.meter`` snapshots at entry and exit; a stage's own rounds
exclude those of stage spans nested in it, so per party the stage rounds
of a request sum to the meter's rounds.
"""

import contextlib
import json
import sys
import threading
import time
from collections import defaultdict

from mpcadapter import kernels, nn, ring, runtime, sharing

SETUP = "setup"

# nn stage span -> reported stage; a stage span directly under the
# pipeline span (the final norm and the classifier) is reported as "tail".
STAGES = {"nn.linear": "linear", "nn.layernorm": "layernorm",
          "nn.linatten": "linatten", "nn.relu": "relu", "nn.pipeline": "tail"}
METERED = set(STAGES) | {"nn.request"}


class Span:
    __slots__ = ("name", "parent", "party", "scope", "start", "end", "cpu",
                 "rounds", "nbytes", "work", "error")

    def __init__(self, name, parent, party, scope):
        self.name = name
        self.parent = parent
        self.party = party
        self.scope = scope
        self.start = self.end = self.cpu = 0.0
        self.rounds = self.nbytes = self.work = 0
        self.error = False

    def duration(self):
        return self.end - self.start

    def to_list(self):
        return [getattr(self, f) for f in self.__slots__]


def _ctx_meter(args):
    return args[0].channel.meter


def _channel_meter(args):
    return args[0].meter


def _matmul_work(args, result, party):
    a, b = args[0], args[1]
    batch = a.shape[0] if a.ndim == 3 else 1
    macs = batch * a.shape[-2] * a.shape[-1] * b.shape[-1]
    return macs, 8 * (a.size + b.size + result.size)


def _dealer_work(args, result, party):
    share = result[party or 0]
    words = sum(getattr(share, f).size for f in ("a", "b", "c", "known")
                if hasattr(share, f))
    return words, 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (thread name, span list) per thread that traced
        self._patches = []  # (owner, attribute, original)
        self.scope = SETUP

    # -- recording -----------------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "spans"):
            st.spans, st.stack, st.party = [], [], None
            with self._lock:
                self._threads.append((threading.current_thread().name, st.spans))
        return st

    @contextlib.contextmanager
    def party(self, party_id):
        st = self._state()
        saved, st.party = st.party, party_id
        try:
            yield
        finally:
            st.party = saved

    def wrap(self, name, fn, meter=None, work=None):
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            span = Span(name, st.stack[-1] if st.stack else -1, st.party,
                        tracer.scope)
            st.stack.append(len(st.spans))
            st.spans.append(span)
            m = meter(args) if meter else None
            snap = m.snapshot() if m else None
            span.start, span.cpu = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - span.cpu
                st.stack.pop()
                if m:
                    span.rounds, span.nbytes = m.since(snap)
            if work:
                span.work, extra = work(args, result, st.party)
                span.nbytes = span.nbytes or extra
            return result

        traced.__wrapped__ = fn
        return traced

    def mark(self):
        """Position in this thread's span list, for ``discard_since``."""
        return len(self._state().spans)

    def discard_since(self, mark):
        """Forget the spans this thread recorded after ``mark``."""
        del self._state().spans[mark:]

    def spans(self):
        """All recorded spans as (thread name, span list) pairs."""
        with self._lock:
            return list(self._threads)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, attr, original, replacement):
        """Replace ``original`` in every mpcadapter module holding it as ``attr``."""
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("mpcadapter")
                    and getattr(mod, attr, None) is original):
                self._set(mod, attr, replacement)

    def _patch_function(self, module, attr, name, **kw):
        original = getattr(module, attr)
        self._replace(attr, original, self.wrap(name, original, **kw))

    def _patch_request(self):
        original = nn.inference_party
        tracer = self

        def inference_party(party_id, *args, **kwargs):
            protocol = tracer.wrap("nn.request", original(party_id, *args, **kwargs),
                                   meter=_channel_meter)

            def traced_protocol(channel):
                with tracer.party(party_id):
                    return protocol(channel)
            return traced_protocol

        self._replace("inference_party", original, inference_party)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        fn = self._patch_function
        fn(kernels, "matmul_u64", "kernels.matmul", work=_matmul_work)
        for attr in ("arith_triple", "matmul_triple", "bin_triple",
                     "arith_input_pair", "bin_input_pair"):
            self._set(sharing.TripleDealer, attr,
                      self.wrap("sharing.dealer", getattr(sharing.TripleDealer, attr),
                                work=_dealer_work))
        for attr in ("mul_beaver_many", "matmul_beaver_many", "and_beaver_many"):
            fn(sharing, attr, "sharing.beaver")
        fn(sharing, "a2b", "sharing.a2b")
        fn(sharing, "bit_to_arith", "sharing.bit_to_arith")
        fn(sharing, "truncate_share", "sharing.truncate")
        self._set(runtime.Channel, "exchange",
                  self.wrap("runtime.exchange", runtime.Channel.exchange,
                            meter=_channel_meter))
        for end in (runtime.InProcessEnd, runtime.TcpEnd):
            self._set(end, "send_frame", self.wrap("runtime.send", end.send_frame))
            self._set(end, "recv_frame", self.wrap("runtime.recv", end.recv_frame))
        fn(runtime, "tcp_channel", "runtime.connect")
        fn(nn, "linear_private", "nn.linear", meter=_ctx_meter)
        fn(nn, "layernorm_private", "nn.layernorm", meter=_ctx_meter)
        fn(nn, "linatten_private", "nn.linatten", meter=_ctx_meter)
        fn(nn, "relu_private", "nn.relu", meter=_ctx_meter)
        fn(nn, "adapter_forward_private", "nn.adapter")
        fn(nn, "pipeline_forward_private", "nn.pipeline", meter=_ctx_meter)
        self._patch_request()
        fn(ring, "encode_fixed", "ring.encode")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, meta):
        """Write every thread's spans, each tagged with its party, as JSON."""
        threads = [{"thread": name, "spans": [s.to_list() for s in spans]}
                   for name, spans in self.spans()]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": list(Span.__slots__),
                       "threads": threads}, fh)


# ---------------------------------------------------------------------------
# aggregation

# span name -> (metric, value) pairs; "self" is self CPU time, "dur" wall time,
# "one" a call count, "work"/"bytes" the span's counters, "error" 1 if the
# call raised.
COUNTERS = {
    "kernels.matmul": (("kernels.matmul.calls", "one"),
                       ("kernels.matmul.self_s", "self"),
                       ("kernels.matmul.macs", "work"),
                       ("kernels.matmul.bytes", "bytes")),
    "sharing.dealer": (("sharing.dealer.calls", "one"),
                       ("sharing.dealer.self_s", "self"),
                       ("sharing.dealer.words", "work")),
    "sharing.beaver": (("sharing.beaver.calls", "one"),
                       ("sharing.beaver.self_s", "self")),
    "sharing.a2b": (("sharing.a2b.self_s", "self"),),
    "sharing.bit_to_arith": (("sharing.bit_to_arith.self_s", "self"),),
    "sharing.truncate": (("sharing.truncate.calls", "one"),
                         ("sharing.truncate.self_s", "self")),
    "runtime.exchange": (("runtime.exchange.calls", "one"),
                         ("runtime.exchange.bytes", "bytes"),
                         ("runtime.exchange.self_s", "self"),
                         ("runtime.errors", "error")),
    "runtime.recv": (("runtime.recv_wait_s", "dur"),),
    "runtime.send": (("runtime.send_s", "dur"),),
    "runtime.connect": (("runtime.connect_s", "dur"),
                        ("runtime.errors", "error")),
    "ring.encode": (("ring.encode.self_s", "self"),),
}


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.cpu
    return [s.cpu - c for s, c in zip(spans, child)]


def _ancestor(spans, i, names):
    """Index of the nearest ancestor of span i named in ``names``, or -1."""
    p = spans[i].parent
    while p >= 0 and spans[p].name not in names:
        p = spans[p].parent
    return p


_NN_SCOPES = set(STAGES) | {"nn.adapter"}


def stage_of(spans, i):
    """Reported nn stage of span i, or None if it is not a stage span."""
    name = spans[i].name
    if name in ("nn.linear", "nn.layernorm"):
        p = _ancestor(spans, i, _NN_SCOPES)
        if p >= 0 and spans[p].name == "nn.pipeline":
            return "tail"
    return STAGES.get(name)


def own_meters(spans):
    """Rounds and bytes of each metered span minus its metered descendants'."""
    rounds = [s.rounds for s in spans]
    nbytes = [s.nbytes for s in spans]
    for i, s in enumerate(spans):
        if s.name in METERED:
            p = _ancestor(spans, i, METERED)
            if p >= 0:
                rounds[p] -= s.rounds
                nbytes[p] -= s.nbytes
    return rounds, nbytes


def aggregate(threads):
    """Sum per-layer counters by (party, phase), phase "setup" or "request"."""
    tot = defaultdict(lambda: defaultdict(float))
    for _, spans in threads:
        selfs = _self_times(spans)
        rounds, nbytes = own_meters(spans)
        for i, s in enumerate(spans):
            acc = tot[(s.party, SETUP if s.scope == SETUP else "request")]
            values = {"one": 1, "self": selfs[i], "dur": s.duration(),
                      "work": s.work, "bytes": s.nbytes, "error": int(s.error)}
            for metric, kind in COUNTERS.get(s.name, ()):
                acc[metric] += values[kind]
            stage = stage_of(spans, i)
            if stage:
                acc[f"nn.{stage}.self_s"] += selfs[i]
                acc[f"nn.{stage}.rounds"] += rounds[i]
                acc[f"nn.{stage}.bytes"] += nbytes[i]
            elif s.name == "nn.request":
                acc["nn.request.rounds"] += rounds[i]
    return tot


PER_SETUP = ("runtime.connect_s", "ring.encode.self_s")
# Zero on every healthy run, so it is a report line, not a metric.
ERRORS = "runtime.errors"
PER_REQUEST = tuple(dict.fromkeys(
    m for pairs in COUNTERS.values() for m, _ in pairs
    if m not in PER_SETUP and m != ERRORS)) + tuple(
    f"nn.{stage}.{m}" for stage in STAGES.values() for m in ("self_s", "rounds", "bytes"))

UNITS = {"calls": "count", "self_s": "s", "macs": "count", "bytes": "B",
         "words": "count", "rounds": "count", "errors": "count",
         "recv_wait_s": "s", "send_s": "s", "connect_s": "s"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


def party_metrics(totals, party, n_requests):
    """Per-layer metrics of one party: mean per timed request, and the
    set-up phase's values (connect, encoding of the inputs, warm-up)."""
    per_request = totals[(party, "request")]
    per_setup = totals[(party, SETUP)]
    out = {m: per_request[m] / n_requests for m in PER_REQUEST}
    out.update({m: per_setup[m] for m in PER_SETUP})
    return out


def party_errors(totals, party):
    """Channel calls of one party that raised, set-up and requests together."""
    return int(sum(totals[(party, phase)][ERRORS] for phase in (SETUP, "request")))
