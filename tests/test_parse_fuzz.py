"""Property tests of the parsers of outside input: the run-config document,
the profile-samples CSV, the utility-table CSV, a tensor record, a
weights directory and the peer's handshake digest.  Each input either
parses to records whose every figure is finite and in range (arrays of the
declared shape), or raises the parser's typed error (``ConfigError``,
``CsvFormatError``, ``TensorFormatError``, ``OSError`` for a file that
cannot be read, and ``ConfigMismatchError`` or ``PayloadSizeError`` for a
digest); nothing else escapes."""

import copy
import csv
import io
import json
import math
import numbers
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpcadapter.cli import ConfigError, RunConfig
from mpcadapter.costmodel import CsvFormatError, ProfileSample, load_samples_csv
from mpcadapter.nas import TableEvaluator
from mpcadapter.nn import (MAX_INPUT_FRAME_BYTES, MAX_PARTY_WORDS, AdapterConfig,
                           ConfigMismatchError, PartyContext, _setup, derived_rng,
                           random_features, random_weights)
from mpcadapter.ring import DEFAULT_CONFIG, FixedTensor
from mpcadapter.runtime import ChannelError, PayloadSizeError, run_two_party
from mpcadapter.sharing import TripleDealer
from mpcadapter.tensorio import (DTYPES, MAGIC, VERSION, TensorFormatError,
                                 load_weights_dir, read_tensor, write_tensor)

BIG = 10 ** 299  # 300 digits

# JSON values that reached the engine as garbage: NaN, +-Infinity (what
# `1e400` reads as), booleans, 300-digit integers, strings, null and values
# of the wrong shape.
GARBAGE = st.sampled_from([math.nan, math.inf, -math.inf, True, False, BIG, None, "1"])
SCALARS = st.one_of(GARBAGE, st.floats(), st.integers(), st.text(max_size=3))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=4)

# A well-formed document, and every place in it a value can be replaced.
BASE = {"adapter": {"h": 2, "r": 8, "s": 1, "scaler": 0.5, "d_model": 16,
                    "n_tokens": 4, "n_classes": 3},
        "env": {"label": "lab", "bandwidth_mbps": 100, "latency_ms": 2},
        "paths": {"weights_dir": "w"}, "seed": 1}
PLACES = [(), *((section,) for section in BASE), *(
    (section, key) for section, body in BASE.items() if isinstance(body, dict)
    for key in body)]


def _document(place, value):
    """BASE with the value at ``place`` (``()`` for the whole document)
    replaced, or left out if ``value`` is ``...``."""
    if not place:
        return value
    doc = copy.deepcopy(BASE)
    *outer, key = place
    body = doc[outer[0]] if outer else doc
    del body[key]
    if value is not ...:
        body[key] = value
    return doc


DOCS = st.builds(_document, st.sampled_from(PLACES),
                 st.one_of(GARBAGE, st.just(...), JSON))


def _is_figure(value) -> bool:
    """A real, not a bool, and finite (every integer is)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


@given(DOCS)
@example({"env": {"bandwidth_mbps": math.nan}})
@example({"env": {"latency_ms": math.inf}})
@example({"adapter": {"s": 10 ** 9}})
@settings(max_examples=200)
def test_run_config_parses_or_refuses(doc):
    try:
        rc = RunConfig.parse(doc)
    except ConfigError:
        return
    a, env = rc.adapter, rc.env
    assert all(map(_is_figure, [*(getattr(a, f.name) for f in fields(a)),
                                env.bandwidth_bps, env.latency_s, rc.seed]))
    assert all(isinstance(getattr(a, f.name), numbers.Integral)
               for f in fields(a) if f.type is int)
    assert min(a.h, a.r, a.s, a.n_classes) >= 1 and min(a.d_model, a.n_tokens) >= 2
    assert 0 <= a.scaler <= 4 and a.r % a.h == 0
    assert max(a.party_words()) <= MAX_PARTY_WORDS
    assert env.bandwidth_bps > 0 and env.latency_s >= 0
    assert isinstance(rc.seed, numbers.Integral) and rc.seed >= 0


# CSV cells that reached the engine as garbage, and well-formed ones.
CELLS = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400",
                     "true", "False", "null", "9" * 300, "-" + "9" * 300, "",
                     "0", "1.5", "0.25", "-1"]),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=4))
GOOD = st.sampled_from(["1", " 1", "2", "4", "8"])


def _patch(rows, column, cell, length):
    """``rows`` with the last one's ``column`` replaced by ``cell`` and the
    row cut or padded to ``length`` cells."""
    last = rows[-1][:column] + [cell] + rows[-1][column + 1:]
    return rows[:-1] + [(last + ["1"])[:length]]


def _tables(columns):
    """A header of ``columns`` in any order, maybe one short, and one to
    three rows of well-formed cells but for one cell, the last row maybe a
    cell short or long."""
    n = len(columns)
    header = st.permutations(columns).flatmap(
        lambda cols: st.sampled_from([cols, cols, cols, cols[1:]]))
    rows = st.builds(_patch, st.lists(st.lists(GOOD, min_size=n, max_size=n),
                                      min_size=1, max_size=3),
                     st.integers(0, n - 1), CELLS, st.sampled_from([n, n, n, n - 1, n + 1]))
    return st.tuples(header, rows)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.csv"


def _write(path, table):
    header, rows = table
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


SAMPLE_COLUMNS = [f.name for f in fields(ProfileSample)]


@given(_tables(SAMPLE_COLUMNS))
@example((SAMPLE_COLUMNS, [["1", "8", "1", "nan", "0.1", "29", "1"]]))
@example((SAMPLE_COLUMNS, [["9" * 300, "8", "1", "0.1", "0.1", "29", "1"]]))
@settings(max_examples=120)
def test_samples_csv_parses_or_refuses(csv_path, table):
    _write(csv_path, table)
    try:
        samples = load_samples_csv(csv_path)
    except CsvFormatError:
        return
    for p in samples:
        assert all(map(_is_figure, (getattr(p, f.name) for f in fields(p))))
        assert all(isinstance(getattr(p, f.name), numbers.Integral)
                   for f in fields(p) if f.type is int)
        assert 1 <= min(p.h, p.r, p.s) and max(p.h, p.r, p.s) <= MAX_PARTY_WORDS
        assert min(p.comm_time_s, p.comp_time_s, p.rounds, p.bytes) >= 0


@given(_tables(["h", "r", "s", "utility"]))
@example((["h", "r", "s", "utility"], [["1", "8", "1", "nan"]]))
@example((["h", "r", "s", "utility"], [["1", "4", "1", "0.9"], ["1", "4", "1", "0.1"]]))
@settings(max_examples=150)
def test_utility_csv_parses_or_refuses(csv_path, table):
    _write(csv_path, table)
    try:
        evaluator = TableEvaluator.from_csv(csv_path)
    except CsvFormatError:
        return
    assert len(evaluator.table) == len(table[1])  # no row was dropped
    for (h, r, s), u in evaluator.table.items():
        assert all(isinstance(v, numbers.Integral) and v >= 1 for v in (h, r, s))
        assert _is_figure(u) and 0 <= u <= 1


# Header dims: small ones, and sizes no payload or array could hold.
DIMS = st.one_of(st.integers(0, 4), st.sampled_from([2 ** 32, 2 ** 63, 2 ** 64 - 1]),
                 st.integers(0, 2 ** 64 - 1))
PAYLOAD_DTYPES = st.sampled_from([*DTYPES, "f64", ""])


@st.composite
def tensor_records(draw):
    """A tensor record of any magic, version, rank (maybe not the number of
    dims written) and dims, with a payload of the declared length, one item
    off or any length, the whole maybe cut short."""
    dims = draw(st.one_of(st.lists(DIMS, max_size=4), st.just([1] * 65)))
    rank = draw(st.one_of(st.just(len(dims)), st.integers(0, 2 ** 16 - 1)))
    head = (draw(st.sampled_from([MAGIC, MAGIC, MAGIC, b"CPFX", b"CP"]))
            + struct.pack("<HH", draw(st.sampled_from([VERSION, VERSION, 0, 2 ** 16 - 1])),
                          rank)
            + struct.pack(f"<{len(dims)}Q", *dims))
    items = math.prod(dims)
    length = draw(st.one_of(st.sampled_from([items, items - 1, items + 1]),
                            st.integers(0, 64)))
    payload = bytes(range(256)) * (max(0, min(length, 512)) * 8 // 256 + 1)
    data = head + payload[:8 * max(0, min(length, 512))]
    cut = draw(st.one_of(st.none(), st.integers(0, len(data))))
    return data[:cut]


@given(tensor_records(), PAYLOAD_DTYPES)
@example(MAGIC + struct.pack("<HHQQ", VERSION, 2, 2 ** 32, 2 ** 32), "f32")
@example(MAGIC + struct.pack("<HHQQQ", VERSION, 3, 3, 0, 2 ** 63), "u64ring")
@example(MAGIC + struct.pack("<HH", VERSION, 65) + struct.pack("<65Q", *[1] * 65)
         + bytes(8), "u64ring")
@settings(max_examples=300)
def test_tensor_record_reads_or_refuses(data, dtype):
    try:
        array = read_tensor(io.BytesIO(data), dtype)
    except (TensorFormatError, OSError):
        return
    rank = struct.unpack_from("<H", data, 6)[0]
    assert array.shape == struct.unpack_from(f"<{rank}Q", data, 8)
    assert array.dtype == DTYPES[dtype]


def _record(shape, dtype, fill) -> bytes:
    """A record of ``fill`` reals, or of ring words (any word is one)."""
    buf = io.BytesIO()
    array = np.full(shape, fill, np.float32) if dtype == "f32" else \
        np.full(shape, 2 ** 63 + 5, np.uint64)
    write_tensor(buf, array, dtype)
    return buf.getvalue()


ENTRIES = st.lists(st.fixed_dictionaries({
    "name": st.sampled_from(["a", "b", "c"]),
    "shape": st.lists(st.integers(0, 3), max_size=3),
    "dtype": st.sampled_from(list(DTYPES))}), max_size=3)
MANIFEST_PLACES = [(), ("frac_bits",), ("tensors",), ("tensors", 0),
                   *(("tensors", 0, key) for key in ("name", "shape", "dtype"))]


@st.composite
def weights_dirs(draw):
    """(manifest bytes, weights.bin bytes): a well-formed directory of up to
    three tensors, with one manifest value replaced or left out, a record
    written with other dims or values no ring word holds, or the payload
    cut or padded; or a manifest that is not a JSON document at all."""
    entries = draw(ENTRIES)
    fills = draw(st.lists(st.sampled_from([0.5, -2.0, math.nan, 1e30, 7]),
                          min_size=len(entries), max_size=len(entries)))
    shapes = [draw(st.sampled_from([e["shape"], e["shape"], [2]])) for e in entries]
    payload = b"".join(_record(shape, e["dtype"], fill)
                       for e, shape, fill in zip(entries, shapes, fills))
    payload = draw(st.sampled_from([payload, payload, payload[:-1], payload + b"\0"]))
    doc = {"format_version": VERSION, "frac_bits": 16, "tensors": entries}
    place = draw(st.sampled_from(MANIFEST_PLACES))
    value = draw(st.one_of(GARBAGE, st.just(...), JSON))
    if not place:
        doc = {} if value is ... else value
    elif place[0] == "frac_bits" or entries:
        *outer, key = place
        body = doc
        for k in outer:
            body = body[k]
        if value is ...:
            del body[key]
        else:
            body[key] = value
    text = draw(st.sampled_from([json.dumps(doc), json.dumps(doc), "{", "\xff",
                                 "[" * 100_000 + "]" * 100_000]))
    return text.encode(errors="surrogateescape"), payload


@pytest.fixture(scope="module")
def weights_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("weights")


@given(weights_dirs())
@example((json.dumps({"frac_bits": 16, "tensors": [
    {"name": "a", "shape": [1], "dtype": "u64ring"},
    {"name": "a", "shape": [2], "dtype": "u64ring"}]}).encode(),
    _record([1], "u64ring", 1) + _record([2], "u64ring", 2)))
@example((b"[" * 100_000 + b"]" * 100_000, b""))
@settings(max_examples=200)
def test_weights_dir_reads_or_refuses(weights_dir, directory):
    manifest_bytes, payload = directory
    (weights_dir / "manifest.json").write_bytes(manifest_bytes)
    (weights_dir / "weights.bin").write_bytes(payload)
    try:
        tensors, manifest = load_weights_dir(weights_dir)
    except (TensorFormatError, OSError):
        return
    entries = manifest["tensors"]
    assert list(tensors) == [e["name"] for e in entries]
    for e in entries:
        t = tensors[e["name"]]
        assert isinstance(t, FixedTensor) and t.data.dtype == np.uint64
        assert list(t.shape) == e["shape"]


# The peer's handshake digest: any words, the honest digest with words
# replaced, cut or appended, or the honest digest declaring any input count.
HANDSHAKE = AdapterConfig(h=1, r=4, d_model=8, n_tokens=4, n_classes=2)
WORD = st.integers(0, 2 ** 64 - 1)
HONEST = HANDSHAKE.digest_words(extra=(DEFAULT_CONFIG.frac_bits, 0)).tolist()
# The largest count party 1 accepts before the feature frame arrives.
MAX_COUNT = MAX_INPUT_FRAME_BYTES // (8 * HANDSHAKE.n_tokens * HANDSHAKE.d_model)


def _edit(changes, cut, tail):
    words = list(HONEST)
    for i, word in changes.items():
        words[i] = word
    return words[:cut] + tail


PEER_DIGESTS = st.one_of(
    st.lists(WORD, max_size=2 * len(HONEST)),
    st.builds(_edit, st.dictionaries(st.integers(0, len(HONEST) - 1), WORD, max_size=2),
              st.integers(0, len(HONEST)), st.lists(WORD, max_size=2)),
    st.builds(lambda count: HONEST[:-1] + [count], st.one_of(st.integers(0, 3), WORD)))


def _fake_peer(pid, digest):
    """The peer of party ``1 - pid``: it sends ``digest``, then plays the
    distribution round honestly, party 0 sending the count it declared if
    that is at most 3 and nothing otherwise."""
    def proto(channel):
        try:
            channel.exchange("setup", [np.array(digest, np.uint64)])
            shape = (HANDSHAKE.n_tokens, HANDSHAKE.d_model)
            if pid == 1:
                count = digest[-1] if digest and digest[-1] <= 3 else 0
                channel.exchange("setup", [np.zeros(shape, np.uint64)] * count, [])
            else:
                channel.exchange("setup", [], [shape])
        except ChannelError as e:  # our party refused the digest and aborted
            return e
    return proto


@given(st.sampled_from([0, 1]), PEER_DIGESTS)
@example(1, HONEST[:-1] + [MAX_COUNT])
@example(1, HONEST[:-1] + [MAX_COUNT + 1])
@example(0, HONEST[:-1] + [2 ** 64 - 1])
@example(1, HONEST[:-1] + [2])
@example(0, [])
@settings(max_examples=200)
def test_peer_digest_runs_or_refuses(pid, digest):
    """Setup against any peer digest either runs, with the inputs the peer
    declared, or raises ConfigMismatchError or PayloadSizeError."""
    weights = random_weights(HANDSHAKE, derived_rng(0, "weights"))
    feats = [random_features(HANDSHAKE, derived_rng(0, "inputs"))]

    def ours(channel):
        ctx = PartyContext(channel, TripleDealer(0, pid))
        try:
            return _setup(ctx, HANDSHAKE, 0, weights, feats)[0]
        except Exception as e:  # noqa: BLE001 - the property checks its type
            channel.abort(repr(e))
            return e

    parties = [ours, _fake_peer(pid, digest)][::1 if pid == 0 else -1]
    got = run_two_party(*parties, timeout=5)[pid]
    if isinstance(got, Exception):
        assert isinstance(got, (ConfigMismatchError, PayloadSizeError)), repr(got)
        return
    assert digest[:-1] == HONEST[:-1]
    if pid == 1:
        assert len(got) == digest[-1]
        assert all(x.shape == (HANDSHAKE.n_tokens, HANDSHAKE.d_model) for x in got)
    else:
        assert [x.shape for x in got] == [f.shape for f in feats]
