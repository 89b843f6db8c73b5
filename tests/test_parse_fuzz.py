"""Property tests of the parsers of outside input: the run-config document,
the profile-samples CSV and the utility-table CSV.  Each input either parses
to records whose every figure is finite and in range, or raises the
parser's typed error (``ConfigError``, ``CsvFormatError``); nothing else
escapes."""

import copy
import csv
import math
import numbers
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpcadapter.cli import ConfigError, RunConfig
from mpcadapter.costmodel import CsvFormatError, ProfileSample, load_samples_csv
from mpcadapter.nas import TableEvaluator
from mpcadapter.nn import MAX_PARTY_WORDS

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
        assert min(p.h, p.r, p.s) >= 1
        assert min(p.comm_time_s, p.comp_time_s, p.rounds, p.bytes) >= 0


@given(_tables(["h", "r", "s", "utility"]))
@example((["h", "r", "s", "utility"], [["1", "8", "1", "nan"]]))
@settings(max_examples=150)
def test_utility_csv_parses_or_refuses(csv_path, table):
    _write(csv_path, table)
    try:
        evaluator = TableEvaluator.from_csv(csv_path)
    except CsvFormatError:
        return
    for (h, r, s), u in evaluator.table.items():
        assert all(isinstance(v, numbers.Integral) and v >= 1 for v in (h, r, s))
        assert _is_figure(u) and 0 <= u <= 1
