"""The one field rule of every record built from outside input
(``runtime.check_fields``), the party-word bound on an adapter, and the
outside inputs both refuse at the CLI's edge."""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from click.testing import CliRunner

from mpcadapter.cli import main
from mpcadapter.costmodel import CsvFormatError, load_samples_csv
from mpcadapter.nas import TableEvaluator
from mpcadapter.nn import MAX_PARTY_WORDS, AdapterConfig
from mpcadapter.runtime import NetworkEnv, check_fields


@dataclass
class Record:
    count: int = field(default=1, metadata={">=": 1})
    rate: float = field(default=0.5, metadata={">": 0, "<=": 1})
    name: str = "x"
    anything: list = None
    __post_init__ = check_fields


@pytest.mark.parametrize("fields", [
    {"count": 2, "rate": 1}, {"count": np.int64(3), "rate": np.float32(0.25)},
    {"anything": [math.nan, True]},
], ids=["python", "numpy", "unchecked-type"])
def test_rule_accepts(fields):
    Record(**fields)


@pytest.mark.parametrize("fields,error", [
    ({"count": True}, TypeError),
    ({"count": 1.0}, TypeError),
    ({"rate": False}, TypeError),
    ({"rate": "0.5"}, TypeError),
    ({"name": 5}, TypeError),
    ({"rate": math.nan}, ValueError),
    ({"rate": math.inf}, ValueError),
    ({"rate": 10 ** 299}, ValueError),
    ({"rate": 10 ** 400}, ValueError),
    ({"count": 0}, ValueError),
    ({"rate": 0.0}, ValueError),
    ({"rate": 1.5}, ValueError),
], ids=["int-bool", "int-real", "float-bool", "float-str", "str-int", "nan", "inf",
        "int-no-float-holds", "int-past-every-float", "below-ge", "at-gt", "past-le"])
def test_rule_refuses(fields, error):
    with pytest.raises(error):
        Record(**fields)


def test_rule_names_the_field_and_bound():
    with pytest.raises(ValueError, match=r"bandwidth_bps must be > 0, got 0"):
        NetworkEnv("x", 0, 0.1)
    with pytest.raises(ValueError, match="latency_s must be a finite float"):
        NetworkEnv("x", 1e9, math.nan)


def test_paper_config_is_far_under_the_party_word_bound():
    paper = AdapterConfig(h=8, r=64, s=4, d_model=768, n_tokens=128, n_classes=10)
    assert paper.party_words() == (600_064, 131_072)
    assert MAX_PARTY_WORDS // 600_064 == 111 and MAX_PARTY_WORDS // 131_072 == 512


@pytest.mark.parametrize("fields", [{"d_model": 10 ** 11}, {"n_classes": 10 ** 12},
                                    {"s": 10 ** 9}, {"n_tokens": 10 ** 8},
                                    {"r": 2 ** 14}],
                         ids=["d_model", "n_classes", "s", "n_tokens", "r"])
def test_oversized_adapter_refused(fields):
    with pytest.raises(ValueError, match="past"):
        AdapterConfig(**fields)


# ---------------------------------------------------------------------------
# at the CLI's edge: exit 2 `config error` (3 `io error` for a data file)
# before any array is allocated, and no traceback

def _run(tmp_path, config_text, args):
    path = tmp_path / "run.json"
    path.write_text(config_text)
    return CliRunner().invoke(main, ["--config", str(path), *args])


@pytest.mark.parametrize("raw", [b'{"seed": 1' + b"0" * 5000 + b"}", b"\xff\xfe{}",
                                 b'{"adapter": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"],
                         ids=["int-past-str-digits", "not-utf8", "nested-past-depth"])
def test_unreadable_config_is_config_error(tmp_path, raw):
    path = tmp_path / "run.json"
    path.write_bytes(raw)
    res = CliRunner().invoke(main, ["--config", str(path), "estimate"])
    assert res.exit_code == 2, res.output
    assert res.output.startswith(f"config error: config {path} is not valid JSON"), res.output


@pytest.mark.parametrize("env,key", [
    ('{"bandwidth_mbps": NaN}', "bandwidth_mbps"),
    ('{"latency_ms": Infinity}', "latency_ms"),
    ('{"bandwidth_mbps": 1e400}', "bandwidth_mbps"),
    ('{"bandwidth_mbps": true}', "bandwidth_mbps"),
    ('{"latency_ms": ' + "9" * 300 + "}", "latency_ms"),
    ('{"latency_ms": ' + "9" * 400 + "}", "latency_ms"),
    ('{"label": 5, "latency_ms": 1}', "label"),
], ids=["nan", "infinity", "1e400", "bool", "300-digits", "400-digits", "label-int"])
def test_env_figure_refused(tmp_path, env, key):
    res = _run(tmp_path, f'{{"env": {env}}}', ["estimate"])
    assert res.exit_code == 2, res.output
    assert res.output.startswith(f"config error: {key} "), res.output


def test_profile_refuses_nan_bandwidth_before_writing(tmp_path):
    out = tmp_path / "samples.csv"
    res = _run(tmp_path, '{"env": {"bandwidth_mbps": NaN}}',
               ["profile", "--grid", "1:4,8:1", "--out", str(out)])
    assert res.exit_code == 2 and res.output.startswith("config error:"), res.output
    assert not out.exists()


@pytest.mark.parametrize("adapter,commands", [
    ({"d_model": 10 ** 11}, ["estimate", "verify"]),
    ({"n_classes": 10 ** 12}, ["estimate", "verify"]),
    # Only estimate: were the bound lost, verify would build 13 * 10^9
    # weight-table entries before numpy could refuse anything.
    ({"s": 10 ** 9}, ["estimate"]),
], ids=["d_model", "n_classes", "s"])
def test_oversized_adapter_is_config_error(tmp_path, adapter, commands):
    for command in commands:
        args = [command] + (["--inputs", "1"] if command == "verify" else [])
        res = _run(tmp_path, json.dumps({"adapter": adapter}), args)
        assert res.exit_code == 2, res.output
        assert res.output.startswith("config error:"), res.output


@pytest.mark.parametrize("args", [["--latency-target", "nan"],
                                  ["--latency-target", "inf"],
                                  ["--utility-target", "nan"]],
                         ids=["latency-nan", "latency-inf", "utility-nan"])
def test_search_refuses_nonfinite_targets(args):
    res = CliRunner().invoke(main, ["search", "--exhaustive", *args])
    assert res.exit_code == 2, res.output
    assert "must be a finite float" in res.output


@pytest.mark.parametrize("command,header,row", [
    ("fit", "h,r,s,comm_time_s,comp_time_s,rounds,bytes", "1,8,1,nan,0.1,29,1"),
    ("fit", "h,r,s,comm_time_s,comp_time_s,rounds,bytes", "1,8,1,0.1,1e400,29,1"),
    ("search", "h,r,s,utility", "1,4,1,nan"),
    ("search", "h,r,s,utility", "1,4,1,1.5"),
], ids=["samples-nan", "samples-1e400", "utility-nan", "utility-past-one"])
def test_nonfinite_data_file_is_io_error(tmp_path, command, header, row):
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n{row}\n")
    if command == "fit":
        res = CliRunner().invoke(main, ["fit", "--samples", str(path)])
    else:
        res = _run(tmp_path, json.dumps({"paths": {"utility_table": str(path)}}),
                   ["search", "--exhaustive"])
    assert res.exit_code == 3, res.output
    assert res.output.startswith(f"io error: {path} line 2:"), res.output


SAMPLES_HEADER = "h,r,s,comm_time_s,comp_time_s,rounds,bytes"
NINE_SAMPLES = [f"{h},{r},{1 + i % 3},{0.3 + 0.1 * i},{0.1 + 0.05 * i},29,{5000 + 1000 * i}"
                for i, (h, r) in enumerate([(1, 8), (1, 8), (1, 16), (1, 16), (1, 32),
                                            (2, 8), (2, 8), (2, 16), (2, 16)])]


@pytest.mark.parametrize("column", [0, 1, 2], ids=["h", "r", "s"])
def test_sample_past_max_party_words_is_io_error(tmp_path, column):
    """A 300-digit h, r or s in one row of a samples file that fits: refused
    at its line (the fit's design matrix once became an object array)."""
    rows = list(NINE_SAMPLES)
    cells = rows[2].split(",")
    cells[column] = "1" + "0" * 299
    rows[2] = ",".join(cells)
    path = tmp_path / "samples.csv"
    path.write_text("\n".join([SAMPLES_HEADER, *rows]) + "\n")
    res = CliRunner().invoke(main, ["fit", "--samples", str(path)])
    assert res.exit_code == 3, res.output
    name = "hrs"[column]
    assert res.output.startswith(f"io error: {path} line 4: {name} must be <= "
                                 f"{MAX_PARTY_WORDS}"), res.output


def test_sample_at_max_party_words_is_read(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text(f"{SAMPLES_HEADER}\n{MAX_PARTY_WORDS},1,1,0.1,0.1,29,1\n")
    (sample,) = load_samples_csv(path)
    assert sample.h == MAX_PARTY_WORDS


def test_duplicate_utility_rows_are_io_error(tmp_path):
    """Two rows of one (h, r, s) are refused, naming both lines, instead of
    the last one winning."""
    path = tmp_path / "utility.csv"
    path.write_text("h,r,s,utility\n1,4,1,0.9\n2,8,1,0.5\n1,4,1,0.1\n")
    with pytest.raises(CsvFormatError, match=r"lines 2 and 4 both give \(h, r, s\) = "
                                             r"\(1, 4, 1\)"):
        TableEvaluator.from_csv(path)
    res = _run(tmp_path, json.dumps({"paths": {"utility_table": str(path)}}),
               ["search", "--exhaustive"])
    assert res.exit_code == 3, res.output
    assert res.output.startswith(f"io error: {path} lines 2 and 4"), res.output
