import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import mpcadapter
from mpcadapter import cli, tensorio
from mpcadapter.cli import RunConfig, ConfigError, main
from mpcadapter.nn import (AdapterConfig, ConfigMismatchError, derived_rng,
                           inference_party, random_features, random_weights)
from mpcadapter.ring import DEFAULT_CONFIG
from mpcadapter.runtime import tcp_channel


@pytest.fixture
def runner():
    return CliRunner()


def _write_demo_files(tmp_path, config=None, n_inputs=2, seed=0):
    config = config or AdapterConfig()
    weights = random_weights(config, derived_rng(seed, "weights"))
    tensorio.save_weights_dir(tmp_path / "weights", weights, {}, dtype="u64ring")
    rng = derived_rng(seed, "inputs")
    feats = rng.standard_normal(
        (n_inputs, config.n_tokens, config.d_model)).astype(np.float32)
    tensorio.save_tensor_file(tmp_path / "features.bin", feats, "f32")
    doc = {
        "adapter": {"h": config.h, "r": config.r, "s": config.s},
        "paths": {"weights_dir": str(tmp_path / "weights"),
                  "features_file": str(tmp_path / "features.bin"),
                  "output_dir": str(tmp_path / "out")},
        "seed": seed,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    return cfg_path


# ---------------------------------------------------------------------------
# run configuration

def test_run_config_defaults():
    rc = RunConfig.parse({})
    assert rc.adapter == AdapterConfig()
    assert rc.env.label == "WAN"
    assert rc.seed == 0


def test_run_config_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.parse({"adapterr": {}})
    with pytest.raises(ConfigError, match="unknown keys in adapter"):
        RunConfig.parse({"adapter": {"heads": 2}})
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.parse({"fixed_point": {"frac_bits": 16}})  # the format is fixed


def test_run_config_invalid_adapter():
    with pytest.raises(ConfigError):
        RunConfig.parse({"adapter": {"h": 3, "r": 8}})


def test_run_config_env():
    rc = RunConfig.parse({"env": {"label": "LAN"}})
    assert rc.env.bandwidth_bps == 1e9
    rc = RunConfig.parse({"env": {"label": "slow", "bandwidth_mbps": 10,
                                  "latency_ms": 50}})
    assert rc.env.bandwidth_bps == 1e7
    assert rc.env.latency_s == 0.05


# ---------------------------------------------------------------------------
# commands

def test_estimate_json(runner):
    res = runner.invoke(main, ["--json", "estimate"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["rounds"] == 29
    assert doc["wan_total_time_s"] == pytest.approx(
        doc["wan_comm_time_s"] + doc["wan_comp_time_s"])
    assert doc["baseline"]["rounds"] == 77
    assert doc["round_speedup"] == pytest.approx(77 / 29)
    assert doc["traffic_ratio"] == pytest.approx(1.55 / doc["comm_gb"])
    assert doc["latency_speedup"] == pytest.approx(45.38 / doc["wan_total_time_s"])


def test_estimate_prints_round_speedup(runner):
    res = runner.invoke(main, ["estimate"])
    assert res.exit_code == 0
    assert "2.66x" in res.output
    assert "77" in res.output


def test_verify_passes(runner):
    res = runner.invoke(main, ["--seed", "3", "verify", "--inputs", "10"])
    assert res.exit_code == 0, res.output
    assert "PASS" in res.output


def test_verify_unreachable_tolerance(runner):
    res = runner.invoke(main, ["--seed", "3", "verify", "--inputs", "5",
                               "--tolerance", "1e-9"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_infer_in_process(runner, tmp_path):
    cfg_path = _write_demo_files(tmp_path)
    res = runner.invoke(main, ["--config", str(cfg_path), "--json", "infer"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["pipeline_rounds"] == [29, 29]
    assert len(doc["logits"]) == 2
    assert (tmp_path / "out" / "report.json").exists()


def test_infer_missing_weights(runner, tmp_path):
    cfg_path = _write_demo_files(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc["paths"]["weights_dir"] = str(tmp_path / "nope")
    cfg_path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["--config", str(cfg_path), "infer"])
    assert res.exit_code == 3
    assert "nope" in res.output


@pytest.mark.parametrize("shape", [(2, 8, 16), (2, 4, 32), (4, 32), (), (32,),
                                   (1, 2, 8, 32)],
                         ids=["d_model", "n_tokens", "rank-2 n_tokens", "rank-0",
                              "rank-1", "rank-4"])
def test_infer_rejects_features_of_another_shape(runner, tmp_path, shape):
    cfg_path = _write_demo_files(tmp_path)
    feats = np.zeros(shape, np.float32)
    tensorio.save_tensor_file(tmp_path / "features.bin", feats, "f32")
    res = runner.invoke(main, ["--config", str(cfg_path), "infer"])
    assert res.exit_code == 3, res.output
    assert "io error: features must be" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("other", [{"r": 16}, {"s": 2}], ids=["r", "s"])
def test_infer_rejects_weights_of_another_config(runner, tmp_path, other):
    """Weights saved for another (r, s) fail before any round, also when
    they hold every tensor the configured adapter needs (s=2 for s=1)."""
    cfg_path = _write_demo_files(tmp_path, config=AdapterConfig(**other))
    doc = json.loads(cfg_path.read_text())
    doc["adapter"] = {"h": 1, "r": 8, "s": 1}
    cfg_path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["--config", str(cfg_path), "infer"])
    assert res.exit_code == 3, res.output
    assert "io error: weights do not match the adapter config" in res.output
    assert not (tmp_path / "out").exists()


def test_infer_role1_rejects_weights_before_connecting(runner, tmp_path, monkeypatch):
    """Party 1's weights for another config exit 3 without a connect."""
    cfg_path = _write_demo_files(tmp_path, config=AdapterConfig(r=16))
    doc = json.loads(cfg_path.read_text())
    doc["adapter"]["r"] = 8
    cfg_path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "tcp_channel", None)
    res = runner.invoke(main, ["--config", str(cfg_path), "infer", "--role", "1"])
    assert res.exit_code == 3, res.output
    assert "io error: weights do not match the adapter config" in res.output


def _drop(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _entry(m: dict, entry: dict) -> dict:
    return m | {"tensors": [entry] + m["tensors"][1:]}


# Malformed weights directories: (file to overwrite, its new content as a
# function of the valid manifest; a dict is written as JSON).
MALFORMED_WEIGHTS = {
    "not-json": ("manifest.json", lambda m: "{not json"),
    "no-tensors": ("manifest.json", lambda m: _drop(m, "tensors")),
    "tensors-not-list": ("manifest.json", lambda m: m | {"tensors": {"down": [8, 8]}}),
    "no-name": ("manifest.json", lambda m: _entry(m, _drop(m["tensors"][0], "name"))),
    "no-shape": ("manifest.json", lambda m: _entry(m, _drop(m["tensors"][0], "shape"))),
    "no-dtype": ("manifest.json", lambda m: _entry(m, _drop(m["tensors"][0], "dtype"))),
    "shape-not-list": ("manifest.json",
                       lambda m: _entry(m, m["tensors"][0] | {"shape": 8})),
    "no-frac-bits": ("manifest.json", lambda m: _drop(m, "frac_bits")),
    "frac-bits-12": ("manifest.json", lambda m: m | {"frac_bits": 12}),
    "cut-header": ("weights.bin", lambda m: b"CPFT\x01"),
}


@pytest.mark.parametrize("case", MALFORMED_WEIGHTS)
def test_infer_rejects_malformed_weights_dir(runner, tmp_path, case):
    """A weights directory comes from outside the program: a malformed
    manifest or tensor record is an I/O error (exit 3) before any round."""
    cfg_path = _write_demo_files(tmp_path)
    name, content = MALFORMED_WEIGHTS[case]
    manifest = json.loads((tmp_path / "weights" / "manifest.json").read_text())
    data = content(manifest)
    path = tmp_path / "weights" / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data if isinstance(data, str) else json.dumps(data))
    res = runner.invoke(main, ["--config", str(cfg_path), "infer"])
    assert res.exit_code == 3, res.output
    assert "io error:" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [1 << 62, (1 << 64) - 1])
def test_infer_role1_rejects_forged_input_count(runner, tmp_path, count):
    """A party 0 that declares an absurd input count is a protocol error
    (exit 4) on party 1, raised before anything is allocated for it."""
    cfg_path = _write_demo_files(tmp_path)
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    digest = AdapterConfig().digest_words(extra=(DEFAULT_CONFIG.frac_bits, count))

    def fake_party0():
        ch = tcp_channel(0, "127.0.0.1", port, timeout=10)
        ch.exchange("setup", [digest])
        ch.end.close()

    t = threading.Thread(target=fake_party0)
    t.start()
    res = runner.invoke(main, ["--config", str(cfg_path), "infer", "--role", "1",
                               "--addr", f"127.0.0.1:{port}"])
    t.join(timeout=15)
    assert not t.is_alive()
    assert res.exit_code == 4, res.output
    assert f"declares {count} inputs" in res.output


@pytest.mark.parametrize("peer_h,code", [(1, 0), (2, 4)], ids=["success", "mismatch"])
def test_infer_tcp_closes_its_socket(runner, tmp_path, monkeypatch, peer_h, code):
    """`infer --role 1` closes its TCP socket whether the protocol succeeds
    or the peer runs another configuration (exit 4)."""
    cfg_path = _write_demo_files(tmp_path)
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    opened = []

    def recording_tcp_channel(*args, **kwargs):
        opened.append(tcp_channel(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "tcp_channel", recording_tcp_channel)
    peer_config = AdapterConfig(h=peer_h)

    def party0():
        ch = tcp_channel(0, "127.0.0.1", port, timeout=10)
        feats = [random_features(peer_config, derived_rng(0, "inputs"))]
        try:
            inference_party(0, peer_config, 0, features=feats)(ch)
        except ConfigMismatchError:
            pass
        finally:
            ch.end.close()

    t = threading.Thread(target=party0)
    t.start()
    res = runner.invoke(main, ["--config", str(cfg_path), "infer", "--role", "1",
                               "--addr", f"127.0.0.1:{port}"])
    t.join(timeout=15)
    assert not t.is_alive()
    assert res.exit_code == code, res.output
    assert len(opened) == 1
    assert opened[0].end._sock.fileno() == -1  # closed


def _party_process(cfg_path, role: str, port: int) -> subprocess.Popen:
    """`python -m mpcadapter.cli ... infer --role <role>` on this checkout."""
    path = [str(Path(mpcadapter.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.Popen(
        [sys.executable, "-m", "mpcadapter.cli", "--config", str(cfg_path),
         "infer", "--role", role, "--addr", f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))


@pytest.mark.parametrize("party0_h,code", [(1, 0), (2, 4)], ids=["success", "mismatch"])
def test_infer_as_two_processes(runner, tmp_path, party0_h, code):
    """The deployed mode: party 0 and party 1 as two processes over loopback
    TCP.  Party 0's logits equal in-process `infer` on the same files; when
    the two configs differ in h, both parties exit 4."""
    cfg1 = _write_demo_files(tmp_path)
    doc = json.loads(cfg1.read_text())
    doc["adapter"]["h"] = party0_h
    cfg0 = tmp_path / "run0.json"
    cfg0.write_text(json.dumps(doc))
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    procs = [_party_process(cfg0, "0", port), _party_process(cfg1, "1", port)]
    try:
        errs = [p.communicate(timeout=60)[1] for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait(timeout=10)
    assert [p.returncode for p in procs] == [code, code], errs
    if code:
        assert all(e.startswith("protocol error:") for e in errs), errs
        return
    report = json.loads((tmp_path / "out" / "report_party0.json").read_text())
    res = runner.invoke(main, ["--config", str(cfg1), "--json", "infer"])
    assert res.exit_code == 0, res.output
    assert report["logits"] == json.loads(res.output)["logits"]


@pytest.mark.parametrize("doc", [
    {"bogus": 1},
    {"env": {"bandwidth_mbps": 0}},
    {"env": {"latency_ms": -1}},
    {"env": {"bandwidth_mbps": "fast"}},
    {"seed": "abc"},
    None,
    {"seed": 1.7},
    {"paths": {"weights_dir": 5}},
    {"adapter": {"h": 1.5, "r": 3}},
    {"adapter": {"h": True}},
    {"adapter": {"d_model": 32.0}},
], ids=["unknown-key", "zero-bandwidth", "negative-latency", "bandwidth-not-a-number",
        "seed-not-a-number", "null-document", "seed-not-an-integer",
        "path-not-a-string", "h-not-an-integer", "h-bool", "d_model-real"])
def test_bad_config_is_usage_error(runner, tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    res = runner.invoke(main, ["--config", str(p), "estimate"])
    assert res.exit_code == 2
    assert res.output.startswith("config error:"), res.output


@pytest.mark.parametrize("command", ["profile", "infer"])
def test_unwritable_output_is_io_error(runner, tmp_path, command):
    """An output path under a regular file cannot be written: exit 3."""
    cfg_path = _write_demo_files(tmp_path)
    (tmp_path / "blocker").write_text("")
    out = tmp_path / "blocker" / "out"
    if command == "profile":
        args = ["profile", "--grid", "1:4,8:1,2", "--out", str(out / "samples.csv")]
    else:
        doc = json.loads(cfg_path.read_text())
        doc["paths"]["output_dir"] = str(out)
        cfg_path.write_text(json.dumps(doc))
        args = ["infer"]
    res = runner.invoke(main, ["--config", str(cfg_path)] + args)
    assert res.exit_code == 3, res.output
    assert res.output.startswith("io error:") and "blocker" in res.output


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e20], ids=["nan", "inf", "1e20"])
def test_infer_rejects_non_finite_or_huge_features(runner, tmp_path, value):
    """A feature the fixed-point format cannot hold is an I/O error (exit
    3) before any round, not a logit computed from a wrapped word."""
    cfg_path = _write_demo_files(tmp_path)
    feats = tensorio.load_tensor_file(tmp_path / "features.bin", "f32")
    feats[1, 2, 3] = value
    tensorio.save_tensor_file(tmp_path / "features.bin", feats, "f32")
    res = runner.invoke(main, ["--config", str(cfg_path), "infer"])
    assert res.exit_code == 3, res.output
    assert "io error:" in res.output
    assert not (tmp_path / "out").exists()


def test_infer_rejects_features_header_past_end_of_file(runner, tmp_path):
    """A features header whose dims need more bytes than the file holds is
    an I/O error (exit 3), not an int64 wrap or a huge allocation."""
    cfg_path = _write_demo_files(tmp_path)
    header = tensorio.MAGIC + np.array([1, 2], "<u2").tobytes()
    (tmp_path / "features.bin").write_bytes(
        header + np.array([1 << 32, 1 << 32], "<u8").tobytes())
    res = runner.invoke(main, ["--config", str(cfg_path), "infer"])
    assert res.exit_code == 3, res.output
    assert res.output.startswith("io error:") and "Traceback" not in res.output


def test_infer_rejects_nan_weight(runner, tmp_path):
    cfg_path = _write_demo_files(tmp_path)
    weights, _ = tensorio.load_weights_dir(tmp_path / "weights")
    tensorio.save_weights_dir(tmp_path / "weights", weights, {}, dtype="f32")
    blob = tmp_path / "weights" / "weights.bin"
    # The last f32 word of the file is the last word of the last tensor.
    blob.write_bytes(blob.read_bytes()[:-4] + np.float32(np.nan).tobytes())
    res = runner.invoke(main, ["--config", str(cfg_path), "infer"])
    assert res.exit_code == 3, res.output
    assert "io error:" in res.output
    assert not (tmp_path / "out").exists()


def test_profile_then_fit(runner, tmp_path):
    out = tmp_path / "samples.csv"
    res = runner.invoke(main, ["profile", "--grid", "1:4,8,12:1,2",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.exists()
    # too few distinct values to identify the model: h is constant
    res = runner.invoke(main, ["fit", "--samples", str(out)])
    assert res.exit_code == 2
    assert "h" in res.output


def test_fit_on_synthetic(runner, tmp_path):
    from mpcadapter.costmodel import PUBLISHED_WAN, ProfileSample, save_samples_csv
    grid = [(h, r, s) for h in (1, 2) for r in (8, 16) for s in (1, 2)]
    samples = [ProfileSample(h, r, s, PUBLISHED_WAN.comm_time(h, r, s),
                             PUBLISHED_WAN.comp_time(h, r, s), 26 * s + 3, 1)
               for h, r, s in grid]
    path = tmp_path / "s.csv"
    save_samples_csv(path, samples)
    res = runner.invoke(main, ["--json", "fit", "--samples", str(path)])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["comm"] == pytest.approx(list(PUBLISHED_WAN.comm))
    assert doc["r2_comm"] == pytest.approx(1.0)


def test_search_exhaustive_matches_brute_force(runner):
    res_a = runner.invoke(main, ["--json", "search", "--exhaustive"])
    res_b = runner.invoke(main, ["--json", "search", "--brute-force"])
    assert res_a.exit_code == 0 and res_b.exit_code == 0
    a, b = json.loads(res_a.output), json.loads(res_b.output)
    assert (a["h"], a["r"], a["s"]) == (b["h"], b["r"], b["s"])


def test_search_no_feasible_config(runner):
    res = runner.invoke(main, ["search", "--latency-target", "0.01"])
    assert res.exit_code == 1
    assert "no feasible config" in res.output


@pytest.mark.parametrize("args", [
    ["infer", "--role", "1", "--addr", "foo"],
    ["infer", "--role", "1", "--addr", "127.0.0.1:abc"],
    ["infer", "--role", "1", "--addr", "127.0.0.1:99999"],
    ["verify", "--inputs", "0"],
    ["verify", "--inputs", "-1"],
    ["profile", "--grid", "0:8:1", "--out", "samples.csv"],
    ["search", "--heads", "0"],
    ["search", "--heads", "3", "--ranks", "4"],
    ["profile", "--grid", "3:4:1", "--out", "samples.csv"],
    ["search", "--max-samples", "0"],
    ["search", "--max-samples", "-3"],
], ids=["addr-no-port", "addr-port-not-a-number", "addr-port-too-large",
        "verify-no-inputs", "verify-negative-inputs", "profile-zero-heads",
        "search-zero-heads", "search-no-valid-pair", "profile-no-valid-pair",
        "search-no-samples", "search-negative-samples"])
def test_bad_option_is_usage_error(runner, tmp_path, monkeypatch, args):
    """A bad option value exits 2 before any work."""
    monkeypatch.chdir(tmp_path)
    cfg_path = _write_demo_files(tmp_path)
    res = runner.invoke(main, ["--config", str(cfg_path)] + args)
    assert res.exit_code == 2, res.output
    assert not (tmp_path / "samples.csv").exists()


@pytest.mark.parametrize("command,header,row", [
    ("fit", "h,r,comm_time_s,comp_time_s,rounds,bytes", "1,8,0.1,0.1,29,1"),
    ("fit", "h,r,s,comm_time_s,comp_time_s,rounds,bytes", "1,8,1,fast,0.1,29,1"),
    ("search", "h,r,s,utility", "1,4,1,high"),
], ids=["samples-missing-column", "samples-not-a-number", "utility-not-a-number"])
def test_malformed_data_file_is_io_error(runner, tmp_path, command, header, row):
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n{row}\n")
    if command == "fit":
        args = ["fit", "--samples", str(path)]
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"paths": {"utility_table": str(path)}}))
        args = ["--config", str(cfg_path), "search", "--exhaustive"]
    res = runner.invoke(main, args)
    assert res.exit_code == 3, res.output
    assert "io error:" in res.output and str(path) in res.output
