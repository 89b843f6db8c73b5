"""Tests of the benchmark itself: determinism, span accounting, the output
check, and the refusal to run without the library source.

    python -m pytest inferbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpcadapter import nn

import checks
import sessions
import spans
import workloads

HERE = Path(__file__).resolve().parent
SEED = 7
DESK = workloads.WORKLOADS["desk-batch"]


def _request(wl, index=0, tracer=None):
    weights = workloads.make_weights(wl.config, SEED)
    pool = workloads.make_pool(wl, SEED)
    session = sessions.InProcSession(wl, weights)
    if tracer:
        tracer.scope = "request"
    result, m0, m1 = session.request(workloads.request_seed(SEED, index), pool[0])
    return weights, pool, result, m0, m1


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_tracing_changes_no_logit_or_meter():
    _, _, plain, *meters = _request(DESK)
    t = spans.Tracer()
    t.install()
    try:
        _, _, traced, *traced_meters = _request(DESK, tracer=t)
    finally:
        t.uninstall()
    assert plain["pipeline_rounds"] == traced["pipeline_rounds"]
    for a, b in zip(plain["logits"], traced["logits"], strict=True):
        assert np.array_equal(a, b)
    assert meters == traced_meters


def test_uninstall_restores_library():
    before = (nn.linear_private, nn.matmul_beaver_many, spans.runtime.Channel.exchange)
    t = spans.Tracer()
    t.install()
    assert nn.linear_private is not before[0]
    assert nn.matmul_beaver_many is not before[1]
    t.uninstall()
    assert (nn.linear_private, nn.matmul_beaver_many,
            spans.runtime.Channel.exchange) == before


def test_stage_rounds_sum_to_party_meter(tracer):
    _, _, _, m0, m1 = _request(DESK, tracer=tracer)
    totals = spans.aggregate(tracer.spans())
    for party, (rounds, nbytes) in ((0, m0), (1, m1)):
        got = spans.party_metrics(totals, party, 1)
        stage_rounds = sum(got[f"nn.{s}.rounds"] for s in spans.STAGES.values())
        request_rounds = totals[(party, "request")]["nn.request.rounds"]
        assert stage_rounds + request_rounds == rounds
        assert stage_rounds == DESK.inputs_per_request * (DESK.expected_rounds)
        assert got["runtime.exchange.calls"] == rounds
        assert got["runtime.exchange.bytes"] == nbytes
        assert sum(got[f"nn.{s}.bytes"] for s in spans.STAGES.values()) <= nbytes


def test_span_self_time_excludes_children(tracer):
    _request(DESK, tracer=tracer)
    for _, thread_spans in tracer.spans():
        selfs = spans._self_times(thread_spans)
        assert all(st >= -1e-9 for st in selfs)
        assert sum(selfs) <= sum(s.cpu for s in thread_spans
                                 if s.parent < 0) + 1e-6
        assert all(s.cpu <= s.duration() + 1e-3 for s in thread_spans)


def _account(wl, result):
    weights = workloads.make_weights(wl.config, SEED)
    refs = checks.references(wl.config, weights, workloads.make_pool(wl, SEED))
    return checks.account([{"batch": 0, "error": None, "result": result}], refs, wl)


def test_untampered_request_passes():
    _, _, result, _, _ = _request(DESK)
    counts = _account(DESK, result)
    assert counts["attempted"] == DESK.inputs_per_request
    assert counts["failed"] == 0


def test_tampered_logit_fails():
    _, _, result, _, _ = _request(DESK)
    result["logits"][1] = result["logits"][1] + np.eye(10)[3] * 0.05
    counts = _account(DESK, result)
    assert (counts["failed"], counts["twin"]) == (1, 1)
    assert counts["failures"][0]["input"] == 1


def test_wrong_ledger_fails():
    _, _, result, _, _ = _request(DESK)
    result["pipeline_rounds"][2] += 1
    counts = _account(DESK, result)
    assert (counts["failed"], counts["ledger"]) == (1, 1)


def test_missing_input_and_raised_request_fail_whole_batch():
    _, _, result, _, _ = _request(DESK)
    result["logits"].pop()
    assert _account(DESK, result)["failed"] == DESK.inputs_per_request
    refs = [[None] * DESK.inputs_per_request]
    counts = checks.account([{"batch": 0, "error": "ChannelError()", "result": None}],
                            refs, DESK)
    assert (counts["failed"], counts["raised"]) == (DESK.inputs_per_request,) * 2


def test_nonfinite_reference_disagrees():
    ref = checks.Reference(twin=np.zeros(3), float64=np.array([0.0, np.nan, 1.0]))
    assert checks.float_agreement(np.zeros(3), ref) == (False, False)


def test_inputs_are_deterministic_per_seed():
    a, b = workloads.make_pool(DESK, 3), workloads.make_pool(DESK, 3)
    assert all(np.array_equal(x.data, y.data)
               for xs, ys in zip(a, b) for x, y in zip(xs, ys))
    assert not np.array_equal(a[0][0].data, workloads.make_pool(DESK, 4)[0][0].data)
    assert workloads.request_seed(3, 0) != workloads.request_seed(3, 1)


def test_tail_leaves_ten_samples_beyond():
    import bench
    value, pct = bench.tail(list(range(40)))
    assert value == 29 and sum(v > value for v in range(40)) == 10
    assert pct == pytest.approx(75.0)
    assert bench.tail(list(range(16))) == (8, pytest.approx(56.25))  # upper median
    assert bench.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3))


def test_refuses_to_run_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "inferbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "inferbench/run.py", "--workload", "desk-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tcp_request_matches_in_process():
    wl = workloads.WORKLOADS["paper-tcp"]
    weights = workloads.make_weights(wl.config, SEED)
    pool = workloads.make_pool(wl, SEED)
    seed = workloads.request_seed(SEED, 0)
    inproc, m0, m1 = sessions.InProcSession(wl, weights).request(seed, pool[0])
    tcp = sessions.TcpSession(wl, SEED)
    try:
        # The child serves the warm-up seed first, as in a benchmark run.
        tcp.request(workloads.request_seed(SEED, -1), pool[0])
        got, t0, _ = tcp.request(seed, pool[0])
    finally:
        child = tcp.close()
    assert np.array_equal(inproc["logits"][0], got["logits"][0])
    assert t0 == m0
    assert child["meters"][1] == list(m1)
    assert len(child["cpu_s"]) == 2 and min(child["cpu_s"]) > 0
    assert json.dumps(child)  # the child report is plain JSON


def test_tcp_request_that_raises_is_counted(monkeypatch):
    import bench
    wl = workloads.WORKLOADS["paper-tcp"]
    original, calls = nn.inference_party, []

    def inference_party(party_id, *args, **kwargs):
        calls.append(party_id)
        if len(calls) < 3:  # the warm-up and the first timed request
            return original(party_id, *args, **kwargs)

        def protocol(channel):
            channel.exchange("probe", [np.zeros(1, np.uint64)])
            raise ValueError("party 0 failed mid-request")
        return protocol

    monkeypatch.setattr(nn, "inference_party", inference_party)
    phase = bench.run_phase(wl, SEED, 120, 1)
    first, second = phase["requests"]
    assert first["error"] is None and first["m1"] is not None
    assert second["error"] is not None
    assert phase["children"][-1]["error"] is not None
    assert first["cpu_s"] > phase["children"][-1]["cpu_s"][1] > 0
    metrics, facts = bench.end_to_end(wl, phase)
    assert facts["requests_ok"] == 1
    assert metrics["rounds_per_request"] == wl.expected_rounds + 3


def test_benchmark_json_lists_what_the_benchmark_reports():
    import bench
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.E2E_UNITS
    expected = [f"{p}.{m}" for p in ("p0", "p1")
                for m in spans.PER_REQUEST + spans.PER_SETUP]
    expected += ["trace.overhead", "costmodel.bytes_ratio", "costmodel.wan_ratio"]
    assert [m["name"] for m in doc["per_layer"]] == expected
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
