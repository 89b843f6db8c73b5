"""Acceptance gate.

Each test covers one acceptance criterion and prints a single
"criterion N: PASS/FAIL (...)" line on the real stdout so the verdicts
survive pytest's capture.
"""

import socket
import threading
import time

import numpy as np
import pytest

from mpcadapter.costmodel import (PUBLISHED_WAN, SFT_BASELINE, estimate_comm_gb,
                                  estimate_latency, estimate_rounds,
                                  fit_cost_model, ProfileSample)
from mpcadapter.nas import (DEMO_TABLE, ExhaustiveController, SearchSpace,
                            SearchTargets, TableEvaluator, brute_force_search,
                            latency_model_fn, nas_search)
from mpcadapter.nn import (AdapterConfig, derived_rng, inference_party,
                           private_inference, random_features, random_weights,
                           weights_to_float)
from mpcadapter.ring import encode_fixed
from mpcadapter.runtime import LAN, WAN, MeterSummary, NetworkEnv, \
    simulate_latency, tcp_channel
from mpcadapter.sharing import (a2b, and_beaver_many, b2a_full, ltz,
                                mul_beaver_many, share_arith)

import reference
from protocol_helpers import run_protocol, share_bin

DESK_GRID = [(1, 4), (1, 8), (2, 8), (4, 8), (2, 12), (4, 16)]


@pytest.fixture
def report(capfd):
    """Print the verdict line outside pytest's capture, then assert."""
    def _report(num, ok, detail):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def test_criterion_1_mpc_correctness(report):
    t0 = time.perf_counter()
    config = AdapterConfig()
    weights = random_weights(config, derived_rng(0, "weights"))
    irng = derived_rng(0, "inputs")
    features = [random_features(config, irng) for _ in range(100)]
    result, _ = private_inference(config, weights, features, seed=0)
    wf = weights_to_float(weights)
    max_err, agree = 0.0, 0
    for feat, logits in zip(features, result["logits"]):
        ref = reference.pipeline_forward_float(feat.to_real(), wf, config)
        max_err = max(max_err, float(np.max(np.abs(np.asarray(logits) - ref))))
        agree += int(np.argmax(logits) == np.argmax(ref))
    elapsed = time.perf_counter() - t0
    ok = max_err <= 1e-2 and agree >= 98 and elapsed < 60
    report(1, ok, f"max err {max_err:.2e} <= 1e-2, agreement {agree}/100, "
                   f"{elapsed:.1f} s")


def test_criterion_2_round_ledger(report):
    failures = []
    for s in (1, 2, 3):
        for h, r in DESK_GRID:
            config = AdapterConfig(h=h, r=r, s=s)
            weights = random_weights(config, derived_rng(0, "weights"))
            feats = [random_features(config, derived_rng(0, "inputs"))]
            result, _ = private_inference(config, weights, feats, seed=0)
            got = result["pipeline_rounds"]
            if any(g != 26 * s + 3 for g in got):
                failures.append((h, r, s, got))
    ratio = round(SFT_BASELINE["rounds"] / estimate_rounds(1), 2)
    ok = not failures and estimate_rounds(1) == 29 and ratio == 2.66
    report(2, ok, f"26s+3 over {3 * len(DESK_GRID)} configs, s=1 -> 29, "
                   f"77/29 -> {ratio}x; mismatches: {failures}")


def test_criterion_3_protocol_exactness(report):
    t0 = time.perf_counter()
    n = 1000
    rng = np.random.Generator(np.random.PCG64(7))
    vals = rng.uniform(-100, 100, size=n)
    x = encode_fixed(vals)
    y = encode_fixed(rng.uniform(-100, 100, size=n))
    checks = {}

    s0, s1 = share_arith(x, rng)
    checks["share roundtrip"] = np.array_equal(s0 + s1, x)
    t0_, t1_ = share_arith(y, rng)
    checks["homomorphism"] = np.array_equal((s0 + t0_) + (s1 + t1_), x + y)

    def beaver(pid, ch, dealer):
        xs = (s0, s1)[pid]
        ys = (t0_, t1_)[pid]
        (z,) = mul_beaver_many([(xs, ys)], dealer, ch)
        return z
    z0, z1, _ = run_protocol(beaver)
    checks["beaver product"] = np.array_equal(z0 + z1, x * y)

    words_a = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    words_b = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    a0, a1 = share_bin(words_a, rng)
    b0, b1 = share_bin(words_b, rng)

    def band(pid, ch, dealer):
        (z,) = and_beaver_many([((a0, a1)[pid], (b0, b1)[pid])], dealer, ch)
        return z
    c0, c1, _ = run_protocol(band)
    checks["binary and"] = np.array_equal(c0 ^ c1, words_a & words_b)

    def roundtrip(pid, ch, dealer):
        back = b2a_full(a2b((s0, s1)[pid], dealer, ch), dealer, ch)
        return back
    r0, r1, _ = run_protocol(roundtrip)
    checks["a2b/b2a roundtrip"] = np.array_equal(r0 + r1, x)

    def sign(pid, ch, dealer):
        return ltz((s0, s1)[pid], dealer, ch)
    g0, g1, _ = run_protocol(sign)
    checks["ltz vs sign"] = np.array_equal(g0 + g1, (vals < 0).astype(np.uint64))

    elapsed = time.perf_counter() - t0
    bad = [k for k, v in checks.items() if not v]
    ok = not bad and elapsed < 30
    report(3, ok, f"{n} exact cases x {len(checks)} suites, {elapsed:.1f} s; "
                   f"failing: {bad}")


def test_criterion_4_published_formulas(report):
    t0 = time.perf_counter()
    wavy = [((2, 120, 2), 2.55), ((1, 300, 1), 2.24), ((4, 180, 1), 1.79),
            ((12, 300, 1), 2.66), ((1, 180, 1), 1.68)]
    bad = []
    for (h, r, s), want in wavy:
        got = estimate_latency(AdapterConfig(h=h, r=r, s=s))[2]
        if abs(got - want) > 0.01:
            bad.append((h, r, s, got, want))
    gb_wan = estimate_comm_gb(AdapterConfig(h=1, r=300, s=1))
    gb_lan = estimate_comm_gb(AdapterConfig(h=1, r=240, s=1))
    elapsed = time.perf_counter() - t0
    ok = (not bad and abs(gb_wan - 0.06) <= 0.005
          and abs(gb_lan - 0.05) <= 0.005
          and estimate_rounds(1) == 29 and elapsed < 1)
    report(4, ok, f"5 latencies +-0.01, traffic {gb_wan:.4f}/{gb_lan:.4f} GB "
                   f"vs 0.06/0.05, rounds 29, {elapsed:.2f} s; bad: {bad}")


def test_criterion_5_fit_recovery(report):
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(42))
    grid = [(h, r, s) for h in (1, 12) for r in (60, 300) for s in (1, 6)]
    samples = []
    for _ in range(15):
        for h, r, s in grid:
            comm = PUBLISHED_WAN.comm_time(h, r, s) * (1 + rng.uniform(-.03, .03))
            comp = PUBLISHED_WAN.comp_time(h, r, s) * (1 + rng.uniform(-.03, .03))
            samples.append(ProfileSample(h=h, r=r, s=s, comm_time_s=comm,
                                         comp_time_s=comp, rounds=26 * s + 3,
                                         bytes=1))
    coeffs, r2_comm, r2_comp = fit_cost_model(samples, "WAN")
    rel = max(
        float(np.max(np.abs(np.array(coeffs.comm) / np.array(PUBLISHED_WAN.comm) - 1))),
        float(np.max(np.abs(np.array(coeffs.comp) / np.array(PUBLISHED_WAN.comp) - 1))))
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and r2_comm >= 0.99 and r2_comp >= 0.99 and elapsed < 5
    report(5, ok, f"{len(samples)} noisy samples, max coeff err {rel:.1%} "
                   f"<= 5%, R^2 {r2_comm:.4f}/{r2_comp:.4f}, {elapsed:.2f} s")


def test_criterion_6_nas_oracle_equivalence(report):
    t0 = time.perf_counter()
    space = SearchSpace(heads=(1, 2, 4), ranks=(4, 8, 12, 16), s_max=3)
    targets = SearchTargets(utility=0.85, latency_s=2.0, patience=50)
    lat = latency_model_fn(PUBLISHED_WAN)
    ev = TableEvaluator.from_csv(DEMO_TABLE)
    oracle = brute_force_search(targets, lat, space, ev)
    ctrl = ExhaustiveController(space.valid_pairs(),
                                order_key=lambda p: lat(p[0], p[1], 1))
    exhaustive = nas_search(targets, lat, space, ev, controller=ctrl)
    best = (oracle.h, oracle.r, oracle.s)
    same = ((exhaustive.h, exhaustive.r, exhaustive.s) == best
            and exhaustive.utility == oracle.utility)
    wins = 0
    for seed in range(20):
        got = nas_search(targets, lat, space, ev, seed=seed, max_samples=200)
        if got.utility is not None and got.utility >= targets.utility:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = same and wins >= 19 and elapsed < 60
    report(6, ok, f"exhaustive == oracle {best}: {same}, "
                   f"stochastic {wins}/20 seeds, {elapsed:.1f} s")


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def test_criterion_7_transport_equivalence(report):
    t0 = time.perf_counter()
    config = AdapterConfig(h=2, r=8, s=2)
    weights = random_weights(config, derived_rng(0, "weights"))
    irng = derived_rng(0, "inputs")
    features = [random_features(config, irng) for _ in range(3)]

    local, meters = private_inference(config, weights, features, seed=0)

    port = _free_port()
    out = {}

    def party(pid):
        ch = tcp_channel(pid, "127.0.0.1", port, timeout=10)
        proto = inference_party(pid, config, 0,
                                weights=weights if pid == 1 else None,
                                features=features if pid == 0 else None)
        out[pid] = (proto(ch), ch.meter)
        ch.end.close()

    t = threading.Thread(target=party, args=(1,))
    t.start()
    party(0)
    t.join()

    tcp_result, tcp_meter = out[0]
    logits_same = all(
        np.array_equal(np.asarray(a), np.asarray(b))
        for a, b in zip(local["logits"], tcp_result["logits"]))
    rounds_same = meters[0].rounds == tcp_meter.rounds
    bytes_same = meters[0].bytes_sent == tcp_meter.bytes_sent
    elapsed = time.perf_counter() - t0
    ok = logits_same and rounds_same and bytes_same and elapsed < 60
    report(7, ok, f"logits identical: {logits_same}, rounds "
                   f"{meters[0].rounds}=={tcp_meter.rounds}, bytes "
                   f"{meters[0].bytes_sent}=={tcp_meter.bytes_sent}, "
                   f"{elapsed:.1f} s")


def test_criterion_8_latency_simulation(report):
    cases = [
        (MeterSummary(29, 0), WAN, 29 * 2 * 4e-3),
        (MeterSummary(0, int(5e8)), LAN, 5e8 * 8 / 1e9),
        (MeterSummary(10, 1_000_000), NetworkEnv("slow", 1e7, 0.05),
         10 * 2 * 0.05 + 1_000_000 * 8 / 1e7),
    ]
    bad = [(m, env.label) for m, env, want in cases
           if simulate_latency(m, env) != pytest.approx(want, rel=1e-12)]
    ok = not bad
    report(8, ok, f"3 hand-computed meters exact; bad: {bad}")
