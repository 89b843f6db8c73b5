import hashlib
import math
import threading

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from protocol_helpers import run_protocol

from mpcadapter import kernels
from mpcadapter.nn import _setup
from mpcadapter.nn import (PROTOCOL_REVISION, RSQRT_AFFINE, RSQRT_AFFINE_WINDOW,
                           RSQRT_CUBIC, RSQRT_CUBIC_WINDOW, AdapterConfig,
                           ConfigMismatchError, PartyContext, PartyInputError,
                           PlainContext, adapter_forward_private, derived_rng,
                           inference_party, layernorm_private,
                           linatten_private, linear_private,
                           pipeline_forward_float, pipeline_forward_plain,
                           private_inference, random_features, random_weights,
                           relu_private, weight_names, weight_shape,
                           weight_shapes, weights_to_float)
from mpcadapter.ring import (DEFAULT_CONFIG, FixedTensor, RingOverflowError,
                            decode_fixed, encode_fixed)
from mpcadapter.runtime import in_process_pair, run_two_party
from mpcadapter.sharing import TripleDealer, share_arith

ULP = 2.0 ** -16
GRID = [(1, 4), (1, 8), (2, 8), (4, 8), (2, 12), (4, 16)]


def _poly_eval(coeffs, v):
    return sum(c * v ** i for i, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# config and weights

def test_config_validation():
    with pytest.raises(ValueError):
        AdapterConfig(h=3, r=8)  # r not divisible by h
    with pytest.raises(ValueError):
        AdapterConfig(h=0, r=8)
    with pytest.raises(ValueError):
        AdapterConfig(scaler=5.0)
    cfg = AdapterConfig(h=2, r=8, s=2)
    assert cfg.head_dim == 4
    assert cfg.mlp_dim == 16


@pytest.mark.parametrize("fields", [{"h": 1.5, "r": 3}, {"h": True}, {"d_model": 32.0},
                                    {"scaler": False}, {"scaler": "0.5"}],
                         ids=["h-real", "h-bool", "d_model-real", "scaler-bool",
                              "scaler-str"])
def test_config_field_types(fields):
    with pytest.raises(TypeError):
        AdapterConfig(**fields)


def test_digest_words_golden():
    """The handshake words: revision, then every field in declaration
    order, the scaler at scale 2^16.  Numpy integers and an integer scaler
    are valid fields."""
    assert AdapterConfig().digest_words().tolist() == [2, 1, 8, 1, 32768, 32, 8, 10]
    paper = AdapterConfig(h=8, r=64, s=4, d_model=768, n_tokens=128)
    assert paper.digest_words().tolist() == [2, 8, 64, 4, 32768, 768, 128, 10]
    cfg = AdapterConfig(h=np.int64(2), r=np.int32(8), scaler=1)
    assert cfg.digest_words().tolist() == [2, 2, 8, 1, 65536, 32, 8, 10]


def test_weight_inventory():
    cfg = AdapterConfig(h=2, r=8, s=2)
    names = weight_names(cfg)
    # 9 linear weights + 4 norm parameters per adapter, 3 tail tensors
    assert len(names) == 2 * 13 + 3
    assert weight_shape(cfg, "adapter0.wl") == (cfg.n_tokens, cfg.n_tokens)
    assert weight_shape(cfg, "adapter1.fc1") == (8, 16)
    assert weight_shape(cfg, "classifier") == (32, 10)


def test_random_weights_reproducible():
    cfg = AdapterConfig()
    w1 = random_weights(cfg, derived_rng(5, "weights"))
    w2 = random_weights(cfg, derived_rng(5, "weights"))
    assert all(np.array_equal(w1[k].data, w2[k].data) for k in w1)


# ---------------------------------------------------------------------------
# inverse-sqrt polynomial contracts

def test_rsqrt_cubic_window_error():
    lo, hi = RSQRT_CUBIC_WINDOW
    v = np.linspace(lo, hi, 5000)
    rel = np.abs(_poly_eval(RSQRT_CUBIC, v) * np.sqrt(v) - 1.0)
    assert rel.max() <= 0.05


def test_rsqrt_affine_window_error():
    lo, hi = RSQRT_AFFINE_WINDOW
    v = np.linspace(lo, hi, 5000)
    rel = np.abs(_poly_eval(RSQRT_AFFINE, v) * np.sqrt(v) - 1.0)
    assert rel.max() <= 0.15


@pytest.mark.xfail(strict=True, reason=(
    "a round budget of 3 caps the inverse-sqrt at a cubic polynomial of "
    "the variance, and no cubic reaches 5% relative error over [0.1, 10] "
    "(the minimax cubic sits at 36.8%); the shipped coefficients hold the "
    "contract on the narrower window instead"))
def test_rsqrt_cubic_wide_range():
    v = np.linspace(0.1, 10.0, 5000)
    rel = np.abs(_poly_eval(RSQRT_CUBIC, v) * np.sqrt(v) - 1.0)
    assert rel.max() <= 0.05


@pytest.mark.xfail(strict=True, reason=(
    "no affine function of the variance reaches 15% relative error over "
    "[0.1, 10] (minimax 60.7%); the shipped coefficients hold the contract "
    "on the narrower window instead"))
def test_rsqrt_affine_wide_range():
    v = np.linspace(0.1, 10.0, 5000)
    rel = np.abs(_poly_eval(RSQRT_AFFINE, v) * np.sqrt(v) - 1.0)
    assert rel.max() <= 0.15


# ---------------------------------------------------------------------------
# plaintext backend products (the fixed-point twin's multiply and matmul)

def _plain_mul(x, y):
    ctx = PlainContext()
    (raw,) = ctx.mul_many([(encode_fixed(x), encode_fixed(y))], "t")
    return decode_fixed(ctx.truncate(raw))


def _plain_matmul(a, b):
    return decode_fixed(linear_private(PlainContext(), a, b))


def test_mul_examples():
    assert _plain_mul(1.5, 2.0) == 3.0
    assert _plain_mul(0.5, 0.5) == 0.25
    assert _plain_mul(-1.0, 1.0) == -1.0


@settings(max_examples=200)
@given(st.floats(-100, 100), st.floats(-100, 100))
def test_mul_error_bound(x, y):
    got = _plain_mul(x, y)
    x_q = decode_fixed(encode_fixed(x))
    y_q = decode_fixed(encode_fixed(y))
    assert abs(got - x_q * y_q) <= ULP


def test_matmul_identity(rng):
    b = encode_fixed(rng.standard_normal((2, 3)))
    eye = encode_fixed(np.eye(2))
    got = _plain_matmul(eye, b)
    assert np.max(np.abs(got - decode_fixed(b))) <= 2 * ULP


def test_matmul_hand():
    a = encode_fixed([[1.0, 2.0]])
    b = encode_fixed([[3.0], [4.0]])
    assert _plain_matmul(a, b) == [[11.0]]


def test_matmul_vs_float(rng):
    k = 4
    a = rng.standard_normal((4, k))
    b = rng.standard_normal((k, 4))
    got = _plain_matmul(encode_fixed(a), encode_fixed(b))
    assert np.max(np.abs(got - a @ b)) <= k * ULP * max(1.0, np.abs(a).max(), np.abs(b).max())


def test_matmul_shape_mismatch(rng):
    a = encode_fixed(rng.standard_normal((2, 3)))
    b = encode_fixed(rng.standard_normal((2, 3)))
    with pytest.raises(ValueError):
        _plain_matmul(a, b)


# Every public constant the adapter wiring multiplies by: the rsqrt
# coefficients, the row means' 1/r and 1/d_model (desk and paper shapes;
# 2^8/768 at paper width, which is not a power of two), and the scaler.
_PUBLIC_CONSTANTS = [*RSQRT_CUBIC, *RSQRT_AFFINE, 1 / 8, 1 / 64, 1 / 32, 2 ** 8 / 768,
                     AdapterConfig().scaler]


def _public_contexts():
    ch0, ch1 = in_process_pair(1.0)
    return {"plain": PlainContext(), "party0": PartyContext(ch0, TripleDealer(0, 0)),
            "party1": PartyContext(ch1, TripleDealer(0, 1))}


@pytest.mark.parametrize("backend", ["plain", "party0", "party1"])
def test_mul_public_real_equals_fresh_encoding(backend, rng):
    """A ring backend's cached encoding of a public constant gives the words
    of a fresh ``encode_fixed``, on every call."""
    ctx = _public_contexts()[backend]
    x = rng.integers(0, 1 << 64, size=(3, 5), dtype=np.uint64)
    for value in _PUBLIC_CONSTANTS * 2:
        want = ctx.truncate(x * encode_fixed(value))
        got = ctx.truncate(x * ctx.public(value))
        assert got.dtype == np.uint64 and np.array_equal(got, want)


@pytest.mark.parametrize("backend", ["plain", "party0", "party1"])
def test_mul_public_real_overflow_raises_every_call(backend):
    ctx = _public_contexts()[backend]
    for value in (2.0 ** 46, -(2.0 ** 46), 2.0 ** 46, 1e30):
        with pytest.raises(RingOverflowError):
            ctx.public(value)


# ---------------------------------------------------------------------------
# private operators vs oracles

def _ctx_protocol(fn):
    """Wrap fn(ctx, pid) into a run_protocol callable."""
    def proto(pid, ch, dealer):
        return fn(PartyContext(ch, dealer), pid)
    return proto


def test_linear_identity(rng):
    x = encode_fixed(rng.standard_normal((4, 6)))
    w = encode_fixed(np.eye(6))
    xs, ws = share_arith(x, rng), share_arith(w, rng)

    def fn(ctx, pid):
        return linear_private(ctx, xs[pid], ws[pid])

    out0, out1, (m0, _) = run_protocol(_ctx_protocol(fn))
    assert np.max(np.abs(decode_fixed(out0 + out1) - decode_fixed(x))) <= 8 * ULP
    assert m0.rounds == 1


def test_relu_exact(rng):
    vals = np.concatenate([[-2.0, 3.0, 0.0], rng.uniform(-10, 10, 61)])
    x = encode_fixed(vals)
    xs = share_arith(x, rng)

    def fn(ctx, pid):
        return relu_private(ctx, xs[pid])

    out0, out1, (m0, _) = run_protocol(_ctx_protocol(fn))
    got = decode_fixed(out0 + out1)
    assert np.max(np.abs(got - np.maximum(0.0, decode_fixed(x)))) <= 2.0 ** -15
    assert m0.rounds == 9


def test_layernorm_constant_row_is_bias(rng):
    d = 8
    x = encode_fixed(np.full((2, d), 1.7))
    gain = encode_fixed(1.0 + 0.0 * np.zeros(d))
    bias = encode_fixed(rng.standard_normal(d) * 0.1)
    xs = share_arith(x, rng)
    gs, bs = share_arith(gain, rng), share_arith(bias, rng)

    def fn(ctx, pid):
        return layernorm_private(ctx, xs[pid], gs[pid], bs[pid], RSQRT_CUBIC)

    out0, out1, (m0, _) = run_protocol(_ctx_protocol(fn))
    got = decode_fixed(out0 + out1)
    assert np.max(np.abs(got - decode_fixed(bias))) <= 1e-3
    assert m0.rounds == 3


def test_layernorm_unit_variance_row(rng):
    x = encode_fixed(np.array([[1.0, -1.0]]))
    gain = encode_fixed(np.ones(2))
    bias = encode_fixed(np.zeros(2))
    xs, gs, bs = share_arith(x, rng), share_arith(gain, rng), share_arith(bias, rng)

    def fn(ctx, pid):
        return layernorm_private(ctx, xs[pid], gs[pid], bs[pid], RSQRT_CUBIC)

    out0, out1, _ = run_protocol(_ctx_protocol(fn))
    got = decode_fixed(out0 + out1)
    # var = 1 sits inside the polynomial window; 5% contract applies
    assert np.max(np.abs(got - [[1.0, -1.0]])) <= 0.05


@pytest.mark.parametrize("coeffs,window,rounds", [
    (RSQRT_CUBIC, RSQRT_CUBIC_WINDOW, 3),
    (RSQRT_AFFINE, RSQRT_AFFINE_WINDOW, 2),
], ids=["cubic", "affine"])
def test_layernorm_matches_float_twin(rng, coeffs, window, rounds):
    lo, hi = window
    d = 16
    rows = rng.standard_normal((6, d))
    # rescale each row so its variance lies inside the polynomial window
    target = rng.uniform(lo * 1.05, hi * 0.95, size=(6, 1))
    rows = (rows - rows.mean(-1, keepdims=True))
    rows *= np.sqrt(target / rows.var(-1, keepdims=True))
    x = encode_fixed(rows)
    gain = encode_fixed(1.0 + 0.05 * rng.standard_normal(d))
    bias = encode_fixed(0.02 * rng.standard_normal(d))
    xs, gs, bs = share_arith(x, rng), share_arith(gain, rng), share_arith(bias, rng)

    def fn(ctx, pid):
        return layernorm_private(ctx, xs[pid], gs[pid], bs[pid], coeffs)

    out0, out1, (m0, _) = run_protocol(_ctx_protocol(fn))
    got = decode_fixed(out0 + out1)
    want = reference.layernorm_float(decode_fixed(x), decode_fixed(gain),
                                     decode_fixed(bias), coeffs)
    assert np.max(np.abs(got - want)) <= 1e-3
    assert m0.rounds == rounds


def test_linatten_zero_values(rng):
    cfg = AdapterConfig(h=2, r=8)
    shape = (cfg.h, cfg.n_tokens, cfg.head_dim)
    q = share_arith(encode_fixed(rng.standard_normal(shape)), rng)
    k = share_arith(encode_fixed(rng.standard_normal(shape)), rng)
    v = share_arith(encode_fixed(np.zeros(shape)), rng)
    wl = share_arith(encode_fixed(rng.standard_normal((8, 8)) * 0.1), rng)

    def fn(ctx, pid):
        return linatten_private(ctx, q[pid], k[pid], v[pid], wl[pid])

    out0, out1, (m0, _) = run_protocol(_ctx_protocol(fn))
    assert np.max(np.abs(decode_fixed(out0 + out1))) <= 16 * ULP
    assert m0.rounds == 3  # two score matmuls plus the mixing linear


def test_linatten_hand_single_head(rng):
    n, dh = 2, 2
    qv = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    kv = np.array([[[2.0, 0.0], [0.0, 0.5]]])
    vv = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    wl = np.eye(n)
    q = share_arith(encode_fixed(qv), rng)
    k = share_arith(encode_fixed(kv), rng)
    v = share_arith(encode_fixed(vv), rng)
    wls = share_arith(encode_fixed(wl), rng)

    def fn(ctx, pid):
        return linatten_private(ctx, q[pid], k[pid], v[pid], wls[pid])

    out0, out1, _ = run_protocol(_ctx_protocol(fn))
    want = (wl @ (qv[0] @ kv[0].T)) @ vv[0]
    assert np.max(np.abs(decode_fixed(out0 + out1)[0] - want)) <= 1e-3


def test_linatten_is_comparison_free(rng):
    """No sign-test or share-conversion traffic on the attention path."""
    cfg = AdapterConfig(h=2, r=8)
    shape = (cfg.h, cfg.n_tokens, cfg.head_dim)
    q = share_arith(encode_fixed(rng.standard_normal(shape)), rng)
    k = share_arith(encode_fixed(rng.standard_normal(shape)), rng)
    v = share_arith(encode_fixed(rng.standard_normal(shape)), rng)
    wl = share_arith(encode_fixed(rng.standard_normal((8, 8)) * 0.1), rng)

    def fn(ctx, pid):
        return linatten_private(ctx, q[pid], k[pid], v[pid], wl[pid])

    _, _, (m0, _) = run_protocol(_ctx_protocol(fn))
    assert set(m0.breakdown) <= {"atten-kv", "atten-q", "linear"}


def test_linatten_private_at_n_not_a_power_of_two(rng):
    """At n = 12, K^T V is truncated by f + 3 and W_L's words are scaled by
    2^3: the private result is (W_L (Q K^T)) V of the encoded operands."""
    h, n, dh = 2, 12, 4
    qv, kv, vv = (rng.standard_normal((h, n, dh)) for _ in range(3))
    wl = decode_fixed(encode_fixed(rng.standard_normal((n, n)) * 0.1))
    q, k, v = (share_arith(encode_fixed(t), rng) for t in (qv, kv, vv))
    wls = share_arith(encode_fixed(wl), rng)

    def fn(ctx, pid):
        return linatten_private(ctx, q[pid], k[pid], v[pid], wls[pid])

    out0, out1, (m0, _) = run_protocol(_ctx_protocol(fn))
    qv, kv, vv = (decode_fixed(encode_fixed(t)) for t in (qv, kv, vv))
    want = (wl @ (qv @ kv.transpose(0, 2, 1))) @ vv
    assert np.max(np.abs(decode_fixed(out0 + out1) - want)) <= 1e-3
    assert m0.rounds == 3


def _ring_products(monkeypatch, proto0, proto1):
    """Run two party closures; return each party's ring matmuls as
    (left shape, right shape) pairs, in call order."""
    calls, party = {0: [], 1: []}, threading.local()
    real = kernels.matmul_u64

    def counted(a, b):
        calls[party.pid].append((a.shape, b.shape))
        return real(a, b)

    def as_party(pid, protocol):
        def run(channel):
            party.pid = pid
            return protocol(channel)
        return run

    monkeypatch.setattr(kernels, "matmul_u64", counted)
    run_two_party(as_party(0, proto0), as_party(1, proto1))
    return calls


def test_wl_product_is_one_2d_product(monkeypatch, rng):
    """W_L enters one [h*dh, n] @ [n, n] product, opened once.  Party 0's
    share of it is zero, so party 0 makes one ring product (a @ d) and
    party 1 two (a @ d, e @ W_L), plus the dealer's a @ b."""
    h, r, n = 2, 8, 12
    q, k, v = (share_arith(encode_fixed(rng.standard_normal((h, n, r // h))), rng)
               for _ in range(3))
    wl = encode_fixed(rng.standard_normal((n, n)) * 0.1)
    wls = (np.zeros_like(wl), wl)

    def party(pid):
        def proto(channel):
            ctx = PartyContext(channel, TripleDealer(0, pid))
            return linatten_private(ctx, q[pid], k[pid], v[pid], wls[pid])
        return proto

    calls = _ring_products(monkeypatch, party(0), party(1))
    for pid, want in ((0, 1), (1, 3)):
        wl_calls = [c for c in calls[pid] if c[1] == (n, n)]
        assert wl_calls == [((r, n), (n, n))] * want


# ---------------------------------------------------------------------------
# adapter block and pipeline

def _run_adapter(config, rng, seed=0):
    weights = random_weights(config, derived_rng(seed, "weights"))
    feat = random_features(config, derived_rng(seed, "inputs"))
    wshares = {k: share_arith(v.data, rng) for k, v in weights.items()}
    xs = share_arith(feat.data, rng)

    def fn(ctx, pid):
        w = {k: v[pid] for k, v in wshares.items()}
        return adapter_forward_private(ctx, xs[pid], w, config)

    out0, out1, meters = run_protocol(_ctx_protocol(fn), seed=seed)
    return feat, weights, decode_fixed(out0 + out1), meters


@pytest.mark.parametrize("h,r", GRID)
def test_adapter_is_26_rounds(rng, h, r):
    config = AdapterConfig(h=h, r=r)
    _, _, _, (m0, m1) = _run_adapter(config, rng)
    assert m0.rounds == 26
    assert m1.rounds == 26


def test_adapter_matches_oracles(rng):
    config = AdapterConfig(h=2, r=8)
    feat, weights, got, _ = _run_adapter(config, rng)
    words = {k: v.data for k, v in weights.items()}
    plain = decode_fixed(adapter_forward_private(PlainContext(), feat.data, words, config))
    ref = reference.adapter_forward_float(feat.to_real(), weights_to_float(weights), config)
    assert np.max(np.abs(got - plain)) <= 1e-3
    assert np.max(np.abs(got - ref)) <= 1e-3


def test_adapter_scaler_zero_is_identity(rng):
    config = AdapterConfig(h=1, r=8, scaler=0.0)
    feat, _, got, _ = _run_adapter(config, rng)
    assert np.max(np.abs(got - feat.to_real())) <= 1e-3


def test_plain_twin_vs_float_twin(rng):
    config = AdapterConfig(h=2, r=8, s=2)
    weights = random_weights(config, derived_rng(3, "weights"))
    feat = random_features(config, derived_rng(3, "inputs"))
    plain = pipeline_forward_plain(feat, weights, config).to_real()
    ref = reference.pipeline_forward_float(feat.to_real(), weights_to_float(weights), config)
    assert np.max(np.abs(plain - ref)) <= 2.0 ** -10


def test_twin_holds_float_at_paper_width():
    """At d_model = 768 the tail norm's row mean divides by a width that is
    not a power of two; the twin stays within 1e-3 of float64 there."""
    config = AdapterConfig(h=2, r=16, s=1, d_model=768, n_tokens=16)
    worst = 0.0
    for seed in (1, 2, 3):
        weights = random_weights(config, derived_rng(seed, "weights"))
        wf = weights_to_float(weights)
        irng = derived_rng(seed, "inputs")
        for _ in range(4):
            feat = random_features(config, irng)
            plain = pipeline_forward_plain(feat, weights, config).to_real()
            ref = reference.pipeline_forward_float(feat.to_real(), wf, config)
            worst = max(worst, np.max(np.abs(plain - ref)))
    assert worst <= 1e-3


@pytest.mark.parametrize("config", [
    AdapterConfig(h=2, r=8, s=2),
    AdapterConfig(h=8, r=64, s=4, d_model=768, n_tokens=128),
    AdapterConfig(h=2, r=8, s=2, n_tokens=12),
    AdapterConfig(h=4, r=8, s=1, d_model=48, n_tokens=6),
], ids=["desk", "paper", "desk-n12", "n6-d48"])
def test_float_twin_is_the_wiring_over_reals(config):
    """``FloatContext`` runs the one wiring as the float64 twin, and agrees
    with the independently written reference to float rounding."""
    for seed in (1, 2):
        wf = weights_to_float(random_weights(config, derived_rng(seed, "weights")))
        irng = derived_rng(seed, "inputs")
        for _ in range(2):
            x = random_features(config, irng).to_real()
            got = pipeline_forward_float(x, wf, config)
            assert got.dtype == np.float64 and got.shape == (config.n_classes,)
            want = reference.pipeline_forward_float(x, wf, config)
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("s,expected", [(1, 29), (2, 55), (3, 81)])
def test_pipeline_round_ledger(s, expected):
    config = AdapterConfig(h=2, r=8, s=s)
    weights = random_weights(config, derived_rng(1, "weights"))
    feats = [random_features(config, derived_rng(1, "inputs"))]
    result, _ = private_inference(config, weights, feats, seed=1)
    assert result["pipeline_rounds"] == [expected]


def test_pipeline_round_ledger_per_label():
    """Which round each op lands in, for one s=1 pipeline on both parties."""
    config = AdapterConfig(h=2, r=8, s=1)
    weights = random_weights(config, derived_rng(1, "weights"))
    feats = [random_features(config, derived_rng(1, "inputs"))]
    _, meters = private_inference(config, weights, feats, seed=1)
    want = {"linear": 10, "ln-var": 3, "ln-pow": 2, "ln-apply": 3,
            "atten-kv": 1, "atten-q": 1, "a2b-dist": 1, "a2b-adder": 6,
            "bit-open": 1, "relu-mul": 1, "setup": 2, "result": 1}
    for m in meters:
        assert {label: r for label, (r, _) in m.breakdown.items()} == want


def _pipeline_meters(config):
    weights = random_weights(config, derived_rng(1, "weights"))
    feats = [random_features(config, derived_rng(1, "inputs"))]
    return private_inference(config, weights, feats, seed=1)[1]


def test_pipeline_bytes_monotone():
    bytes_for = lambda h, r, s: _pipeline_meters(AdapterConfig(h=h, r=r, s=s))[0].bytes_sent
    base = bytes_for(2, 8, 1)
    assert bytes_for(2, 12, 1) > base
    assert bytes_for(2, 8, 2) > base


@pytest.mark.parametrize("h,r,n", [(1, 8, 8), (2, 8, 12), (4, 8, 16), (2, 12, 6),
                                   (4, 16, 5)])
def test_attention_bytes_per_label(h, r, n):
    """Each party, per adapter: K^T V opens K^T and V (16 r n bytes), Q @ KV
    opens Q and KV (8 (r n + r dh)), and the W_L linear opens T^T [r, n] and
    W_L once (8 (r n + n^2)); every other linear opens its [rows, d_in]
    input and its weight.  More heads at a fixed r cost fewer bytes."""
    config = AdapterConfig(h=h, r=r, s=2, n_tokens=n)
    dh, s = config.head_dim, config.s

    def opened(name, shape):
        rows = {"wl": r, "classifier": 1}.get(name.rsplit(".", 1)[-1], n)
        return rows * shape[0] + shape[0] * shape[1]

    linear = 8 * sum(opened(name, shape) for name, shape in weight_shapes(config).items()
                     if len(shape) == 2)
    for m in _pipeline_meters(config):
        assert m.breakdown["atten-kv"] == [s, s * 16 * r * n]
        assert m.breakdown["atten-q"] == [s, s * 8 * (r * n + r * dh)]
        assert m.breakdown["linear"] == [9 * s + 1, linear]


def test_inference_deterministic():
    config = AdapterConfig(h=1, r=8)
    weights = random_weights(config, derived_rng(2, "weights"))
    feats = [random_features(config, derived_rng(2, "inputs"))]
    r1, m1 = private_inference(config, weights, feats, seed=9)
    r2, m2 = private_inference(config, weights, feats, seed=9)
    assert np.array_equal(r1["logits"][0], r2["logits"][0])
    assert m1[0].bytes_sent == m2[0].bytes_sent


def _transcript(config, n_inputs, skip=()):
    """Run the golden private inference at seed 7; return its result and the
    sha256 of the private logits, both parties' per-label meters (but the
    labels in ``skip``) and the fixed-point twin's logit words."""
    weights = random_weights(config, derived_rng(7, "weights"))
    irng = derived_rng(7, "inputs")
    feats = [random_features(config, irng) for _ in range(n_inputs)]
    result, meters = private_inference(config, weights, feats, seed=7)
    digest = hashlib.sha256()
    for logits in result["logits"]:
        digest.update(np.asarray(logits, dtype=np.float64).tobytes())
    for m in meters:
        digest.update(repr(sorted((k, tuple(v)) for k, v in m.breakdown.items()
                                  if k not in skip)).encode())
    for f in feats:
        digest.update(pipeline_forward_plain(f, weights, config).data.tobytes())
    return result, digest.hexdigest()


GOLDEN_CONFIG = AdapterConfig(h=2, r=8, s=2)
PAPER_GOLDEN_CONFIG = AdapterConfig(h=8, r=64, s=1, d_model=768, n_tokens=128)

# A digest hashes the private logits, both parties' per-label meters (rounds
# and bytes) and the fixed-point twin's logit words.  No opened word is
# hashed: a reordered random draw or a changed word on the wire shows only
# through the logits it moves.  So a digest changes with a deliberate change
# to the protocol, its ledger or the fixed-point format.  The pipeline
# digests leave out the setup entry, and change only with the pipeline.
GOLDEN_TRANSCRIPT = "dec9bfa6e1fff5fe0a7572c71085f92755d71c5bb438acecf110ab25cc188c0f"
PAPER_GOLDEN_TRANSCRIPT = "24ff9b2fc0f0ca87291f1f35c16db29f18cbdfaadfc759165fe391329cad358e"
PIPELINE_GOLDEN = "02b36d647d40c6c7b16246c6ffde7fb61fa81ce6575c159173ddecced95feeab"
PAPER_PIPELINE_GOLDEN = "bee5ba75f88244546cb3de83faaa397b88577f06cde089a82a6637ca30b3eb87"


def test_inference_golden_transcript():
    result, digest = _transcript(GOLDEN_CONFIG, 2)
    assert result["pipeline_rounds"] == [55, 55]
    assert digest == GOLDEN_TRANSCRIPT


def test_inference_golden_transcript_paper_shape():
    """Paper-width ring words: one input at (h=8, r=64, s=1, d=768, n=128)."""
    result, digest = _transcript(PAPER_GOLDEN_CONFIG, 1)
    assert result["pipeline_rounds"] == [29]
    assert digest == PAPER_GOLDEN_TRANSCRIPT


def test_inference_pipeline_golden():
    """Logits, online meters and twin words of the golden run."""
    assert _transcript(GOLDEN_CONFIG, 2, skip={"setup"})[1] == PIPELINE_GOLDEN


def test_inference_pipeline_golden_paper_shape():
    assert _transcript(PAPER_GOLDEN_CONFIG, 1, skip={"setup"})[1] == PAPER_PIPELINE_GOLDEN


PAPER_CONFIG = AdapterConfig(h=8, r=64, s=4, d_model=768, n_tokens=128)


def test_paper_input_ring_products_per_party(monkeypatch):
    """One paper input: 45 weight or attention products.  Party 0's weight
    shares are zero, so it skips e@0 on each of the 37 weight products
    (9 per adapter and the classifier); party 1 also makes the dealer's
    a@b for every product."""
    weights = random_weights(PAPER_CONFIG, derived_rng(1, "weights"))
    feats = [random_features(PAPER_CONFIG, derived_rng(1, "inputs"))]
    calls = _ring_products(monkeypatch, inference_party(0, PAPER_CONFIG, 1, features=feats),
                           inference_party(1, PAPER_CONFIG, 1, weights=weights))
    # multiply-accumulates: a [..., m, k] @ [..., k, p] product makes a.size * p
    counts = {pid: [len(c), sum(math.prod(a) * b[-1] for a, b in c)]
              for pid, c in calls.items()}
    assert counts == {0: [53, 72_359_424], 1: [135, 215_505_408]}


def test_inference_without_inputs():
    """Setup still runs both rounds when party 1 receives no shapes."""
    config = AdapterConfig(h=2, r=8, s=2)
    weights = random_weights(config, derived_rng(7, "weights"))
    result, meters = private_inference(config, weights, [], seed=7)
    assert result == {"logits": [], "pipeline_rounds": []}
    for m in meters:
        assert m.rounds == 3
        assert {k: r for k, (r, _) in m.breakdown.items()} == {"setup": 2, "result": 1}


def test_party1_sends_only_its_digest_in_setup():
    """Weight shares never cross the wire: party 1's setup is the handshake
    digest and an empty distribution frame."""
    config = AdapterConfig(h=2, r=8, s=2)
    weights = random_weights(config, derived_rng(7, "weights"))
    feats = [random_features(config, derived_rng(7, "inputs"))]
    _, (m0, m1) = private_inference(config, weights, feats, seed=7)
    digest_bytes = config.digest_words(extra=(0, 0)).nbytes
    assert m1.breakdown["setup"] == [2, digest_bytes]
    assert m0.breakdown["setup"] == [2, digest_bytes + feats[0].data.nbytes]


def test_weights_enter_as_party1s_own_share():
    """Party 1's weight shares are its weights' own words and party 0's are
    zeros of each weight's shape; a run leaves the weights unchanged."""
    config = AdapterConfig(h=2, r=8, s=2)
    weights = random_weights(config, derived_rng(7, "weights"))
    before = {n: t.data.copy() for n, t in weights.items()}
    feats = [random_features(config, derived_rng(7, "inputs"))]

    def party(pid):
        def proto(channel):
            ctx = PartyContext(channel, TripleDealer(0, pid))
            if pid == 0:
                return _setup(ctx, config, 7, None, feats)
            return _setup(ctx, config, 7, weights, [])
        return proto

    (_, w0), (_, w1), _ = run_two_party(party(0), party(1))
    assert list(w0) == list(w1) == weight_names(config)
    for name in weight_names(config):
        zeros = np.zeros(weight_shape(config, name), np.uint64)
        assert w0[name].dtype == np.uint64 and np.array_equal(w0[name], zeros)
        assert np.array_equal(w1[name], weights[name].data)
    private_inference(config, weights, feats, seed=7)
    for name, words in before.items():
        assert np.array_equal(weights[name].data, words)


@pytest.mark.parametrize("peer_digest,message", [
    (lambda d: np.concatenate([[PROTOCOL_REVISION + 1], d[1:]]).astype(np.uint64),
     "different configuration"),
    (lambda d: np.concatenate([[PROTOCOL_REVISION - 1], d[1:]]).astype(np.uint64),
     "different configuration"),
    (lambda d: d[1:], "another protocol revision"),
], ids=["next-revision", "prev-revision", "no-revision-word"])
def test_peer_at_another_revision_is_config_mismatch(peer_digest, message):
    """A peer at another protocol revision fails at the handshake, also one
    from before the revision word, whose digest is a word shorter."""
    config = AdapterConfig(h=1, r=8)
    feats = [random_features(config, derived_rng(0, "inputs"))]

    def peer(channel):
        digest = config.digest_words(extra=(DEFAULT_CONFIG.frac_bits, 0))
        channel.exchange("setup", [peer_digest(digest)])

    with pytest.raises(ConfigMismatchError, match=message):
        run_two_party(inference_party(0, config, 0, features=feats), peer, timeout=5)


@pytest.mark.parametrize("edit", [
    lambda w: w | {"adapter0.down": FixedTensor.from_real(np.zeros((8, 32)))},
    lambda w: {n: t for n, t in w.items() if n != "classifier"},
    lambda w: w | {"adapter1.down": w["adapter0.down"]},
], ids=["wrong-shape", "missing-name", "extra-name"])
def test_weights_of_other_shapes_rejected(edit):
    """Party 1's weights must be exactly the config's names and shapes."""
    config = AdapterConfig(h=1, r=8)
    weights = edit(random_weights(config, derived_rng(0, "weights")))
    with pytest.raises(PartyInputError, match="shapes"):
        inference_party(1, config, 0, weights=weights)


def test_features_of_another_shape_rejected(monkeypatch):
    """A feature of another shape fails in ``inference_party``, before any
    channel exists, not at the peer after the handshake."""
    config = AdapterConfig(h=1, r=8)
    weights = random_weights(config, derived_rng(0, "weights"))
    feats = [random_features(config, derived_rng(0, "inputs")),
             FixedTensor.from_real(np.zeros((7, 32)))]
    monkeypatch.setattr("mpcadapter.nn.run_two_party", None)
    for call in (lambda: inference_party(0, config, 0, features=feats),
                 lambda: private_inference(config, weights, feats, seed=0)):
        with pytest.raises(PartyInputError, match=r"features must be \(8, 32\), got \(7, 32\)"):
            call()


def test_config_mismatch_detected():
    c0 = AdapterConfig(h=1, r=8)
    c1 = AdapterConfig(h=2, r=8)
    w = random_weights(c1, derived_rng(0, "weights"))
    f = [random_features(c0, derived_rng(0, "inputs"))]
    p0 = inference_party(0, c0, 0, features=f)
    p1 = inference_party(1, c1, 0, weights=w)
    with pytest.raises(ConfigMismatchError):
        run_two_party(p0, p1, timeout=5)


def test_missing_inputs_rejected():
    config = AdapterConfig()
    with pytest.raises(ValueError):
        inference_party(0, config, 0, features=None)
    with pytest.raises(ValueError):
        inference_party(1, config, 0, weights=None)
