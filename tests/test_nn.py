import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from protocol_helpers import run_protocol

from mpcadapter.nn import _mul_public_real
from mpcadapter.nn import (RSQRT_AFFINE, RSQRT_AFFINE_WINDOW, RSQRT_CUBIC,
                           RSQRT_CUBIC_WINDOW, AdapterConfig,
                           ConfigMismatchError, PartyContext, PlainContext,
                           adapter_forward_float,
                           adapter_forward_private, derived_rng,
                           inference_party, layernorm_float, layernorm_private,
                           linatten_private, linear_private,
                           pipeline_forward_float, pipeline_forward_plain,
                           private_inference, random_features, random_weights,
                           relu_private, rsqrt_poly, weight_names,
                           weight_shape, weights_to_float)
from mpcadapter.ring import RingOverflowError, decode_fixed, encode_fixed
from mpcadapter.runtime import in_process_pair, run_two_party
from mpcadapter.sharing import party_dealer, share_arith

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


def test_rsqrt_budget_dispatch():
    assert rsqrt_poly(3) == RSQRT_CUBIC
    assert rsqrt_poly(2) == RSQRT_AFFINE
    with pytest.raises(ValueError):
        rsqrt_poly(4)


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


@settings(max_examples=200, deadline=None)
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
# coefficients, 1/r and 1/d_model of the row means (desk and paper shapes),
# and the scaler.
_PUBLIC_CONSTANTS = [*RSQRT_CUBIC, *RSQRT_AFFINE, 1 / 8, 1 / 64, 1 / 32, 1 / 768,
                     AdapterConfig().scaler]


def _public_contexts():
    ch0, ch1 = in_process_pair(1.0)
    return {"plain": PlainContext(), "party0": PartyContext(ch0, party_dealer(0, 0)),
            "party1": PartyContext(ch1, party_dealer(0, 1))}


@pytest.mark.parametrize("backend", ["plain", "party0", "party1"])
def test_mul_public_real_equals_fresh_encoding(backend, rng):
    """The cached encoding of a public constant gives the words of a fresh
    ``encode_fixed``, on every call, on every backend."""
    ctx = _public_contexts()[backend]
    x = rng.integers(0, 1 << 64, size=(3, 5), dtype=np.uint64)
    for value in _PUBLIC_CONSTANTS * 2:
        want = ctx.truncate(x * encode_fixed(value))
        got = _mul_public_real(ctx, x, value)
        assert got.dtype == np.uint64 and np.array_equal(got, want)


@pytest.mark.parametrize("backend", ["plain", "party0", "party1"])
def test_mul_public_real_overflow_raises_every_call(backend):
    ctx = _public_contexts()[backend]
    x = np.ones(4, np.uint64)
    for value in (2.0 ** 46, -(2.0 ** 46), 2.0 ** 46, 1e30):
        with pytest.raises(RingOverflowError):
            _mul_public_real(ctx, x, value)


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
        return layernorm_private(ctx, xs[pid], gs[pid], bs[pid], 3)

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
        return layernorm_private(ctx, xs[pid], gs[pid], bs[pid], 3)

    out0, out1, _ = run_protocol(_ctx_protocol(fn))
    got = decode_fixed(out0 + out1)
    # var = 1 sits inside the polynomial window; 5% contract applies
    assert np.max(np.abs(got - [[1.0, -1.0]])) <= 0.05


@pytest.mark.parametrize("budget,rounds", [(3, 3), (2, 2)])
def test_layernorm_matches_float_twin(rng, budget, rounds):
    lo, hi = RSQRT_CUBIC_WINDOW if budget == 3 else RSQRT_AFFINE_WINDOW
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
        return layernorm_private(ctx, xs[pid], gs[pid], bs[pid], budget)

    out0, out1, (m0, _) = run_protocol(_ctx_protocol(fn))
    got = decode_fixed(out0 + out1)
    want = layernorm_float(decode_fixed(x), decode_fixed(gain), decode_fixed(bias), budget)
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
    assert set(m0.breakdown) <= {"atten-qk", "atten-av", "linear"}


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
    ref = adapter_forward_float(feat.to_real(), weights_to_float(weights), config)
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
    ref = pipeline_forward_float(feat.to_real(), weights_to_float(weights), config)
    assert np.max(np.abs(plain - ref)) <= 2.0 ** -10


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
            "atten-qk": 1, "atten-av": 1, "a2b-dist": 1, "a2b-adder": 6,
            "bit-open": 1, "relu-mul": 1, "setup": 2, "result": 1}
    for m in meters:
        assert {label: r for label, (r, _) in m.breakdown.items()} == want


def test_pipeline_bytes_monotone():
    def bytes_for(h, r, s):
        config = AdapterConfig(h=h, r=r, s=s)
        weights = random_weights(config, derived_rng(1, "weights"))
        feats = [random_features(config, derived_rng(1, "inputs"))]
        _, meters = private_inference(config, weights, feats, seed=1)
        return meters[0].bytes_sent

    base = bytes_for(2, 8, 1)
    assert bytes_for(4, 8, 1) > base
    assert bytes_for(2, 12, 1) > base
    assert bytes_for(2, 8, 2) > base


def test_inference_deterministic():
    config = AdapterConfig(h=1, r=8)
    weights = random_weights(config, derived_rng(2, "weights"))
    feats = [random_features(config, derived_rng(2, "inputs"))]
    r1, m1 = private_inference(config, weights, feats, seed=9)
    r2, m2 = private_inference(config, weights, feats, seed=9)
    assert np.array_equal(r1["logits"][0], r2["logits"][0])
    assert m1[0].bytes_sent == m2[0].bytes_sent


# sha256 of the private logits, both parties' per-label meters and the
# fixed-point twin's logit words of the run below.  A reordered random draw,
# a changed word on the wire or a changed twin word moves it, so it changes
# only with a deliberate change to the protocol or the fixed-point format.
GOLDEN_TRANSCRIPT = "fff064f4731684466757d5c45d51bb07e89f0038c5ff39cf76330e9248daffa2"


def test_inference_golden_transcript():
    config = AdapterConfig(h=2, r=8, s=2)
    weights = random_weights(config, derived_rng(7, "weights"))
    irng = derived_rng(7, "inputs")
    feats = [random_features(config, irng) for _ in range(2)]
    result, meters = private_inference(config, weights, feats, seed=7)
    assert result["pipeline_rounds"] == [55, 55]
    digest = hashlib.sha256()
    for logits in result["logits"]:
        digest.update(np.asarray(logits, dtype=np.float64).tobytes())
    for m in meters:
        digest.update(repr(sorted((k, tuple(v)) for k, v in m.breakdown.items())).encode())
    for f in feats:
        digest.update(pipeline_forward_plain(f, weights, config).data.tobytes())
    assert digest.hexdigest() == GOLDEN_TRANSCRIPT


PAPER_GOLDEN_TRANSCRIPT = "47fa30ec7dbc670e7770a0339d19b06b55bd2cbc3d9d189f0904c0b3224b7acf"


def test_inference_golden_transcript_paper_shape():
    """Paper-width ring words: one input at (h=8, r=64, s=1, d=768, n=128)."""
    config = AdapterConfig(h=8, r=64, s=1, d_model=768, n_tokens=128)
    weights = random_weights(config, derived_rng(7, "weights"))
    feats = [random_features(config, derived_rng(7, "inputs"))]
    result, meters = private_inference(config, weights, feats, seed=7)
    assert result["pipeline_rounds"] == [29]
    digest = hashlib.sha256(np.asarray(result["logits"][0], dtype=np.float64).tobytes())
    for m in meters:
        digest.update(repr(sorted((k, tuple(v)) for k, v in m.breakdown.items())).encode())
    digest.update(pipeline_forward_plain(feats[0], weights, config).data.tobytes())
    assert digest.hexdigest() == PAPER_GOLDEN_TRANSCRIPT


def test_inference_without_inputs():
    """Setup still runs both rounds when party 1 receives no shapes."""
    config = AdapterConfig(h=2, r=8, s=2)
    weights = random_weights(config, derived_rng(7, "weights"))
    result, meters = private_inference(config, weights, [], seed=7)
    assert result == {"logits": [], "pipeline_rounds": []}
    for m in meters:
        assert m.rounds == 3
        assert {k: r for k, (r, _) in m.breakdown.items()} == {"setup": 2, "result": 1}


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
