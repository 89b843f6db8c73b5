"""Private neural operators and the one-way-communication adapter pipeline.

The adapter block (all on secret shares):

    u   = x @ down
    ln1 = LayerNorm(u)                      3 rounds
    q, k, v = ln1 @ Wq, ln1 @ Wk, ln1 @ Wv  1 round each
    A   = (W_L @ (Q K^T)) V                 2 matmul rounds + 1 linear (W_L)
    a   = u + A @ attn_out
    ln2 = LayerNorm(a)                      3 rounds
    z   = a + ReLU(ln2 @ fc1) @ fc2         1 + 9 + 1 rounds
    out = x + scaler * (z @ up)             1 round

which is exactly 26 rounds per adapter (9 linear + 2 matmul + 6 norm +
9 activation); the pipeline tail adds a 2-round norm on the [CLS] row and
one classifier round, for 26 s + 3 total.

Attention is comparison-free: no Softmax, division, or sign test anywhere
on that path.  The fixed-point twin runs the same wiring over plaintext
ring words; the float64 twin is written independently (with the same
inverse-sqrt polynomial).  Both serve as correctness oracles.

The two-party protocol runs in three phases: setup (config handshake, then
one share-distribution path for both roles), online (one pipeline per
input) and result (party 1 returns its logit shares).
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .ring import DEFAULT_CONFIG, FixedTensor, decode_fixed, encode_fixed, truncate
from .runtime import Channel, run_two_party
from .sharing import (PartyDealer, ltz, matmul_beaver_many, mul_beaver_many,
                      party_dealer, share_arith, truncate_share)

# Inverse-sqrt polynomial coefficients (low -> high degree), minimax in
# relative error.  The round budget caps the norm at a cubic (3-round
# budget) or affine (2-round budget) polynomial of the variance, so the
# usable window is limited:
#   cubic:  fit on var in [1/3, 3], max relative error 3.8%
#   affine: fit on var in [0.41, 2.45], max relative error 13.9%
# Outside the window the error grows quickly; weight initialization keeps
# activations in range.
RSQRT_CUBIC = (2.2187611396873352, -1.9202746582323935,
               0.8311371565425836, -0.12523541730492255)
RSQRT_CUBIC_WINDOW = (1.0 / 3.0, 3.0)
RSQRT_AFFINE = (1.5068068414235278, -0.39063467956847275)
RSQRT_AFFINE_WINDOW = (0.4083, 2.4490)


def rsqrt_poly(budget: int):
    if budget == 3:
        return RSQRT_CUBIC
    if budget == 2:
        return RSQRT_AFFINE
    raise ValueError(f"norm round budget must be 2 or 3, got {budget}")


@dataclass(frozen=True)
class AdapterConfig:
    h: int = 1
    r: int = 8
    s: int = 1
    scaler: float = 0.5
    d_model: int = 32
    n_tokens: int = 8
    n_classes: int = 10

    def __post_init__(self):
        if self.h < 1 or self.r < 1 or self.s < 1:
            raise ValueError("h, r, s must all be >= 1")
        if self.r % self.h:
            raise ValueError(f"rank {self.r} not divisible by heads {self.h}")
        if not 0.0 <= self.scaler <= 4.0:
            raise ValueError(f"scaler must be in [0, 4], got {self.scaler}")
        if self.d_model < 2 or self.n_tokens < 2 or self.n_classes < 1:
            raise ValueError("invalid model dimensions")

    @property
    def head_dim(self) -> int:
        return self.r // self.h

    @property
    def mlp_dim(self) -> int:
        return 2 * self.r

    def digest_words(self, extra=()) -> np.ndarray:
        fields = (self.h, self.r, self.s, int(round(self.scaler * DEFAULT_CONFIG.scale)),
                  self.d_model, self.n_tokens, self.n_classes) + tuple(extra)
        return np.array(fields, dtype=np.uint64)


def adapter_weight_shapes(config: AdapterConfig) -> dict:
    d, r, n, m = config.d_model, config.r, config.n_tokens, config.mlp_dim
    return {
        "down": (d, r), "wq": (r, r), "wk": (r, r), "wv": (r, r),
        "wl": (n, n), "attn_out": (r, r), "up": (r, d),
        "fc1": (r, m), "fc2": (m, r),
        "ln1.gain": (r,), "ln1.bias": (r,),
        "ln2.gain": (r,), "ln2.bias": (r,),
    }


def weight_names(config: AdapterConfig) -> list:
    names = []
    for i in range(config.s):
        names += [f"adapter{i}.{k}" for k in adapter_weight_shapes(config)]
    names += ["final.gain", "final.bias", "classifier"]
    return names


def weight_shape(config: AdapterConfig, name: str):
    if name == "classifier":
        return (config.d_model, config.n_classes)
    if name in ("final.gain", "final.bias"):
        return (config.d_model,)
    _, key = name.split(".", 1)
    return adapter_weight_shapes(config)[key]


def random_weights(config: AdapterConfig, rng) -> dict:
    """Random adapter weights, scaled so LayerNorm inputs keep variance
    near 1 (the inverse-sqrt window)."""
    d, r, n = config.d_model, config.r, config.n_tokens
    out = {}
    for name in weight_names(config):
        shape = weight_shape(config, name)
        if name.endswith(".gain"):
            vals = 1.0 + 0.05 * rng.standard_normal(shape)
        elif name.endswith(".bias"):
            vals = 0.02 * rng.standard_normal(shape)
        elif name.endswith(".wl"):
            # The attention path grows like n*sqrt(head_dim); damp the
            # token mixer so the residual stays a unit-scale perturbation
            # and the next norm's variance stays in the rsqrt window.
            vals = rng.standard_normal((n, n)) * 0.25 / (n * np.sqrt(n * config.head_dim))
        else:
            fan_in = shape[0]
            vals = rng.standard_normal(shape) / np.sqrt(fan_in)
        out[name] = FixedTensor.from_real(vals)
    return out


def random_features(config: AdapterConfig, rng) -> FixedTensor:
    return FixedTensor.from_real(rng.standard_normal((config.n_tokens, config.d_model)))


def weights_to_float(weights: dict) -> dict:
    return {k: v.to_real() for k, v in weights.items()}


# ---------------------------------------------------------------------------
# operators over two backends
#
# The operators and the adapter/pipeline wiring below are written once and
# run over either backend passed as ``ctx``: ``PartyContext`` (one party's
# secret shares; every round, triple and byte comes from it) or
# ``PlainContext`` (plaintext ring words, the fixed-point twin).  Both take
# and return plain u64 word arrays, so the wiring adds, reshapes and slices
# them directly.  A backend supplies truncate, mul_many, matmul and relu;
# the wiring decides which multiplies share a round, so the round ledger is
# the same for both.

@dataclass
class PartyContext:
    """Secret-share backend: one party's channel and dealer view.

    ``mul_many`` and ``matmul`` cost one batched Beaver round each and
    return raw (scale 2^2f) products; ``truncate`` is local.
    """
    channel: Channel
    dealer: PartyDealer

    def truncate(self, x: np.ndarray) -> np.ndarray:
        return truncate_share(x, self.channel.party_id)

    def mul_many(self, pairs, label: str) -> list:
        triples = [self.dealer.arith_triple(x.shape, y.shape) for x, y in pairs]
        return mul_beaver_many(pairs, triples, self.channel, label=label)

    def matmul(self, x: np.ndarray, w: np.ndarray, label: str) -> np.ndarray:
        triple = self.dealer.matmul_triple(x.shape, w.shape)
        (raw,) = matmul_beaver_many([(x, w)], [triple], self.channel, label=label)
        return raw

    def relu(self, x: np.ndarray) -> np.ndarray:
        """Sign extraction (8 rounds) plus one multiply computing x - b*x."""
        b = ltz(x, self.dealer, self.channel)
        (prod,) = self.mul_many([(b, x)], "relu-mul")
        # b is at integer scale, so b*x is already at scale 2^f.
        return x - prod


class PlainContext:
    """Plaintext backend: the fixed-point twin on plaintext ring words.

    Products are local and exact and truncation is the exact signed shift,
    so the private result differs from the twin only by the 1-ulp errors
    (and rare failures) of local share truncation.  Labels are ignored.
    """

    def truncate(self, x: np.ndarray) -> np.ndarray:
        return truncate(x)

    def mul_many(self, pairs, label: str) -> list:
        return [x * y for x, y in pairs]

    def matmul(self, x: np.ndarray, w: np.ndarray, label: str) -> np.ndarray:
        return kernels.matmul_u64(x, w)

    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.where(x.view(np.int64) < 0, np.uint64(0), x)


@functools.lru_cache
def _encode_public(value: float) -> np.uint64:
    """A public constant's word, encoded once per value."""
    return np.uint64(encode_fixed(value))


def _mul_public_real(ctx, x, value: float):
    return ctx.truncate(x * _encode_public(value))


def _row_mean(ctx, x):
    total = np.sum(x, axis=-1, keepdims=True, dtype=np.uint64)
    return _mul_public_real(ctx, total, 1.0 / x.shape[-1])


def linear_private(ctx, x, w):
    """x @ w on either backend: one round, output truncated back to scale
    2^f.  Shapes follow ``kernels.matmul_shape``."""
    return ctx.truncate(ctx.matmul(x, w, "linear"))


def relu_private(ctx, x):
    """max(0, x) on either backend, exact in the ring; 9 rounds on shares."""
    return ctx.relu(x)


def layernorm_private(ctx, x, gain, bias, round_budget: int = 3):
    """LayerNorm over the last axis in ``round_budget`` rounds, on either
    backend.

    The inverse square root of the variance is a public-coefficient
    polynomial (cubic at budget 3, affine at budget 2), evaluated with the
    multiplies arranged so every round is one batched exchange:
      round 1: centered squares and gain*centered
      round 2: v*v and (gain*centered)*v        (budget 3 only)
      round 3: remaining cubic terms            (budget 2: this is round 2)
    """
    coeffs = rsqrt_poly(round_budget)
    xc = x - _row_mean(ctx, x)
    sq_raw, gx_raw = ctx.mul_many([(xc, xc), (gain, xc)], "ln-var")
    v = _row_mean(ctx, ctx.truncate(sq_raw))
    gx = ctx.truncate(gx_raw)

    if round_budget == 2:
        (gxv_raw,) = ctx.mul_many([(gx, v)], "ln-apply")
        terms = [gx, ctx.truncate(gxv_raw)]
    else:
        v2_raw, gxv_raw = ctx.mul_many([(v, v), (gx, v)], "ln-pow")
        v2, gxv = ctx.truncate(v2_raw), ctx.truncate(gxv_raw)
        gxv2_raw, gxv3_raw = ctx.mul_many([(gx, v2), (gxv, v2)], "ln-apply")
        terms = [gx, gxv, ctx.truncate(gxv2_raw), ctx.truncate(gxv3_raw)]

    out = bias
    for c, t in zip(coeffs, terms):
        out = out + _mul_public_real(ctx, t, c)
    return out


def _split_heads(x, config: AdapterConfig):
    n, r = x.shape
    return np.ascontiguousarray(x.reshape(n, config.h, config.head_dim).transpose(1, 0, 2))


def _merge_heads(x):
    h, n, dh = x.shape
    return np.ascontiguousarray(x.transpose(1, 0, 2).reshape(n, h * dh))


def linatten_private(ctx, q, k, v, wl):
    """Linear attention (W_L @ (Q K^T)) V on [heads, N, head_dim] tensors,
    on either backend.

    Two matmul rounds plus the W_L linear round; all heads are batched,
    and there is no comparison, Softmax, or division.
    """
    h, n, dh = q.shape
    kt = np.ascontiguousarray(k.transpose(0, 2, 1))
    scores = ctx.truncate(ctx.matmul(q, kt, "atten-qk"))  # [h, N, N]
    wl_b = np.ascontiguousarray(np.broadcast_to(wl, (h, n, n)))
    mixed = linear_private(ctx, wl_b, scores)
    return ctx.truncate(ctx.matmul(mixed, v, "atten-av"))


def adapter_forward_private(ctx, x, w: dict, config: AdapterConfig,
                            prefix: str = "adapter0."):
    """One adapter block on either backend; exactly 26 rounds on shares
    for any (h, r)."""
    g = lambda k: w[prefix + k]
    u = linear_private(ctx, x, g("down"))
    ln1 = layernorm_private(ctx, u, g("ln1.gain"), g("ln1.bias"), round_budget=3)
    q = linear_private(ctx, ln1, g("wq"))
    k = linear_private(ctx, ln1, g("wk"))
    v = linear_private(ctx, ln1, g("wv"))
    att = linatten_private(ctx, _split_heads(q, config), _split_heads(k, config),
                           _split_heads(v, config), g("wl"))
    a = u + linear_private(ctx, _merge_heads(att), g("attn_out"))
    ln2 = layernorm_private(ctx, a, g("ln2.gain"), g("ln2.bias"), round_budget=3)
    m = relu_private(ctx, linear_private(ctx, ln2, g("fc1")))
    z = a + linear_private(ctx, m, g("fc2"))
    return x + _mul_public_real(ctx, linear_private(ctx, z, g("up")), config.scaler)


def pipeline_forward_private(ctx, x, w: dict, config: AdapterConfig):
    """Full pipeline on either backend: s adapters, 2-round norm on [CLS],
    classifier.  26 s + 3 rounds on shares; returns the logit vector."""
    for i in range(config.s):
        x = adapter_forward_private(ctx, x, w, config, prefix=f"adapter{i}.")
    normed = layernorm_private(ctx, x[0:1, :], w["final.gain"], w["final.bias"],
                               round_budget=2)
    return linear_private(ctx, normed, w["classifier"]).reshape(-1)


# ---------------------------------------------------------------------------
# plaintext twins (correctness oracles)

def pipeline_forward_plain(x: FixedTensor, w: dict,
                           config: AdapterConfig) -> FixedTensor:
    """The fixed-point twin of ``pipeline_forward_private``."""
    words = {k: t.data for k, t in w.items()}
    return FixedTensor(pipeline_forward_private(PlainContext(), x.data, words, config))


# The float64 twin is written out independently of the wiring above, so it
# checks that wiring rather than repeating it.

def layernorm_float(x, gain, bias, round_budget=3):
    coeffs = rsqrt_poly(round_budget)
    xc = x - x.mean(axis=-1, keepdims=True)
    v = (xc * xc).mean(axis=-1, keepdims=True)
    y = sum(c * v**i for i, c in enumerate(coeffs))
    return gain * xc * y + bias


def adapter_forward_float(x, w, config: AdapterConfig, prefix="adapter0."):
    g = lambda k: w[prefix + k]
    n, r, h, dh = config.n_tokens, config.r, config.h, config.head_dim
    u = x @ g("down")
    ln1 = layernorm_float(u, g("ln1.gain"), g("ln1.bias"), 3)
    split = lambda t: t.reshape(n, h, dh).transpose(1, 0, 2)
    q, k, v = split(ln1 @ g("wq")), split(ln1 @ g("wk")), split(ln1 @ g("wv"))
    scores = q @ k.transpose(0, 2, 1)
    att = (g("wl") @ scores) @ v
    merged = att.transpose(1, 0, 2).reshape(n, r)
    a = u + merged @ g("attn_out")
    ln2 = layernorm_float(a, g("ln2.gain"), g("ln2.bias"), 3)
    m = np.maximum(0.0, ln2 @ g("fc1"))
    z = a + m @ g("fc2")
    return x + config.scaler * (z @ g("up"))


def pipeline_forward_float(x, w, config: AdapterConfig):
    for i in range(config.s):
        x = adapter_forward_float(x, w, config, prefix=f"adapter{i}.")
    cls = x[0:1, :]
    normed = layernorm_float(cls, w["final.gain"], w["final.bias"], 2)
    return (normed @ w["classifier"]).reshape(-1)


# ---------------------------------------------------------------------------
# two-party inference driver

class ConfigMismatchError(RuntimeError):
    pass


_SEED_TAGS = {"dealer": 0, "features": 1, "weights": 2, "inputs": 3}

MAX_INPUT_FRAME_BYTES = 1 << 32  # party 0's feature-share frame, checked before allocating


def derived_rng(seed: int, tag: str) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_SEED_TAGS[tag],))
    return np.random.Generator(np.random.PCG64(ss))


def _setup(ctx: PartyContext, config: AdapterConfig, seed: int, weights, features):
    """Setup phase: a handshake round, which checks both parties run the
    same configuration and tells party 1 how many inputs follow, then one
    distribution round in which each party splits its own tensors (party 0
    its features, party 1 its weights in ``weight_names`` order), keeps
    ``shares[party_id]`` and sends ``shares[1 - party_id]``.  ``features``
    and ``weights`` hold ``FixedTensor``s; the shares are plain words."""
    channel, pid = ctx.channel, ctx.channel.party_id
    digest = config.digest_words(
        extra=(DEFAULT_CONFIG.frac_bits, len(features) if pid == 0 else 0))
    (peer_digest,) = channel.exchange("setup", [digest])
    if not np.array_equal(digest[:-1], peer_digest[:-1]):
        raise ConfigMismatchError(
            f"peer runs a different configuration: {peer_digest.tolist()} "
            f"vs {digest.tolist()}")
    n_inputs = int(peer_digest[-1])
    if 8 * n_inputs * config.n_tokens * config.d_model > MAX_INPUT_FRAME_BYTES:
        raise ConfigMismatchError(f"peer declares {n_inputs} inputs, more than a "
                                  f"{MAX_INPUT_FRAME_BYTES}-byte setup frame holds")

    names = weight_names(config)
    own, tag, peer_shapes = (
        (features, "features", [weight_shape(config, n) for n in names]) if pid == 0 else
        ([weights[n] for n in names], "weights",
         [(config.n_tokens, config.d_model)] * n_inputs))
    rng = derived_rng(seed, tag)
    shares = [share_arith(t.data, rng) for t in own]
    got = channel.exchange("setup", [s[1 - pid] for s in shares], peer_shapes)
    kept = [s[pid] for s in shares]
    inputs, wlist = (kept, got) if pid == 0 else (got, kept)
    return inputs, dict(zip(names, wlist))


def _online(ctx: PartyContext, inputs: list, wshares: dict, config: AdapterConfig):
    """Online phase: one pipeline per input; only masked Beaver openings
    may cross the wire.  Returns (logit shares, rounds per input)."""
    meter, logits, rounds = ctx.channel.meter, [], []
    ctx.channel.forbid_plain_open = True
    for x in inputs:
        snap = meter.snapshot()
        logits.append(pipeline_forward_private(ctx, x, wshares, config))
        rounds.append(meter.since(snap)[0])
    ctx.channel.forbid_plain_open = False
    return logits, rounds


def _result(ctx: PartyContext, logits: list, rounds: list) -> dict:
    """Result phase: party 1 returns its logit shares in one round; only
    party 0 learns the plaintext prediction."""
    if ctx.channel.party_id == 1:
        ctx.channel.exchange("result", logits, [(0,)])
        return {"pipeline_rounds": rounds}
    got = ctx.channel.exchange("result", [np.zeros(0, np.uint64)], [s.shape for s in logits])
    return {"logits": [decode_fixed(s + peer) for s, peer in zip(logits, got)],
            "pipeline_rounds": rounds}


def inference_party(party_id: int, config: AdapterConfig, seed: int,
                    weights: dict = None, features: list = None):
    """Build the protocol closure for one party: party 0 holds the features
    (model user), party 1 the adapter weights (service provider).  The
    closure runs the setup, online and result phases in order; setup and
    result have their own meter labels, so the pipeline ledger stays clean."""
    if party_id == 0 and features is None:
        raise ValueError("party 0 needs the feature tensors")
    if party_id == 1 and weights is None:
        raise ValueError("party 1 needs the weights")

    def protocol(channel: Channel):
        dealer_seed = int(derived_rng(seed, "dealer").integers(1 << 62))
        ctx = PartyContext(channel, party_dealer(dealer_seed, party_id))
        inputs, wshares = _setup(ctx, config, seed, weights, features)
        logits, rounds = _online(ctx, inputs, wshares, config)
        return _result(ctx, logits, rounds)

    return protocol


def private_inference(config: AdapterConfig, weights: dict, features: list,
                      seed: int):
    """In-process two-party inference over a list of feature tensors.

    Returns (result dict from the model-user side, (meter0, meter1)).
    """
    p0 = inference_party(0, config, seed, features=features)
    p1 = inference_party(1, config, seed, weights=weights)
    out0, _, meters = run_two_party(p0, p1)
    return out0, meters
