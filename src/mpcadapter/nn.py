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
on that path.  The wiring is written once and runs over three backends:
secret shares, the fixed-point twin (plaintext ring words) and the float64
twin (real values).  Both twins serve as correctness oracles; the tests
check the wiring itself against an independent float64 reference.

The two-party protocol runs in three phases: setup (config handshake, then
one round in which party 0 sends party 1 its feature shares; the weights
enter as party 1's own share, against zeros on party 0, so no weight word
crosses the wire), online (one pipeline per input) and result (party 1
returns its logit shares).
"""

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import kernels
from .ring import DEFAULT_CONFIG, FixedTensor, decode_fixed, encode_fixed, truncate
from .runtime import Channel, PayloadSizeError, check_fields, run_two_party
from .sharing import (TripleDealer, ltz, matmul_beaver_many, mul_beaver_many,
                      share_arith, truncate_share)

# Inverse-sqrt polynomial coefficients (low -> high degree), minimax in
# relative error.  Degree k costs the norm 1 + ceil(log2(k + 1)) rounds, so
# the adapter norms take a cubic (3 rounds) and the tail norm an affine
# polynomial (2 rounds) of the variance, and the usable window is limited:
#   cubic:  fit on var in [1/3, 3], max relative error 3.8%
#   affine: fit on var in [0.41, 2.45], max relative error 13.9%
# Outside the window the error grows quickly; weight initialization keeps
# activations in range.
RSQRT_CUBIC = (2.2187611396873352, -1.9202746582323935,
               0.8311371565425836, -0.12523541730492255)
RSQRT_CUBIC_WINDOW = (1.0 / 3.0, 3.0)
RSQRT_AFFINE = (1.5068068414235278, -0.39063467956847275)
RSQRT_AFFINE_WINDOW = (0.4083, 2.4490)

# The setup protocol's revision, the first word of the handshake digest.
# Revision 2: the weights are party 1's own share, against zeros on party 0;
# a revision-1 peer would reconstruct w - s0, so the handshake refuses it.
PROTOCOL_REVISION = 2

# The most words a party may hold in its weights, or in one array of the
# wiring; a config past it is refused before anything is allocated.  The
# paper config holds 600,064 weight words and 131,072 in its [h, n, n]
# attention tensor, 111x and 512x under it.  The dealer draws a triple's
# words as one block, at most 5x the largest array.
MAX_PARTY_WORDS = 1 << 26


@dataclass(frozen=True)
class AdapterConfig:
    """The adapter both parties agree on; each field enters the handshake."""
    h: int = field(default=1, metadata={">=": 1})
    r: int = field(default=8, metadata={">=": 1})
    s: int = field(default=1, metadata={">=": 1})
    scaler: float = field(default=0.5, metadata={">=": 0, "<=": 4})
    d_model: int = field(default=32, metadata={">=": 2})
    n_tokens: int = field(default=8, metadata={">=": 2})
    n_classes: int = field(default=10, metadata={">=": 1})

    def __post_init__(self):
        check_fields(self)
        if self.r % self.h:
            raise ValueError(f"rank {self.r} not divisible by heads {self.h}")
        words, largest = self.party_words()
        if max(words, largest) > MAX_PARTY_WORDS:
            raise ValueError(f"a party would hold {words} weight words and a "
                             f"{largest}-word array, past {MAX_PARTY_WORDS}")

    @property
    def head_dim(self) -> int:
        return self.r // self.h

    @property
    def mlp_dim(self) -> int:
        return 2 * self.r

    def party_words(self) -> tuple:
        """(weight words, words in the largest array) of one party: the largest
        weight, features [n, d], attention tensor [h, n, n] or MLP [n, 2r]."""
        adapter, tail = _weight_tables(self)
        n, sizes = self.n_tokens, lambda shapes: [math.prod(shape) for shape in shapes]
        words = self.s * sum(sizes(adapter.values())) + sum(sizes(tail.values()))
        return words, max(sizes([*adapter.values(), *tail.values(), (n, self.d_model),
                                 (self.h, n, n), (n, self.mlp_dim)]))

    def digest_words(self, extra=()) -> np.ndarray:
        """The protocol revision, every field in order (reals at scale 2^f),
        then ``extra``."""
        scale = lambda f: DEFAULT_CONFIG.scale if f.type is float else 1
        words = [int(round(getattr(self, f.name) * scale(f))) for f in fields(self)]
        return np.array([PROTOCOL_REVISION, *words, *extra], dtype=np.uint64)


def _weight_tables(config: AdapterConfig) -> tuple:
    """One adapter's weight shapes, and the pipeline tail's."""
    d, r, n, m = config.d_model, config.r, config.n_tokens, config.mlp_dim
    adapter = {
        "down": (d, r), "wq": (r, r), "wk": (r, r), "wv": (r, r),
        "wl": (n, n), "attn_out": (r, r), "up": (r, d),
        "fc1": (r, m), "fc2": (m, r),
        "ln1.gain": (r,), "ln1.bias": (r,),
        "ln2.gain": (r,), "ln2.bias": (r,),
    }
    tail = {"final.gain": (d,), "final.bias": (d,), "classifier": (d, config.n_classes)}
    return adapter, tail


def weight_shapes(config: AdapterConfig) -> dict:
    """Every weight's name and shape, in the order weights are drawn and set up."""
    adapter, tail = _weight_tables(config)
    return {**{f"adapter{i}.{k}": v for i in range(config.s) for k, v in adapter.items()},
            **tail}


def weight_names(config: AdapterConfig) -> list:
    return list(weight_shapes(config))


def weight_shape(config: AdapterConfig, name: str):
    return weight_shapes(config)[name]


def random_weights(config: AdapterConfig, rng) -> dict:
    """Random adapter weights, scaled so LayerNorm inputs keep variance
    near 1 (the inverse-sqrt window)."""
    n = config.n_tokens
    out = {}
    for name, shape in weight_shapes(config).items():
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
# operators over three backends
#
# The operators and the adapter/pipeline wiring below are written once and
# run over any backend passed as ``ctx``: ``PartyContext`` (one party's
# secret shares; every round, triple and byte comes from it),
# ``PlainContext`` (plaintext ring words, the fixed-point twin) or
# ``FloatContext`` (float64 values, the float twin).  Each takes and returns
# plain arrays of its own number type, so the wiring adds, reshapes and
# slices them directly.  A backend supplies public, truncate, mul_many,
# matmul and relu, and numbers enter the wiring only through them; the
# wiring decides which multiplies share a round, so the round ledger is the
# same for every backend.

@functools.lru_cache
def _encode_public(value: float) -> np.uint64:
    """A public constant's word, encoded once per value."""
    return np.uint64(encode_fixed(value))


@dataclass
class PartyContext:
    """Secret-share backend: one party's channel and dealer view.

    ``mul_many`` and ``matmul`` cost one batched Beaver round each and
    return raw (scale 2^2f) products; ``truncate`` is local.  A public
    constant is its fixed-point word, which multiplies either share.
    """
    channel: Channel
    dealer: TripleDealer
    public = staticmethod(_encode_public)

    def truncate(self, x: np.ndarray, extra_bits: int = 0) -> np.ndarray:
        return truncate_share(x, self.channel.party_id, extra_bits)

    def mul_many(self, pairs, label: str) -> list:
        return mul_beaver_many(pairs, self.dealer, self.channel, label)

    def matmul(self, x: np.ndarray, w: np.ndarray, label: str) -> np.ndarray:
        return matmul_beaver_many([(x, w)], self.dealer, self.channel, label)[0]

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
    public = staticmethod(_encode_public)

    def truncate(self, x: np.ndarray, extra_bits: int = 0) -> np.ndarray:
        return truncate(x, extra_bits)

    def mul_many(self, pairs, label: str) -> list:
        return [x * y for x, y in pairs]

    def matmul(self, x: np.ndarray, w: np.ndarray, label: str) -> np.ndarray:
        return kernels.matmul_u64(x, w)

    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.where(x.view(np.int64) < 0, np.uint64(0), x)


class FloatContext(PlainContext):
    """float64 backend: the float twin, the same wiring over real values.

    A public constant is the real itself and a product needs no rescale, so
    truncation only takes off the extra bits a constant carries;
    ``mul_many`` is ``PlainContext``'s.
    """

    def public(self, value: float) -> float:
        return value

    def truncate(self, x: np.ndarray, extra_bits: int = 0) -> np.ndarray:
        return x * 2.0 ** -extra_bits

    def matmul(self, x: np.ndarray, w: np.ndarray, label: str) -> np.ndarray:
        return np.matmul(x, w)

    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, x)


def _row_mean(ctx, x):
    """Mean over the last axis.  Where n is not a power of two, 1/n at f
    bits is coarse (1/768 encodes to 85, 0.39% low), so the constant is
    2^8/n and the product is truncated by f + 8.  Power-of-two rows keep
    their exact word and their truncation-failure risk, which a raw product
    2^8 larger would raise 2^8-fold."""
    n = x.shape[-1]
    extra = 0 if n & (n - 1) == 0 else 8
    total = np.sum(x, axis=-1, keepdims=True)
    return ctx.truncate(total * ctx.public(2.0 ** extra / n), extra)


def linear_private(ctx, x, w):
    """x @ w on any backend: one round, output truncated back to scale
    2^f.  Shapes follow ``kernels.matmul_shape``."""
    return ctx.truncate(ctx.matmul(x, w, "linear"))


def relu_private(ctx, x):
    """max(0, x) on any backend, exact in the ring; 9 rounds on shares."""
    return ctx.relu(x)


def layernorm_private(ctx, x, gain, bias, coeffs):
    """LayerNorm over the last axis on any backend; the inverse square root
    of the variance v is the public polynomial ``coeffs`` (low -> high).
    Round 1 takes the centered squares and gain*centered.  Each later round
    multiplies every term so far by the current power of v and, but for the
    last, squares that power: a cubic takes 3 rounds, an affine 2."""
    xc = x - _row_mean(ctx, x)
    sq_raw, gx_raw = ctx.mul_many([(xc, xc), (gain, xc)], "ln-var")
    power = _row_mean(ctx, ctx.truncate(sq_raw))
    terms = [ctx.truncate(gx_raw)]
    while len(terms) < len(coeffs):
        pairs = [(t, power) for t in terms]
        if 2 * len(terms) >= len(coeffs):
            raw = ctx.mul_many(pairs, "ln-apply")
        else:
            power_raw, *raw = ctx.mul_many([(power, power), *pairs], "ln-pow")
            power = ctx.truncate(power_raw)
        terms += [ctx.truncate(r) for r in raw]

    out = bias
    for c, t in zip(coeffs, terms):
        out = out + ctx.truncate(t * ctx.public(c))
    return out


def _split_heads(x, config: AdapterConfig):
    n, r = x.shape
    return x.reshape(n, config.h, config.head_dim).transpose(1, 0, 2)


def _merge_heads(x):
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def linatten_private(ctx, q, k, v, wl):
    """Linear attention (W_L @ (Q K^T)) V on [heads, N, head_dim] tensors,
    on any backend.

    Two matmul rounds plus the W_L linear round; all heads are batched,
    and there is no comparison, Softmax, or division.
    """
    h, n, dh = q.shape
    scores = ctx.truncate(ctx.matmul(q, k.transpose(0, 2, 1), "atten-qk"))  # [h, N, N]
    mixed = linear_private(ctx, np.broadcast_to(wl, (h, n, n)), scores)
    return ctx.truncate(ctx.matmul(mixed, v, "atten-av"))


def adapter_forward_private(ctx, x, w: dict, config: AdapterConfig,
                            prefix: str = "adapter0."):
    """One adapter block on any backend; exactly 26 rounds on shares
    for any (h, r)."""
    g = lambda k: w[prefix + k]
    u = linear_private(ctx, x, g("down"))
    ln1 = layernorm_private(ctx, u, g("ln1.gain"), g("ln1.bias"), RSQRT_CUBIC)
    q = linear_private(ctx, ln1, g("wq"))
    k = linear_private(ctx, ln1, g("wk"))
    v = linear_private(ctx, ln1, g("wv"))
    att = linatten_private(ctx, _split_heads(q, config), _split_heads(k, config),
                           _split_heads(v, config), g("wl"))
    a = u + linear_private(ctx, _merge_heads(att), g("attn_out"))
    ln2 = layernorm_private(ctx, a, g("ln2.gain"), g("ln2.bias"), RSQRT_CUBIC)
    m = relu_private(ctx, linear_private(ctx, ln2, g("fc1")))
    z = a + linear_private(ctx, m, g("fc2"))
    return x + ctx.truncate(linear_private(ctx, z, g("up")) * ctx.public(config.scaler))


def pipeline_forward_private(ctx, x, w: dict, config: AdapterConfig):
    """Full pipeline on any backend: s adapters, 2-round norm on [CLS],
    classifier.  26 s + 3 rounds on shares; returns the logit vector."""
    for i in range(config.s):
        x = adapter_forward_private(ctx, x, w, config, prefix=f"adapter{i}.")
    normed = layernorm_private(ctx, x[0:1, :], w["final.gain"], w["final.bias"],
                               RSQRT_AFFINE)
    return linear_private(ctx, normed, w["classifier"]).reshape(-1)


# ---------------------------------------------------------------------------
# twins (correctness oracles)

def pipeline_forward_plain(x: FixedTensor, w: dict,
                           config: AdapterConfig) -> FixedTensor:
    """The fixed-point twin of ``pipeline_forward_private``."""
    words = {k: t.data for k, t in w.items()}
    return FixedTensor(pipeline_forward_private(PlainContext(), x.data, words, config))


def pipeline_forward_float(x: np.ndarray, w: dict, config: AdapterConfig) -> np.ndarray:
    """The float64 twin of ``pipeline_forward_private``, on real values."""
    return pipeline_forward_private(FloatContext(), x, w, config)


# ---------------------------------------------------------------------------
# two-party inference driver

class ConfigMismatchError(RuntimeError):
    pass


class PartyInputError(ValueError):
    """A party's own input does not fit the adapter config."""


_SEED_TAGS = {"dealer": 0, "features": 1, "weights": 2, "inputs": 3}

MAX_INPUT_FRAME_BYTES = 1 << 32  # party 0's feature-share frame, checked before allocating


def derived_rng(seed: int, tag: str) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_SEED_TAGS[tag],))
    return np.random.Generator(np.random.PCG64(ss))


def _setup(ctx: PartyContext, config: AdapterConfig, seed: int, weights, features):
    """Setup phase: a handshake round, which checks both parties run the
    same protocol revision and configuration and tells party 1 how many
    inputs follow, then one distribution round.  In it party 0 splits its
    features with ``derived_rng(seed, "features")`` and sends party 1 its
    shares; party 1 sends nothing.  Each weight enters as party 1's own
    share, its words, against zeros of the same shape on party 0: every use
    of a weight is a Beaver product, which opens only the masked word, or a
    local addition feeding one.  ``features`` and ``weights`` hold
    ``FixedTensor``s; the shares are plain words."""
    channel, pid = ctx.channel, ctx.channel.party_id
    digest = config.digest_words(
        extra=(DEFAULT_CONFIG.frac_bits, len(features) if pid == 0 else 0))
    try:
        (peer_digest,) = channel.exchange("setup", [digest])
    except PayloadSizeError as e:
        raise ConfigMismatchError(f"peer runs another protocol revision: {e}") from None
    if not np.array_equal(digest[:-1], peer_digest[:-1]):
        raise ConfigMismatchError(
            f"peer runs a different configuration: {peer_digest.tolist()} "
            f"vs {digest.tolist()}")
    n_inputs = int(peer_digest[-1])
    if 8 * n_inputs * config.n_tokens * config.d_model > MAX_INPUT_FRAME_BYTES:
        raise ConfigMismatchError(f"peer declares {n_inputs} inputs, more than a "
                                  f"{MAX_INPUT_FRAME_BYTES}-byte setup frame holds")

    shapes = weight_shapes(config)
    if pid == 0:
        frng = derived_rng(seed, "features")
        shares = [share_arith(t.data, frng) for t in features]
        channel.exchange("setup", [s1 for _, s1 in shares], [])
        inputs = [s0 for s0, _ in shares]
        wshares = {n: np.zeros(shape, np.uint64) for n, shape in shapes.items()}
    else:
        inputs = channel.exchange("setup", [],
                                  [(config.n_tokens, config.d_model)] * n_inputs)
        wshares = {n: weights[n].data for n in shapes}
    return inputs, wshares


def _online(ctx: PartyContext, inputs: list, wshares: dict, config: AdapterConfig):
    """Online phase: one pipeline per input; only masked Beaver openings
    may cross the wire.  Returns (logit shares, rounds per input)."""
    meter, logits, rounds = ctx.channel.meter, [], []
    for x in inputs:
        snap = meter.snapshot()
        logits.append(pipeline_forward_private(ctx, x, wshares, config))
        rounds.append(meter.since(snap)[0])
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
    result have their own meter labels, so the pipeline ledger stays clean.
    Input of other names or shapes than the peer assumes would put shares
    and dealer draws out of step, so it raises PartyInputError here."""
    if party_id == 0:
        if features is None:
            raise PartyInputError("party 0 needs the feature tensors")
        want = (config.n_tokens, config.d_model)
        bad = [t.shape for t in features if t.shape != want]
        if bad:
            raise PartyInputError(f"features must be {want}, got {bad[0]}")
    else:
        if weights is None:
            raise PartyInputError("party 1 needs the weights")
        want = weight_shapes(config)
        got = {n: t.shape for n, t in weights.items()}
        bad = {n: (got.get(n), want.get(n)) for n in sorted(want.keys() | got.keys())
               if got.get(n) != want.get(n)}
        if bad:
            raise PartyInputError("weights do not match the adapter config's "
                                  f"names and shapes (name: shape, expected): {bad}")

    def protocol(channel: Channel):
        dealer_seed = int(derived_rng(seed, "dealer").integers(1 << 62))
        ctx = PartyContext(channel, TripleDealer(dealer_seed, party_id))
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
