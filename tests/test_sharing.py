import hashlib
import threading
import warnings

import numpy as np
import pytest
from protocol_helpers import b2a_full, run_protocol, share_bin

from mpcadapter import kernels
from mpcadapter.nn import PartyContext, PlainContext, linear_private
from mpcadapter.ring import DEFAULT_CONFIG, decode_fixed, encode_fixed
from mpcadapter.sharing import (TripleDealer, TripleShare, a2b, and_beaver_many,
                                bit_to_arith, ltz, matmul_beaver_many,
                                mul_beaver_many, share_arith, truncate_share)
from mpcadapter.sharing import _rand_words

ULP = 2.0 ** -16


def _words(rng, shape):
    return rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)


# ---------------------------------------------------------------------------
# sharing and local arithmetic

def test_share_reconstruct_examples(rng):
    x = np.uint64(42)
    s0, s1 = share_arith(x, rng)
    assert s0 + s1 == 42

    z = np.uint64(0)
    s0, s1 = share_arith(z, rng)
    assert s0 + s1 == 0


def test_share_roundtrip_1000(rng):
    x = _words(rng, 1000)
    s0, s1 = share_arith(x, rng)
    assert np.array_equal(s0 + s1, x)


def test_additive_homomorphism(rng):
    a = np.array([3], np.uint64)
    b = np.array([4], np.uint64)
    a0, a1 = share_arith(a, rng)
    b0, b1 = share_arith(b, rng)
    assert (a0 + b0) + (a1 + b1) == 7
    assert (a0 - b0) + (a1 - b1) == (1 << 64) - 1


def test_bin_share_roundtrip(rng):
    x = _words(rng, 100)
    s0, s1 = share_bin(x, rng)
    assert np.array_equal(s0 ^ s1, x)


# ---------------------------------------------------------------------------
# dealer

def _views(seed):
    """Both parties' one-party dealer views for ``seed``."""
    return TripleDealer(seed, 0), TripleDealer(seed, 1)


def _shares(views, method, *args):
    """Each view's own share of the same dealer call."""
    return tuple(getattr(v, method)(*args)[pid] for pid, v in enumerate(views))


def test_beaver_identity_1000():
    t0, t1 = _shares(_views(0), "arith_triple", (1000,))
    assert np.array_equal((t0.a + t1.a) * (t0.b + t1.b), t0.c + t1.c)


def test_beaver_binary_flavor():
    t0, t1 = _shares(_views(0), "bin_triple", (1000,))
    assert np.array_equal((t0.a ^ t1.a) & (t0.b ^ t1.b), t0.c ^ t1.c)


def test_matmul_triple_identity():
    t0, t1 = _shares(_views(3), "matmul_triple", (4, 5), (5, 3))
    a, b, c = t0.a + t1.a, t0.b + t1.b, t0.c + t1.c
    assert np.array_equal(kernels.matmul_u64(a, b), c)


def test_dealer_deterministic():
    for pid in (0, 1):
        ta = TripleDealer(7, pid).arith_triple((10,))[pid]
        tb = TripleDealer(7, pid).arith_triple((10,))[pid]
        assert np.array_equal(ta.a, tb.a)
        assert np.array_equal(ta.c, tb.c)


def test_input_pair_identities():
    views = _views(1)
    p0, p1 = _shares(views, "arith_input_pair", (100,))
    assert np.array_equal(p0.known * p1.known, p0.c + p1.c)
    q0, q1 = _shares(views, "bin_input_pair", (100,))
    assert np.array_equal(q0.known & q1.known, q0.c ^ q1.c)


def test_dealer_view_serves_one_party():
    for pid in (0, 1):
        view = TripleDealer(2, pid)
        for out in (view.arith_triple((3,)), view.matmul_triple((2, 3), (3, 2)),
                    view.bin_triple((3,)), view.arith_input_pair((3,)),
                    view.bin_input_pair((3,))):
            assert out[1 - pid] is None and out[pid] is not None


# An interleaved sequence of all five dealer calls: 2-D and 3-D matmul,
# broadcast elementwise, and scalar shapes.
STREAM_CALLS = [
    ("matmul_triple", ((4, 5), (5, 3))),
    ("arith_triple", ((6, 4), (4,))),
    ("bin_input_pair", ((7,),)),
    ("matmul_triple", ((2, 4, 5), (2, 5, 3))),
    ("arith_triple", ((),)),
    ("bin_triple", ((3, 2),)),
    ("arith_input_pair", ((5,),)),
    ("bin_triple", ((),)),
    ("arith_input_pair", ((),)),
    ("arith_triple", ((3,),)),
]

# sha256 of each party's words for STREAM_CALLS at seed 2024, taken from the
# dealer that drew both parties' shares from one generator.  Party 0's view
# skips words with PCG64.advance, so this pins advance to draw-and-discard.
STREAM_SHA256 = {
    0: "b7ccb19f8cffb931a655ab6da36e7b3df631a10461eda9ecd1c12c586532920e",
    1: "00559efcae9d2e3c257df607b8a43f56e8a53e15ca3188da1ab829c55ee694bb",
}


@pytest.mark.parametrize("pid", [0, 1])
def test_dealer_stream_golden(pid):
    view = TripleDealer(2024, pid)
    h = hashlib.sha256()
    for method, args in STREAM_CALLS:
        share = getattr(view, method)(*args)[pid]
        for f in ("a", "b", "c", "known"):
            if hasattr(share, f):
                v = getattr(share, f)
                h.update(repr((f, v.shape)).encode())
                h.update(np.ascontiguousarray(v, dtype=np.uint64).tobytes())
    assert h.hexdigest() == STREAM_SHA256[pid]


def test_rand_words_equal_full_range_integers():
    """Dealer words are the raw PCG64 outputs that a full-range uint64
    ``integers`` draw returns, and both paths leave the stream in the same
    state."""
    raw = np.random.Generator(np.random.PCG64(77))
    twin = np.random.Generator(np.random.PCG64(77))
    for shape in [(), (0,), (5,), (3, 4), (2, 8, 8)]:
        got = _rand_words(raw, shape)
        want = twin.integers(0, 2**64, size=shape, dtype=np.uint64)
        assert got.dtype == np.uint64 and got.shape == want.shape == shape
        assert np.array_equal(got, want)
    assert raw.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("pid", [0, 1])
@pytest.mark.parametrize("method,args", [
    ("matmul_triple", ((4, 5), (6, 3))),
    ("matmul_triple", ((2, 4, 5), (5, 3))),
    ("matmul_triple", ((2, 4, 5), (3, 5, 3))),
    ("matmul_triple", ((5,), (5, 3))),
    ("arith_triple", ((4, 5), (4,))),
], ids=["inner", "ranks", "batch", "rank-1", "broadcast"])
def test_dealer_rejects_bad_shapes_before_drawing(pid, method, args):
    view = TripleDealer(9, pid)
    with pytest.raises(ValueError):
        getattr(view, method)(*args)
    # Nothing was drawn: the next triple is a fresh view's first.
    got = view.arith_triple((3,))[pid]
    want = TripleDealer(9, pid).arith_triple((3,))[pid]
    assert all(np.array_equal(getattr(got, f), getattr(want, f)) for f in "abc")


# ---------------------------------------------------------------------------
# interactive protocols

def test_mul_beaver_hand_example():
    """x=3, y=4 with triple a=1, b=2, c=2: opened 2 and 2, result 12."""
    x0, x1 = np.uint64(3), np.uint64(0)
    y0, y1 = np.uint64(4), np.uint64(0)
    t0 = TripleShare(np.uint64(1), np.uint64(2), np.uint64(2))
    t1 = TripleShare(np.uint64(0), np.uint64(0), np.uint64(0))

    class HandDealer:
        def arith_triple(self, shape_x, shape_y=None):
            return t0, t1

    def proto(pid, ch, dealer):
        (z,) = mul_beaver_many([([x0, x1][pid], [y0, y1][pid])], HandDealer(), ch)
        return z

    out0, out1, (m0, _) = run_protocol(proto)
    assert out0 + out1 == 12
    assert m0.rounds == 1


def test_mul_beaver_zero_annihilates(rng):
    x = np.zeros(10, np.uint64)
    y = _words(rng, 10)
    xs = share_arith(x, rng)
    ys = share_arith(y, rng)

    def proto(pid, ch, dealer):
        (z,) = mul_beaver_many([(xs[pid], ys[pid])], dealer, ch)
        return z

    out0, out1, _ = run_protocol(proto)
    assert np.all(out0 + out1 == 0)


def test_mul_beaver_exact_1000(rng):
    xv, yv = _words(rng, 1000), _words(rng, 1000)
    xs = share_arith(xv, rng)
    ys = share_arith(yv, rng)

    def proto(pid, ch, dealer):
        (z,) = mul_beaver_many([(xs[pid], ys[pid])], dealer, ch)
        return z

    out0, out1, (m0, _) = run_protocol(proto)
    assert np.array_equal(out0 + out1, xv * yv)
    assert m0.rounds == 1


def test_truncate_after_mul(rng):
    xs = share_arith(encode_fixed(np.array(1.5)), rng)
    ys = share_arith(encode_fixed(np.array(2.0)), rng)

    def proto(pid, ch, dealer):
        (z,) = mul_beaver_many([(xs[pid], ys[pid])], dealer, ch)
        return truncate_share(z, pid)

    out0, out1, _ = run_protocol(proto)
    assert abs(decode_fixed(out0 + out1) - 3.0) <= ULP


def test_truncate_error_one_ulp(rng):
    vals = rng.uniform(-100, 100, size=1000)
    raw = encode_fixed(vals) * np.uint64(DEFAULT_CONFIG.scale)
    s0 = _words(rng, 1000)
    sh0 = truncate_share(s0, 0)
    sh1 = truncate_share(raw - s0, 1)
    got = decode_fixed(sh0 + sh1)
    assert np.max(np.abs(got - decode_fixed(encode_fixed(vals)))) <= ULP


@pytest.mark.parametrize("pid", [0, 1])
@pytest.mark.parametrize("word", [np.uint64, lambda v: np.array(v, np.uint64)],
                         ids=["scalar", "0-d"])
def test_truncate_0d_share_wraps_silently(pid, word):
    """A 0-d share truncates to the same word as a 1-element one, and the
    wrap mod 2^64 raises no numpy scalar-overflow warning."""
    for v in (5, (1 << 64) - 5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = truncate_share(word(v), pid)
        assert np.ndim(got) == 0
        assert got == truncate_share(np.array([v], np.uint64), pid)[0]


def _truncation_error_ulps(x: int, u: int) -> int:
    """Signed ulps by which local truncation of the raw product x, shared as
    (x + u, -u) mod 2^64, misses floor(x / 2^f)."""
    f, mod = DEFAULT_CONFIG.frac_bits, 1 << 64
    t0 = truncate_share(np.array([(x + u) % mod], np.uint64), 0)
    t1 = truncate_share(np.array([-u % mod], np.uint64), 1)
    err = (int((t0 + t1)[0]) - (x >> f)) % mod
    return err - mod if err >= mod // 2 else err


@pytest.mark.parametrize("x", [3 << 40, -(3 << 40), 1 << 61, -(1 << 61)])
def test_truncate_failure_window(x):
    """Local truncation fails when u = -x1 mod 2^64, party 1's negated share,
    lies in [2^64 - x, 2^64) for x > 0 or in [0, |x|) for x < 0 (SecureML,
    S&P 2017): the result is then off by exactly 2^48 ulps.  Just outside
    either edge of the window (mod 2^64) it is within 1 ulp."""
    lo, hi = ((1 << 64) - x, (1 << 64) - 1) if x > 0 else (0, -x - 1)
    for u in (lo, hi):
        assert _truncation_error_ulps(x, u) == (-1 if x > 0 else 1) << 48
    for u in ((lo - 1, 0) if x > 0 else (hi + 1, (1 << 64) - 1)):
        assert abs(_truncation_error_ulps(x, u)) <= 1


def test_matmul_beaver_identity(rng):
    eye = encode_fixed(np.eye(4))
    b = encode_fixed(rng.standard_normal((4, 4)))
    es = share_arith(eye, rng)
    bs = share_arith(b, rng)

    def proto(pid, ch, dealer):
        (z,) = matmul_beaver_many([(es[pid], bs[pid])], dealer, ch)
        return truncate_share(z, pid)

    out0, out1, (m0, _) = run_protocol(proto)
    assert np.max(np.abs(decode_fixed(out0 + out1) - decode_fixed(b))) <= 5 * ULP
    assert m0.rounds == 1


def test_matmul_beaver_vs_plain(rng):
    a = encode_fixed(rng.standard_normal((4, 4)))
    b = encode_fixed(rng.standard_normal((4, 4)))
    as_, bs = share_arith(a, rng), share_arith(b, rng)

    def proto(pid, ch, dealer):
        (z,) = matmul_beaver_many([(as_[pid], bs[pid])], dealer, ch)
        return truncate_share(z, pid)

    out0, out1, _ = run_protocol(proto)
    want = decode_fixed(linear_private(PlainContext(), a, b))
    assert np.max(np.abs(decode_fixed(out0 + out1) - want)) <= 4 * ULP


def _linear_ring_products(rng, monkeypatch, weight_shares):
    """``kernels.matmul_u64`` calls per party for one private linear layer
    on a shared input and the given pair of weight shares."""
    x = share_arith(encode_fixed(rng.standard_normal((3, 4))), rng)
    w = weight_shares(encode_fixed(rng.standard_normal((4, 2))))
    want = linear_private(PlainContext(), x[0] + x[1], w[0] + w[1])
    calls, party = {0: 0, 1: 0}, threading.local()
    real = kernels.matmul_u64

    def counted(a, b):
        calls[party.pid] += 1
        return real(a, b)

    monkeypatch.setattr(kernels, "matmul_u64", counted)

    def proto(pid, ch, dealer):
        party.pid = pid
        return linear_private(PartyContext(ch, dealer), x[pid], w[pid])

    out0, out1, _ = run_protocol(proto)
    assert np.max(np.abs((out0 + out1 - want).view(np.int64))) <= 2
    return calls


def test_linear_ring_products_per_party(rng, monkeypatch):
    """One private linear layer on a shared weight: party 0 computes a0@d
    and e@w0; party 1 the dealer's a@b, a1@d and e@w1."""
    assert _linear_ring_products(
        rng, monkeypatch, lambda w: share_arith(w, rng)) == {0: 2, 1: 3}


@pytest.mark.parametrize("zero_party, want", [(0, {0: 1, 1: 3}), (1, {0: 2, 1: 2})])
def test_linear_skips_the_product_on_a_zero_weight_share(rng, monkeypatch,
                                                         zero_party, want):
    """A weight held as one party's words against zeros on the other, as
    the engine's setup holds them: the party whose share is zero skips e@0."""
    shares = lambda w: (np.zeros_like(w), w)[::1 if zero_party == 0 else -1]
    assert _linear_ring_products(rng, monkeypatch, shares) == want


_PRODUCTS = {
    "mul": (mul_beaver_many, share_arith, np.add, np.multiply, ((3, 4), (3, 4))),
    "matmul": (matmul_beaver_many, share_arith, np.add, kernels.matmul_u64,
               ((3, 4), (4, 2))),
    "and": (and_beaver_many, share_bin, np.bitwise_xor, np.bitwise_and,
            ((3, 4), (3, 4))),
}


@pytest.mark.parametrize("kind", _PRODUCTS)
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("zero_party", [0, 1])
def test_beaver_exact_with_a_zero_share(rng, kind, side, zero_party):
    """z_i = c_i + a_i*d + e*y_i reconstructs x*y exactly (x AND y in the
    binary ring) when one party's share of either factor is all zero, so
    the other party holds that factor's words."""
    protocol, share, add, product, shapes = _PRODUCTS[kind]
    xv, yv = _words(rng, shapes[0]), _words(rng, shapes[1])
    xs, ys = share(xv, rng), share(yv, rng)
    words = xv if side == "left" else yv
    held = (np.zeros_like(words), words)[::1 if zero_party == 0 else -1]
    xs, ys = (held, ys) if side == "left" else (xs, held)

    def proto(pid, ch, dealer):
        (z,) = protocol([(xs[pid], ys[pid])], dealer, ch)
        return z

    out0, out1, (m0, _) = run_protocol(proto)
    assert np.array_equal(add(out0, out1), product(xv, yv))
    assert m0.rounds == 1


def test_beaver_draws_its_triple_from_operand_shapes(rng):
    """A Beaver product asks the dealer for a triple of its operands' own
    shapes, so a broadcast operand gets a mask of its shape, not one mask
    broadcast over many words."""
    xv, vv = _words(rng, (3, 4)), _words(rng, (3, 1))
    xs, vs = share_arith(xv, rng), share_arith(vv, rng)
    asked = {0: [], 1: []}

    class RecordingDealer(TripleDealer):
        def arith_triple(self, shape_x, shape_y=None):
            asked[self.party_id].append((shape_x, shape_y))
            return super().arith_triple(shape_x, shape_y)

    def proto(pid, ch, dealer):
        (z,) = mul_beaver_many([(xs[pid], vs[pid])], RecordingDealer(0, pid), ch)
        return z

    out0, out1, _ = run_protocol(proto)
    assert asked == {0: [((3, 4), (3, 1))], 1: [((3, 4), (3, 1))]}
    assert np.array_equal(out0 + out1, xv * vv)


# ---------------------------------------------------------------------------
# binary protocols

def test_and_truth_table(rng):
    for xv in (0, 1):
        for yv in (0, 1):
            xs = share_bin(np.uint64(xv), rng)
            ys = share_bin(np.uint64(yv), rng)

            def proto(pid, ch, dealer):
                (z,) = and_beaver_many([(xs[pid], ys[pid])], dealer, ch)
                return z

            out0, out1, _ = run_protocol(proto)
            assert out0 ^ out1 == (xv & yv)


def test_and_random_words(rng):
    xv, yv = _words(rng, 1000), _words(rng, 1000)
    xs, ys = share_bin(xv, rng), share_bin(yv, rng)

    def proto(pid, ch, dealer):
        (z,) = and_beaver_many([(xs[pid], ys[pid])], dealer, ch)
        return z

    out0, out1, (m0, _) = run_protocol(proto)
    assert np.array_equal(out0 ^ out1, xv & yv)
    assert m0.rounds == 1


# ---------------------------------------------------------------------------
# conversions

def _run_a2b(vals, rng, seed=0):
    xs = share_arith(np.asarray(vals, np.uint64), rng)

    def proto(pid, ch, dealer):
        return a2b(xs[pid], dealer, ch)

    return run_protocol(proto, seed=seed)


def test_a2b_examples(rng):
    out0, out1, (m0, _) = _run_a2b([5, (1 << 64) - 1], rng)
    bits = out0 ^ out1
    assert bits[0] == 5
    assert bits[1] == (1 << 64) - 1  # all 64 bits set
    assert m0.rounds == 7


def test_a2b_random_exact(rng):
    vals = _words(rng, 500)
    out0, out1, _ = _run_a2b(vals, rng)
    assert np.array_equal(out0 ^ out1, vals)


def test_bit_to_arith_all_combinations():
    for b0v in (0, 1):
        for b1v in (0, 1):
            def proto(pid, ch, dealer):
                return bit_to_arith(np.uint64([b0v, b1v][pid]), dealer, ch)

            out0, out1, (m0, _) = run_protocol(proto)
            assert out0 + out1 == (b0v ^ b1v)
            assert m0.rounds == 1


def test_bit_to_arith_rejects_non_bit_share():
    def proto(pid, ch, dealer):
        with pytest.raises(ValueError):
            bit_to_arith(np.uint64(2), dealer, ch)
        return ch.meter.rounds

    out0, out1, _ = run_protocol(proto)
    assert out0 == out1 == 0  # rejected before any exchange


def test_b2a_examples(rng):
    for val in (6, (1 << 64) - 1):
        bs = share_bin(np.uint64(val), rng)

        def proto(pid, ch, dealer):
            return b2a_full(bs[pid], dealer, ch)

        out0, out1, (m0, _) = run_protocol(proto)
        assert np.add(out0, out1) == val  # a ufunc: 0-d words wrap without a warning
        assert m0.rounds == 1


def test_b2a_full_0d_share_is_0d_array(rng):
    """Both parties get a 0-d array for a 0-d share, so summing them wraps
    mod 2^64 without numpy's scalar-overflow warning."""
    bs = share_bin(np.uint64(6), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out0, out1, _ = run_protocol(lambda pid, ch, dealer: b2a_full(bs[pid], dealer, ch))
        assert type(out0) is type(out1) is np.ndarray
        assert out0.shape == out1.shape == ()
        assert out0 + out1 == 6


_X, _Y = (1 << 64) - 3 * 2**32, 7 * 2**16 + 5  # -3.0 at scale 2^2f, 7.0001 at 2^f

# Each protocol on 0-d shares ``s`` of _X and _Y (arithmetic x, y; binary
# xb, yb): (call, how the two parties' results combine, the combined word).
_ZERO_D_PROTOCOLS = {
    "mul": (lambda pid, ch, d, s: mul_beaver_many([(s["x"], s["y"])], d, ch)[0],
            lambda a, b: a + b, (_X * _Y) % (1 << 64)),
    "and": (lambda pid, ch, d, s: and_beaver_many([(s["xb"], s["yb"])], d, ch)[0],
            lambda a, b: a ^ b, _X & _Y),
    "truncate": (lambda pid, ch, d, s: truncate_share(s["x"], pid),
                 lambda a, b: a + b, (1 << 64) - 3 * 2**16),
    "a2b": (lambda pid, ch, d, s: a2b(s["x"], d, ch), lambda a, b: a ^ b, _X),
    "bit_to_arith": (lambda pid, ch, d, s: bit_to_arith(np.uint64(1 - pid), d, ch),
                     lambda a, b: a + b, 1),
    "ltz": (lambda pid, ch, d, s: ltz(s["x"], d, ch), lambda a, b: a + b, 1),
}


@pytest.mark.parametrize("name", _ZERO_D_PROTOCOLS)
def test_protocols_return_0d_arrays_for_0d_shares(name, rng):
    """Every protocol gives both parties a 0-d array for 0-d shares (one
    party's a numpy scalar), so combining them with plain operators wraps
    mod 2^64 without numpy's scalar-overflow warning."""
    call, combine, want = _ZERO_D_PROTOCOLS[name]
    shares = {"x": share_arith(np.uint64(_X), rng), "y": share_arith(np.uint64(_Y), rng),
              "xb": share_bin(np.uint64(_X), rng), "yb": share_bin(np.uint64(_Y), rng)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out0, out1, _ = run_protocol(lambda pid, ch, dealer: call(
            pid, ch, dealer, {k: v[pid] for k, v in shares.items()}))
        assert type(out0) is type(out1) is np.ndarray
        assert out0.shape == out1.shape == ()
        got = int(combine(out0, out1))
    assert abs(got - want) <= 1 if name == "truncate" else got == want


def test_a2b_b2a_roundtrip_1000(rng):
    vals = _words(rng, 1000)
    xs = share_arith(vals, rng)

    def proto(pid, ch, dealer):
        bits = a2b(xs[pid], dealer, ch)
        return b2a_full(bits, dealer, ch)

    out0, out1, (m0, _) = run_protocol(proto)
    assert np.array_equal(out0 + out1, vals)
    assert m0.rounds == 8


def test_ltz_examples(rng):
    vals = encode_fixed(np.array([-5.0, 5.0, 0.0]))
    xs = share_arith(vals, rng)

    def proto(pid, ch, dealer):
        return ltz(xs[pid], dealer, ch)

    out0, out1, (m0, _) = run_protocol(proto)
    assert list(out0 + out1) == [1, 0, 0]
    assert m0.rounds == 8


def test_ltz_matches_sign_random(rng):
    vals = rng.uniform(-1e4, 1e4, size=500)
    enc = encode_fixed(vals)
    xs = share_arith(enc, rng)

    def proto(pid, ch, dealer):
        return ltz(xs[pid], dealer, ch)

    out0, out1, _ = run_protocol(proto)
    assert np.array_equal(out0 + out1, (decode_fixed(enc) < 0).astype(np.uint64))


def test_opened_values_look_uniform(rng):
    """Chi-square smoke test on the low 3 bits of Beaver openings."""
    from scipy import stats
    xv = np.full(10000, np.uint64(12345))  # constant secret
    yv = np.full(10000, np.uint64(67890))
    xs = share_arith(xv, rng)
    ys = share_arith(yv, rng)
    opened = {}

    def proto(pid, ch, dealer):
        t = dealer.arith_triple((10000,))[pid]
        eps = xs[pid] - t.a
        (peer_eps,) = ch.exchange("open", [eps])
        opened[pid] = eps + peer_eps
        return None

    run_protocol(proto)
    low = (opened[0] & np.uint64(7)).astype(int)
    counts = np.bincount(low, minlength=8)
    _, p = stats.chisquare(counts)
    assert p > 1e-4  # not detectably non-uniform
