import numpy as np
import pytest
from protocol_helpers import run_protocol

from mpcadapter.nn import PlainContext, linear_private
from mpcadapter.ring import DEFAULT_CONFIG, FixedTensor, decode_fixed, encode_fixed
from mpcadapter.runtime import run_two_party
from mpcadapter.sharing import (ArithShareTensor, AuditError, BinShareTensor,
                                TripleDealer, TripleShare, a2b, and_beaver_many,
                                b2a_full, bit_to_arith, ltz, matmul_beaver_many,
                                mul_beaver_many, open_values,
                                reconstruct_arith, reconstruct_bin, share_arith,
                                share_bin, truncate_share)

ULP = 2.0 ** -16


def _words(rng, shape):
    return rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)


# ---------------------------------------------------------------------------
# sharing and local arithmetic

def test_share_reconstruct_examples(rng):
    x = FixedTensor(np.uint64(42))
    s0, s1 = share_arith(x, rng)
    assert reconstruct_arith(s0, s1).data == 42

    z = FixedTensor(np.uint64(0))
    s0, s1 = share_arith(z, rng)
    assert s0.data + s1.data == 0


def test_share_roundtrip_1000(rng):
    x = FixedTensor(_words(rng, 1000))
    s0, s1 = share_arith(x, rng)
    assert np.array_equal(reconstruct_arith(s0, s1).data, x.data)


def test_additive_homomorphism(rng):
    a = FixedTensor(np.uint64(3))
    b = FixedTensor(np.uint64(4))
    a0, a1 = share_arith(a, rng)
    b0, b1 = share_arith(b, rng)
    assert reconstruct_arith(a0 + b0, a1 + b1).data == 7
    assert reconstruct_arith(a0 - b0, a1 - b1).data == (1 << 64) - 1

    assert reconstruct_arith(a0.mul_public(2), a1.mul_public(2)).data == 6


def test_add_public(rng):
    x = FixedTensor.from_real(np.array(1.0))
    s0, s1 = share_arith(x, rng)
    c = encode_fixed(2.5)
    got = reconstruct_arith(s0.add_public(c), s1.add_public(c))
    assert decode_fixed(got.data) == 3.5


def test_share_mismatch_rejected(rng):
    a0, _ = share_arith(FixedTensor(np.uint64(1)), rng)
    _, b1 = share_arith(FixedTensor(np.uint64(1)), rng)
    with pytest.raises(ValueError):
        a0 + b1


def test_bin_share_roundtrip(rng):
    x = _words(rng, 100)
    s0, s1 = share_bin(x, rng)
    assert np.array_equal(reconstruct_bin(s0, s1), x)


# ---------------------------------------------------------------------------
# dealer

def test_beaver_identity_1000():
    dealer = TripleDealer(0)
    t0, t1 = dealer.arith_triple((1000,))
    assert np.array_equal((t0.a + t1.a) * (t0.b + t1.b), t0.c + t1.c)


def test_beaver_binary_flavor():
    dealer = TripleDealer(0)
    t0, t1 = dealer.bin_triple((1000,))
    assert np.array_equal((t0.a ^ t1.a) & (t0.b ^ t1.b), t0.c ^ t1.c)


def test_matmul_triple_identity():
    dealer = TripleDealer(3)
    t0, t1 = dealer.matmul_triple((4, 5), (5, 3))
    a, b, c = t0.a + t1.a, t0.b + t1.b, t0.c + t1.c
    from mpcadapter import kernels
    assert np.array_equal(kernels.matmul_u64(a, b), c)


def test_dealer_deterministic():
    t0a, _ = TripleDealer(7).arith_triple((10,))
    t0b, _ = TripleDealer(7).arith_triple((10,))
    assert np.array_equal(t0a.a, t0b.a)
    assert np.array_equal(t0a.c, t0b.c)


def test_input_pair_identities():
    dealer = TripleDealer(1)
    p0, p1 = dealer.arith_input_pair((100,))
    assert np.array_equal(p0.known * p1.known, p0.c + p1.c)
    q0, q1 = dealer.bin_input_pair((100,))
    assert np.array_equal(q0.known & q1.known, q0.c ^ q1.c)


# ---------------------------------------------------------------------------
# interactive protocols

def test_open_values(rng):
    x = FixedTensor(np.uint64(7))
    s0, s1 = share_arith(x, rng)

    def proto(pid, ch, dealer):
        return open_values([s0, s1][pid], ch).data

    out0, out1, (m0, m1) = run_protocol(proto)
    assert out0 == 7 and out1 == 7
    assert m0.rounds == 1 and m1.rounds == 1


def test_open_forbidden_by_audit_flag(rng):
    s0, s1 = share_arith(FixedTensor(np.uint64(7)), rng)

    def proto(pid, ch, dealer):
        ch.forbid_plain_open = True
        with pytest.raises(AuditError):
            open_values([s0, s1][pid], ch)
        ch.forbid_plain_open = False
        return open_values([s0, s1][pid], ch).data

    out0, out1, _ = run_protocol(proto)
    assert out0 == 7 == out1


def test_mul_beaver_hand_example():
    """x=3, y=4 with triple a=1, b=2, c=2: opened 2 and 2, result 12."""
    x0, x1 = np.uint64(3), np.uint64(0)
    y0, y1 = np.uint64(4), np.uint64(0)
    t0 = TripleShare(np.uint64(1), np.uint64(2), np.uint64(2))
    t1 = TripleShare(np.uint64(0), np.uint64(0), np.uint64(0))

    def proto(pid, ch, dealer):
        x = ArithShareTensor(pid, [x0, x1][pid])
        y = ArithShareTensor(pid, [y0, y1][pid])
        (z,) = mul_beaver_many([(x, y)], [[t0, t1][pid]], ch)
        return z.data

    out0, out1, (m0, _) = run_protocol(proto)
    assert out0 + out1 == 12
    assert m0.rounds == 1


def test_mul_beaver_zero_annihilates(rng):
    x = FixedTensor(np.zeros(10, np.uint64))
    y = FixedTensor(_words(rng, 10))
    xs = share_arith(x, rng)
    ys = share_arith(y, rng)

    def proto(pid, ch, dealer):
        t = dealer.arith_triple((10,))
        (z,) = mul_beaver_many([(xs[pid], ys[pid])], [t], ch)
        return z.data

    out0, out1, _ = run_protocol(proto)
    assert np.all(out0 + out1 == 0)


def test_mul_beaver_exact_1000(rng):
    xv, yv = _words(rng, 1000), _words(rng, 1000)
    xs = share_arith(FixedTensor(xv), rng)
    ys = share_arith(FixedTensor(yv), rng)

    def proto(pid, ch, dealer):
        t = dealer.arith_triple((1000,))
        (z,) = mul_beaver_many([(xs[pid], ys[pid])], [t], ch)
        return z.data

    out0, out1, (m0, _) = run_protocol(proto)
    assert np.array_equal(out0 + out1, xv * yv)
    assert m0.rounds == 1


def test_truncate_after_mul(rng):
    xs = share_arith(FixedTensor.from_real(np.array(1.5)), rng)
    ys = share_arith(FixedTensor.from_real(np.array(2.0)), rng)

    def proto(pid, ch, dealer):
        t = dealer.arith_triple(())
        (z,) = mul_beaver_many([(xs[pid], ys[pid])], [t], ch)
        return truncate_share(z).data

    out0, out1, _ = run_protocol(proto)
    assert abs(decode_fixed(out0 + out1) - 3.0) <= ULP


def test_truncate_error_one_ulp(rng):
    vals = rng.uniform(-100, 100, size=1000)
    raw = encode_fixed(vals) * np.uint64(DEFAULT_CONFIG.scale)
    s0 = _words(rng, 1000)
    sh0 = truncate_share(ArithShareTensor(0, s0))
    sh1 = truncate_share(ArithShareTensor(1, raw - s0))
    got = decode_fixed(sh0.data + sh1.data)
    assert np.max(np.abs(got - decode_fixed(encode_fixed(vals)))) <= ULP


def test_matmul_beaver_identity(rng):
    eye = FixedTensor.from_real(np.eye(4))
    b = FixedTensor.from_real(rng.standard_normal((4, 4)))
    es = share_arith(eye, rng)
    bs = share_arith(b, rng)

    def proto(pid, ch, dealer):
        t = dealer.matmul_triple((4, 4), (4, 4))
        (z,) = matmul_beaver_many([(es[pid], bs[pid])], [t], ch)
        return truncate_share(z).data

    out0, out1, (m0, _) = run_protocol(proto)
    assert np.max(np.abs(decode_fixed(out0 + out1) - b.to_real())) <= 5 * ULP
    assert m0.rounds == 1


def test_matmul_beaver_vs_plain(rng):
    a = FixedTensor.from_real(rng.standard_normal((4, 4)))
    b = FixedTensor.from_real(rng.standard_normal((4, 4)))
    as_, bs = share_arith(a, rng), share_arith(b, rng)

    def proto(pid, ch, dealer):
        t = dealer.matmul_triple((4, 4), (4, 4))
        (z,) = matmul_beaver_many([(as_[pid], bs[pid])], [t], ch)
        return truncate_share(z).data

    out0, out1, _ = run_protocol(proto)
    want = linear_private(PlainContext(), a, b).to_real()
    assert np.max(np.abs(decode_fixed(out0 + out1) - want)) <= 4 * ULP


def test_matmul_beaver_shape_mismatch(rng):
    a = share_arith(FixedTensor.from_real(rng.standard_normal((2, 3))), rng)
    b = share_arith(FixedTensor.from_real(rng.standard_normal((2, 3))), rng)

    def proto(pid, ch, dealer):
        t = dealer.matmul_triple((2, 3), (3, 2))
        with pytest.raises(ValueError):
            matmul_beaver_many([(a[pid], b[pid])], [t], ch)
        return None

    run_protocol(proto)


# ---------------------------------------------------------------------------
# binary protocols

def test_xor_local(rng):
    s0, s1 = share_bin(np.uint64(1), rng)
    t0, t1 = share_bin(np.uint64(1), rng)
    assert reconstruct_bin(s0 ^ t0, s1 ^ t1) == 0


def test_and_truth_table(rng):
    for xv in (0, 1):
        for yv in (0, 1):
            xs = share_bin(np.uint64(xv), rng)
            ys = share_bin(np.uint64(yv), rng)

            def proto(pid, ch, dealer):
                t = dealer.bin_triple(())
                (z,) = and_beaver_many([(xs[pid].data, ys[pid].data)], [t], ch)
                return z

            out0, out1, _ = run_protocol(proto)
            assert out0 ^ out1 == (xv & yv)


def test_and_random_words(rng):
    xv, yv = _words(rng, 1000), _words(rng, 1000)
    xs, ys = share_bin(xv, rng), share_bin(yv, rng)

    def proto(pid, ch, dealer):
        t = dealer.bin_triple((1000,))
        (z,) = and_beaver_many([(xs[pid].data, ys[pid].data)], [t], ch)
        return z

    out0, out1, (m0, _) = run_protocol(proto)
    assert np.array_equal(out0 ^ out1, xv & yv)
    assert m0.rounds == 1


# ---------------------------------------------------------------------------
# conversions

def _run_a2b(vals, rng, seed=0):
    xs = share_arith(FixedTensor(np.asarray(vals, np.uint64)), rng)

    def proto(pid, ch, dealer):
        return a2b(xs[pid], dealer, ch).data

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
                pair = dealer.arith_input_pair(())
                b = BinShareTensor(pid, np.uint64([b0v, b1v][pid]))
                return bit_to_arith(b, pair, ch).data

            out0, out1, (m0, _) = run_protocol(proto)
            assert out0 + out1 == (b0v ^ b1v)
            assert m0.rounds == 1


def test_bit_to_arith_rejects_non_bit_share():
    def proto(pid, ch, dealer):
        pair = dealer.arith_input_pair(())
        with pytest.raises(ValueError):
            bit_to_arith(BinShareTensor(pid, np.uint64(2)), pair, ch)
        return ch.meter.rounds

    out0, out1, _ = run_protocol(proto)
    assert out0 == out1 == 0  # rejected before any exchange


def test_b2a_examples(rng):
    for val in (6, (1 << 64) - 1):
        bs = share_bin(np.uint64(val), rng)

        def proto(pid, ch, dealer):
            return b2a_full(bs[pid], dealer, ch).data

        out0, out1, (m0, _) = run_protocol(proto)
        assert out0 + out1 == val
        assert m0.rounds == 1


def test_a2b_b2a_roundtrip_1000(rng):
    vals = _words(rng, 1000)
    xs = share_arith(FixedTensor(vals), rng)

    def proto(pid, ch, dealer):
        bits = a2b(xs[pid], dealer, ch)
        return b2a_full(bits, dealer, ch).data

    out0, out1, (m0, _) = run_protocol(proto)
    assert np.array_equal(out0 + out1, vals)
    assert m0.rounds == 8


def test_ltz_examples(rng):
    vals = encode_fixed(np.array([-5.0, 5.0, 0.0]))
    xs = share_arith(FixedTensor(vals), rng)

    def proto(pid, ch, dealer):
        return ltz(xs[pid], dealer, ch).data

    out0, out1, (m0, _) = run_protocol(proto)
    assert list(out0 + out1) == [1, 0, 0]
    assert m0.rounds == 8


def test_ltz_matches_sign_random(rng):
    vals = rng.uniform(-1e4, 1e4, size=500)
    enc = encode_fixed(vals)
    xs = share_arith(FixedTensor(enc), rng)

    def proto(pid, ch, dealer):
        return ltz(xs[pid], dealer, ch).data

    out0, out1, _ = run_protocol(proto)
    assert np.array_equal(out0 + out1, (decode_fixed(enc) < 0).astype(np.uint64))


def test_opened_values_look_uniform(rng):
    """Chi-square smoke test on the low 3 bits of Beaver openings."""
    from scipy import stats
    xv = np.full(10000, np.uint64(12345))  # constant secret
    yv = np.full(10000, np.uint64(67890))
    xs = share_arith(FixedTensor(xv), rng)
    ys = share_arith(FixedTensor(yv), rng)
    opened = {}

    def proto(pid, ch, dealer):
        t = dealer.arith_triple((10000,))
        eps = xs[pid].data - t.a
        (peer_eps,) = ch.exchange("open", [eps])
        opened[pid] = eps + peer_eps
        return None

    run_protocol(proto)
    low = (opened[0] & np.uint64(7)).astype(int)
    counts = np.bincount(low, minlength=8)
    _, p = stats.chisquare(counts)
    assert p > 1e-4  # not detectably non-uniform
