import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcadapter.ring import (DEFAULT_CONFIG, FixedPointConfig, FixedTensor,
                             RingOverflowError, decode_fixed, encode_fixed,
                             truncate)

F = DEFAULT_CONFIG.frac_bits
ULP = 2.0 ** -F


def test_config_defaults():
    assert DEFAULT_CONFIG.frac_bits == 16
    assert DEFAULT_CONFIG.scale == 65536


def test_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(frac_bits=0)
    with pytest.raises(ValueError):
        FixedPointConfig(frac_bits=33)


def test_encode_examples():
    assert encode_fixed(1.5) == 98304
    assert encode_fixed(0.0) == 0
    assert encode_fixed(-0.25) == (1 << 64) - 16384


def test_decode_examples():
    assert decode_fixed(np.uint64(98304)) == 1.5
    assert decode_fixed(np.uint64((1 << 64) - 16384)) == -0.25
    assert decode_fixed(np.uint64(1)) == 2.0 ** -16


def test_rounding_half_away_from_zero():
    # half-ulp values round away from zero in both directions
    assert encode_fixed(2.0 ** -17) == 1
    assert decode_fixed(encode_fixed(-(2.0 ** -17))) == -(2.0 ** -16)


def test_headroom_guard():
    with pytest.raises(RingOverflowError):
        encode_fixed(2.0 ** 47)
    encode_fixed(2.0 ** 45)  # within headroom


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_roundtrip_nearest_multiple(v):
    got = decode_fixed(encode_fixed(v))
    assert abs(got - v) <= 0.5 * ULP + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_addition_homomorphism(a, b):
    lhs = encode_fixed(a) + encode_fixed(b)
    # exact match when operands are already ulp multiples
    a_q, b_q = decode_fixed(encode_fixed(a)), decode_fixed(encode_fixed(b))
    assert lhs == encode_fixed(a_q + b_q)


def test_tensor_roundtrip(rng):
    vals = rng.standard_normal((4, 5))
    t = FixedTensor.from_real(vals)
    assert np.max(np.abs(t.to_real() - vals)) <= 0.5 * ULP
    assert t.shape == (4, 5)


def test_tensor_add_sub(rng):
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    ta, tb = FixedTensor.from_real(a), FixedTensor.from_real(b)
    assert np.allclose((ta + tb).to_real(), a + b, atol=ULP)
    assert np.allclose((ta - tb).to_real(), a - b, atol=ULP)


def test_config_mismatch_rejected():
    a = FixedTensor.from_real([1.0], FixedPointConfig(frac_bits=16))
    b = FixedTensor.from_real([1.0], FixedPointConfig(frac_bits=12))
    with pytest.raises(ValueError):
        a + b


def test_truncate_signed():
    cfg = DEFAULT_CONFIG
    raw = encode_fixed(3.0) * np.uint64(cfg.scale)  # 3.0 at scale 2^2f
    assert decode_fixed(truncate(raw, cfg)) == 3.0
    raw_neg = encode_fixed(-3.0) * np.uint64(cfg.scale)
    assert abs(decode_fixed(truncate(raw_neg, cfg)) + 3.0) <= ULP
