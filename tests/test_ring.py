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
    with pytest.raises(TypeError):  # one format: nothing to set
        FixedPointConfig(frac_bits=12)


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
    with pytest.raises(RingOverflowError):
        encode_fixed([1.0, np.nan])


@settings(max_examples=300)
@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_roundtrip_nearest_multiple(v):
    got = decode_fixed(encode_fixed(v))
    assert abs(got - v) <= 0.5 * ULP + 1e-12


@settings(max_examples=200)
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


def test_truncate_signed():
    raw = encode_fixed(3.0) * np.uint64(DEFAULT_CONFIG.scale)  # 3.0 at scale 2^2f
    assert decode_fixed(truncate(raw)) == 3.0
    raw_neg = encode_fixed(-3.0) * np.uint64(DEFAULT_CONFIG.scale)
    assert abs(decode_fixed(truncate(raw_neg)) + 3.0) <= ULP
