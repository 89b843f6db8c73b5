"""Fixed-point encoding and exact arithmetic on the 64-bit ring.

Values are unsigned 64-bit words interpreted as two's complement.  The
engine has one fixed-point format, 16 fractional bits (scale 2^16); the
rsqrt windows, the 2^62 headroom guard and the truncation-failure bound
are all tuned for it, so it is a constant, not a setting.  Everything
here is plaintext and serves as the numeric substrate for the
secret-shared protocols and for the fixed-point twin in ``nn``.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

RING_BITS = 64

# Encoded magnitudes must stay below 2^62 so local probabilistic share
# truncation fails only with negligible probability.
HEADROOM_BITS = 62


class RingOverflowError(OverflowError):
    pass


class FixedPointConfig:
    """The fixed-point format: 16 fractional bits, scale 2^16."""

    __slots__ = ()
    frac_bits = 16
    scale = 1 << frac_bits


DEFAULT_CONFIG = FixedPointConfig()


def encode_fixed(value) -> np.ndarray:
    """Encode reals as ring elements: round(value * 2^f) mod 2^64.

    Rounding is half-away-from-zero (sign symmetric); negatives are stored
    as two's complement.  Raises RingOverflowError if any value is NaN or
    its encoded magnitude reaches the 2^62 headroom guard.
    """
    value = np.asarray(value, dtype=np.float64)
    scaled = value * DEFAULT_CONFIG.scale
    # Written as "not all below" so that NaN, which compares false, fails too.
    if not np.all(np.abs(scaled) < float(1 << HEADROOM_BITS)):
        raise RingOverflowError(
            f"encoded magnitude is NaN or exceeds 2^{HEADROOM_BITS} headroom"
        )
    magnitude = np.floor(np.abs(scaled) + 0.5)
    signed = np.where(scaled < 0, -magnitude, magnitude)
    return signed.astype(np.int64).view(np.uint64)


def decode_fixed(v: np.ndarray) -> np.ndarray:
    """Interpret ring elements as signed two's complement and divide by 2^f."""
    v = np.asarray(v, dtype=np.uint64)
    return v.view(np.int64).astype(np.float64) / DEFAULT_CONFIG.scale


@dataclass
class FixedTensor:
    """Dense tensor of ring elements at fixed-point scale 2^f."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint64)

    @property
    def shape(self):
        return self.data.shape

    @classmethod
    def from_real(cls, values) -> "FixedTensor":
        return cls(encode_fixed(values))

    def to_real(self) -> np.ndarray:
        return decode_fixed(self.data)


def truncate(v: np.ndarray, extra_bits: int = 0) -> np.ndarray:
    """Signed right shift by f + extra_bits: rescales a 2^2f product back to
    2^f, and a product with a constant that carries extra bits too."""
    return kernels.arith_shift_right(v, DEFAULT_CONFIG.frac_bits + extra_bits)

