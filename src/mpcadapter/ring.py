"""Fixed-point encoding and exact arithmetic on the 64-bit ring.

Values are unsigned 64-bit words interpreted as two's complement; the
fixed-point scale is 2^frac_bits.  Everything here is plaintext and serves
as the numeric substrate for the secret-shared protocols and for the
fixed-point twin in ``nn``.
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


@dataclass(frozen=True)
class FixedPointConfig:
    frac_bits: int = 16

    def __post_init__(self):
        if not 1 <= self.frac_bits <= 32:
            raise ValueError(f"frac_bits must be in [1, 32], got {self.frac_bits}")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits


DEFAULT_CONFIG = FixedPointConfig()


def encode_fixed(value, cfg: FixedPointConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Encode reals as ring elements: round(value * 2^f) mod 2^64.

    Rounding is half-away-from-zero (sign symmetric); negatives are stored
    as two's complement.  Raises RingOverflowError if any encoded
    magnitude reaches the 2^62 headroom guard.
    """
    value = np.asarray(value, dtype=np.float64)
    scaled = value * cfg.scale
    if np.any(np.abs(scaled) >= float(1 << HEADROOM_BITS)):
        raise RingOverflowError(
            f"encoded magnitude exceeds 2^{HEADROOM_BITS} headroom"
        )
    magnitude = np.floor(np.abs(scaled) + 0.5)
    signed = np.where(scaled < 0, -magnitude, magnitude)
    return signed.astype(np.int64).view(np.uint64)


def decode_fixed(v: np.ndarray, cfg: FixedPointConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Interpret ring elements as signed two's complement and divide by 2^f."""
    v = np.asarray(v, dtype=np.uint64)
    return v.view(np.int64).astype(np.float64) / cfg.scale


@dataclass
class FixedTensor:
    """Dense tensor of ring elements at fixed-point scale 2^f."""

    data: np.ndarray
    config: FixedPointConfig = DEFAULT_CONFIG

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint64)

    @property
    def shape(self):
        return self.data.shape

    @classmethod
    def from_real(cls, values, cfg: FixedPointConfig = DEFAULT_CONFIG) -> "FixedTensor":
        return cls(encode_fixed(values, cfg), cfg)

    def to_real(self) -> np.ndarray:
        return decode_fixed(self.data, self.config)

    def __add__(self, other: "FixedTensor") -> "FixedTensor":
        _check_config(self, other)
        return FixedTensor(self.data + other.data, self.config)

    def __sub__(self, other: "FixedTensor") -> "FixedTensor":
        _check_config(self, other)
        return FixedTensor(self.data - other.data, self.config)


def _check_config(a: FixedTensor, b: FixedTensor):
    if a.config != b.config:
        raise ValueError("fixed-point config mismatch")


def truncate(v: np.ndarray, cfg: FixedPointConfig) -> np.ndarray:
    """Signed right shift by f: rescales a 2^2f product back to 2^f."""
    return kernels.arith_shift_right(v, cfg.frac_bits)

