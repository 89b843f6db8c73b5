"""Hot numeric kernels on the 64-bit ring.

All arithmetic is mod 2^64 with wraparound (numpy uint64 semantics).
numpy has no BLAS path for uint64, and ``np.matmul`` walks the right
operand by column.  Ring matmul therefore copies ``b`` transposed into a
contiguous array and runs ``np.einsum``, so every output word is a dot
product over two contiguous rows; the sum wraps mod 2^64, so the words are
those of ``np.matmul``.  The time per layer shows in a traced benchmark run
(``python3 inferbench/run.py --trace 1``, ``p*.kernels.matmul.self_s``).
"""

import numpy as np


def matmul_shape(shape_a, shape_b) -> tuple:
    """Result shape of ``matmul_u64`` on operands of these shapes.

    Accepts two 2-D operands or two stacked 3-D batches whose leading batch
    dims match, with equal inner dimensions.  Mixed ranks are refused
    rather than broadcast, so a triple's shape always matches its operands.
    """
    if len(shape_a) != len(shape_b) or len(shape_a) not in (2, 3):
        raise ValueError(f"unsupported ranks: {len(shape_a)} and {len(shape_b)}")
    if shape_a[:-2] != shape_b[:-2]:
        raise ValueError(f"batch mismatch: {shape_a} vs {shape_b}")
    if shape_a[-1] != shape_b[-2]:
        raise ValueError(f"inner dimension mismatch: {shape_a} vs {shape_b}")
    return shape_a[:-1] + shape_b[-1:]


def matmul_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ring matrix product mod 2^64 of uint64 operands (see ``matmul_shape``)."""
    matmul_shape(a.shape, b.shape)
    bt = np.ascontiguousarray(np.swapaxes(b, -1, -2))
    return np.einsum("...ij,...kj->...ik", a, bt)


def arith_shift_right(v: np.ndarray, bits: int) -> np.ndarray:
    """Arithmetic (sign-extending) right shift of two's-complement words."""
    return (v.view(np.int64) >> np.int64(bits)).view(np.uint64)


def kogge_stone_carries(
    p: np.ndarray, g: np.ndarray, and_fn
) -> np.ndarray:
    """Prefix carry computation for a 64-bit adder.

    ``p`` and ``g`` are packed propagate/generate words (one u64 per ring
    element).  ``and_fn(pairs)`` evaluates a batch of bitwise ANDs and is
    the only non-local step; it is called once per of the log2(64) = 6
    levels.  Returns the generate word G where bit i is the carry out of
    bit i.
    """
    for level, k in enumerate((1, 2, 4, 8, 16, 32)):
        shift = np.uint64(k)
        if level < 5:
            t, pp = and_fn([(p, g << shift), (p, p << shift)])
            g = g ^ t
            p = pp
        else:
            # Last level: the updated propagate word is never used again.
            (t,) = and_fn([(p, g << shift)])
            g = g ^ t
    return g
