"""Hot numeric kernels on the 64-bit ring.

All arithmetic is mod 2^64 with wraparound (numpy uint64 semantics).  The
numba-jitted kernels are used when available; set MPCADAPTER_NO_NUMBA=1 to
force the pure-numpy fallback (the two paths are bit-identical, see
benchmarks/bench_kernels.py).
"""

import os

import numpy as np

_USE_NUMBA = os.environ.get("MPCADAPTER_NO_NUMBA", "").strip() not in ("1", "true", "yes")

if _USE_NUMBA:
    try:
        from numba import njit, prange
    except ImportError:
        _USE_NUMBA = False


def _matmul_u64_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.matmul on uint64 wraps mod 2^64 (C integer semantics, no BLAS).
    with np.errstate(over="ignore"):
        return np.matmul(a, b)


if _USE_NUMBA:

    @njit(cache=True)
    def _matmul_u64_jit(a, b):
        m, k = a.shape
        n = b.shape[1]
        out = np.empty((m, n), dtype=np.uint64)
        for i in range(m):
            for j in range(n):
                acc = np.uint64(0)
                for t in range(k):
                    acc = acc + a[i, t] * b[t, j]
                out[i, j] = acc
        return out

    @njit(cache=True, parallel=True)
    def _matmul_u64_batch_jit(a, b):
        nb, m, k = a.shape
        n = b.shape[2]
        out = np.empty((nb, m, n), dtype=np.uint64)
        for h in prange(nb):
            for i in range(m):
                for j in range(n):
                    acc = np.uint64(0)
                    for t in range(k):
                        acc = acc + a[h, i, t] * b[h, t, j]
                    out[h, i, j] = acc
        return out


def backend() -> str:
    """Active kernel backend name ("numba" or "numpy")."""
    return "numba" if _USE_NUMBA else "numpy"


def matmul_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ring matrix product mod 2^64.

    Accepts 2-D operands or stacked 3-D batches (leading batch dim must
    match).  Inputs must already be uint64.
    """
    if a.ndim == 2 and b.ndim == 2:
        if _USE_NUMBA:
            return _matmul_u64_jit(np.ascontiguousarray(a), np.ascontiguousarray(b))
        return _matmul_u64_np(a, b)
    if a.ndim == 3 and b.ndim == 3:
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"batch mismatch: {a.shape} vs {b.shape}")
        if _USE_NUMBA:
            return _matmul_u64_batch_jit(
                np.ascontiguousarray(a), np.ascontiguousarray(b)
            )
        return _matmul_u64_np(a, b)
    raise ValueError(f"unsupported ranks: {a.ndim} and {b.ndim}")


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
