import numpy as np
import pytest

from mpcadapter import kernels


def _py_matmul_mod(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n), dtype=np.uint64)
    mask = (1 << 64) - 1
    for i in range(m):
        for j in range(n):
            acc = 0
            for t in range(k):
                acc = (acc + int(a[i, t]) * int(b[t, j])) & mask
            out[i, j] = acc
    return out


def test_matmul_mod_2_64(rng):
    a = rng.integers(0, 1 << 64, size=(5, 4), dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=(4, 6), dtype=np.uint64)
    assert np.array_equal(kernels.matmul_u64(a, b), _py_matmul_mod(a, b))


def test_matmul_batch(rng):
    a = rng.integers(0, 1 << 64, size=(3, 4, 4), dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=(3, 4, 4), dtype=np.uint64)
    got = kernels.matmul_u64(a, b)
    for i in range(3):
        assert np.array_equal(got[i], _py_matmul_mod(a[i], b[i]))


def test_matmul_strided_views_exact(rng):
    """Transposed and strided views give the exact product."""
    a = rng.integers(0, 1 << 64, size=(6, 10), dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=(12, 5), dtype=np.uint64)
    for x, y in ((a.T[::2], b[::2]), (a[:, ::2], b[:5].T), (a[::2, 1::2], b.T[:, :5])):
        assert not (x.flags.c_contiguous and y.flags.c_contiguous)
        assert np.array_equal(kernels.matmul_u64(x, y), _py_matmul_mod(x, y))
    batch = rng.integers(0, 1 << 64, size=(2, 4, 4), dtype=np.uint64)
    got = kernels.matmul_u64(batch, batch.transpose(0, 2, 1))
    for i in range(2):
        assert np.array_equal(got[i], _py_matmul_mod(batch[i], batch[i].T))


# Every ring-product shape of one paper-scale inference
# (h=8, r=64, s=4, d_model=768, n_tokens=128), listed by wrapping
# ``kernels.matmul_u64`` around ``nn.private_inference``.
PAPER_PRODUCTS = [
    ((128, 64), (64, 64)),
    ((128, 768), (768, 64)),
    ((8, 128, 8), (8, 8, 128)),
    ((8, 128, 128), (8, 128, 128)),
    ((8, 128, 128), (8, 128, 8)),
    ((128, 64), (64, 128)),
    ((128, 128), (128, 64)),
    ((128, 64), (64, 768)),
    ((1, 768), (768, 10)),
]


@pytest.mark.parametrize("shape_a, shape_b", PAPER_PRODUCTS)
def test_matmul_paper_shapes_equal_np_matmul(rng, shape_a, shape_b):
    """Full-range words at paper sizes: the same words as ``np.matmul``."""
    a = rng.integers(0, 1 << 64, size=shape_a, dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=shape_b, dtype=np.uint64)
    with np.errstate(over="ignore"):
        want = np.matmul(a, b)
    assert np.array_equal(kernels.matmul_u64(a, b), want)


def test_matmul_mixed_ranks_rejected(rng):
    """einsum's ``...`` would broadcast a 2-D operand across the batch."""
    a = rng.integers(0, 1 << 64, size=(4, 4), dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=(3, 4, 4), dtype=np.uint64)
    with pytest.raises(ValueError):
        kernels.matmul_u64(a, b)
    with pytest.raises(ValueError):
        kernels.matmul_u64(b, a)


def test_matmul_batch_mismatch_rejected(rng):
    a = rng.integers(0, 1 << 64, size=(3, 4, 4), dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=(1, 4, 4), dtype=np.uint64)
    with pytest.raises(ValueError):
        kernels.matmul_u64(a, b)


def test_arith_shift_right():
    v = np.array([1 << 17, (1 << 64) - (1 << 17)], dtype=np.uint64)
    got = kernels.arith_shift_right(v, 16)
    assert got[0] == 2
    assert got.view(np.int64)[1] == -2


def test_kogge_stone_plaintext_adder(rng):
    """Driving the carry network with plain ANDs must add two u64 words."""
    x = rng.integers(0, 1 << 64, size=256, dtype=np.uint64)
    y = rng.integers(0, 1 << 64, size=256, dtype=np.uint64)
    p = x ^ y
    g = x & y
    calls = []

    def and_fn(pairs):
        calls.append(len(pairs))
        return [a & b for a, b in pairs]

    carries = kernels.kogge_stone_carries(p, g, and_fn)
    total = p ^ (carries << np.uint64(1))
    assert np.array_equal(total, x + y)
    assert len(calls) == 6  # one batched AND round per level
