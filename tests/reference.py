"""An independent float64 reference of the adapter pipeline.

It is written out apart from the wiring in ``mpcadapter.nn`` (which runs
the float64 twin as ``FloatContext``), with the same inverse-sqrt
polynomial, so that the tests check that wiring rather than repeat it.
"""

import numpy as np

from mpcadapter.nn import RSQRT_AFFINE, RSQRT_CUBIC, AdapterConfig


def layernorm_float(x, gain, bias, coeffs):
    xc = x - x.mean(axis=-1, keepdims=True)
    v = (xc * xc).mean(axis=-1, keepdims=True)
    y = sum(c * v**i for i, c in enumerate(coeffs))
    return gain * xc * y + bias


def adapter_forward_float(x, w, config: AdapterConfig, prefix="adapter0."):
    g = lambda k: w[prefix + k]
    n, r, h, dh = config.n_tokens, config.r, config.h, config.head_dim
    u = x @ g("down")
    ln1 = layernorm_float(u, g("ln1.gain"), g("ln1.bias"), RSQRT_CUBIC)
    split = lambda t: t.reshape(n, h, dh).transpose(1, 0, 2)
    q, k, v = split(ln1 @ g("wq")), split(ln1 @ g("wk")), split(ln1 @ g("wv"))
    scores = q @ k.transpose(0, 2, 1)
    att = (g("wl") @ scores) @ v
    merged = att.transpose(1, 0, 2).reshape(n, r)
    a = u + merged @ g("attn_out")
    ln2 = layernorm_float(a, g("ln2.gain"), g("ln2.bias"), RSQRT_CUBIC)
    m = np.maximum(0.0, ln2 @ g("fc1"))
    z = a + m @ g("fc2")
    return x + config.scaler * (z @ g("up"))


def pipeline_forward_float(x, w, config: AdapterConfig):
    for i in range(config.s):
        x = adapter_forward_float(x, w, config, prefix=f"adapter{i}.")
    cls = x[0:1, :]
    normed = layernorm_float(cls, w["final.gain"], w["final.bias"], RSQRT_AFFINE)
    return (normed @ w["classifier"]).reshape(-1)
