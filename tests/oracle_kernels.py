"""Plain numpy forward kernels for oracles that rebuild a block by hand.

They spell out the formulas that `cycleformer.autodiff` computes in place,
so an oracle written with them does not share buffers or code with the
kernels under test.
"""
import math

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def layer_norm_np(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    return xc / np.sqrt(var + eps) * gamma + beta


def gelu_np(x):
    """tanh-approximation GELU, 0.5 * x * (1 + tanh(C * (x + A * x^3))),
    with the operations in the order `autodiff._gelu_parts` runs them."""
    t = np.tanh((x * x * x * _GELU_A + x) * _GELU_C)
    return (t + 1.0) * x * 0.5
