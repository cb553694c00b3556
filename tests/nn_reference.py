"""Element-wise tape ops the encoders no longer call, built on `nn._op`,
and the GRU cell composed from them: the reference `nn.gru_step` is
checked against, and helpers the gradient checks build graphs with."""

import numpy as np

from smartpaste import nn


def sub(a, b):
    nn._same_shape(a, b, "sub")
    return nn._op(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b):
    nn._same_shape(a, b, "mul")
    return nn._op(a.data * b.data, (a, b),
                  lambda g: (g * b.data, g * a.data))


def add_bias(x, b):
    """x + b, the (H,) bias b broadcast over the columns of an (H, B) x."""
    if b.data.ndim != 1 or x.data.ndim not in (1, 2) \
            or x.shape[0] != b.shape[0]:
        raise nn.ShapeError(f"add_bias: {x.shape} + {b.shape}")
    batched = x.data.ndim == 2
    return nn._op(x.data + (b.data[:, None] if batched else b.data), (x, b),
                  lambda g: (g, g.sum(axis=1) if batched else g))


def sigmoid(a):
    out = 1.0 / (1.0 + np.exp(-a.data))
    return nn._op(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a):
    out = np.tanh(a.data)
    return nn._op(out, (a,), lambda g: (g * (1.0 - out * out),))


def gru_step(h, x, p):
    """The GRU cell as about 20 tape ops, one per matmul, sum, gate and
    product."""
    z = sigmoid(add_bias(nn.add(nn.matmul(p.wz, x), nn.matmul(p.uz, h)),
                         p.bz))
    r = sigmoid(add_bias(nn.add(nn.matmul(p.wr, x), nn.matmul(p.ur, h)),
                         p.br))
    hcand = tanh(add_bias(nn.add(nn.matmul(p.wh, x),
                                 nn.matmul(p.uh, mul(r, h))), p.bh))
    one_minus_z = sub(nn.constant(np.ones_like(z.data)), z)
    return nn.add(mul(one_minus_z, h), mul(z, hcand))


def gather_grad(shape, index, g):
    """The gradient `nn.gather(x, index)` passes to an x of `shape` for an
    output gradient g: each column of g added into its source column with
    `np.add.at`, in index order."""
    grad = np.zeros(shape)
    np.add.at(grad, (slice(None), index), g)
    return grad
