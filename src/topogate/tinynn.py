"""Minimal deterministic dense-tensor NN kernel: explicit forward/backward
functions on float64 numpy arrays, Adam and polynomial LR decay.

Every backward returns exact analytic gradients; there is no autograd graph.
Parameters live in plain dicts of named arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "glorot_uniform",
    "linear_forward",
    "linear_backward",
    "relu_forward",
    "relu_backward",
    "sigmoid_forward",
    "sigmoid_backward",
    "set_max_pool_forward",
    "set_max_pool_backward",
    "softmax",
    "softmax_cross_entropy",
    "conv3x3_forward",
    "conv3x3_backward",
    "conv3x3_param_backward",
    "conv3x3_input_backward",
    "maxpool2x2_forward",
    "maxpool2x2_backward",
    "global_avg_pool_forward",
    "global_avg_pool_backward",
    "AdamState",
    "adam_step",
    "poly_lr",
]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


# ---------------------------------------------------------------- dense layers


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = x @ W.T + b for x of shape (..., in), W of shape (out, in)."""
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(f"linear: input width {x.shape[-1]} != {weight.shape[1]}")
    y = x @ weight.T
    y += bias
    return y


def linear_backward(x, weight, dy):
    """Gradients (dx, dweight, dbias); leading axes of x are batch axes."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dx = (dy2 @ weight).reshape(x.shape)
    dweight = dy2.T @ x2
    dbias = dy2.sum(axis=0)
    return dx, dweight, dbias


def relu_forward(x):
    return np.maximum(x, 0.0)


def relu_backward(x, dy):
    return dy * (x > 0.0)


def sigmoid_forward(x):
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid_backward(y, dy):
    """Backward from the forward output y = sigmoid(x)."""
    return dy * y * (1.0 - y)


def set_max_pool_forward(points: np.ndarray):
    """Per-feature max over the rows of points (n, f); ties: lowest row index.

    Zero rows yield a zero vector with argmax indices of -1.
    """
    if not len(points):
        return np.zeros(points.shape[1]), np.full(points.shape[1], -1, dtype=np.int64)
    arg = points.argmax(axis=0)
    return points[arg, np.arange(points.shape[1])], arg


def set_max_pool_backward(points_shape, argmax: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Route dy to the argmax row of each feature; padded pools get nothing."""
    dx = np.zeros(points_shape)
    valid = argmax >= 0
    cols = np.nonzero(valid)[0]
    np.add.at(dx, (argmax[valid], cols), dy[valid])
    return dx


def softmax(logits: np.ndarray) -> np.ndarray:
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def softmax_cross_entropy(logits: np.ndarray, label: int):
    """(loss, dlogits) for a single sample; loss = -log softmax(logits)[label]."""
    dlogits = softmax(logits)
    loss = -np.log(dlogits[label])
    dlogits[label] -= 1.0
    return loss, dlogits


# ---------------------------------------------------------------- conv layers


def conv3x3_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """3x3 convolution, stride 1, zero padding 1.

    x: (h, w, cin); weight: (cout, cin, 3, 3); returns (y, patches) where
    patches is the (h*w, cin*9) im2col matrix kept for backward.
    """
    h, w, cin = x.shape
    cout = weight.shape[0]
    xp = np.zeros((h + 2, w + 2, cin))
    xp[1 : 1 + h, 1 : 1 + w] = x
    # patches[r * w + c] = the 3x3 neighborhood of (r, c), flattened as (cin, 3, 3)
    patches = np.empty((h, w, cin, 3, 3))
    for i in range(3):
        for j in range(3):
            patches[..., i, j] = xp[i : i + h, j : j + w]
    patches = patches.reshape(h * w, cin * 9)
    y = patches @ weight.reshape(cout, cin * 9).T
    y += bias
    return y.reshape(h, w, cout), patches


def conv3x3_param_backward(weight: np.ndarray, patches: np.ndarray, dy: np.ndarray):
    """Parameter gradients (dweight, dbias) for conv3x3_forward."""
    dy2 = dy.reshape(-1, weight.shape[0])
    return (dy2.T @ patches).reshape(weight.shape), dy2.sum(axis=0)


def conv3x3_input_backward(x_shape, weight: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Input gradient dx for conv3x3_forward: im2col's transpose (col2im)."""
    h, w, cin = x_shape
    cout = weight.shape[0]
    dpatches = (dy.reshape(h * w, cout) @ weight.reshape(cout, cin * 9)).reshape(h, w, cin, 3, 3)
    dxp = np.zeros((h + 2, w + 2, cin))
    for i in range(3):
        for j in range(3):
            dxp[i : i + h, j : j + w] += dpatches[..., i, j]
    return dxp[1 : 1 + h, 1 : 1 + w]


def conv3x3_backward(x: np.ndarray, weight: np.ndarray, patches: np.ndarray, dy: np.ndarray):
    """Gradients (dx, dweight, dbias) for conv3x3_forward."""
    return (conv3x3_input_backward(x.shape, weight, dy), *conv3x3_param_backward(weight, patches, dy))


def maxpool2x2_forward(x: np.ndarray):
    """2x2 max pooling, stride 2; even spatial dims required.

    Returns (y, argmax) with argmax holding the flat in-window winner index
    (ties: first in row-major window order) and y the winner itself, so of
    -0.0 and 0.0 the earlier one. The winner comes from a tournament over the
    four strided quadrants, in which the later element wins only if strictly
    larger. NaN compares false, so y is NaN exactly where a window's top-left
    element is NaN; a NaN elsewhere in a window is passed over.
    """
    h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError("maxpool2x2 requires even spatial dimensions")
    q = x.reshape(h // 2, 2, w // 2, 2, c)
    right_top = q[:, 0, :, 1] > q[:, 0, :, 0]
    top = np.where(right_top, q[:, 0, :, 1], q[:, 0, :, 0])
    right_bottom = q[:, 1, :, 1] > q[:, 1, :, 0]
    bottom = np.where(right_bottom, q[:, 1, :, 1], q[:, 1, :, 0])
    lower = bottom > top
    arg = np.where(lower, right_bottom + np.int8(2), right_top)
    return np.where(lower, bottom, top), arg


def maxpool2x2_backward(x_shape, argmax: np.ndarray, dy: np.ndarray) -> np.ndarray:
    h, w, c = x_shape
    dwin = np.zeros((h // 2, w // 2, c, 4))
    np.put_along_axis(dwin, argmax[..., None], dy[..., None], axis=3)
    return dwin.reshape(h // 2, w // 2, c, 2, 2).transpose(0, 3, 1, 4, 2).reshape(h, w, c)


def global_avg_pool_forward(x: np.ndarray) -> np.ndarray:
    """(h, w, c) -> (c,) mean over the spatial dimensions."""
    return x.mean(axis=(0, 1))


def global_avg_pool_backward(x_shape, dy: np.ndarray) -> np.ndarray:
    h, w, c = x_shape
    return np.broadcast_to(dy / (h * w), (h, w, c)).copy()


# -------------------------------------------------------------------- training


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for a dict of named parameters."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """In-place Adam update of every parameter present in grads."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name in sorted(grads):
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        params[name] -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def poly_lr(base_lr: float, epoch: int, max_epochs: int) -> float:
    """Polynomial decay: base_lr * (1 - epoch/max_epochs)^0.9."""
    frac = 1.0 - epoch / max_epochs
    return base_lr * frac**0.9 if frac > 0 else 0.0
