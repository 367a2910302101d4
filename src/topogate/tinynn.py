"""Minimal deterministic dense-tensor NN kernel: explicit forward/backward
functions on float64 numpy arrays, Adam, polynomial LR decay, and a central
finite-difference gradient checker.

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
    "softmax_cross_entropy",
    "conv3x3_forward",
    "conv3x3_backward",
    "maxpool2x2_forward",
    "maxpool2x2_backward",
    "global_avg_pool_forward",
    "global_avg_pool_backward",
    "AdamState",
    "adam_step",
    "poly_lr",
    "numerical_gradient",
    "check_gradient",
]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


# ---------------------------------------------------------------- dense layers


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = x @ W.T + b for x of shape (..., in), W of shape (out, in)."""
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(f"linear: input width {x.shape[-1]} != {weight.shape[1]}")
    return x @ weight.T + bias


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


def set_max_pool_forward(points: np.ndarray, presence: np.ndarray):
    """Per-feature max over rows with presence 1 (ties: lowest row index).

    points: (n, f); presence: (n,) in {0, 1}. All-padding input yields a zero
    vector with argmax indices of -1.
    """
    mask = presence > 0.5
    if not mask.any():
        return np.zeros(points.shape[1]), np.full(points.shape[1], -1, dtype=np.int64)
    masked = np.where(mask[:, None], points, -np.inf)
    arg = masked.argmax(axis=0)
    return masked[arg, np.arange(points.shape[1])], arg


def set_max_pool_backward(points_shape, argmax: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Route dy to the argmax row of each feature; padded pools get nothing."""
    dx = np.zeros(points_shape)
    valid = argmax >= 0
    cols = np.nonzero(valid)[0]
    np.add.at(dx, (argmax[valid], cols), dy[valid])
    return dx


def softmax_cross_entropy(logits: np.ndarray, label: int):
    """(loss, dlogits) for a single sample; loss = -log softmax(logits)[label]."""
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    loss = -np.log(probs[label])
    dlogits = probs.copy()
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
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    # patches[r, c] = 3x3 neighborhood flattened as (3, 3, cin)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))
    # windows: (h, w, cin, 3, 3) -> (h*w, cin*9)
    patches = windows.reshape(h * w, cin * 9)
    wmat = weight.reshape(cout, cin * 9)
    y = (patches @ wmat.T + bias).reshape(h, w, cout)
    return y, patches


def conv3x3_backward(x: np.ndarray, weight: np.ndarray, patches: np.ndarray, dy: np.ndarray):
    """Gradients (dx, dweight, dbias) for conv3x3_forward."""
    h, w, cin = x.shape
    cout = weight.shape[0]
    dy2 = dy.reshape(h * w, cout)
    wmat = weight.reshape(cout, cin * 9)
    dweight = (dy2.T @ patches).reshape(weight.shape)
    dbias = dy2.sum(axis=0)
    dpatches = (dy2 @ wmat).reshape(h, w, cin, 3, 3)
    dxp = np.zeros((h + 2, w + 2, cin))
    for i in range(3):
        for j in range(3):
            dxp[i : i + h, j : j + w] += dpatches[:, :, :, i, j]
    return dxp[1 : 1 + h, 1 : 1 + w], dweight, dbias


def maxpool2x2_forward(x: np.ndarray):
    """2x2 max pooling, stride 2; even spatial dims required.

    Returns (y, argmax) with argmax holding the flat in-window winner index
    (ties: first in row-major window order).
    """
    h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError("maxpool2x2 requires even spatial dimensions")
    win = x.reshape(h // 2, 2, w // 2, 2, c).transpose(0, 2, 4, 1, 3).reshape(
        h // 2, w // 2, c, 4
    )
    arg = win.argmax(axis=3)
    y = np.take_along_axis(win, arg[..., None], axis=3)[..., 0]
    return y, arg


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


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for a dict of named parameters."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float | None = None) -> None:
    """In-place Adam update of every parameter present in grads."""
    if lr is None:
        lr = state.lr
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
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
        params[name] -= lr * mhat / (np.sqrt(vhat) + state.eps)


def poly_lr(base_lr: float, epoch: int, max_epochs: int, power: float = 0.9) -> float:
    """Polynomial decay: base_lr * (1 - epoch/max_epochs)^power."""
    frac = 1.0 - epoch / max_epochs
    return base_lr * frac**power if frac > 0 else 0.0


# ------------------------------------------------------------- gradient checks


def numerical_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar-valued f at x, elementwise."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def check_gradient(f, x, analytic, h: float = 1e-5, rtol: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per element: |a - n| / max(1, |a|, |n|). Raises
    AssertionError above rtol; returns the max error otherwise.
    """
    numeric = numerical_gradient(f, np.asarray(x, dtype=np.float64), h=h)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = float(np.max(np.abs(analytic - numeric) / denom)) if numeric.size else 0.0
    if err >= rtol:
        raise AssertionError(f"gradient check failed: max relative error {err:.3e}")
    return err
