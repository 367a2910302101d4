"""Parity references for the linear, conv and max-pool kernels of
``topogate.tinynn`` and for the PD encoder of ``topogate.model``, and the
central finite-difference gradient checker the tests verify every backward
with.

These are the kernels the network was first written with: a linear layer
that adds its bias into a second array, ``np.pad`` and a sliding-window copy
for the im2col matrix, one conv backward that returns the input and the
parameter gradients together, a max-pool that transposes each window to the
last axis and takes ``argmax`` and whose backward scatters into that
(..., 4) window array, and a dense PD encoder that runs its MLP on every
present row and back-propagates a set-pool gradient of the full size. The
production code does the same arithmetic with fewer passes, rows and
temporaries, so the two must agree bit for bit (the encoder's gradients up to
384 present rows, see ``test_model.py``).
"""

import numpy as np


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return x @ weight.T + bias


def conv3x3_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    h, w, cin = x.shape
    cout = weight.shape[0]
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))
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
    """(y, argmax); argmax is the flat in-window index of the first maximum
    in row-major window order, and a NaN counts as the maximum."""
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


def encode_pd(features: np.ndarray, params: dict, prefix: str = "enc"):
    """(t, cache) of the 5 -> 64 -> 128 -> M encoder over every present row.

    The cache is ([(x, z) of each layer], argmax), with all present rows, in
    the layout ``topogate.model.backward`` reads.
    """
    x = features[features[:, 4] > 0.5]
    cache = []
    for n in (1, 2, 3):
        if cache:
            x = np.maximum(z, 0.0)
        z = linear_forward(x, params[f"{prefix}.l{n}.w"], params[f"{prefix}.l{n}.b"])
        cache.append((x, z))
    if not len(z):
        return np.zeros(z.shape[1]), (cache, np.full(z.shape[1], -1))
    argmax = z.argmax(axis=0)
    return z[argmax, np.arange(z.shape[1])], (cache, argmax)


def encode_pd_backward(params: dict, prefix: str, cache, dt: np.ndarray) -> dict:
    """Gradients of encode_pd's parameters, from dt through a full-size set-pool gradient."""
    layers, argmax = cache
    dz = np.zeros(layers[-1][1].shape)
    cols = np.nonzero(argmax >= 0)[0]
    np.add.at(dz, (argmax[cols], cols), dt[cols])
    grads = {}
    for n in (3, 2, 1):
        x, z = layers[n - 1]
        if n < 3:
            dz = dx * (z > 0.0)
        w = params[f"{prefix}.l{n}.w"]
        dx = dz @ w
        grads[f"{prefix}.l{n}.w"], grads[f"{prefix}.l{n}.b"] = dz.T @ x, dz.sum(axis=0)
    return grads


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
