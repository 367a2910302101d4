"""Parity references for the linear, conv and max-pool kernels of
``topogate.tinynn``.

These are the kernels the network was first written with: a linear layer
that adds its bias into a second array, ``np.pad`` and a sliding-window copy
for the im2col matrix, one conv backward that returns the input and the
parameter gradients together, and a max-pool that transposes each window to
the last axis and takes ``argmax``. The production kernels do the same
arithmetic with fewer passes and temporaries, so the two must agree bit for
bit.
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
