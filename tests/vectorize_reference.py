"""Parity references for ``topogate.vectorize``.

``landscape_level`` takes one landscape level by its own ``np.partition`` of
the tent matrix. ``landscapes`` sorts the matrix once, and a sort and a
partition pick the same elements, so the two must agree bit for bit.
``persistence_image_sum`` sums each point's Gaussian over an (n, resolution,
resolution) temporary. ``persistence_image`` takes the same sum as one matrix
product, in another order, so the two agree to rounding.
"""

import numpy as np

from topogate.diagram import Diagram
from topogate.vectorize import tent_values


def landscape_level(diag: Diagram, k: int, t_grid) -> np.ndarray:
    """k-th landscape: k-th largest tent value at each t (0 if fewer points)."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    n = len(diag.births)
    if n < k:
        return np.zeros(len(t_grid))
    tents = tent_values(diag.births, diag.deaths, t_grid)
    return np.partition(tents, n - k, axis=0)[n - k]


def persistence_image_sum(diag: Diagram, resolution, birth_range, pers_range, sigma) -> np.ndarray:
    """Each point (b, d) adds (d - b) * N((b, d - b), sigma^2 I) at the pixel centers."""
    b, pers = diag.births, diag.deaths - diag.births
    (b0, b1), (p0, p1) = birth_range, pers_range
    bs = b0 + (np.arange(resolution) + 0.5) * (b1 - b0) / resolution
    ps = p0 + (np.arange(resolution) + 0.5) * (p1 - p0) / resolution
    inv2s2 = 1.0 / (2.0 * sigma**2)
    gb = np.exp(-((bs[None, :] - b[:, None]) ** 2) * inv2s2)  # (n, cols)
    gp = np.exp(-((ps[None, :] - pers[:, None]) ** 2) * inv2s2)  # (n, rows)
    norm = 1.0 / (2.0 * np.pi * sigma**2)
    return (pers[:, None, None] * gp[:, :, None] * gb[:, None, :]).sum(axis=0) * norm
