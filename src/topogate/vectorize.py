"""Classical persistence-diagram vectorizations used as ablation baselines:
Betti curves, persistence landscapes, silhouettes, and persistence images.

All functions operate on finite (finitized) diagrams. The tent function of a
point (b, d) is max(0, min(t - b, d - t)). Bar aliveness uses the half-open
convention [b, d), matching the sublevel oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import Diagram

__all__ = [
    "ImageGridSpec",
    "tent_values",
    "betti_curve",
    "landscape",
    "silhouette",
    "persistence_image",
]


@dataclass(frozen=True)
class ImageGridSpec:
    """Raster spec for persistence images in the (birth, persistence) plane."""

    rows: int
    cols: int
    birth_range: tuple[float, float]
    pers_range: tuple[float, float]
    sigma: float

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        b0, b1 = self.birth_range
        p0, p1 = self.pers_range
        bs = b0 + (np.arange(self.cols) + 0.5) * (b1 - b0) / self.cols
        ps = p0 + (np.arange(self.rows) + 0.5) * (p1 - p0) / self.rows
        return bs, ps


def _coords(diag: Diagram):
    if np.any(diag.essential):
        raise ValueError("vectorizers require a finitized diagram")
    return diag.births, diag.deaths


def tent_values(births: np.ndarray, deaths: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """(n_points, n_t) matrix of tent functions max(0, min(t - b, d - t))."""
    t = np.asarray(t_grid, dtype=np.float64)[None, :]
    b = births[:, None]
    d = deaths[:, None]
    return np.maximum(0.0, np.minimum(t - b, d - t))


def betti_curve(diag: Diagram, t_grid) -> np.ndarray:
    """Count of bars alive at each t: |{(b, d): b <= t < d}|."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    b, d = _coords(diag)
    t = t_grid[None, :]
    return ((b[:, None] <= t) & (t < d[:, None])).sum(axis=0).astype(np.float64)


def landscape(diag: Diagram, k: int, t_grid) -> np.ndarray:
    """k-th landscape: k-th largest tent value at each t (0 if fewer points)."""
    if k < 1:
        raise ValueError("landscape level k must be >= 1")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    b, d = _coords(diag)
    if len(b) < k:
        return np.zeros(len(t_grid))
    tents = tent_values(b, d, t_grid)
    # k-th largest along the point axis
    part = np.partition(tents, len(b) - k, axis=0)[len(b) - k]
    return part


def silhouette(diag: Diagram, p: float, t_grid) -> np.ndarray:
    """Persistence-weighted average of tents, weights (d - b)^p."""
    if p < 0:
        raise ValueError("silhouette power must be >= 0")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    b, d = _coords(diag)
    if len(b) == 0:
        return np.zeros(len(t_grid))
    weights = (d - b) ** p
    tents = tent_values(b, d, t_grid)
    return weights @ tents / weights.sum()


def persistence_image(diag: Diagram, spec: ImageGridSpec) -> np.ndarray:
    """Gaussian-smoothed diagram density in (birth, persistence) coordinates.

    Each point (b, d) contributes (d - b) * N((b, d - b), sigma^2 I) evaluated
    at pixel centers (normalized Gaussian density, linear persistence weight).
    """
    if spec.sigma <= 0:
        raise ValueError("sigma must be positive")
    b, d = _coords(diag)
    out = np.zeros((spec.rows, spec.cols))
    if len(b) == 0:
        return out
    pers = d - b
    bs, ps = spec.centers()
    norm = 1.0 / (2.0 * np.pi * spec.sigma**2)
    inv2s2 = 1.0 / (2.0 * spec.sigma**2)
    db2 = (bs[None, :] - b[:, None]) ** 2  # (n, cols)
    dp2 = (ps[None, :] - pers[:, None]) ** 2  # (n, rows)
    # separable Gaussian: sum_i w_i exp(-dp2_i) x exp(-db2_i)
    gb = np.exp(-db2 * inv2s2)
    gp = np.exp(-dp2 * inv2s2)
    out = (pers[:, None, None] * gp[:, :, None] * gb[:, None, :]).sum(axis=0) * norm
    return out
