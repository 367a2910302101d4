"""Classical persistence-diagram vectorizations used as ablation baselines:
Betti curves, persistence landscapes, silhouettes, and persistence images.

All functions operate on finite (finitized) diagrams. The tent function of a
point (b, d) is max(0, min(t - b, d - t)). Bar aliveness uses the half-open
convention [b, d), matching the sublevel oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .diagram import Diagram

__all__ = [
    "SIGMA_RULE",
    "tent_values",
    "betti_curve",
    "landscapes",
    "silhouette",
    "persistence_image",
]


def _sigma_ok(sigma) -> bool:
    try:
        inv2s2 = 1.0 / (2.0 * float(sigma) ** 2)
    except (OverflowError, ZeroDivisionError):  # sigma^2 overflows, or underflows to 0
        return False
    return sigma > 0 and 0 < inv2s2 < math.inf


# The rule a persistence image's sigma must meet, as (rule, test of an object
# holding sigma); the CLI checks --sigma with it. A positive sigma below about
# 1e-154 makes 1 / (2 sigma^2) overflow and the image NaN, one above 1e154
# makes sigma^2 overflow.
SIGMA_RULE = ("> 0, with 2 sigma^2 and its inverse finite", lambda a: _sigma_ok(a.sigma))


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


def landscapes(diag: Diagram, levels: int, t_grid) -> np.ndarray:
    """(len(t_grid), levels) matrix whose column k - 1 is the k-th landscape: the
    k-th largest tent value at each t, 0 past the diagram's point count."""
    if levels < 1:
        raise ValueError("landscape levels must be >= 1")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    tents = tent_values(*_coords(diag), t_grid)
    tents.sort(axis=0)  # level k is row n - k
    out = np.zeros((len(t_grid), levels))
    out[:, : len(tents)] = tents[::-1][:levels].T  # min(n, levels) columns either side
    return out


def silhouette(diag: Diagram, p: float, t_grid) -> np.ndarray:
    """Persistence-weighted average of tents, weights (d - b)^p.

    Raises FloatingPointError when the weights' sum or the curve is not finite:
    a large p makes (d - b)^p overflow float64, or underflow to 0 below d - b = 1.
    """
    if p < 0:
        raise ValueError("silhouette power must be >= 0")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    b, d = _coords(diag)
    if len(b) == 0:
        return np.zeros(len(t_grid))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weights = (d - b) ** p
        total = weights.sum()
        out = weights @ tent_values(b, d, t_grid) / total
    if not (np.isfinite(total) and np.isfinite(out).all()):
        raise FloatingPointError(f"power {p:g}: the silhouette is not finite in float64")
    return out


def persistence_image(diag: Diagram, resolution: int, birth_range, pers_range, sigma: float) -> np.ndarray:
    """Gaussian-smoothed diagram density in (birth, persistence) coordinates.

    The image has `resolution` x `resolution` pixels: columns split
    birth_range = (b0, b1) and rows split pers_range = (p0, p1) evenly.
    Each point (b, d) contributes (d - b) * N((b, d - b), sigma^2 I) evaluated
    at pixel centers (normalized Gaussian density, linear persistence weight).
    Raises FloatingPointError when the image is not finite: a sigma that meets
    SIGMA_RULE can still make 1 / (2 pi sigma^2) times a persistence overflow.
    """
    if not _sigma_ok(sigma):
        raise ValueError(f"sigma {sigma:g}: must be {SIGMA_RULE[0]}")
    b, d = _coords(diag)
    (b0, b1), (p0, p1) = birth_range, pers_range
    # an exponent that overflows to -inf gives exp's limit, 0; a non-finite image raises below
    with np.errstate(over="ignore", invalid="ignore"):
        pers = d - b
        bs = b0 + (np.arange(resolution) + 0.5) * (b1 - b0) / resolution
        ps = p0 + (np.arange(resolution) + 0.5) * (p1 - p0) / resolution
        norm = 1.0 / (2.0 * np.pi * sigma**2)
        inv2s2 = 1.0 / (2.0 * sigma**2)
        # separable Gaussian, one product: sum_i pers_i gp_i (rows) x gb_i (cols)
        gb = np.exp(-((bs[None, :] - b[:, None]) ** 2) * inv2s2)  # (n, cols)
        gp = np.exp(-((ps[None, :] - pers[:, None]) ** 2) * inv2s2)  # (n, rows)
        out = (gp * pers[:, None]).T @ gb * norm
    if not np.isfinite(out).all():
        raise FloatingPointError(f"sigma {sigma:g}: the persistence image overflows float64")
    return out
