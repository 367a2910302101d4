"""Grayscale image grids: loading, sublevel thresholding, Betti oracles,
and synthetic shape datasets whose classes differ only in topology."""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FormatError",
    "SyntheticSample",
    "load_pgm",
    "save_pgm",
    "load_csv_grid",
    "sublevel_mask",
    "betti_oracle",
    "generate_shapes",
    "SHAPE_CLASSES",
]


class FormatError(ValueError):
    """Raised for malformed input files: images, grids, labels, curves, histories."""


@dataclass(frozen=True)
class SyntheticSample:
    """A generated image together with its class label."""

    image: np.ndarray  # (h, w) uint8
    label: int


# a comment runs from '#' to the end of its line; a token ends at whitespace or '#'
_PGM_TOKEN = re.compile(rb"#[^\n\r]*|([^\s#]+)")


def _read_pgm_tokens(data: bytes, count: int, start: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated tokens, skipping '#' comments.

    Returns the tokens and the position just past the last one.
    """
    tokens: list[bytes] = []
    for match in _PGM_TOKEN.finditer(data, start):
        if match.group(1) is not None:
            tokens.append(match.group(1))
            if len(tokens) == count:
                return tokens, match.end()
    raise FormatError("truncated PGM header")


def load_pgm(path) -> np.ndarray:
    """Load a P2 (ASCII) or P5 (binary) PGM file as a (h, w) uint8 array.

    No value scaling is applied; maxval must be <= 255.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] not in (b"P2", b"P5"):
        raise FormatError(f"unsupported PGM magic {data[:2]!r}")
    magic = data[:2]
    header, pos = _read_pgm_tokens(data, 3, 2)
    try:
        width, height, maxval = (int(t) for t in header)
    except ValueError as e:
        raise FormatError(f"non-numeric PGM header field: {e}") from e
    if width < 1 or height < 1:
        raise FormatError(f"bad PGM dimensions {width}x{height}")
    if maxval > 255:
        raise FormatError(f"maxval {maxval} exceeds 255")
    if maxval < 1:
        raise FormatError(f"bad maxval {maxval}")
    npix = width * height
    if magic == b"P5":
        sep = data[pos : pos + 1]  # the raster starts one whitespace byte after maxval
        if sep and not sep.isspace():
            raise FormatError(f"P5 maxval must be followed by one whitespace byte, not {sep!r}")
        payload = data[pos + 1 : pos + 1 + npix]
        if len(payload) < npix:
            raise FormatError("truncated P5 payload")
        values = np.frombuffer(payload, dtype=np.uint8, count=npix)
    else:
        tokens, _ = _read_pgm_tokens(data, npix, pos)
        try:
            values = np.array([int(t) for t in tokens], dtype=np.int64)
        except ValueError as e:
            raise FormatError(f"non-numeric P2 pixel: {e}") from e
        if values.min() < 0 or values.max() > maxval:
            raise FormatError("P2 pixel out of range")
        values = values.astype(np.uint8)
    return values.reshape(height, width)


def save_pgm(path, grid: np.ndarray) -> None:
    """Write a (h, w) uint8 array as a binary (P5) PGM file."""
    grid = np.asarray(grid, dtype=np.uint8)
    h, w = grid.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(grid.tobytes())


def load_csv_grid(path) -> np.ndarray:
    """Load a grid from CSV: one image row per line, comma-separated integers
    in 0..255."""
    try:
        values = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError as e:
        raise FormatError(f"malformed CSV grid: {e}") from e
    if np.any((values < 0) | (values > 255)):
        raise FormatError("CSV grid value out of range 0..255")
    return values


def sublevel_mask(grid: np.ndarray, tau: float) -> np.ndarray:
    """Boolean mask of pixels with intensity <= tau.

    Monotone in tau: tau1 <= tau2 implies mask(tau1) is contained in mask(tau2).
    """
    return np.asarray(grid) <= tau


def betti_oracle(mask: np.ndarray) -> tuple[int, int]:
    """Brute-force Betti numbers (beta0, beta1) of a binary mask.

    The complex is the V-construction: true pixels are vertices, edges join
    4-adjacent true pixels, and squares fill all-true 2x2 blocks. beta0 is
    counted by flood fill; beta1 = beta0 - (V - E + F).
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    v = int(mask.sum())
    if v == 0:
        return 0, 0
    e = int((mask[:, 1:] & mask[:, :-1]).sum()) + int((mask[1:, :] & mask[:-1, :]).sum())
    f = int((mask[1:, 1:] & mask[1:, :-1] & mask[:-1, 1:] & mask[:-1, :-1]).sum())

    seen = np.zeros((h, w), dtype=bool)
    beta0 = 0
    for sr in range(h):
        for sc in range(w):
            if not mask[sr, sc] or seen[sr, sc]:
                continue
            beta0 += 1
            queue = deque([(sr, sc)])
            seen[sr, sc] = True
            while queue:
                r, c = queue.popleft()
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                        seen[nr, nc] = True
                        queue.append((nr, nc))
    chi = v - e + f
    return beta0, beta0 - chi


SHAPE_CLASSES = ("disk", "annulus", "two_disks")

_FOREGROUND = 40
_BACKGROUND = 215


def _disk_mask(size: int, cy: float, cx: float, radius: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2


def generate_shapes(
    seed: int,
    n: int,
    size: int = 64,
    noise: int = 20,
) -> list[SyntheticSample]:
    """Generate `n` synthetic 8-bit images with topology-only class separation.

    Classes share (approximately) the same foreground area and intensity
    distribution; they differ in component and loop counts only:
    disk -> (1, 0), annulus -> (1, 1), two_disks -> (2, 0) at mid threshold.
    Additive noise is bounded so the coarse-threshold topology is preserved.
    Deterministic given the seed; labels are balanced round-robin.
    """
    if size < 32:
        raise ValueError("size must be >= 32")
    rng = np.random.default_rng(seed)
    samples: list[SyntheticSample] = []
    for i in range(n):
        label = i % len(SHAPE_CLASSES)
        kind = SHAPE_CLASSES[label]
        base_r = rng.uniform(0.14, 0.18) * size
        margin = base_r * 1.5 + 2
        fg = np.zeros((size, size), dtype=bool)
        if kind == "disk":
            cy = rng.uniform(margin, size - margin)
            cx = rng.uniform(margin, size - margin)
            fg = _disk_mask(size, cy, cx, base_r)
        elif kind == "annulus":
            # outer/inner radii chosen so the ring area matches the disk area
            outer = base_r / 0.8
            inner = 0.6 * outer
            cy = rng.uniform(margin, size - margin)
            cx = rng.uniform(margin, size - margin)
            fg = _disk_mask(size, cy, cx, outer) & ~_disk_mask(size, cy, cx, inner)
        else:  # two_disks, each with half the disk area
            r2 = base_r / np.sqrt(2.0)
            m2 = r2 + 2
            while True:
                cy1, cx1 = rng.uniform(m2, size - m2, size=2)
                cy2, cx2 = rng.uniform(m2, size - m2, size=2)
                if (cy1 - cy2) ** 2 + (cx1 - cx2) ** 2 >= (2 * r2 + 3) ** 2:
                    break
            fg = _disk_mask(size, cy1, cx1, r2) | _disk_mask(size, cy2, cx2, r2)
        image = np.where(fg, _FOREGROUND, _BACKGROUND).astype(np.int64)
        if noise:
            image += rng.integers(-noise, noise + 1, size=image.shape)
        image = np.clip(image, 0, 255).astype(np.uint8)
        samples.append(SyntheticSample(image=image, label=label))
    return samples
