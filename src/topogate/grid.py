"""Grayscale image grids: loading and saving, and synthetic shape datasets
whose classes differ only in topology; FormatError, which every reader of an
input file raises, the JSON reader and its finite-number check."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FormatError",
    "read_json",
    "finite_number",
    "SyntheticSample",
    "load_pgm",
    "save_pgm",
    "load_csv_grid",
    "generate_shapes",
    "SHAPE_CLASSES",
    "MIN_SIZE",
]


class FormatError(ValueError):
    """Raised for malformed input files: images, grids, labels, diagrams, curves,
    histories and checkpoints."""


def read_json(path):
    """The value a JSON file holds; FormatError naming the file if it is not JSON text."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:  # not JSON, or not text
            raise FormatError(f"{path}: not JSON: {e}") from None


def finite_number(value) -> bool:
    """Whether a JSON value is a finite number: not a bool, nor an integer too large for a float."""
    try:
        return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class SyntheticSample:
    """A generated image together with its class label."""

    image: np.ndarray  # (h, w) uint8
    label: int


# a comment runs from '#' to the end of its line; a token ends at whitespace or '#'
_PGM_TOKEN = re.compile(rb"#[^\n\r]*|([^\s#]+)")


def _read_pgm_tokens(data: bytes, count: int, start: int, what: str) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated tokens of `what`, skipping '#' comments.

    Returns the tokens and the position just past the last one.
    """
    tokens: list[bytes] = []
    for match in _PGM_TOKEN.finditer(data, start):
        if match.group(1) is not None:
            tokens.append(match.group(1))
            if len(tokens) == count:
                return tokens, match.end()
    raise FormatError(f"truncated {what}")


def load_pgm(path) -> np.ndarray:
    """Load a P2 (ASCII) or P5 (binary) PGM file as a (h, w) uint8 array.

    No value scaling is applied; maxval must be <= 255, and no pixel above it.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] not in (b"P2", b"P5"):
        raise FormatError(f"unsupported PGM magic {data[:2]!r}")
    magic = data[:2]
    header, pos = _read_pgm_tokens(data, 3, 2, "PGM header")
    try:
        width, height, maxval = (int(t) for t in header)
    except ValueError as e:
        raise FormatError(f"non-numeric PGM header field: {e}") from e
    if width < 1 or height < 1:
        raise FormatError(f"bad PGM dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise FormatError(f"maxval {maxval} outside 1..255")
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
        tokens, _ = _read_pgm_tokens(data, npix, pos, "P2 raster")
        try:
            values = np.array([int(t) for t in tokens], dtype=np.int64)
        except ValueError as e:
            raise FormatError(f"non-numeric P2 pixel: {e}") from e
    if values.min() < 0 or values.max() > maxval:
        raise FormatError(f"pixel out of range 0..{maxval}")
    return values.astype(np.uint8, copy=False).reshape(height, width)


def save_pgm(path, grid: np.ndarray) -> bytes:
    """Write a (h, w) uint8 array as a binary (P5) PGM file; return the bytes written."""
    grid = np.asarray(grid, dtype=np.uint8)
    h, w = grid.shape
    data = b"P5\n%d %d\n255\n" % (w, h) + grid.tobytes()
    with open(path, "wb") as f:
        f.write(data)
    return data


def load_csv_grid(path) -> np.ndarray:
    """Load a grid from CSV: one image row per line, comma-separated integers
    in 0..255."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    # np.loadtxt only warns on a file without values, and '#' starts its comments
    if not any(line.split(b"#")[0].strip() for line in lines):
        raise FormatError("CSV grid holds no values")
    try:
        # numpy reads byte lines as latin-1, which takes any byte; a grid must be UTF-8 text
        values = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2, encoding="utf-8")
    except ValueError as e:
        raise FormatError(f"malformed CSV grid: {e}") from e
    if np.any((values < 0) | (values > 255)):
        raise FormatError("CSV grid value out of range 0..255")
    return values


SHAPE_CLASSES = ("disk", "annulus", "two_disks")
MIN_SIZE = 32  # the smallest side generate_shapes draws

_FOREGROUND = 40
_BACKGROUND = 215


def _disk_mask(size: int, cy: float, cx: float, radius: float) -> np.ndarray:
    yy, xx = np.ogrid[0:size, 0:size]  # a column and a row, broadcast to one plane
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
    if size < MIN_SIZE:
        raise ValueError(f"size must be >= {MIN_SIZE}")
    rng = np.random.default_rng(seed)
    samples: list[SyntheticSample] = []
    for i in range(n):
        label = i % len(SHAPE_CLASSES)
        kind = SHAPE_CLASSES[label]
        base_r = rng.uniform(0.14, 0.18) * size
        margin = base_r * 1.5 + 2
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
        # np.where's default integer holds -215..470, so noise is added and clipped in place
        image = np.where(fg, _FOREGROUND, _BACKGROUND)
        if noise:
            image += rng.integers(-noise, noise + 1, size=image.shape)
        image = np.clip(image, 0, 255, out=image).astype(np.uint8)
        samples.append(SyntheticSample(image=image, label=label))
    return samples
