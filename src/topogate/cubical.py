"""Sublevel cubical persistence diagrams of pixel grids.

V-construction throughout: pixels are vertices, edges join 4-adjacent pixels,
squares fill 2x2 blocks, and a cell enters at the max over its vertices. Both
dimensions are paired by one elder-rule union-find over a graph's edges:
- H0 runs on the pixels with 4-adjacency;
- H1 is the H0 of the superlevel filtration under 8-adjacency, with one
  exterior node, older than every pixel, joined to the border, and with births
  and deaths swapped (Garin et al., "Duality in persistent homology of images",
  arXiv:2005.04597; CubicalRipser uses the same scheme). The superlevel
  filtration is run as the sublevel one of the negated grid, and negation is
  exact.
The per-cell Z/2 boundary reduction that these diagrams must equal bit for bit
lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import Diagram

__all__ = [
    "CubicalFiltration",
    "build_filtration",
    "compute_persistence",
    "grid_persistence",
]


@dataclass(frozen=True)
class CubicalFiltration:
    """A checked grid: 2D, non-empty, finite float64, with no negative zero."""

    grid: np.ndarray

    @property
    def n_cells(self) -> int:
        """Cells of the grid's V-construction: vertices, edges and squares."""
        h, w = self.grid.shape
        return (2 * h - 1) * (2 * w - 1)


def build_filtration(grid: np.ndarray) -> CubicalFiltration:
    """Check a grid for compute_persistence.

    Raises ValueError unless the grid is 2D, non-empty and finite. A -0.0
    pixel is read as +0.0, so that ties between zeros cannot leave the sign of
    a zero to the pairing order.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] < 1:
        raise ValueError("grid must be a 2D array with positive dimensions")
    if not np.isfinite(grid).all():
        raise ValueError("grid must hold finite values, not NaN or infinity")
    return CubicalFiltration(grid + 0.0)


# Edge lists are converted to Python ints this many edges at a time, which
# bounds the memory the lists take on large images.
_CHUNK = 4096


def _h0_pairs(values: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Finite (births, deaths) of the sublevel H0 of a graph whose node i
    enters at values[i] and whose edge (a[k], b[k]) enters at the larger value
    of its ends.

    Edges are taken in stable value order. Each root is its component's
    lowest node, so on a merge the root with the higher value (the younger
    component) joins the other and dies at the edge's value. Pairs of zero
    persistence are dropped.
    """
    weights = np.maximum(values[a], values[b])
    order = np.argsort(weights, kind="stable")
    birth = values.tolist()
    parent = list(range(len(birth)))
    births: list[float] = []
    deaths: list[float] = []

    def find(x: int) -> int:
        while parent[x] != x:  # path halving
            parent[x] = x = parent[parent[x]]
        return x

    for i in range(0, len(order), _CHUNK):
        chunk = order[i : i + _CHUNK]
        for x, y, d in zip(a[chunk].tolist(), b[chunk].tolist(), weights[chunk].tolist()):
            x, y = find(x), find(y)
            if x == y:
                continue
            if birth[x] > birth[y]:
                x, y = y, x
            parent[y] = x
            if d > birth[y]:
                births.append(birth[y])
                deaths.append(d)
    return births, deaths


def compute_persistence(filt: CubicalFiltration) -> Diagram:
    """Persistence diagram (H0 and H1) of a grid from build_filtration.

    Zero-persistence pairs are discarded; the one essential class, H0 born at
    the grid's minimum, gets a NaN death.
    """
    grid = filt.grid
    h, w = grid.shape
    ids = np.arange(h * w).reshape(h, w)
    # 4-adjacency: right and down neighbours
    a4 = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    b4 = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    b0, d0 = _h0_pairs(grid.ravel(), a4, b4)

    # 8-adjacency adds both diagonals; every border pixel joins the exterior
    border = np.ones((h, w), dtype=bool)
    border[1:-1, 1:-1] = False
    exterior = h * w
    a8 = np.concatenate([a4, ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel(), ids[border]])
    b8 = np.concatenate(
        [b4, ids[1:, 1:].ravel(), ids[1:, :-1].ravel(), np.full(border.sum(), exterior)]
    )
    # the dual's births, negated, are H1 deaths and its deaths H1 births
    d1, b1 = _h0_pairs(np.append(-grid.ravel(), -np.inf), a8, b8)

    n1, n0 = len(b1), len(b0)
    return Diagram(
        np.concatenate([-np.array(b1), np.array(b0), [grid.min()]]),
        np.concatenate([-np.array(d1), np.array(d0), [np.nan]]),
        np.concatenate([np.ones(n1, np.int8), np.zeros(n0 + 1, np.int8)]),
    ).canonical()


def grid_persistence(grid: np.ndarray) -> Diagram:
    """Convenience: full H0/H1 persistence diagram of a grid."""
    return compute_persistence(build_filtration(grid))
