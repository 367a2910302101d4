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
Before the union-find, numpy contracts every node that is not a local minimum
into the basin of its lowest neighbour, the vertex step of the discrete
gradient of Robins, Wood & Sheppard ("Theory and algorithms for constructing
discrete Morse complexes from grayscale digital images", IEEE TPAMI 2011).
Such a node dies as it enters, so the union-find sees only the edges between
basins.
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


def _h0_pairs(values: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Finite (births, deaths) of the sublevel H0 of a graph whose node i
    enters at values[i] and whose edge (a[k], b[k]) enters at the larger value
    of its ends.

    Nodes are relabelled by their rank in the total order (value, index).
    Every node points at its lowest-ranked neighbour when that one ranks below
    it, and pointer jumping follows these pointers down to a local minimum, the
    node's basin (Robins, Wood & Sheppard, IEEE TPAMI 2011). A node joins its
    lower neighbour's component as it enters, at zero persistence, so the
    nodes of a basin can be merged into its minimum from the start, and only
    the edges between basins are left. They are taken in stable order of the
    rank of their higher end. Each root is its component's lowest-ranked node,
    so on a merge the root of higher rank (the younger component) joins the
    other and dies at the value of the edge's higher end. Pairs of zero
    persistence are dropped.
    """
    order = np.argsort(values, kind="stable")
    rank = np.empty(len(values), a.dtype)
    rank[order] = np.arange(len(values), dtype=a.dtype)
    lo, hi = rank[a], rank[b]
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)  # frees rank[a]
    del rank
    # point every node at its lowest neighbour if that one is lower, else at itself
    basin = np.arange(len(values), dtype=a.dtype)
    np.minimum.at(basin, hi, lo)
    while not np.array_equal(jumped := basin[basin], basin):  # pointer jumping
        basin = jumped
    lo, bh = basin[lo], basin[hi]
    between = lo != bh
    lo, hi, bh = lo[between], hi[between], bh[between]
    edges = np.argsort(hi, kind="stable")
    lo, bh, hi = lo[edges], bh[edges], hi[edges]
    del edges
    parent = list(range(len(values)))
    born: list[int] = []
    died: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:  # path halving
            parent[x] = x = parent[parent[x]]
        return x

    # a memoryview yields one Python int at a time, so no per-edge list is built
    for x, y, top in zip(memoryview(lo), memoryview(bh), memoryview(hi)):
        x, y = find(x), find(y)
        if x == y:
            continue
        if x > y:
            x, y = y, x
        parent[y] = x
        born.append(y)
        died.append(top)
    ranked = values[order]
    births, deaths = ranked[born], ranked[died]
    keep = deaths > births
    return births[keep], deaths[keep]


def compute_persistence(filt: CubicalFiltration) -> Diagram:
    """Persistence diagram (H0 and H1) of a grid from build_filtration.

    Zero-persistence pairs are discarded; the one essential class, H0 born at
    the grid's minimum, gets a NaN death.
    """
    grid = filt.grid
    h, w = grid.shape
    # node ids, with h * w for the dual's exterior node, fit int32 when they can
    itype = np.int32 if h * w < np.iinfo(np.int32).max else np.int64
    ids = np.arange(h * w, dtype=itype).reshape(h, w)
    border = np.ones((h, w), dtype=bool)
    border[1:-1, 1:-1] = False
    # 4-adjacency (right and down neighbours) first, then both diagonals and an
    # edge from every border pixel to the exterior for the 8-adjacent dual
    a = np.concatenate(
        [ids[:, :-1].ravel(), ids[:-1, :].ravel(), ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel(),
         ids[border]]
    )
    b = np.concatenate(
        [ids[:, 1:].ravel(), ids[1:, :].ravel(), ids[1:, 1:].ravel(), ids[1:, :-1].ravel(),
         np.full(border.sum(), h * w, itype)]
    )
    n4 = h * (w - 1) + (h - 1) * w
    b0, d0 = _h0_pairs(grid.ravel(), a[:n4], b[:n4])
    # the dual's births, negated, are H1 deaths and its deaths H1 births
    d1, b1 = _h0_pairs(np.append(-grid.ravel(), -np.inf), a, b)

    n1, n0 = len(b1), len(b0)
    return Diagram(
        np.concatenate([-b1, b0, [grid.min()]]),
        np.concatenate([-d1, d0, [np.nan]]),
        np.concatenate([np.ones(n1, np.int8), np.zeros(n0 + 1, np.int8)]),
    ).canonical()


def grid_persistence(grid: np.ndarray) -> Diagram:
    """Convenience: full H0/H1 persistence diagram of a grid."""
    return compute_persistence(build_filtration(grid))
