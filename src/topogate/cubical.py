"""Sublevel cubical filtrations of pixel grids and their persistence diagrams.

V-construction throughout: pixels are vertices, edges join 4-adjacent pixels,
squares fill 2x2 blocks. A cell's filtration value is the max over its
vertices. H0/H1 pairing is computed by sparse boundary-matrix reduction over
Z/2 with the clearing optimization: the boundary columns of squares and edges
are built with numpy from cell ids, a chunk at a time in filtration order,
and reduced as Python lists. The filtration order and the reduction's
pairings are checked by references that live with the tests.
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
    """Cells of the V-construction sorted by (filtration value, dim, anchor).

    Cell ids are laid out as vertices, then horizontal edges, then vertical
    edges, then squares, each block in row-major anchor order; sorting by
    (value, id) therefore breaks value ties by dimension first and then by
    anchor, deterministically.
    """

    height: int
    width: int
    values: np.ndarray  # per cell id, float64
    order: np.ndarray  # sorted position -> cell id
    pos: np.ndarray  # cell id -> sorted position

    @property
    def n_vertices(self) -> int:
        return self.height * self.width

    @property
    def n_hedges(self) -> int:
        return self.height * (self.width - 1)

    @property
    def n_vedges(self) -> int:
        return (self.height - 1) * self.width

    @property
    def n_cells(self) -> int:
        return len(self.values)


def build_filtration(grid: np.ndarray) -> CubicalFiltration:
    """Build the sorted sublevel V-construction filtration of a grid.

    Raises ValueError unless the grid is 2D, non-empty and finite.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] < 1:
        raise ValueError("grid must be a 2D array with positive dimensions")
    if not np.isfinite(grid).all():
        raise ValueError("grid must hold finite values, not NaN or infinity")
    h, w = grid.shape
    vvals = grid.ravel()
    hvals = np.maximum(grid[:, :-1], grid[:, 1:]).ravel()
    uvals = np.maximum(grid[:-1, :], grid[1:, :]).ravel()
    svals = np.maximum(
        np.maximum(grid[:-1, :-1], grid[:-1, 1:]),
        np.maximum(grid[1:, :-1], grid[1:, 1:]),
    ).ravel()
    values = np.concatenate([vvals, hvals, uvals, svals])
    order = np.lexsort((np.arange(len(values)), values)).astype(np.int64)
    pos = np.empty(len(values), np.int64)
    pos[order] = np.arange(len(values))
    return CubicalFiltration(h, w, values, order, pos)


# Boundary columns are converted to Python lists this many cells at a time,
# which bounds the memory the lists take on large images.
_CHUNK = 4096


def _edge_faces(filt: CubicalFiltration, eids: np.ndarray) -> np.ndarray:
    """Vertex ids of edge cells, one (a, b) row per edge."""
    w = filt.width
    k = eids - filt.n_vertices
    horizontal = k < filt.n_hedges
    # horizontal k = r * (w - 1) + c joins (r, c) and (r, c + 1);
    # vertical k - nh = r * w + c joins (r, c) and (r + 1, c)
    a = np.where(horizontal, k + k // max(w - 1, 1), k - filt.n_hedges)
    return np.stack([a, a + np.where(horizontal, 1, w)], axis=1)


def _square_faces(filt: CubicalFiltration, sids: np.ndarray) -> np.ndarray:
    """Edge ids bounding square cells, one (top, bottom, left, right) row per
    square; a square is anchored at its top-left pixel."""
    w = filt.width
    nv, nh = filt.n_vertices, filt.n_hedges
    k = sids - (nv + nh + filt.n_vedges)  # k = r * (w - 1) + c
    top = nv + k
    left = nv + nh + k + k // max(w - 1, 1)
    return np.stack([top, top + (w - 1), left, left + 1], axis=1)


def _columns(filt: CubicalFiltration, cids: np.ndarray, faces):
    """Boundary column of each cell in `cids`, in that order: the ascending
    filtration positions of its faces, as a list of ints."""
    for i in range(0, len(cids), _CHUNK):
        yield from np.sort(filt.pos[faces(filt, cids[i : i + _CHUNK])], axis=1).tolist()


def _symdiff(a: list[int], b: list[int]) -> list[int]:
    """Symmetric difference of two ascending int lists (Z/2 column addition)."""
    out: list[int] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def _reduce(columns) -> list[int]:
    """Reduce boundary columns left to right over Z/2; returns the pivot (the
    largest position) of each reduced column.

    No column passed here reduces to zero, in any cell order: the squares of a
    grid bound no 2-cycle, and the edges left once the square pass has cleared
    its pivots hold no 1-cycle (a full grid is contractible).
    """
    owner: dict[int, list[int]] = {}
    lows: list[int] = []
    for col in columns:
        while col:
            other = owner.get(col[-1])
            if other is None:
                break
            col = _symdiff(col, other)
        owner[col[-1]] = col
        lows.append(col[-1])
    return lows


def compute_persistence(filt: CubicalFiltration) -> Diagram:
    """Persistence diagram (H0 and H1) of a filtration from build_filtration.

    Column reduction of the Z/2 boundary matrix, squares first so that edge
    columns paired as H1 creators are cleared and skipped in the edge pass.
    Zero-persistence pairs are discarded; essential classes get a NaN death.
    """
    pos = filt.pos
    order = filt.order
    values = filt.values
    nv = filt.n_vertices
    ne = filt.n_hedges + filt.n_vedges

    # --- squares: each reduced column pairs an edge (H1 creator, its pivot)
    # with the square killing it; those edges are cleared for the edge pass
    sids = order[np.sort(pos[nv + ne :])]
    lows = np.array(_reduce(_columns(filt, sids, _square_faces)), dtype=np.int64)
    b1, d1 = values[order[lows]], values[sids]
    cleared = np.zeros(filt.n_cells, dtype=bool)
    cleared[lows] = True

    # --- edges (skipping cleared ones): each reduced column pairs a vertex
    # (H0 creator, its pivot) with the edge merging its component
    edge_pos = np.sort(pos[nv : nv + ne])
    eids = order[edge_pos[~cleared[edge_pos]]]
    lows0 = np.array(_reduce(_columns(filt, eids, _edge_faces)), dtype=np.int64)
    b0, d0 = values[order[lows0]], values[eids]

    # --- unpaired vertices are essential H0 classes
    paired = np.zeros(filt.n_cells, dtype=bool)
    paired[lows0] = True
    born = ~paired[pos[:nv]]

    keep1, keep0 = d1 > b1, d0 > b0
    n1, n0, nb = int(keep1.sum()), int(keep0.sum()), int(born.sum())
    return Diagram(
        np.concatenate([b1[keep1], b0[keep0], values[:nv][born]]),
        np.concatenate([d1[keep1], d0[keep0], np.full(nb, np.nan)]),
        np.concatenate([np.ones(n1, np.int8), np.zeros(n0 + nb, np.int8)]),
    ).canonical()


def grid_persistence(grid: np.ndarray) -> Diagram:
    """Convenience: full H0/H1 persistence diagram of a grayscale grid."""
    return compute_persistence(build_filtration(grid))
