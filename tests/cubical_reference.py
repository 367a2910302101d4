"""Parity references for ``topogate.cubical.compute_persistence``.

``cell_filtration`` builds the cell-level V-construction of the grid that
``build_filtration`` checks: every cell's value, sorted by (value, cell id).
``validate_filtration`` checks that order.
``reference_persistence`` pairs those cells by the per-cell Z/2 boundary
reduction with clearing, each cell's boundary built in its own Python call
(``edge_endpoints``, ``square_edges``). It picks the same values as the
union-find pairing in ``topogate.cubical``, so the two must agree bit for bit.
``pair_h0_union_find`` pairs H0 on the cells by union-find with the elder rule
and must give the reduction's H0 pairs.
``superlevel_h0_8adjacent`` is the duality that H1 is computed by, spelled out
pixel by pixel.
"""

from dataclasses import dataclass

import numpy as np

from topogate.cubical import CubicalFiltration, build_filtration
from topogate.diagram import Diagram


@dataclass(frozen=True)
class CellFiltration:
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


def cell_filtration(grid) -> CellFiltration:
    """The sorted sublevel V-construction of the grid ``build_filtration``
    checks (so -0.0 is read as +0.0 here too); a cell's value is the max over
    its vertices."""
    grid = build_filtration(grid).grid
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
    return CellFiltration(h, w, values, order, pos)


def _edge_faces(filt: CellFiltration, eids: np.ndarray) -> np.ndarray:
    """Vertex ids of edge cells, one (a, b) row per edge."""
    w = filt.width
    k = eids - filt.n_vertices
    horizontal = k < filt.n_hedges
    # horizontal k = r * (w - 1) + c joins (r, c) and (r, c + 1);
    # vertical k - nh = r * w + c joins (r, c) and (r + 1, c)
    a = np.where(horizontal, k + k // max(w - 1, 1), k - filt.n_hedges)
    return np.stack([a, a + np.where(horizontal, 1, w)], axis=1)


def _square_faces(filt: CellFiltration, sids: np.ndarray) -> np.ndarray:
    """Edge ids bounding square cells, one (top, bottom, left, right) row per
    square; a square is anchored at its top-left pixel."""
    w = filt.width
    nv, nh = filt.n_vertices, filt.n_hedges
    k = sids - (nv + nh + filt.n_vedges)  # k = r * (w - 1) + c
    top = nv + k
    left = nv + nh + k + k // max(w - 1, 1)
    return np.stack([top, top + (w - 1), left, left + 1], axis=1)


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


class FiltrationError(RuntimeError):
    """Internal-invariant violation: unsorted or face-violating filtration."""


def validate_filtration(filt: CellFiltration) -> None:
    """Raise FiltrationError unless the order is sorted by value and every
    cell comes after its faces."""
    sorted_vals = filt.values[filt.order]
    if np.any(np.diff(sorted_vals) < 0):
        raise FiltrationError("filtration not sorted by value")
    pos = filt.pos
    nv = filt.n_vertices
    ne = filt.n_hedges + filt.n_vedges
    eids = np.arange(nv, nv + ne)
    if np.any(pos[_edge_faces(filt, eids)] > pos[eids, None]):
        raise FiltrationError("edge precedes one of its vertices")
    sids = np.arange(nv + ne, filt.n_cells)
    if np.any(pos[_square_faces(filt, sids)] > pos[sids, None]):
        raise FiltrationError("square precedes one of its edges")


def edge_endpoints(filt: CellFiltration, cid: int) -> tuple[int, int]:
    """Vertex ids of an edge cell."""
    w = filt.width
    nv, nh = filt.n_vertices, filt.n_hedges
    if cid < nv + nh:  # horizontal: (r, c) -- (r, c + 1)
        r, c = divmod(cid - nv, w - 1)
        a = r * w + c
        return a, a + 1
    r, c = divmod(cid - nv - nh, w)  # vertical: (r, c) -- (r + 1, c)
    a = r * w + c
    return a, a + w


def square_edges(filt: CellFiltration, cid: int) -> tuple[int, int, int, int]:
    """Edge ids bounding a square cell anchored at its top-left pixel."""
    w = filt.width
    nv, nh = filt.n_vertices, filt.n_hedges
    k = cid - nv - nh - filt.n_vedges
    r, c = divmod(k, w - 1)
    top = nv + r * (w - 1) + c
    bottom = nv + (r + 1) * (w - 1) + c
    left = nv + nh + r * w + c
    right = left + 1
    return top, bottom, left, right


def reference_persistence(filt: CellFiltration) -> Diagram:
    """Persistence diagram (H0 and H1) by per-cell column reduction."""
    pos = filt.pos
    order = filt.order
    values = filt.values
    n = filt.n_cells
    nv = filt.n_vertices
    ne = filt.n_hedges + filt.n_vedges

    births: list[float] = []
    deaths: list[float] = []
    dims: list[int] = []

    owner: dict[int, list[int]] = {}
    cleared = np.zeros(n, dtype=bool)
    for p in np.sort(pos[nv + ne :]):
        sid = order[p]
        col = sorted(int(pos[e]) for e in square_edges(filt, int(sid)))
        while col:
            other = owner.get(col[-1])
            if other is None:
                break
            col = _symdiff(col, other)
        if not col:
            continue
        low = col[-1]
        owner[low] = col
        cleared[low] = True
        b, d = values[order[low]], values[sid]
        if d > b:
            births.append(b)
            deaths.append(d)
            dims.append(1)

    owner0: dict[int, list[int]] = {}
    for p in np.sort(pos[nv : nv + ne]):
        if cleared[p]:
            continue
        eid = order[p]
        a, b2 = edge_endpoints(filt, int(eid))
        pa, pb = int(pos[a]), int(pos[b2])
        col = [pa, pb] if pa < pb else [pb, pa]
        while col:
            other = owner0.get(col[-1])
            if other is None:
                break
            col = _symdiff(col, other)
        if col:
            low = col[-1]
            owner0[low] = col
            b, d = values[order[low]], values[eid]
            if d > b:
                births.append(b)
                deaths.append(d)
                dims.append(0)
        else:
            births.append(values[eid])
            deaths.append(np.nan)
            dims.append(1)

    paired = np.zeros(n, dtype=bool)
    if owner0:
        paired[np.fromiter(owner0.keys(), dtype=np.int64)] = True
    for p in pos[:nv]:
        if not paired[p]:
            births.append(values[order[p]])
            deaths.append(np.nan)
            dims.append(0)

    return Diagram(
        np.array(births), np.array(deaths), np.array(dims, np.int8)
    ).canonical()


def pair_h0_union_find(filt: CubicalFiltration) -> Diagram:
    """H0 pairs via union-find with the elder rule over the cells of
    ``filt.grid`` (reduction-equivalent).

    On each merging edge, the component whose birth vertex is later in the
    filtration order (larger birth value, ties by larger vertex id) dies.
    """
    filt = cell_filtration(filt.grid)
    pos = filt.pos
    order = filt.order
    values = filt.values
    nv = filt.n_vertices
    ne = filt.n_hedges + filt.n_vedges

    parent = list(range(nv))
    # birth vertex of each component tracked as its sorted position (encodes
    # value with the deterministic tie-break)
    birth_pos = [int(pos[v]) for v in range(nv)]

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    births: list[float] = []
    deaths: list[float] = []

    edge_pos = np.sort(pos[nv : nv + ne])
    for p in edge_pos:
        eid = int(order[p])
        a, b = edge_endpoints(filt, eid)
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if birth_pos[ra] < birth_pos[rb]:
            elder, younger = ra, rb
        else:
            elder, younger = rb, ra
        parent[younger] = elder
        bval = values[order[birth_pos[younger]]]
        dval = values[eid]
        if dval > bval:
            births.append(bval)
            deaths.append(dval)

    ess_births = [
        values[order[birth_pos[v]]] for v in range(nv) if parent[v] == v
    ]
    n_fin, n_ess = len(births), len(ess_births)
    return Diagram(
        np.array(births + ess_births),
        np.array(deaths + [np.nan] * n_ess),
        np.zeros(n_fin + n_ess, np.int8),
    ).canonical()


def superlevel_h0_8adjacent(grid: np.ndarray) -> list[tuple[float, float]]:
    """Finite H0 pairs (birth, death) of the superlevel filtration of a grid
    under 8-adjacency, with one exterior node, older than every pixel, joined
    to each border pixel.

    Union-find with the elder rule over the edges in descending value order:
    an edge's value is the lower of its two ends, a component is born at its
    highest pixel, and the younger of two merging components dies at the
    edge's value. Zero-persistence pairs are dropped. By the duality of
    Garin et al. (arXiv:2005.04597), these pairs with birth and death swapped
    are the H1 pairs of the sublevel V-construction.
    """
    g = np.asarray(grid, dtype=np.float64)
    h, w = g.shape
    values = g.ravel().tolist() + [np.inf]  # the last node is the exterior
    exterior = h * w
    edges = []
    for r in range(h):
        for c in range(w):
            a = r * w + c
            for rr, cc in ((r, c + 1), (r + 1, c - 1), (r + 1, c), (r + 1, c + 1)):
                if 0 <= rr < h and 0 <= cc < w:
                    b = rr * w + cc
                    edges.append((min(values[a], values[b]), a, b))
            if r in (0, h - 1) or c in (0, w - 1):
                edges.append((values[a], a, exterior))
    edges.sort(key=lambda e: -e[0])

    # each root is its component's birth pixel: the younger root joins the elder
    parent = list(range(exterior + 1))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    pairs = []
    for value, a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        elder, younger = (ra, rb) if values[ra] >= values[rb] else (rb, ra)
        parent[younger] = elder
        if values[younger] > value:
            pairs.append((values[younger], value))
    return pairs
