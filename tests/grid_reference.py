"""Betti oracles for the persistence and vectorizer tests: sublevel masks, a
flood-fill / Euler-characteristic Betti count, and a union-find component
count that shares no code with that flood fill."""

from collections import deque

import numpy as np


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


def count_components_unionfind(mask: np.ndarray) -> int:
    """4-connected component count via union-find; independent of betti_oracle."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    parent = list(range(h * w))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    count = int(mask.sum())
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            i = r * w + c
            if c + 1 < w and mask[r, c + 1]:
                a, b = find(i), find(i + 1)
                if a != b:
                    parent[a] = b
                    count -= 1
            if r + 1 < h and mask[r + 1, c]:
                a, b = find(i), find(i + w)
                if a != b:
                    parent[a] = b
                    count -= 1
    return count
