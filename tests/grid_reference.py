"""Union-find component count: an oracle for ``topogate.grid.betti_oracle``'s
beta0 that shares no code with its flood fill."""

import numpy as np


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
