import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import alive_counts, as_multiset
from cubical_reference import (
    CellFiltration,
    FiltrationError,
    cell_filtration,
    edge_endpoints,
    pair_h0_union_find,
    reference_persistence,
    superlevel_h0_8adjacent,
    validate_filtration,
)
from grid_reference import betti_oracle, sublevel_mask
from topogate.cubical import (
    build_filtration,
    compute_persistence,
    grid_persistence,
)
from topogate.grid import generate_shapes

small_grids = arrays(
    np.int64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 5),
)
float_grids = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestBuildFiltration:
    def test_1x2_max_of_faces(self):
        f = cell_filtration(np.array([[3, 5]]))
        assert f.n_cells == 3
        # edge value = max of endpoints
        assert f.values[2] == 5.0
        assert list(f.values[f.order]) == [3.0, 5.0, 5.0]

    def test_square_max_of_corners(self):
        f = cell_filtration(np.array([[1, 2], [3, 4]]))
        assert f.values[-1] == 4.0

    def test_constant_grid(self):
        f = cell_filtration(np.full((3, 3), 7))
        assert np.all(f.values == 7.0)

    def test_cell_count(self):
        h, w = 4, 5
        f = build_filtration(np.zeros((h, w)))
        assert f.n_cells == h * w + h * (w - 1) + (h - 1) * w + (h - 1) * (w - 1)

    def test_negative_zero_read_as_positive(self):
        f = build_filtration(np.array([[-0.0, 1.0], [0.0, -0.0]]))
        assert not np.signbit(f.grid).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        g = np.array([[0, 5, 0], [5, bad, 5], [0, 5, 0]])
        with pytest.raises(ValueError, match="finite"):
            build_filtration(g)
        with pytest.raises(ValueError, match="finite"):
            grid_persistence(g)

    def test_faces_precede_cells(self):
        f = cell_filtration(np.arange(12).reshape(3, 4))
        for eid in range(f.n_vertices, f.n_vertices + f.n_hedges + f.n_vedges):
            a, b = edge_endpoints(f, eid)
            assert f.pos[a] < f.pos[eid] and f.pos[b] < f.pos[eid]


class TestComputePersistence:
    def test_constant_grid(self):
        d = grid_persistence(np.full((2, 2), 7))
        assert as_multiset(d) == [(7.0, None, 0, True)]

    def test_two_minima_merge(self):
        d = grid_persistence(np.array([[0, 2, 1]]))
        assert as_multiset(d) == [(1.0, 2.0, 0, False), (0.0, None, 0, True)]

    def test_ring_loop(self):
        g = np.full((3, 3), 1)
        g[1, 1] = 9
        d = grid_persistence(g)
        assert as_multiset(d) == [(1.0, None, 0, True), (1.0, 9.0, 1, False)]

    def test_face_violation_detected(self):
        f = cell_filtration(np.array([[0, 2, 1]]))
        bad_pos = f.pos.copy()
        bad_pos[[0, f.n_vertices]] = bad_pos[[f.n_vertices, 0]]
        bad_order = np.empty_like(f.order)
        bad_order[bad_pos] = np.arange(f.n_cells)
        bad = CellFiltration(f.height, f.width, f.values, bad_order, bad_pos)
        with pytest.raises(FiltrationError):
            validate_filtration(bad)

    @pytest.mark.parametrize("cell", ["edge", "square"])
    def test_face_order_violation_detected(self, cell):
        # constant grid: any order is sorted by value, so only face order is wrong
        f = cell_filtration(np.zeros((2, 2)))
        face, cid = (0, f.n_vertices) if cell == "edge" else (f.n_vertices, f.n_cells - 1)
        bad_pos = f.pos.copy()
        bad_pos[[face, cid]] = bad_pos[[cid, face]]
        bad_order = np.empty_like(f.order)
        bad_order[bad_pos] = np.arange(f.n_cells)
        bad = CellFiltration(f.height, f.width, f.values, bad_order, bad_pos)
        with pytest.raises(FiltrationError, match=f"{cell} precedes"):
            validate_filtration(bad)

    def test_determinism(self, rng):
        g = rng.integers(0, 256, size=(12, 12))
        a = grid_persistence(g)
        b = grid_persistence(g)
        assert as_multiset(a) == as_multiset(b)
        assert np.array_equal(a.births, b.births)

    @given(small_grids)
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence(self, g):
        validate_filtration(cell_filtration(g))
        d = compute_persistence(build_filtration(g))
        for tau in np.unique(g):
            assert alive_counts(d, tau) == betti_oracle(sublevel_mask(g, tau))

    @given(small_grids)
    @settings(max_examples=100, deadline=None)
    def test_scale_shift_equivariance(self, g):
        base = grid_persistence(g)
        mapped = grid_persistence(3 * g + 2)

        def key(points):
            return sorted(
                (b, np.inf if d is None else d, k, e) for b, d, k, e in points
            )

        transformed = [
            (3 * b + 2, None if d is None else 3 * d + 2, k, e)
            for b, d, k, e in as_multiset(base)
        ]
        assert key(transformed) == key(as_multiset(mapped))


class TestUnionFindH0:
    def test_two_minima_merge(self):
        d = pair_h0_union_find(build_filtration(np.array([[0, 2, 1]])))
        assert as_multiset(d) == [(1.0, 2.0, 0, False), (0.0, None, 0, True)]

    def test_monotone_ramp_no_pairs(self):
        d = pair_h0_union_find(build_filtration(np.array([[0, 1, 2, 3]])))
        assert as_multiset(d) == [(0.0, None, 0, True)]

    def test_equal_minima_tiebreak(self):
        d = pair_h0_union_find(build_filtration(np.array([[0, 5, 0]])))
        assert as_multiset(d) == [(0.0, 5.0, 0, False), (0.0, None, 0, True)]

    @given(small_grids)
    @settings(max_examples=150, deadline=None)
    def test_matches_reduction(self, g):
        validate_filtration(cell_filtration(g))
        f = build_filtration(g)
        uf = as_multiset(pair_h0_union_find(f))
        red = [p for p in as_multiset(compute_persistence(f)) if p[2] == 0]
        assert uf == red


class TestMetamorphic:
    @staticmethod
    def h1_pairs(g):
        return sorted((b, d) for b, d, k, _ in as_multiset(grid_persistence(g)) if k == 1)

    @given(st.one_of(small_grids, float_grids))
    @settings(max_examples=150, deadline=None)
    def test_symmetries_of_the_square(self, g):
        base = as_multiset(grid_persistence(g))
        for k in range(4):
            for image in (np.rot90(g, k), np.rot90(g, k).T):
                assert as_multiset(grid_persistence(image)) == base

    @given(st.one_of(small_grids, float_grids))
    @settings(max_examples=200, deadline=None)
    def test_h1_is_dual_superlevel_h0(self, g):
        dual = sorted((d, b) for b, d in superlevel_h0_8adjacent(g))
        assert self.h1_pairs(g) == dual

    def test_h1_is_dual_superlevel_h0_on_shapes(self):
        for sample in generate_shapes(seed=7, n=3, size=64):
            dual = sorted((d, b) for b, d in superlevel_h0_8adjacent(sample.image))
            assert dual and self.h1_pairs(sample.image) == dual


def assert_bitwise_equal(a, b):
    for field in ("births", "deaths", "dims"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field


class TestReferenceParity:
    """The union-find pairing equals the per-cell reference reduction bit for
    bit: same births, deaths (NaN where essential) and dims."""

    @staticmethod
    def check(g):
        cells = cell_filtration(g)
        validate_filtration(cells)
        assert_bitwise_equal(grid_persistence(g), reference_persistence(cells))

    def test_exhaustive_3x3(self):
        for values in itertools.product(range(3), repeat=9):
            self.check(np.array(values).reshape(3, 3))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (5, 7), (16, 16)])
    @pytest.mark.parametrize("levels", [2, 256])
    def test_random_integer_grids(self, rng, shape, levels):
        for _ in range(20):
            self.check(rng.integers(0, levels, size=shape))

    def test_random_float_grids(self, rng):
        for _ in range(100):
            h, w = rng.integers(1, 10, size=2)
            self.check(rng.random((h, w)) * 10 - 5)

    def test_signed_zero_grids(self, rng):
        # ties between -0.0 and +0.0 would leave the sign of a zero to the
        # pairing order if build_filtration kept -0.0
        for _ in range(2000):
            h, w = rng.integers(1, 7, size=2)
            self.check(rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], size=(h, w)))

    @pytest.mark.parametrize("size,n", [(64, 3), (224, 1)])
    def test_shape_images(self, size, n):
        for sample in generate_shapes(seed=7, n=n, size=size):
            self.check(sample.image)

    # wide plateaus: many merges tie in value, so the (value, index) rank
    # decides which of two equal roots is the elder
    @pytest.mark.parametrize("levels", [2, 3])
    def test_wide_plateau_grids(self, rng, levels):
        for _ in range(3):
            self.check(rng.integers(0, levels, size=(48, 48)))

    def test_quantized_shape_image(self):
        self.check(generate_shapes(seed=7, n=1, size=64)[0].image // 64)

    def test_descending_serpentine(self):
        # one strictly descending path through every even row, joined at
        # alternate ends through walls of high pixels: each node's lowest
        # neighbour is the next one on the path, so pointer jumping takes
        # about log2(the path's length) rounds to reach the basin
        k = 33
        path = []
        for r in range(0, k, 2):
            path += [(r, c) for c in (range(k) if r % 4 == 0 else range(k - 1, -1, -1))]
            if r + 1 < k:
                path.append((r + 1, path[-1][1]))
        grid = np.full((k, k), 2.0 * k * k)
        for i, (r, c) in enumerate(path):
            grid[r, c] = len(path) - i
        self.check(grid)

    def test_increasing_ramp(self):
        # one basin, the corner minimum, so no H0 edge is left between basins
        self.check(np.add.outer(np.arange(12.0), 12.0 * np.arange(15.0)))

    def test_checkerboard(self):
        # every 0 pixel is a basin of its own under 4-adjacency
        self.check(np.indices((16, 17)).sum(axis=0) % 2)


def test_peak_memory_at_224():
    """grid_persistence allocates at most 10 MiB on a 224x224 shape image."""
    image = generate_shapes(seed=7, n=1, size=224)[0].image
    tracemalloc.start()
    try:
        grid_persistence(image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"{peak / 2**20:.2f} MiB"
