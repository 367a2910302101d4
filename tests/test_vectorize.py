import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alive_counts, diagram_from_points, empty_diagram
from grid_reference import betti_oracle, sublevel_mask
from topogate.cubical import grid_persistence
from topogate.diagram import Diagram, finitize
from topogate.grid import generate_shapes
from topogate.pipeline import preprocess_diagram
from topogate.vectorize import (
    betti_curve,
    landscapes,
    persistence_image,
    silhouette,
)
from vectorize_reference import landscape_level, persistence_image_sum


def diag_of(*points):
    return diagram_from_points(points)


finite_diagrams = st.lists(
    st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0.05, 1, allow_nan=False)),
    min_size=1,
    max_size=12,
).map(lambda pts: diagram_from_points([(b, b + g, 0) for b, g in pts]))


@pytest.mark.parametrize("vectorizer", [
    lambda d: betti_curve(d, [1.0]),
    lambda d: landscapes(d, 1, [1.0]),
    lambda d: silhouette(d, 1, [1.0]),
    lambda d: persistence_image(d, 2, (0, 1), (0, 1), 0.5),
], ids=["betti", "landscape", "silhouette", "pimage"])
def test_nan_death_is_essential(vectorizer):
    with pytest.raises(ValueError, match="finitized"):
        vectorizer(Diagram(np.array([0.5]), np.array([np.nan]), np.array([0])))


@pytest.fixture(scope="module")
def shape_diagram():
    """The diagram `compute` writes for the first 224x224 shape image of seed 11."""
    d = preprocess_diagram(grid_persistence(generate_shapes(seed=11, n=1, size=224)[0].image))
    assert len(d.births) >= 7000
    return d


def image_grid(diag, resolution):
    """The grid arguments `vectorize --method pimage` passes at the default flags."""
    lo, hi = min(0.0, diag.births.min()), max(255.0, diag.deaths.max())
    return (resolution, (lo, hi), (0.0, hi - lo), 10.0)


class TestBettiCurve:
    def test_both_alive(self):
        assert betti_curve(diag_of((0, 2, 0), (1, 3, 0)), [1.5])[0] == 2

    def test_half_open_convention(self):
        d = diag_of((0, 2, 0), (1, 3, 0))
        assert betti_curve(d, [2.5])[0] == 1
        assert betti_curve(d, [2.0])[0] == 1  # dead exactly at its death

    def test_empty(self):
        assert np.all(betti_curve(empty_diagram(), np.linspace(0.0, 1.0, 64)) == 0)

    def test_grid_requires_increasing(self):
        with pytest.raises(ValueError):
            betti_curve(empty_diagram(), [1.0, 1.0])

    def test_matches_oracle_on_grid(self, rng):
        g = rng.integers(0, 8, size=(8, 8))
        d = finitize(grid_persistence(g), 8)
        for tau in range(8):
            b0, b1 = betti_oracle(sublevel_mask(g, tau))
            assert betti_curve(d.select(0), [tau + 0.0])[0] == b0
            assert betti_curve(d.select(1), [tau + 0.0])[0] == b1


class TestLandscape:
    def test_tent_peak_and_slope(self):
        d = diag_of((0, 2, 0))
        assert landscapes(d, 1, [1.0])[0, 0] == 1.0
        assert landscapes(d, 1, [0.5])[0, 0] == 0.5

    def test_second_level_zero_for_single_point(self):
        assert np.all(landscapes(diag_of((0, 2, 0)), 2, np.linspace(0, 2, 8))[:, 1] == 0)

    def test_multiset_duplicates_count(self):
        assert landscapes(diag_of((0, 2, 0), (0, 2, 0)), 2, [1.0])[0, 1] == 1.0

    def test_shape_and_level_guard(self):
        assert landscapes(empty_diagram(), 3, [0.0, 1.0]).tobytes() == np.zeros((2, 3)).tobytes()
        with pytest.raises(ValueError, match="levels"):
            landscapes(diag_of((0, 2, 0)), 0, [1.0])

    @given(finite_diagrams, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_levels_decreasing(self, d, k):
        t = np.linspace(0, 2, 32)
        levels = landscapes(d, k + 1, t)
        assert np.all(levels[:, k - 1] >= levels[:, k] - 1e-12)

    @given(finite_diagrams)
    @settings(max_examples=60, deadline=None)
    def test_lipschitz(self, d):
        t = np.linspace(0, 2, 256)
        vals = landscapes(d, 1, t)[:, 0]
        step = t[1] - t[0]
        assert np.all(np.abs(np.diff(vals)) <= step + 1e-9)

    @given(finite_diagrams, st.sampled_from([1, 5, 50]))
    @settings(max_examples=60, deadline=None)
    def test_one_sort_matches_partition(self, d, levels):
        t = np.linspace(0, 2, 32)
        expected = np.column_stack([landscape_level(d, k, t) for k in range(1, levels + 1)])
        assert landscapes(d, levels, t).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("levels", [1, 5, 50])
    def test_one_sort_matches_partition_on_shape(self, shape_diagram, levels):
        t = np.linspace(0.0, 255.0, 64)
        expected = np.column_stack([landscape_level(shape_diagram, k, t) for k in range(1, levels + 1)])
        assert landscapes(shape_diagram, levels, t).tobytes() == expected.tobytes()


class TestSilhouette:
    def test_single_point_is_tent(self):
        d = diag_of((0, 2, 0))
        t = np.linspace(0, 2, 16)
        assert np.allclose(silhouette(d, 1, t), np.maximum(0, np.minimum(t, 2 - t)))

    def test_equal_weights(self):
        assert silhouette(diag_of((0, 2, 0), (1, 3, 0)), 1, [1.5])[0] == pytest.approx(0.5)

    def test_p0_unweighted_mean(self):
        d = diag_of((0, 2, 0), (0, 4, 0))
        assert silhouette(d, 0, [1.0])[0] == pytest.approx((1.0 + 1.0) / 2)

    def test_empty_all_zero(self):
        assert np.all(silhouette(empty_diagram(), 1, np.linspace(0.0, 1.0, 64)) == 0)

    @given(finite_diagrams)
    @settings(max_examples=60, deadline=None)
    def test_lipschitz(self, d):
        t = np.linspace(0, 2, 256)
        vals = silhouette(d, 1, t)
        step = t[1] - t[0]
        assert np.all(np.abs(np.diff(vals)) <= step + 1e-9)

    @pytest.mark.parametrize("points", [[(0, 200, 0), (10, 50, 1)], [(0, 0.5, 0)]],
                             ids=["weights-overflow", "weights-underflow"])
    def test_power_not_finite_refused(self, points):
        """200^1000 overflows float64 and 0.5^1100 underflows to 0, so the average is not
        finite; silhouette raises, without a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="power 1100"):
                silhouette(diagram_from_points(points), 1100, np.linspace(0, 255, 8))


class TestPersistenceImage:
    def test_empty(self):
        image = persistence_image(empty_diagram(), 4, (0, 1), (0, 1), 0.1)
        assert image.shape == (4, 4) and image.tobytes() == np.zeros((4, 4)).tobytes()

    def test_center_value(self):
        # single pixel centered on the point (birth 0, persistence 2)
        v = persistence_image(diag_of((0, 2, 0)), 1, (-0.5, 0.5), (1.5, 2.5), 0.1)[0, 0]
        assert v == pytest.approx(2.0 / (2 * np.pi * 0.01), rel=1e-12)

    def test_translation_equivariance(self):
        a = persistence_image(diag_of((0.3, 1.0, 0)), 5, (0, 1), (0, 2), 0.2)
        b = persistence_image(diag_of((10.3, 11.0, 0)), 5, (10, 11), (0, 2), 0.2)
        assert np.allclose(a, b, atol=1e-12)

    def test_sigma_guard(self):
        # 1e-160 and 1e-200 are positive, but 1 / (2 sigma^2) is inf or a division by 0;
        # 1e200 makes sigma^2 overflow
        for sigma in (0, 1e-160, 1e-200, 1e200):
            with pytest.raises(ValueError, match="sigma"):
                persistence_image(diag_of((0, 2, 0)), 2, (0, 1), (0, 1), sigma)

    def test_tiny_sigma_finite_or_refused(self):
        """sigma 1e-154 meets SIGMA_RULE. Away from the point the exponent overflows, and
        the image is its limit, 0; on the point, 1 / (2 pi sigma^2) times the persistence
        overflows, and the image is refused. Neither warns."""
        point = diag_of((50, 100, 0))  # birth 50, persistence 50
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = persistence_image(point, 4, (0, 100), (0, 100), 1e-154)
            assert far.tobytes() == np.zeros((4, 4)).tobytes()
            with pytest.raises(FloatingPointError, match="sigma 1e-154"):
                persistence_image(point, 1, (0, 100), (0, 100), 1e-154)

    @given(finite_diagrams)
    @settings(max_examples=60, deadline=None)
    def test_product_matches_sum(self, d):
        grid = (6, (0, 1), (0, 1.2), 0.2)
        expected = persistence_image_sum(d, *grid)
        assert np.abs(persistence_image(d, *grid) - expected).max() <= 1e-12 * expected.max()

    def test_product_matches_sum_on_shape(self, shape_diagram):
        grid = image_grid(shape_diagram, 20)
        expected = persistence_image_sum(shape_diagram, *grid)
        assert np.abs(persistence_image(shape_diagram, *grid) - expected).max() <= 1e-12 * expected.max()

    def test_peak_memory_is_two_factors(self, shape_diagram):
        """At resolution 100 the image is one product of two (n, 100) factors; an (n, 100,
        100) temporary of 7 000 points would take over 500 MiB."""
        grid = image_grid(shape_diagram, 100)
        tracemalloc.start()
        try:
            persistence_image(shape_diagram, *grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak

    def test_nonnegative(self, rng):
        pts = [(b, b + p, 0) for b, p in zip(rng.random(10), rng.random(10) + 0.05)]
        assert np.all(persistence_image(diagram_from_points(pts), 8, (0, 1), (0, 1.2), 0.15) >= 0)


class TestPermutationInvariance:
    def test_all_vectorizers(self, rng):
        pts = [(float(b), float(b + p), int(k)) for b, p, k in
               zip(rng.random(12), rng.random(12) + 0.05, rng.integers(0, 2, 12))]
        shuffled = list(pts)
        rng.shuffle(shuffled)
        a, b = diagram_from_points(pts), diagram_from_points(shuffled)
        t = np.linspace(0, 2, 32)
        grid = (6, (0, 1), (0, 1.2), 0.2)
        assert np.allclose(betti_curve(a, t), betti_curve(b, t))
        assert np.allclose(landscapes(a, 2, t), landscapes(b, 2, t))
        assert np.allclose(silhouette(a, 1, t), silhouette(b, 1, t))
        assert np.allclose(persistence_image(a, *grid), persistence_image(b, *grid))
