import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alive_counts, diagram_from_points, empty_diagram
from grid_reference import betti_oracle, sublevel_mask
from topogate.cubical import grid_persistence
from topogate.diagram import Diagram, finitize
from topogate.vectorize import (
    ImageGridSpec,
    betti_curve,
    landscape,
    persistence_image,
    silhouette,
)


def diag_of(*points):
    return diagram_from_points(points)


finite_diagrams = st.lists(
    st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0.05, 1, allow_nan=False)),
    min_size=1,
    max_size=12,
).map(lambda pts: diagram_from_points([(b, b + g, 0) for b, g in pts]))


@pytest.mark.parametrize("vectorizer", [
    lambda d: betti_curve(d, [1.0]),
    lambda d: landscape(d, 1, [1.0]),
    lambda d: silhouette(d, 1, [1.0]),
    lambda d: persistence_image(d, ImageGridSpec(2, 2, (0, 1), (0, 1), 0.5)),
], ids=["betti", "landscape", "silhouette", "pimage"])
def test_nan_death_is_essential(vectorizer):
    with pytest.raises(ValueError, match="finitized"):
        vectorizer(Diagram(np.array([0.5]), np.array([np.nan]), np.array([0])))


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
        assert landscape(d, 1, [1.0])[0] == 1.0
        assert landscape(d, 1, [0.5])[0] == 0.5

    def test_second_level_zero_for_single_point(self):
        assert np.all(landscape(diag_of((0, 2, 0)), 2, np.linspace(0, 2, 8)) == 0)

    def test_multiset_duplicates_count(self):
        assert landscape(diag_of((0, 2, 0), (0, 2, 0)), 2, [1.0])[0] == 1.0

    @given(finite_diagrams, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_levels_decreasing(self, d, k):
        t = np.linspace(0, 2, 32)
        assert np.all(landscape(d, k, t) >= landscape(d, k + 1, t) - 1e-12)

    @given(finite_diagrams)
    @settings(max_examples=60, deadline=None)
    def test_lipschitz(self, d):
        t = np.linspace(0, 2, 256)
        vals = landscape(d, 1, t)
        step = t[1] - t[0]
        assert np.all(np.abs(np.diff(vals)) <= step + 1e-9)


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


class TestPersistenceImage:
    def test_empty(self):
        spec = ImageGridSpec(4, 4, (0, 1), (0, 1), 0.1)
        assert np.all(persistence_image(empty_diagram(), spec) == 0)

    def test_center_value(self):
        # single pixel centered on the point (birth 0, persistence 2)
        spec = ImageGridSpec(1, 1, (-0.5, 0.5), (1.5, 2.5), 0.1)
        v = persistence_image(diag_of((0, 2, 0)), spec)[0, 0]
        assert v == pytest.approx(2.0 / (2 * np.pi * 0.01), rel=1e-12)

    def test_translation_equivariance(self):
        spec0 = ImageGridSpec(5, 5, (0, 1), (0, 2), 0.2)
        spec1 = ImageGridSpec(5, 5, (10, 11), (0, 2), 0.2)
        a = persistence_image(diag_of((0.3, 1.0, 0)), spec0)
        b = persistence_image(diag_of((10.3, 11.0, 0)), spec1)
        assert np.allclose(a, b, atol=1e-12)

    def test_sigma_guard(self):
        with pytest.raises(ValueError):
            persistence_image(empty_diagram(), ImageGridSpec(2, 2, (0, 1), (0, 1), 0))

    def test_nonnegative(self, rng):
        pts = [(b, b + p, 0) for b, p in zip(rng.random(10), rng.random(10) + 0.05)]
        spec = ImageGridSpec(8, 8, (0, 1), (0, 1.2), 0.15)
        assert np.all(persistence_image(diagram_from_points(pts), spec) >= 0)


class TestPermutationInvariance:
    def test_all_vectorizers(self, rng):
        pts = [(float(b), float(b + p), int(k)) for b, p, k in
               zip(rng.random(12), rng.random(12) + 0.05, rng.integers(0, 2, 12))]
        shuffled = list(pts)
        rng.shuffle(shuffled)
        a, b = diagram_from_points(pts), diagram_from_points(shuffled)
        t = np.linspace(0, 2, 32)
        spec = ImageGridSpec(6, 6, (0, 1), (0, 1.2), 0.2)
        assert np.allclose(betti_curve(a, t), betti_curve(b, t))
        assert np.allclose(landscape(a, 2, t), landscape(b, 2, t))
        assert np.allclose(silhouette(a, 1, t), silhouette(b, 1, t))
        assert np.allclose(persistence_image(a, spec), persistence_image(b, spec))
