import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grid_reference import betti_oracle, count_components_unionfind, sublevel_mask
from topogate.grid import (
    FormatError,
    generate_shapes,
    load_csv_grid,
    load_pgm,
    save_pgm,
)

small_grids = arrays(
    np.int64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 5),
)

small_masks = arrays(
    np.bool_, st.tuples(st.integers(1, 7), st.integers(1, 7)), elements=st.booleans()
)


class TestLoadPgm:
    def test_p2_decode(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2\n2 2\n255\n0 64 128 255\n")
        assert np.array_equal(load_pgm(p), [[0, 64], [128, 255]])

    def test_p5_p2_equivalence(self, tmp_path):
        pixels = bytes([0, 64, 128, 255, 7, 9])
        p5 = tmp_path / "b.pgm"
        p5.write_bytes(b"P5\n3 2\n255\n" + pixels)
        p2 = tmp_path / "b2.pgm"
        p2.write_text("P2\n3 2\n255\n" + " ".join(str(v) for v in pixels))
        assert np.array_equal(load_pgm(p5), load_pgm(p2))

    def test_maxval_over_255_rejected(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_text("P2\n1 1\n65535\n12\n")
        with pytest.raises(FormatError, match="maxval"):
            load_pgm(p)

    @pytest.mark.parametrize("magic,raster", [("P2", b"200 250\n"), ("P5", bytes([200, 250]))],
                             ids=["P2", "P5"])
    def test_pixel_above_maxval_rejected(self, tmp_path, magic, raster):
        p = tmp_path / "m.pgm"
        p.write_bytes(magic.encode() + b"\n2 1\n100\n" + raster)
        with pytest.raises(FormatError, match="out of range"):
            load_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(FormatError, match="truncated"):
            load_pgm(p)

    def test_p5_raster_after_non_whitespace_rejected(self, tmp_path):
        p = tmp_path / "h.pgm"
        p.write_bytes(b"P5 2 1 255#c\n\x07\x08")
        with pytest.raises(FormatError, match="whitespace"):
            load_pgm(p)

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "e.pgm"
        p.write_text("P2\n# hello\n2 1\n255\n3 4\n")
        assert np.array_equal(load_pgm(p), [[3, 4]])

    def test_comments_touching_tokens_and_inside_raster(self, tmp_path):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P2 2#width\n2 255#maxval\n1 2# first row\n\r3#x\n4\n")
        assert np.array_equal(load_pgm(p), [[1, 2], [3, 4]])
        p.write_bytes(b"P2\n2 2\n255\n1 2 # 3 4\n")
        with pytest.raises(FormatError, match="truncated P2 raster"):
            load_pgm(p)

    def test_save_load_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
        save_pgm(tmp_path / "f.pgm", img)
        assert np.array_equal(load_pgm(tmp_path / "f.pgm"), img)


class TestCsvGrid:
    def test_load(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,2\n3,1\n")
        assert np.array_equal(load_csv_grid(p), [[0, 2], [3, 1]])

    @pytest.mark.parametrize("value", [-40, 256])
    def test_out_of_range_rejected(self, tmp_path, value):
        p = tmp_path / "r.csv"
        p.write_text(f"0,1\n{value},2\n")
        with pytest.raises(FormatError, match="out of range"):
            load_csv_grid(p)

    @pytest.mark.parametrize("text", ["", "  \n\n", " \t\n# a comment\n"],
                             ids=["empty", "whitespace", "comment"])
    def test_no_values_rejected_without_warning(self, tmp_path, text):
        p = tmp_path / "e.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="holds no values"):
                load_csv_grid(p)

    def test_malformed(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("0,x\n")
        with pytest.raises(FormatError):
            load_csv_grid(p)


class TestSublevelMask:
    def test_direct_threshold(self):
        mask = sublevel_mask(np.array([[0, 2], [3, 1]]), 1)
        assert np.array_equal(mask, [[True, False], [False, True]])

    def test_saturation(self, rng):
        g = rng.integers(0, 256, size=(4, 4))
        assert sublevel_mask(g, g.max()).all()
        assert not sublevel_mask(g, g.min() - 1).any()

    @given(small_grids, st.integers(0, 5), st.integers(0, 5))
    def test_monotone(self, g, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert not np.any(sublevel_mask(g, lo) & ~sublevel_mask(g, hi))


class TestBettiOracle:
    def test_empty(self):
        assert betti_oracle(np.zeros((3, 3), bool)) == (0, 0)

    def test_ring(self):
        mask = np.ones((3, 3), bool)
        mask[1, 1] = False
        assert betti_oracle(mask) == (1, 1)

    def test_full_2x2(self):
        assert betti_oracle(np.ones((2, 2), bool)) == (1, 0)

    def test_two_components(self):
        mask = np.array([[1, 0, 1]], dtype=bool)
        assert betti_oracle(mask) == (2, 0)

    @given(small_masks)
    def test_beta0_matches_union_find(self, mask):
        assert betti_oracle(mask)[0] == count_components_unionfind(mask)

    @given(small_masks)
    def test_euler_consistency(self, mask):
        b0, b1 = betti_oracle(mask)
        v = int(mask.sum())
        e = int((mask[:, 1:] & mask[:, :-1]).sum()) + int((mask[1:] & mask[:-1]).sum())
        f = int((mask[1:, 1:] & mask[1:, :-1] & mask[:-1, 1:] & mask[:-1, :-1]).sum())
        assert b0 - b1 == v - e + f


class TestGenerateShapes:
    def test_deterministic(self):
        a = generate_shapes(seed=3, n=10)
        b = generate_shapes(seed=3, n=10)
        assert all(np.array_equal(x.image, y.image) and x.label == y.label for x, y in zip(a, b))

    def test_class_topology_noiseless(self):
        samples = generate_shapes(seed=5, n=9, noise=0)
        expected = {0: (1, 0), 1: (1, 1), 2: (2, 0)}
        for s in samples:
            assert betti_oracle(sublevel_mask(s.image, 128)) == expected[s.label]

    def test_balanced_labels(self):
        labels = [s.label for s in generate_shapes(seed=1, n=12)]
        assert labels.count(0) == labels.count(1) == labels.count(2) == 4

    def test_size_guard(self):
        with pytest.raises(ValueError):
            generate_shapes(seed=0, n=1, size=16)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_peak_memory(self, seed):
        """Three 1024x1024 images allocate less than three float64 planes of that side:
        each disk is taken over two broadcast axes, and noise is added in place."""
        tracemalloc.start()
        try:
            generate_shapes(seed, 3, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 1024**2 * 8, f"{peak / (1024**2 * 8):.2f} planes"

    def test_images_are_8bit(self):
        for s in generate_shapes(seed=2, n=3):
            assert s.image.dtype == np.uint8
