import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_multiset, diagram_from_points, empty_diagram
from topogate.diagram import (
    Diagram,
    NormalizationStats,
    filter_persistence,
    finitize,
    read_diagram,
    scale_normalize,
    to_point_features,
    write_diagram,
)
from topogate.grid import FormatError, SyntheticSample
from topogate.pipeline import build_feature_dataset


def diag_of(*points):
    return diagram_from_points(points)


finite_diagrams = st.lists(
    st.tuples(
        st.floats(0, 200, allow_nan=False),
        st.floats(0.5, 55, allow_nan=False),
        st.integers(0, 1),
    ),
    max_size=30,
).map(lambda pts: diagram_from_points([(b, b + gap, k) for b, gap, k in pts]))


def nan_death():
    """One H0 point with a NaN death, built from arrays and not from points."""
    return Diagram(np.array([3.0]), np.array([np.nan]), np.array([0]))


class TestEssential:
    def test_infinite_death_is_essential(self):
        d = diag_of((7, math.inf, 0), (1, 4, 1))
        assert list(d.essential) == [True, False] and np.isnan(d.deaths[0])

    def test_nan_death_is_essential(self):
        assert list(nan_death().essential) == [True]
        assert as_multiset(nan_death()) == [(3.0, None, 0, True)]

    def test_finitize_fills_nan_death(self):
        assert as_multiset(finitize(nan_death(), 255)) == [(3.0, 255.0, 0, False)]

    def test_filter_rejects_nan_death(self):
        with pytest.raises(ValueError, match="finitized"):
            filter_persistence(nan_death(), 0)

    def test_point_features_reject_nan_death(self):
        with pytest.raises(ValueError, match="finitized"):
            to_point_features(nan_death(), 4)

    def test_written_as_null_death(self, tmp_path):
        write_diagram(tmp_path / "d.json", nan_death())
        (point,) = json.loads((tmp_path / "d.json").read_text())["points"]
        assert point["death"] is None and point["essential"] is True

    @pytest.mark.parametrize("death,flag", [(None, False), (9, True)], ids=["null", "number"])
    def test_read_rejects_flag_against_death(self, tmp_path, death, flag):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"points": [{"birth": 1, "death": death, "dim": 0,
                                                 "essential": flag}]}))
        with pytest.raises(FormatError, match="essential flag inconsistent"):
            read_diagram(path)


class TestFinitize:
    def test_substitution(self):
        d = finitize(diag_of((7, math.inf, 0)), 255)
        assert as_multiset(d) == [(7.0, 255.0, 0, False)]

    def test_identity_when_finite(self):
        d = diag_of((1, 3, 0), (2, 9, 1))
        assert as_multiset(finitize(d, 255)) == as_multiset(d)

    def test_substitution_at_existing_death(self):
        d = finitize(diag_of((0, math.inf, 0), (1, 2, 0)), 2)
        assert as_multiset(d) == [(0.0, 2.0, 0, False), (1.0, 2.0, 0, False)]

    def test_below_finite_death_rejected(self):
        with pytest.raises(ValueError, match="below"):
            finitize(diag_of((0, 10, 0)), 5)

    def test_drops_zero_persistence_essentials(self):
        d = finitize(diag_of((255, math.inf, 0)), 255)
        assert len(d) == 0


class TestFilterPersistence:
    def test_drops_small(self):
        d = filter_persistence(diag_of((0, 5, 0), (0, 20, 0)), 10)
        assert as_multiset(d) == [(0.0, 20.0, 0, False)]

    def test_boundary_inclusive(self):
        d = filter_persistence(diag_of((0, 10, 0)), 10)
        assert as_multiset(d) == [(0.0, 10.0, 0, False)]

    def test_empty(self):
        assert len(filter_persistence(empty_diagram(), 10)) == 0

    def test_requires_finitized(self):
        with pytest.raises(ValueError, match="finitized"):
            filter_persistence(diag_of((0, math.inf, 0)), 10)


class TestScaleNormalize:
    def test_pure_scaling(self):
        d = scale_normalize(diag_of((0, 255, 0)), 255, NormalizationStats.identity())
        assert d.births[0] == 0.0 and d.deaths[0] == 1.0

    def test_zscore_identity(self):
        d = diag_of((10, 60, 0), (30, 200, 1), (0, 90, 0))
        stats = NormalizationStats.from_diagrams([d], 255)
        out = scale_normalize(d, 255, stats)
        assert abs(out.births.mean()) < 1e-12 and abs(out.deaths.mean()) < 1e-12

    def test_derived_example(self):
        stats = NormalizationStats(np.array([0.2, 0.4]), np.array([1.0, 1.0]))
        out = scale_normalize(diag_of((51, 102, 0)), 255, stats)
        assert abs(out.births[0]) < 1e-15 and abs(out.deaths[0]) < 1e-15

    def test_std_clamped(self):
        stats = NormalizationStats(np.zeros(2), np.zeros(2))
        assert np.all(stats.std == 1e-8)


class TestPointFeatures:
    def test_all_padding(self):
        m = to_point_features(empty_diagram(), n_per_group=3)
        assert m.shape == (6, 5)
        assert np.array_equal(m[:3, 2], np.ones(3)) and np.array_equal(m[3:, 3], np.ones(3))
        assert np.all(m[:, [0, 1, 4]] == 0)

    def test_sorted_by_persistence(self):
        m = to_point_features(diag_of((0, 0.2, 0), (0, 1, 0)), n_per_group=3)
        assert m[0, 1] == 1.0 and m[1, 1] == 0.2
        assert list(m[:3, 4]) == [1, 1, 0]

    def test_truncation_keeps_largest(self):
        d = diag_of(*[(0, p, 0) for p in (1, 5, 3, 2, 4)])
        m = to_point_features(d, n_per_group=3)
        assert sorted(m[:3, 1]) == [3, 4, 5]

    def test_permutation_invariance(self, rng):
        pts = [(float(b), float(b) + float(p), int(k)) for b, p, k in
               zip(rng.random(20), rng.random(20) + 0.1, rng.integers(0, 2, 20))]
        perm = list(pts)
        rng.shuffle(perm)
        a = to_point_features(diagram_from_points(pts), 8)
        b = to_point_features(diagram_from_points(perm), 8)
        assert np.array_equal(a, b)

    @given(finite_diagrams)
    @settings(max_examples=100, deadline=None)
    def test_padding_honesty(self, d):
        m = to_point_features(d, n_per_group=10)
        n_real = min(10, int(np.sum(d.dims == 0))) + min(10, int(np.sum(d.dims == 1)))
        assert int(m[:, 4].sum()) == n_real
        # padded rows are exactly the zero-birth/death presence-0 rows
        pad = m[m[:, 4] == 0]
        assert np.all(pad[:, :2] == 0)

    def test_pipeline_shape_invariant(self, rng):
        for _ in range(3):
            g = rng.integers(0, 256, size=(12, 14))
            (_, feats, _), = build_feature_dataset([SyntheticSample(g, 0)], n_per_group=150)[0]
            assert feats.shape == (300, 5)


def json_dump_reference(path, diag):
    """The writer's former body: one dict per point through json.dump."""
    d = diag.canonical()
    points = [
        {"birth": float(b), "death": None if e else float(dd), "dim": int(k), "essential": bool(e)}
        for b, dd, k, e in zip(d.births, d.deaths, d.dims, d.essential)
    ]
    with open(path, "w") as f:
        json.dump({"points": points}, f, indent=1)
        f.write("\n")


class TestSerialization:
    def test_bytes_match_json_dump(self, tmp_path, rng):
        special = Diagram(
            np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.1, 7.0]),
            np.array([np.inf, np.nan, -np.inf, 2.5, 1e300, np.nan, np.nan]),
            np.array([0, 1, 0, 1, 0, 1, 0]),
        )
        diagrams = [empty_diagram(), diag_of((0, math.inf, 0), (10, 200, 1)), special]
        for _ in range(50):
            n = int(rng.integers(0, 40))
            births = rng.random(n) * 255
            essential = rng.random(n) < 0.2
            deaths = np.where(essential, np.nan, births + rng.random(n) * 50)
            diagrams.append(Diagram(births, deaths, rng.integers(0, 2, n)))
        for d in diagrams:
            write_diagram(tmp_path / "a.json", d)
            json_dump_reference(tmp_path / "b.json", d)
            assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_roundtrip(self, tmp_path, rng):
        d = diag_of((0, math.inf, 0), (3, 9, 1), (1, 2, 0))
        path = tmp_path / "d.json"
        write_diagram(path, d)
        assert as_multiset(read_diagram(path)) == as_multiset(d)

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "e.json"
        write_diagram(path, empty_diagram())
        assert len(read_diagram(path)) == 0

    def test_death_before_birth_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": [{"birth": 5, "death": 1, "dim": 0, "essential": False}]}))
        with pytest.raises(FormatError, match="death"):
            read_diagram(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"points": [{"birth": NaN, "death": 2, "dim": 0, "essential": false}]}')
        with pytest.raises(FormatError):
            read_diagram(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            read_diagram(path)

    def test_not_text_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_bytes(b"\x9a\xff\x00")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not JSON"):
            read_diagram(path)

    @pytest.mark.parametrize("payload,says", [
        ({"points": [{"death": 3, "dim": 0}]}, "point 0 lacks birth"),
        ({"points": [{"birth": 1, "dim": 0}]}, "point 0 lacks death"),
        ({"points": [{"birth": 1, "death": 3}]}, "point 0 lacks dim"),
        ({"points": 5}, "'points' must be a list"),
        ({"points": [{"birth": 1, "death": 3, "dim": 0}, "x"]}, "point 1 is not an object"),
        ({"points": [{"birth": "1", "death": 3, "dim": 0}]}, "non-numeric"),
        ({"points": [{"birth": 1, "death": [3], "dim": 0}]}, "non-numeric"),
        ({"points": [{"birth": True, "death": 3, "dim": 0}]}, "non-numeric"),
        ({"points": [{"birth": 1, "death": 3, "dim": True}]}, "dimension"),
        ({"points": [{"birth": 1, "death": 10**400, "dim": 0}]}, "non-finite"),
        ({"dots": []}, "missing 'points'"),
    ], ids=["no-birth", "no-death", "no-dim", "points-not-list", "point-not-object",
            "text-birth", "list-death", "bool-birth", "bool-dim", "huge-int-death", "no-points"])
    def test_malformed_point_named(self, tmp_path, payload, says):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{says}"):
            read_diagram(path)
