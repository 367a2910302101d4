"""Persistence diagrams and the preprocessing pipeline that turns them into
fixed-size point-feature matrices for the set encoder."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Diagram",
    "NormalizationStats",
    "DiagramFormatError",
    "finitize",
    "filter_persistence",
    "scale_normalize",
    "to_point_features",
    "read_diagram",
    "write_diagram",
    "FEATURE_WIDTH",
    "DEFAULT_N_PER_GROUP",
]

FEATURE_WIDTH = 5  # birth, death, onehot H0, onehot H1, presence
DEFAULT_N_PER_GROUP = 150


class DiagramFormatError(ValueError):
    """Raised for malformed serialized diagrams."""


@dataclass(frozen=True)
class Diagram:
    """Multiset of (birth, death, homology dimension) points.

    Essential points (features that never die) carry ``essential=True`` and a
    NaN death; deaths are made finite only via :func:`finitize`.
    """

    births: np.ndarray  # float64
    deaths: np.ndarray  # float64, NaN where essential
    dims: np.ndarray  # int8, 0 or 1
    essential: np.ndarray  # bool

    def __post_init__(self):
        object.__setattr__(self, "births", np.asarray(self.births, dtype=np.float64))
        object.__setattr__(self, "deaths", np.asarray(self.deaths, dtype=np.float64))
        object.__setattr__(self, "dims", np.asarray(self.dims, dtype=np.int8))
        object.__setattr__(self, "essential", np.asarray(self.essential, dtype=bool))
        n = len(self.births)
        if not (len(self.deaths) == len(self.dims) == len(self.essential) == n):
            raise ValueError("diagram arrays must have equal length")
        # death > birth is enforced at construction from raw persistence and at
        # deserialization; normalized diagrams may legitimately violate it

    @classmethod
    def empty(cls) -> "Diagram":
        z = np.zeros(0)
        return cls(z, z, z, z)

    @classmethod
    def from_points(cls, points) -> "Diagram":
        """Build from an iterable of (birth, death, dim) or (birth, death, dim,
        essential) tuples; death may be math.inf to mark an essential point."""
        births, deaths, dims, ess = [], [], [], []
        for p in points:
            b, d, k = p[0], p[1], p[2]
            e = bool(p[3]) if len(p) > 3 else (d == math.inf)
            births.append(float(b))
            deaths.append(math.nan if e else float(d))
            dims.append(int(k))
            ess.append(e)
        return cls(np.array(births), np.array(deaths), np.array(dims), np.array(ess))

    def __len__(self) -> int:
        return len(self.births)

    def canonical(self) -> "Diagram":
        """Deterministically sorted copy: by (dim, essential-last, birth, death)."""
        death_key = np.where(self.essential, np.inf, self.deaths)
        order = np.lexsort((death_key, self.births, self.essential, self.dims))
        return Diagram(
            self.births[order], self.deaths[order], self.dims[order], self.essential[order]
        )

    def select(self, dim: int) -> "Diagram":
        keep = self.dims == dim
        return Diagram(
            self.births[keep], self.deaths[keep], self.dims[keep], self.essential[keep]
        )

    def as_multiset(self) -> list[tuple]:
        """Sorted point list suitable for multiset equality checks."""
        d = self.canonical()
        return [
            (float(b), None if e else float(dd), int(k), bool(e))
            for b, dd, k, e in zip(d.births, d.deaths, d.dims, d.essential)
        ]


@dataclass(frozen=True)
class NormalizationStats:
    """Per-coordinate mean/std of (birth, death) in the scaled [0, 1] domain."""

    mean: np.ndarray  # (2,)
    std: np.ndarray  # (2,), clamped below by 1e-8

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(
            self, "std", np.maximum(np.asarray(self.std, dtype=np.float64), 1e-8)
        )

    @classmethod
    def identity(cls) -> "NormalizationStats":
        return cls(np.zeros(2), np.ones(2))

    @classmethod
    def from_diagrams(cls, diagrams, intensity_max: float = 255.0) -> "NormalizationStats":
        """Fit stats over the pooled scaled coordinates of finitized diagrams."""
        births = np.concatenate([d.births for d in diagrams]) if diagrams else np.zeros(0)
        deaths = np.concatenate([d.deaths for d in diagrams]) if diagrams else np.zeros(0)
        if len(births) == 0:
            return cls.identity()
        if np.any(np.isnan(deaths)):
            raise ValueError("stats require finitized diagrams")
        coords = np.stack([births, deaths], axis=1) / intensity_max
        return cls(coords.mean(axis=0), coords.std(axis=0))


def finitize(diag: Diagram, max_value: float) -> Diagram:
    """Replace every essential death by `max_value`; other points unchanged."""
    finite_deaths = diag.deaths[~diag.essential]
    if len(finite_deaths) and max_value < finite_deaths.max():
        raise ValueError(
            f"max_value {max_value} is below finite death {finite_deaths.max()}"
        )
    if len(diag.births) and max_value < diag.births.max():
        raise ValueError(f"max_value {max_value} is below a birth value")
    deaths = np.where(diag.essential, float(max_value), diag.deaths)
    # finitization may create zero-persistence points; drop them
    keep = deaths > diag.births
    return Diagram(
        diag.births[keep], deaths[keep], diag.dims[keep], np.zeros(int(keep.sum()), bool)
    )


def filter_persistence(diag: Diagram, min_pers: float = 10.0) -> Diagram:
    """Keep exactly the points with death - birth >= min_pers (raw units)."""
    if np.any(diag.essential):
        raise ValueError("filter_persistence requires a finitized diagram")
    keep = (diag.deaths - diag.births) >= min_pers
    return Diagram(diag.births[keep], diag.deaths[keep], diag.dims[keep], diag.essential[keep])


def scale_normalize(
    diag: Diagram, intensity_max: float = 255.0, stats: NormalizationStats | None = None
) -> Diagram:
    """Scale coordinates to [0, 1] by intensity_max, then z-score with stats."""
    if np.any(diag.essential):
        raise ValueError("scale_normalize requires a finitized diagram")
    if stats is None:
        stats = NormalizationStats.identity()
    births = (diag.births / intensity_max - stats.mean[0]) / stats.std[0]
    deaths = (diag.deaths / intensity_max - stats.mean[1]) / stats.std[1]
    return Diagram(births, deaths, diag.dims, diag.essential)


def to_point_features(diag: Diagram, n_per_group: int = DEFAULT_N_PER_GROUP) -> np.ndarray:
    """Fixed-size (2*n_per_group, 5) matrix: H0 block then H1 block.

    Per group: points sorted by persistence descending (ties by birth
    ascending), truncated to n_per_group, padded with (0, 0) rows of
    presence 0. Row layout: (birth, death, onehot_H0, onehot_H1, presence);
    the group one-hot is set on padding rows too.
    """
    if np.any(diag.essential):
        raise ValueError("to_point_features requires a finitized diagram")
    out = np.zeros((2 * n_per_group, FEATURE_WIDTH))
    for g in (0, 1):
        block = out[g * n_per_group : (g + 1) * n_per_group]
        block[:, 2 + g] = 1.0
        sub = diag.select(g)
        if len(sub) == 0:
            continue
        pers = sub.deaths - sub.births
        order = np.lexsort((sub.births, -pers))[:n_per_group]
        k = len(order)
        block[:k, 0] = sub.births[order]
        block[:k, 1] = sub.deaths[order]
        block[:k, 4] = 1.0
    return out


# json's spelling of the float reprs it does not share with Python
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_POINT = (
    '  {\n   "birth": %s,\n   "death": %s,\n   "dim": %d,\n   "essential": %s\n  }'
)


def _json_floats(a: np.ndarray) -> list[str]:
    """Each float as json.dumps writes it."""
    text = list(map(repr, a.tolist()))
    if not np.all(np.isfinite(a)):
        text = [_JSON_SPECIAL.get(t, t) for t in text]
    return text


def write_diagram(path, diag: Diagram) -> None:
    """Serialize as JSON with canonical point ordering (lossless round trip).

    The text is the bytes ``json.dump({"points": [...]}, f, indent=1)`` writes
    for one {"birth", "death", "dim", "essential"} object per point, with a
    null death for essential points, followed by a newline.
    """
    d = diag.canonical()
    points = [
        _JSON_POINT % (b, "null" if e else dd, k, "true" if e else "false")
        for b, dd, k, e in zip(
            _json_floats(d.births), _json_floats(d.deaths), d.dims.tolist(), d.essential.tolist()
        )
    ]
    body = "[\n" + ",\n".join(points) + "\n ]" if points else "[]"
    with open(path, "w") as f:
        f.write('{\n "points": ' + body + "\n}\n")


def read_diagram(path) -> Diagram:
    """Read a diagram written by :func:`write_diagram`, enforcing invariants."""
    try:
        with open(path) as f:
            payload = json.load(f)
    except json.JSONDecodeError as e:
        raise DiagramFormatError(f"malformed diagram JSON: {e}") from e
    if not isinstance(payload, dict) or "points" not in payload:
        raise DiagramFormatError("diagram JSON missing 'points'")
    births, deaths, dims, ess = [], [], [], []
    for p in payload["points"]:
        b, d, k = p["birth"], p["death"], p["dim"]
        e = bool(p.get("essential", d is None))
        if not math.isfinite(b) or (d is not None and not math.isfinite(d)):
            raise DiagramFormatError("non-finite diagram coordinate")
        if not e and d is not None and d <= b:
            raise DiagramFormatError(f"death {d} <= birth {b}")
        if e != (d is None):
            raise DiagramFormatError("essential flag inconsistent with death field")
        if k not in (0, 1):
            raise DiagramFormatError(f"bad homology dimension {k}")
        births.append(b)
        deaths.append(math.nan if e else d)
        dims.append(k)
        ess.append(e)
    return Diagram(np.array(births), np.array(deaths), np.array(dims), np.array(ess))
