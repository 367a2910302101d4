"""Persistence diagrams and the preprocessing pipeline that turns them into
fixed-size point-feature matrices for the set encoder."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import FormatError, finite_number, read_json

__all__ = [
    "Diagram",
    "NormalizationStats",
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


@dataclass(frozen=True)
class Diagram:
    """Multiset of (birth, death, homology dimension) points.

    A point is essential (a feature that never dies) exactly when its death
    is NaN; deaths are made finite only via :func:`finitize`.
    """

    births: np.ndarray  # float64
    deaths: np.ndarray  # float64, NaN where essential
    dims: np.ndarray  # int8, 0 or 1

    def __post_init__(self):
        object.__setattr__(self, "births", np.asarray(self.births, dtype=np.float64))
        object.__setattr__(self, "deaths", np.asarray(self.deaths, dtype=np.float64))
        object.__setattr__(self, "dims", np.asarray(self.dims, dtype=np.int8))
        if not (len(self.deaths) == len(self.dims) == len(self.births)):
            raise ValueError("diagram arrays must have equal length")
        # death > birth is enforced at construction from raw persistence and at
        # deserialization; normalized diagrams may legitimately violate it

    @property
    def essential(self) -> np.ndarray:
        return np.isnan(self.deaths)

    def __len__(self) -> int:
        return len(self.births)

    def _take(self, rows) -> "Diagram":
        return Diagram(self.births[rows], self.deaths[rows], self.dims[rows])

    def canonical(self) -> "Diagram":
        """Deterministically sorted copy: by (dim, essential-last, birth, death)."""
        essential = self.essential
        death_key = np.where(essential, np.inf, self.deaths)
        return self._take(np.lexsort((death_key, self.births, essential, self.dims)))

    def select(self, dim: int) -> "Diagram":
        return self._take(self.dims == dim)


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
    def from_diagrams(cls, diagrams, intensity_max: float) -> "NormalizationStats":
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
    essential = diag.essential
    finite_deaths = diag.deaths[~essential]
    if len(finite_deaths) and max_value < finite_deaths.max():
        raise ValueError(
            f"max_value {max_value} is below finite death {finite_deaths.max()}"
        )
    if len(diag.births) and max_value < diag.births.max():
        raise ValueError(f"max_value {max_value} is below a birth value")
    deaths = np.where(essential, float(max_value), diag.deaths)
    # finitization may create zero-persistence points; drop them
    keep = deaths > diag.births
    return Diagram(diag.births[keep], deaths[keep], diag.dims[keep])


def filter_persistence(diag: Diagram, min_pers: float) -> Diagram:
    """Keep exactly the points with death - birth >= min_pers (raw units)."""
    if np.any(diag.essential):
        raise ValueError("filter_persistence requires a finitized diagram")
    return diag._take((diag.deaths - diag.births) >= min_pers)


def scale_normalize(diag: Diagram, intensity_max: float, stats: NormalizationStats) -> Diagram:
    """Scale coordinates to [0, 1] by intensity_max, then z-score with stats."""
    if np.any(diag.essential):
        raise ValueError("scale_normalize requires a finitized diagram")
    births = (diag.births / intensity_max - stats.mean[0]) / stats.std[0]
    deaths = (diag.deaths / intensity_max - stats.mean[1]) / stats.std[1]
    return Diagram(births, deaths, diag.dims)


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
    """Read a diagram written by :func:`write_diagram`, enforcing invariants.

    Raises FormatError naming the file unless it is JSON with a
    "points" list of objects, each with a finite numeric "birth", a finite
    numeric "death" above it (null for an essential point) with a finite
    persistence death - birth, and a "dim" of 0 or 1.
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or "points" not in payload:
        raise FormatError(f"{path}: diagram JSON missing 'points'")
    if not isinstance(payload["points"], list):
        raise FormatError(f"{path}: 'points' must be a list")
    births, deaths, dims = [], [], []
    for i, p in enumerate(payload["points"]):
        if not isinstance(p, dict):
            raise FormatError(f"{path}: point {i} is not an object")
        missing = {"birth", "death", "dim"} - p.keys()
        if missing:
            raise FormatError(f"{path}: point {i} lacks {', '.join(sorted(missing))}")
        b, d, k = p["birth"], p["death"], p["dim"]
        if not all(map(finite_number, [b] if d is None else [b, d])):
            raise FormatError(f"{path}: point {i} has a non-numeric or non-finite coordinate")
        e = bool(p.get("essential", d is None))
        if not e and d is not None and not (d > b and finite_number(d - b)):
            raise FormatError(f"{path}: point {i}: death {d} - birth {b} must be > 0 and finite")
        if e != (d is None):
            raise FormatError(f"{path}: essential flag inconsistent with death field")
        if isinstance(k, bool) or k not in (0, 1):
            raise FormatError(f"{path}: bad homology dimension {k}")
        births.append(b)
        deaths.append(math.nan if e else d)
        dims.append(k)
    return Diagram(np.array(births), np.array(deaths), np.array(dims))
