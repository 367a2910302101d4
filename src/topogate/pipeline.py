"""End-to-end preprocessing chain: image -> persistence diagram -> fixed-size
point-feature matrix, with training-split normalization statistics."""

from __future__ import annotations

from .cubical import grid_persistence
from .diagram import (
    DEFAULT_N_PER_GROUP,
    Diagram,
    NormalizationStats,
    filter_persistence,
    finitize,
    scale_normalize,
    to_point_features,
)

__all__ = ["preprocess_diagram", "build_feature_dataset"]

DEFAULT_MIN_PERS = 10.0
DEFAULT_INTENSITY_MAX = 255.0


def preprocess_diagram(
    diag: Diagram,
    intensity_max: float = DEFAULT_INTENSITY_MAX,
    min_pers: float = DEFAULT_MIN_PERS,
) -> Diagram:
    """Finitize essential deaths at intensity_max, then drop low persistence."""
    return filter_persistence(finitize(diag, intensity_max), min_pers)


def build_feature_dataset(
    samples,
    stats: NormalizationStats | None = None,
    n_per_group: int = DEFAULT_N_PER_GROUP,
):
    """Turn SyntheticSamples into (image, features, label) triples.

    Each image's diagram is finitized at DEFAULT_INTENSITY_MAX, filtered at
    DEFAULT_MIN_PERS, scaled and normalized, and cut or padded to a
    (2 * n_per_group, 5) point-feature matrix. When stats is None,
    normalization statistics are fit on these samples (training split) and
    returned alongside the dataset.
    """
    diagrams = [preprocess_diagram(grid_persistence(s.image)) for s in samples]
    if stats is None:
        stats = NormalizationStats.from_diagrams(diagrams, DEFAULT_INTENSITY_MAX)
    dataset = [
        (
            s.image,
            to_point_features(scale_normalize(d, DEFAULT_INTENSITY_MAX, stats), n_per_group),
            s.label,
        )
        for s, d in zip(samples, diagrams)
    ]
    return dataset, stats
