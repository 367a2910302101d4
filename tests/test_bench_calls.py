"""perfbench/workloads.py drives topogate through its public calls, and
perfbench/spans.py counts what some of them return; these tests make those
calls and take those counts as the benchmark spells them, so that a change
which breaks one fails here and not only in a benchmark run."""

import importlib.util
import os

import numpy as np
import pytest

from topogate import model
from topogate.cubical import build_filtration, compute_persistence
from topogate.grid import generate_shapes
from topogate.pipeline import build_feature_dataset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def load_perfbench(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_calls_bind(tmp_path):
    workloads = load_perfbench("workloads")
    config = workloads.train_config(seed=3, epochs=1, batch_size=3)  # passes use_phg=True
    assert config == model.TrainConfig(seed=3, epochs=1, batch_size=3)  # what the CLI trains
    dataset, stats = build_feature_dataset(
        generate_shapes(seed=3, n=6, size=32), n_per_group=workloads.N_PER_GROUP
    )
    built = model.init_model(config)
    model.save_checkpoint(tmp_path / "ck", built, config, stats)
    loaded, config, stats = model.load_checkpoint(tmp_path / "ck")
    metrics = model.evaluate(loaded, dataset, config.mode)
    assert set(metrics) == {"accuracy", "auc", "sensitivity", "specificity"}
    image, feats, _ = dataset[0]
    t, _ = model.encode_pd(feats, loaded.params, loaded.encoder_prefix(0))
    assert t.shape == (config.m_dim,)


@pytest.mark.parametrize("h,w", [(1, 1), (1, 9), (5, 7), (64, 64)])
def test_benchmark_counters(h, w):
    """The counts perfbench's tracer takes at the cubical span boundaries."""
    observe = load_perfbench("spans")._observe
    g = np.random.default_rng(h * w).integers(0, 256, size=(h, w))
    filt = build_filtration(g)
    assert observe("cubical.build_filtration", filt, (g,), {}) == {
        "cubical.cells": (2 * h - 1) * (2 * w - 1)
    }
    diagram = compute_persistence(filt)
    assert observe("cubical.compute_persistence", diagram, (filt,), {}) == {
        "cubical.points_raw": len(diagram)
    }
