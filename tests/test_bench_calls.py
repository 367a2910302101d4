"""perfbench/workloads.py drives topogate through its public calls; this test
makes those calls, as the benchmark spells them, so that a change which breaks
one fails here and not only in a benchmark run."""

import importlib.util
import os

from topogate import model
from topogate.grid import generate_shapes
from topogate.pipeline import build_feature_dataset

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_calls_bind(tmp_path):
    workloads = load_workloads()
    config = workloads.train_config(seed=3, epochs=1, batch_size=3)  # passes use_phg=True
    assert config.mode == "full"
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
