"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantity. Run with -s to see the report lines."""

import itertools
import time

import numpy as np
import pytest

from conftest import alive_counts, as_multiset, diagram_from_points
from cubical_reference import pair_h0_union_find
from grid_reference import betti_oracle, sublevel_mask
from tinynn_reference import check_gradient
from topogate import tinynn as nn
from topogate.cli import main as cli_main
from topogate.cubical import build_filtration, compute_persistence
from topogate.diagram import Diagram, to_point_features
from topogate.grid import SyntheticSample, generate_shapes, save_pgm
from topogate.model import (
    TrainConfig,
    backward,
    encode_pd,
    evaluate,
    forward,
    init_model,
    total_loss,
    train,
)
from topogate.pipeline import build_feature_dataset
from topogate.vectorize import (
    betti_curve,
    landscapes,
    persistence_image,
    silhouette,
)


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def random_diagram(rng, max_points=40):
    n = int(rng.integers(0, max_points))
    births = rng.random(n) * 200
    deaths = births + rng.random(n) * 55 + 1e-3
    dims = rng.integers(0, 2, n)
    return Diagram(births, deaths, dims)


def random_feature_matrix(rng, n_per_group=20):
    return to_point_features(random_diagram(rng), n_per_group)


def test_criterion_1_exhaustive_oracle_equivalence():
    """All 3x3 grids over {0,1,2}: reduction alive-counts match the oracle."""
    t0 = time.perf_counter()
    checked = 0
    for values in itertools.product(range(3), repeat=9):
        g = np.array(values).reshape(3, 3)
        filt = build_filtration(g)
        diag = compute_persistence(filt)
        for tau in (0, 1, 2):
            assert alive_counts(diag, tau) == betti_oracle(sublevel_mask(g, tau)), g
        # criterion 3 on the same inputs
        uf = as_multiset(pair_h0_union_find(filt))
        red = [p for p in as_multiset(diag) if p[2] == 0]
        assert uf == red, g
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 19683
    assert elapsed < 60.0
    report("criterion 1 (exhaustive oracle equivalence)", f"19683 grids x 3 thresholds in {elapsed:.1f}s")
    report("criterion 3a (H0 fast-path parity, exhaustive inputs)", "19683 grids exact")


def test_criterion_2_randomized_oracle_equivalence():
    """1000 random 16x16 8-bit grids at every distinct threshold."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        g = rng.integers(0, 256, size=(16, 16))
        filt = build_filtration(g)
        diag = compute_persistence(filt)
        for tau in np.unique(g):
            assert alive_counts(diag, tau) == betti_oracle(sublevel_mask(g, tau))
        uf = as_multiset(pair_h0_union_find(filt))
        red = [p for p in as_multiset(diag) if p[2] == 0]
        assert uf == red
    report("criterion 2 (randomized oracle equivalence)", "1000 grids, all distinct thresholds, exact")
    report("criterion 3b (H0 fast-path parity, randomized inputs)", "1000 grids exact")


def test_criterion_4_permutation_invariance():
    """1000 random preprocessed diagrams: encoder output identical under row permutation."""
    rng = np.random.default_rng(7)
    model = init_model(TrainConfig(seed=2))
    worst = 0.0
    for _ in range(1000):
        feats = random_feature_matrix(rng)
        t1, _ = encode_pd(feats, model.params)
        t2, _ = encode_pd(feats[rng.permutation(len(feats))], model.params)
        worst = max(worst, float(np.max(np.abs(t1 - t2), initial=0.0)))
        assert np.all(np.abs(t1 - t2) <= 1e-12)
    report("criterion 4 (permutation invariance)", f"1000 diagrams, max abs deviation {worst:.1e}")


def test_criterion_5_gradient_verification():
    """Every layer and the fused model (8x8 image, C=4, M=8) pass finite differences."""
    rng = np.random.default_rng(5)
    worst = 0.0

    # individual layers
    x, w, b = rng.standard_normal((4, 3)), rng.standard_normal((2, 3)), rng.standard_normal(2)
    dy = rng.standard_normal((4, 2))
    dx, dw, db = nn.linear_backward(x, w, dy)
    worst = max(worst, check_gradient(lambda v: np.sum(nn.linear_forward(v, w, b) * dy), x, dx))
    worst = max(worst, check_gradient(lambda v: np.sum(nn.linear_forward(x, v, b) * dy), w, dw))
    xa = rng.standard_normal(6) + 0.05
    dya = rng.standard_normal(6)
    worst = max(worst, check_gradient(
        lambda v: np.sum(nn.relu_forward(v) * dya), xa, nn.relu_backward(xa, dya)))
    ys = nn.sigmoid_forward(xa)
    worst = max(worst, check_gradient(
        lambda v: np.sum(nn.sigmoid_forward(v) * dya), xa, nn.sigmoid_backward(ys, dya)))
    pts = rng.standard_normal((5, 4))
    dyp = rng.standard_normal(4)
    _, arg = nn.set_max_pool_forward(pts)
    worst = max(worst, check_gradient(
        lambda v: np.sum(nn.set_max_pool_forward(v)[0] * dyp),
        pts, nn.set_max_pool_backward(pts.shape, arg, dyp)))
    logits = rng.standard_normal(5)
    _, dlog = nn.softmax_cross_entropy(logits, 2)
    worst = max(worst, check_gradient(lambda v: nn.softmax_cross_entropy(v, 2)[0], logits, dlog))
    xc = rng.standard_normal((4, 4, 2))
    wc, bc = rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3)
    dyc = rng.standard_normal((4, 4, 3))
    _, patches = nn.conv3x3_forward(xc, wc, bc)
    dxc, dwc, dbc = nn.conv3x3_backward(xc, wc, patches, dyc)
    worst = max(worst, check_gradient(lambda v: np.sum(nn.conv3x3_forward(v, wc, bc)[0] * dyc), xc, dxc))
    worst = max(worst, check_gradient(lambda v: np.sum(nn.conv3x3_forward(xc, v, bc)[0] * dyc), wc, dwc))

    # fused model at the stated scale
    model = init_model(TrainConfig(channels=(4, 4), m_dim=8, n_classes=3, seed=6))
    img = np.random.default_rng(8).random((8, 8))
    feats = random_feature_matrix(np.random.default_rng(9), n_per_group=5)

    def loss_of():
        lv, lt, cache = forward(model, img, feats)
        loss, dv, dt = total_loss(lv, lt, 1, 0.1)
        return loss, dv, dt, cache

    _, dv, dt, cache = loss_of()
    grads = backward(model, cache, dv, dt)
    assert set(grads) == set(model.params)
    for name in sorted(grads):
        worst = max(worst, check_gradient(lambda _: loss_of()[0], model.params[name], grads[name]))
    report("criterion 5 (gradient verification)", f"all layers + fused model, max rel err {worst:.1e} < 1e-4")


def test_criterion_6_vectorizer_closed_forms():
    d = diagram_from_points([(0, 2, 0)])
    d2 = diagram_from_points([(0, 2, 0), (1, 3, 0)])
    assert abs(landscapes(d, 1, [1.0])[0, 0] - 1.0) <= 1e-12
    assert abs(landscapes(d, 1, [0.5])[0, 0] - 0.5) <= 1e-12
    assert np.all(landscapes(d, 2, np.linspace(0, 2, 16))[:, 1] == 0)
    assert abs(silhouette(d2, 1, [1.5])[0] - 0.5) <= 1e-12
    assert abs(betti_curve(d2, [1.5])[0] - 2) <= 1e-12
    assert abs(betti_curve(d2, [2.5])[0] - 1) <= 1e-12
    expected = 2.0 / (2 * np.pi * 0.01)
    got = persistence_image(d, 1, (-0.5, 0.5), (1.5, 2.5), 0.1)[0, 0]
    assert abs(got - expected) <= 1e-12 * expected
    report("criterion 6 (vectorizer closed forms)", "landscape/silhouette/betti/image analytic values to 1e-12")


@pytest.fixture(scope="module")
def synthetic_split():
    train_samples = generate_shapes(seed=100, n=600, size=64)
    test_samples = generate_shapes(seed=101, n=200, size=64)
    ds_tr, stats = build_feature_dataset(train_samples)
    ds_te, _ = build_feature_dataset(test_samples, stats=stats)
    return ds_tr, ds_te


@pytest.mark.slow
def test_criterion_7_synthetic_topology_task(synthetic_split):
    """PD-only >= 90% accuracy; stub+PHG mean accuracy >= bare stub over 5 seeds."""
    t0 = time.perf_counter()
    ds_tr, ds_te = synthetic_split

    cfg = TrainConfig(mode="pd_only", epochs=20, lr=3e-3, batch_size=16, seed=0, n_classes=3)
    model, _ = train(ds_tr, cfg)
    pd_acc = evaluate(model, ds_te)["accuracy"]
    assert pd_acc >= 0.90

    fused_accs, plain_accs = [], []
    for seed in range(5):
        for mode, accs in [("full", fused_accs), ("vision_only", plain_accs)]:
            cfg = TrainConfig(mode=mode, epochs=10, lr=3e-3,
                              batch_size=16, seed=seed, n_classes=3)
            model, _ = train(ds_tr, cfg)
            accs.append(evaluate(model, ds_te)["accuracy"])
    elapsed = time.perf_counter() - t0
    assert np.mean(fused_accs) >= np.mean(plain_accs)
    report(
        "criterion 7 (synthetic topology task)",
        f"PD-only acc {pd_acc:.3f} >= 0.90; per-seed fused {fused_accs} vs plain {plain_accs}; "
        f"means {np.mean(fused_accs):.3f} >= {np.mean(plain_accs):.3f}; {elapsed:.0f}s",
    )


def test_criterion_8_preprocessing_contract():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = rng.integers(0, 256, size=(24, 24))
        (_, feats, _), = build_feature_dataset([SyntheticSample(g, 0)])[0]
        assert feats.shape == (300, 5)
    for _ in range(1000):
        d = random_diagram(rng)
        m = to_point_features(d, 150)
        assert m.shape == (300, 5)
        n_real = min(150, int(np.sum(d.dims == 0))) + min(150, int(np.sum(d.dims == 1)))
        assert int(m[:, 4].sum()) == n_real
        pad = m[m[:, 4] == 0]
        assert np.all(pad[:, :2] == 0)
        assert np.all(m[:150, 2] == 1) and np.all(m[150:, 3] == 1)
    report("criterion 8 (preprocessing contract)", "300x5 matrices; padding/presence honest on 1000 diagrams")


def test_criterion_9_throughput_budget():
    rng = np.random.default_rng(3)
    image = rng.integers(0, 256, size=(224, 224)).astype(np.uint8)
    # warm-up on a small input so first-call allocation noise is excluded
    compute_persistence(build_filtration(image[:16, :16]))
    t0 = time.perf_counter()
    diag = compute_persistence(build_filtration(image))
    elapsed = time.perf_counter() - t0
    assert len(diag) > 0
    assert elapsed < 1.0
    report("criterion 9 (throughput budget)", f"224x224 diagram in {elapsed:.2f}s < 1s")


def test_criterion_10_determinism(tmp_path):
    ds = tmp_path / "ds"
    assert cli_main(["gen", "--seed", "5", "--n", "6", "--size", "48", "--out", str(ds)]) == 0
    outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert cli_main(["compute", "--input", str(ds), "--out", str(out)]) == 0
        outs.append(out)
    for f in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
    runs = []
    for name in ("r1", "r2"):
        run_dir = tmp_path / name
        assert cli_main(["train", "--data", str(ds), "--out", str(run_dir), "--mode",
                         "pd_only", "--epochs", "2", "--batch-size", "4",
                         "--n-per-group", "8"]) == 0
        runs.append(run_dir)
    for f in ("manifest.json", "params.bin", "history.json"):
        assert (runs[0] / f).read_bytes() == (runs[1] / f).read_bytes()
    report("criterion 10 (determinism)", "compute and train artifacts byte-identical across runs")
