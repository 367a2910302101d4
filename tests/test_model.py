import json
import math
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest

import tinynn_reference as ref
from topogate import model as modelmod
from topogate import tinynn as nn
from topogate.diagram import NormalizationStats
from topogate.grid import generate_shapes
from topogate.model import (
    PHGModel,
    TrainConfig,
    backward,
    encode_pd,
    evaluate,
    forward,
    gate_forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    train,
)
from topogate.pipeline import build_feature_dataset


# one config value each that TrainConfig refuses: a rule, a type or a NaN
BAD_CONFIG_VALUES = [("ratio", 0), ("n_per_group", -3), ("n_per_group", 1.5), ("mode", "bogus"),
                     ("share_encoder", "no"), ("lr", math.nan), ("seed", -1), ("n_classes", 1)]


def _overwrite_param(blob, index, value):
    """Set the index-th float64 of a params.bin in place; every other byte stays."""
    data = bytearray(blob.read_bytes())
    data[8 * index : 8 * index + 8] = np.array([value], dtype="<f8").tobytes()
    blob.write_bytes(bytes(data))


def small_config(**kw):
    defaults = dict(channels=(4, 4), m_dim=8, n_per_group=4, n_classes=3, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


def random_features(rng, n_rows=8, n_real=5):
    feats = np.zeros((n_rows, 5))
    order = rng.permutation(n_rows)[:n_real]
    feats[order, 0] = rng.random(n_real)
    feats[order, 1] = feats[order, 0] + rng.random(n_real) + 0.05
    feats[order, 4] = 1.0
    h0 = rng.random(n_rows) < 0.5
    feats[:, 2] = h0
    feats[:, 3] = ~h0
    return feats


class TestEncodePd:
    def test_permutation_invariance(self, rng):
        model = init_model(small_config())
        feats = random_features(rng)
        t1, _ = encode_pd(feats, model.params)
        t2, _ = encode_pd(feats[rng.permutation(len(feats))], model.params)
        assert np.array_equal(t1, t2)

    def test_all_padding_gives_zero(self):
        model = init_model(small_config())
        t, _ = encode_pd(np.zeros((6, 5)), model.params)
        assert np.array_equal(t, np.zeros(8))

    def test_duplicates_idempotent(self, rng):
        model = init_model(small_config())
        row = np.array([[0.1, 0.9, 1.0, 0.0, 1.0]])
        t1, _ = encode_pd(row, model.params)
        t9, _ = encode_pd(np.tile(row, (9, 1)), model.params)
        # BLAS may pick different kernels for 1-row vs 9-row matmuls
        assert np.allclose(t1, t9, atol=1e-12, rtol=0)


class TestGate:
    def test_zero_params_give_half(self):
        model = init_model(small_config())
        for name in model.params:
            if name.startswith("gate0"):
                model.params[name][:] = 0.0
        g, _ = gate_forward(np.ones(8), model.params, "gate0")
        assert np.all(g == 0.5)

    def test_output_in_unit_interval(self, rng):
        model = init_model(small_config())
        for _ in range(10):
            g, _ = gate_forward(rng.standard_normal(8) * 3, model.params, "gate0")
            assert np.all((g > 0) & (g < 1))


class TestForward:
    def test_deterministic(self, rng):
        model = init_model(small_config())
        img = rng.random((8, 8))
        feats = random_features(rng)
        lv1, lt1, _ = forward(model, img, feats)
        lv2, lt2, _ = forward(model, img, feats)
        assert np.array_equal(lv1, lv2) and np.array_equal(lt1, lt2)

    def test_full_model_gradients(self, rng):
        """Every parameter of the fused model passes finite differences."""
        model = init_model(small_config())
        img = rng.random((8, 8))
        feats = random_features(rng)
        label, alpha = 1, 0.1

        def loss_of():
            lv, lt, cache = forward(model, img, feats)
            loss, dv, dt = total_loss(lv, lt, label, alpha)
            return loss, dv, dt, cache

        loss, dv, dt, cache = loss_of()
        grads = backward(model, cache, dv, dt)
        assert set(grads) == set(model.params)
        for name in sorted(grads):
            ref.check_gradient(lambda _: loss_of()[0], model.params[name], grads[name])

    def test_unshared_encoder_gradients(self, rng):
        model = init_model(small_config(share_encoder=False))
        img = rng.random((8, 8))
        feats = random_features(rng)

        def loss_of():
            lv, lt, cache = forward(model, img, feats)
            loss, dv, dt = total_loss(lv, lt, 0, 0.5)
            return loss, dv, dt, cache

        _, dv, dt, cache = loss_of()
        grads = backward(model, cache, dv, dt)
        for name in sorted(grads):
            ref.check_gradient(lambda _: loss_of()[0], model.params[name], grads[name])


    @pytest.mark.parametrize("share", [True, False])
    def test_pd_only_gradients(self, rng, share):
        model = init_model(small_config(mode="pd_only", share_encoder=share))
        feats = random_features(rng)

        def loss_of():
            lv, lt, cache = forward(model, None, feats)  # no vision stub reads the image
            loss, _, dlogits = total_loss(lv, lt, 2, 0.1)
            return (loss, dlogits), cache

        (_, dlogits), cache = loss_of()
        grads = backward(model, cache, None, dlogits)
        prefix = model.encoder_prefix(0)
        assert set(grads) == {n for n in model.params if n.startswith((f"{prefix}.", "thead."))}
        for name in sorted(grads):
            ref.check_gradient(lambda _: loss_of()[0][0], model.params[name], grads[name])

    def test_vision_only_never_uses_phg(self, rng):
        model = init_model(TrainConfig(mode="vision_only"))
        assert not any(n.startswith(("enc", "gate", "thead")) for n in model.params)
        _, logits_t, cache = forward(model, rng.random((8, 8)), random_features(rng))
        assert "enc_cache0" not in cache and logits_t is None


BRANCHES = {
    "full": {"conv1", "conv2", "vhead", "enc", "gate0", "gate1", "thead"},
    "vision_only": {"conv1", "conv2", "vhead"},
    "pd_only": {"enc", "thead"},
}


class TestModes:
    @pytest.mark.parametrize("mode", sorted(BRANCHES))
    def test_mode_holds_its_branches(self, mode):
        model = init_model(small_config(mode=mode))
        assert {n.split(".")[0] for n in model.params} == BRANCHES[mode]

    @pytest.mark.parametrize("share", [True, False], ids=["shared", "unshared"])
    @pytest.mark.parametrize("mode", ["vision_only", "pd_only"])
    def test_kept_arrays_equal_full_models(self, mode, share):
        full = init_model(small_config(share_encoder=share)).params
        kept = init_model(small_config(mode=mode, share_encoder=share)).params
        for name, a in kept.items():
            # pd_only's one encoder draws first from the encoder stream, as enc0 does
            twin = name.replace("enc.", "enc0.") if name not in full else name
            assert a.tobytes() == full[twin].tobytes(), name

    def test_pd_only_unshared_names_its_encoder_enc(self):
        shared = init_model(small_config(mode="pd_only")).params
        unshared = init_model(small_config(mode="pd_only", share_encoder=False))
        assert unshared.share_encoder and unshared.encoder_prefix(1) == "enc"
        assert sorted(unshared.params) == sorted(shared)

    def test_use_phg_is_init_only(self):
        assert len(fields(TrainConfig)) == 12
        for mode in BRANCHES:
            config = TrainConfig(mode=mode, use_phg=mode != "vision_only")
            assert config == TrainConfig(mode=mode) and "use_phg" not in asdict(config)
            with pytest.raises(ValueError, match="contradicts mode"):
                TrainConfig(mode=mode, use_phg=mode == "vision_only")


class TestConfigRules:
    @pytest.mark.parametrize("field,value", BAD_CONFIG_VALUES + [
        ("epochs", True), ("alpha", math.inf), ("channels", [4, 4]),
    ], ids=lambda v: str(v))
    def test_bad_value_names_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            small_config(**{field: value})

    def test_float_field_takes_an_int(self):
        assert small_config(lr=1, alpha=0).lr == 1


class TestTotalLoss:
    def test_alpha_weighting(self):
        # CE_v = 1.0 and CE_topo = 2.0 with alpha 0.1 gives 1.2
        lv = np.array([0.0, np.log(np.e - 1)])  # CE = 1 for label 0... constructed below
        # simpler: build logits with known CE values
        lv = np.array([np.log(1 / np.e), 0.0])  # softmax -> e^-1/(e^-1+1)
        # use direct construction instead: CE(label 0) = -log p0
        pv = np.array([np.exp(-1.0), 1 - np.exp(-1.0)])
        lt = np.log(np.array([np.exp(-2.0), 1 - np.exp(-2.0)]))
        loss, _, _ = total_loss(np.log(pv), lt, 0, 0.1)
        assert loss == pytest.approx(1.0 + 0.1 * 2.0)

    def test_alpha_zero_is_vision_only(self, rng):
        lv, lt = rng.standard_normal(3), rng.standard_normal(3)
        loss, _, dt = total_loss(lv, lt, 1, 0.0)
        vision_loss, _ = nn.softmax_cross_entropy(lv, 1)
        assert loss == pytest.approx(vision_loss) and not dt.any()

    def test_uniform_both_branches(self):
        loss, _, _ = total_loss(np.zeros(4), np.zeros(4), 2, 0.1)
        assert loss == pytest.approx(1.1 * np.log(4))


def tiny_dataset(seed, n=18, size=32):
    samples = generate_shapes(seed=seed, n=n, size=size)
    return build_feature_dataset(samples, n_per_group=8)


class TestTraining:
    def test_baseline_equivalence(self, monkeypatch):
        """alpha=0 with gates held at 1 reproduces the bare vision stub."""
        ds, _ = tiny_dataset(seed=11)
        common = dict(epochs=2, lr=1e-3, batch_size=4, seed=3, n_per_group=8)
        fused = small_config(alpha=0.0, **common)
        plain = small_config(mode="vision_only", **common)
        m2, _ = train(ds, plain)
        gate_forward = modelmod.gate_forward

        def ones_gate(t, params, prefix):
            g, (mlp_cache, _) = gate_forward(t, params, prefix)
            ones = np.ones_like(g)
            return ones, (mlp_cache, ones)

        monkeypatch.setattr(modelmod, "gate_forward", ones_gate)
        m1, _ = train(ds, fused)
        for name in m2.params:
            if name.startswith(("conv", "vhead")):
                assert np.array_equal(m1.params[name], m2.params[name]), name

    @pytest.mark.parametrize("kw", [
        {}, {"mode": "pd_only"}, {"mode": "vision_only"},
    ], ids=["full", "pd_only", "vision_only"])
    def test_training_matches_reference_kernels(self, monkeypatch, kw):
        """Byte-equal params and history with the kernels of tests/tinynn_reference.py."""
        ds, _ = tiny_dataset(seed=14, n=9)
        cfg = small_config(epochs=2, lr=1e-2, batch_size=4, seed=2, n_per_group=8, **kw)
        runs = [train(ds, cfg)]
        monkeypatch.setattr(nn, "linear_forward", ref.linear_forward)
        monkeypatch.setattr(nn, "conv3x3_forward", ref.conv3x3_forward)
        monkeypatch.setattr(nn, "conv3x3_backward", ref.conv3x3_backward)
        monkeypatch.setattr(nn, "maxpool2x2_forward", ref.maxpool2x2_forward)
        # the reference computes block 1's image gradient too, and drops it
        monkeypatch.setattr(nn, "conv3x3_param_backward", lambda w, patches, dy: ref.conv3x3_backward(
            np.empty(dy.shape[:2] + w.shape[1:2]), w, patches, dy)[1:])
        runs.append(train(ds, cfg))
        (m1, h1), (m2, h2) = runs
        assert json.dumps(h1) == json.dumps(h2)
        assert sorted(m1.params) == sorted(m2.params)
        for name in m1.params:
            assert m1.params[name].tobytes() == m2.params[name].tobytes(), name

    def test_training_determinism(self):
        ds, _ = tiny_dataset(seed=12)
        cfg = small_config(epochs=2, lr=1e-3, batch_size=4, seed=5, n_per_group=8)
        m1, h1 = train(ds, cfg)
        m2, h2 = train(ds, cfg)
        assert h1 == h2
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_loss_trend_decreasing(self):
        ds, _ = tiny_dataset(seed=13, n=30)
        cfg = small_config(mode="pd_only", m_dim=32, epochs=12, lr=3e-3, batch_size=8, n_per_group=8)
        _, history = train(ds, cfg)
        losses = [h["train_loss"] for h in history]
        ema = losses[0]
        emas = []
        for v in losses:
            ema = 0.7 * ema + 0.3 * v
            emas.append(ema)
        assert emas[-1] < emas[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], small_config())

    def test_label_range_checked(self):
        ds, _ = tiny_dataset(seed=14, n=6)
        bad = [(img, f, 7) for img, f, _ in ds]
        with pytest.raises(ValueError, match="label"):
            train(bad, small_config())


class TestEvaluate:
    def test_perfect_predictor_metrics(self):
        """A model evaluated via hand-built probabilities is bypassed here by
        training to memorization on a trivially separable split."""
        ds, _ = tiny_dataset(seed=15, n=18)
        cfg = small_config(mode="pd_only", m_dim=32, epochs=40, lr=1e-2, batch_size=4, n_per_group=8)
        model, _ = train(ds, cfg)
        metrics = evaluate(model, ds, "pd_only")
        assert metrics["accuracy"] == 1.0
        assert metrics["sensitivity"] == 1.0
        assert metrics["specificity"] == 1.0
        assert metrics["auc"] == 1.0

    def test_constant_predictor_on_balanced_two_class(self, rng):
        model = init_model(small_config(n_classes=2, mode="vision_only"))
        # kill the head so logits are constant; class 0 wins every argmax
        for name in ("vhead.w", "vhead.b"):
            model.params[name][:] = 0.0
        model.params["vhead.b"][0] = 1.0
        ds = [(rng.integers(0, 256, (8, 8)).astype(np.uint8), np.zeros((8, 5)), i % 2)
              for i in range(20)]
        metrics = evaluate(model, ds)
        assert metrics["accuracy"] == 0.5

    def test_missing_class_rejected(self, rng):
        model = init_model(small_config())
        ds = [(rng.integers(0, 256, (8, 8)).astype(np.uint8), np.zeros((8, 5)), 0)]
        with pytest.raises(ValueError, match="missing"):
            evaluate(model, ds)

    def test_peak_memory_is_one_forward(self, rng):
        # each forward's cache must be freed before the next forward runs
        model = init_model(small_config(channels=(8, 8)))
        ds = [(rng.integers(0, 256, (48, 48)).astype(np.uint8), random_features(rng), i % 3)
              for i in range(6)]
        img = ds[0][0] / 255.0
        tracemalloc.start()
        try:
            forward(model, img, ds[0][1])
            one = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            evaluate(model, ds)
            six = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert six < 1.5 * one, (six, one)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        cfg = small_config()
        model = init_model(cfg)
        stats = NormalizationStats(np.array([0.1, 0.2]), np.array([0.5, 0.6]))
        save_checkpoint(tmp_path / "ck", model, cfg, stats)
        loaded, cfg2, stats2 = load_checkpoint(tmp_path / "ck")
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
        assert cfg2 == cfg
        assert np.array_equal(stats2.mean, stats.mean)
        img = rng.random((8, 8))
        feats = random_features(rng)
        lv1, lt1, _ = forward(model, img, feats)
        lv2, lt2, _ = forward(loaded, img, feats)
        assert np.array_equal(lv1, lv2) and np.array_equal(lt1, lt2)

    @pytest.mark.parametrize("share", [True, False])
    def test_roundtrip_keeps_sizes(self, tmp_path, share):
        cfg = small_config(channels=(4, 6), m_dim=5, n_classes=4, share_encoder=share)
        model = init_model(cfg)
        save_checkpoint(tmp_path / "ck", model, cfg, NormalizationStats.identity())
        loaded, _, _ = load_checkpoint(tmp_path / "ck")
        for m in (model, loaded):
            p = m.params
            sizes = (p["thead.l1.w"].shape[1], p["conv1.b"].shape[0], p["conv2.b"].shape[0])
            assert (m.n_classes, sizes, m.share_encoder) == (4, (5, 4, 6), share)

    @pytest.mark.parametrize("mode,share", [
        ("vision_only", True), ("pd_only", True), ("pd_only", False),
    ], ids=["vision_only", "pd_only", "pd_only-unshared"])
    def test_roundtrip_every_mode(self, tmp_path, rng, mode, share):
        cfg = small_config(mode=mode, share_encoder=share)
        model = init_model(cfg)
        save_checkpoint(tmp_path / "ck", model, cfg, NormalizationStats.identity())
        loaded, cfg2, _ = load_checkpoint(tmp_path / "ck")
        assert cfg2 == cfg and sorted(loaded.params) == sorted(model.params)
        for name in model.params:
            assert loaded.params[name].tobytes() == model.params[name].tobytes(), name
        img, feats = rng.random((8, 8)), random_features(rng)
        for a, b in zip(forward(model, img, feats)[:2], forward(loaded, img, feats)[:2]):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("corrupt,says", [
        (lambda ck: (ck / "params.bin").write_bytes((ck / "params.bin").read_bytes()[:-8]),
         "params.bin"),
        (lambda ck: (ck / "params.bin").write_bytes((ck / "params.bin").read_bytes() + b"\0" * 8),
         "params.bin"),
        (lambda ck: (ck / "manifest.json").write_text(
            (ck / "manifest.json").read_text().replace('"format": 3', '"format": 1')),
         "manifest.json: unsupported format 1"),
        (lambda ck: (ck / "manifest.json").write_text(
            (ck / "manifest.json").read_text().replace('"format": 3', '"format": 2')),
         "manifest.json: unsupported format 2; .* retrain"),
        # the config builds the names and sizes the blob is read as
        (lambda ck: (ck / "manifest.json").write_text(
            (ck / "manifest.json").read_text().replace('"mode": "full"', '"mode": "pd_only"')),
         "params.bin"),
        *[(lambda ck, v=v: _overwrite_param(ck / "params.bin", 5, v),
           "params.bin: holds a NaN or infinite parameter") for v in (math.nan, math.inf, -math.inf)],
    ], ids=["truncated", "overlong", "format1", "format2", "mode-edited",
            "nan-param", "inf-param", "neg-inf-param"])
    def test_malformed_checkpoint_rejected(self, tmp_path, corrupt, says):
        cfg = small_config()
        save_checkpoint(tmp_path / "ck", init_model(cfg), cfg, NormalizationStats.identity())
        corrupt(tmp_path / "ck")
        with pytest.raises(ValueError, match=says):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("edit,says", [
        (lambda m: "not json", "not JSON"),
        (lambda m: "[1, 2]", "not a JSON object"),
        (lambda m: json.dumps({k: v for k, v in m.items() if k != "config"}), "missing config"),
        (lambda m: json.dumps({k: v for k, v in m.items() if k != "stats"}), "missing stats"),
        (lambda m: json.dumps({**m, "config": {**m["config"], "dropout": 0.5}}), "TrainConfig"),
        (lambda m: json.dumps({**m, "config": {**m["config"], "use_phg": True}}), "TrainConfig"),
        (lambda m: json.dumps({**m, "stats": {**m["stats"], "mean": [0.0]}}), "2 numbers"),
        (lambda m: json.dumps({**m, "stats": {**m["stats"], "std": [1.0, "x"]}}), "2 numbers"),
        (lambda m: json.dumps({**m, "stats": {**m["stats"], "mean": [math.nan, 0.0]}}), "finite"),
        (lambda m: json.dumps({**m, "stats": {**m["stats"], "std": [0, -1]}}), "std above 0"),
        *[(lambda m, k=k, v=v: json.dumps({**m, "config": {**m["config"], k: v}}),
           f"config does not build a model: {k} ") for k, v in BAD_CONFIG_VALUES],
    ], ids=["not-json", "array", "no-config", "no-stats", "extra-config-key",
            "use-phg-config-key", "short-mean", "text-std", "nan-mean", "std-not-positive",
            *[f"config-{k}-{v}" for k, v in BAD_CONFIG_VALUES]])
    def test_malformed_manifest_rejected(self, tmp_path, edit, says):
        cfg = small_config()
        save_checkpoint(tmp_path / "ck", init_model(cfg), cfg, NormalizationStats.identity())
        path = tmp_path / "ck" / "manifest.json"
        path.write_text(edit(json.loads(path.read_text())))
        with pytest.raises(ValueError, match=f"manifest.json: .*{says}"):
            load_checkpoint(tmp_path / "ck")

    def test_config_that_builds_no_model_rejected(self, tmp_path):
        cfg = small_config()
        save_checkpoint(tmp_path / "ck", init_model(cfg), cfg, NormalizationStats.identity())
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["channels"] = [4, 4, 4]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest.json: config does not build a model"):
            load_checkpoint(tmp_path / "ck")
