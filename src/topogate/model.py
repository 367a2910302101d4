"""Learned components: the permutation-invariant PD encoder, sigmoid gates
that inject topological features into a small two-block CNN, the topological
classifier head, joint loss, and deterministic training/evaluation loops.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import tinynn as nn
from .diagram import FEATURE_WIDTH, NormalizationStats

__all__ = [
    "TrainConfig",
    "PHGModel",
    "init_model",
    "encode_pd",
    "encode_pd_backward",
    "gate_forward",
    "gate_backward",
    "refine",
    "forward",
    "backward",
    "total_loss",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class TrainConfig:
    """Training hyper-parameters; defaults follow the reference protocol."""

    epochs: int = 30
    lr: float = 1e-4
    alpha: float = 0.1
    batch_size: int = 32
    seed: int = 0
    n_per_group: int = 150
    ratio: int = 8
    share_encoder: bool = True
    use_phg: bool = True
    mode: str = "full"  # full | vision_only | pd_only
    augment: bool = True
    m_dim: int = 64
    channels: tuple[int, int] = (16, 32)
    n_classes: int = 3
    freeze_gates_at_one: bool = False  # diagnostic: gates output exactly 1
    lr_power: float = 0.9


@dataclass
class PHGModel:
    """Vision stub (two conv-pool blocks) with per-block topological gates."""

    params: dict[str, np.ndarray]
    n_classes: int
    m_dim: int
    channels: tuple[int, int]
    ratio: int
    share_encoder: bool
    use_phg: bool
    freeze_gates_at_one: bool = False

    def encoder_prefix(self, block: int) -> str:
        return "enc" if self.share_encoder else f"enc{block}"


def _init_linear(params, rng, prefix, n_in, n_out):
    params[f"{prefix}.w"] = nn.glorot_uniform(rng, n_in, n_out, (n_out, n_in))
    params[f"{prefix}.b"] = np.zeros(n_out)


def _init_encoder(params, rng, prefix, m_dim):
    _init_linear(params, rng, f"{prefix}.l1", FEATURE_WIDTH, 64)
    _init_linear(params, rng, f"{prefix}.l2", 64, 128)
    _init_linear(params, rng, f"{prefix}.l3", 128, m_dim)


def init_model(config: TrainConfig) -> PHGModel:
    """Deterministic initialization.

    Each component draws from an independent seeded stream so that the vision
    stub's parameters are identical whether or not the topological components
    exist (needed for the fusion-reduces-to-baseline property).
    """
    params: dict[str, np.ndarray] = {}
    c1, c2 = config.channels
    k = config.n_classes
    m = config.m_dim

    rng_v = np.random.default_rng([config.seed, 0])
    params["conv1.w"] = nn.glorot_uniform(rng_v, 9, 9 * c1, (c1, 1, 3, 3))
    params["conv1.b"] = np.zeros(c1)
    params["conv2.w"] = nn.glorot_uniform(rng_v, 9 * c1, 9 * c2, (c2, c1, 3, 3))
    params["conv2.b"] = np.zeros(c2)
    _init_linear(params, rng_v, "vhead", c2, k)

    rng_e = np.random.default_rng([config.seed, 1])
    if config.share_encoder:
        _init_encoder(params, rng_e, "enc", m)
    else:
        _init_encoder(params, rng_e, "enc0", m)
        _init_encoder(params, rng_e, "enc1", m)

    rng_g = np.random.default_rng([config.seed, 2])
    for i, c in enumerate((c1, c2)):
        hidden = max(1, math.ceil(c / config.ratio))
        _init_linear(params, rng_g, f"gate{i}.reduce", m, hidden)
        _init_linear(params, rng_g, f"gate{i}.expand", hidden, c)

    rng_t = np.random.default_rng([config.seed, 3])
    _init_linear(params, rng_t, "thead.l1", m, 32)
    _init_linear(params, rng_t, "thead.l2", 32, k)

    return PHGModel(
        params=params,
        n_classes=k,
        m_dim=m,
        channels=(c1, c2),
        ratio=config.ratio,
        share_encoder=config.share_encoder,
        use_phg=config.use_phg,
        freeze_gates_at_one=config.freeze_gates_at_one,
    )


# ------------------------------------------------------------------ PD encoder


def encode_pd(features: np.ndarray, params: dict, prefix: str = "enc"):
    """Rowwise MLP (5 -> 64 -> 128 -> M) followed by a masked set max-pool.

    The presence column (index 4) masks padded rows out of the pool; an
    all-padding input yields the zero vector. Exactly permutation-invariant
    by construction (the pool tie-break is deterministic).
    Returns (t, cache).
    """
    if features.shape[1] != FEATURE_WIDTH:
        raise ValueError(f"expected {FEATURE_WIDTH} features, got {features.shape[1]}")
    # padded rows are masked out of the pool and receive no gradient, so the
    # rowwise MLP only needs to run on the present rows (identical output)
    rows = np.nonzero(features[:, 4] > 0.5)[0]
    real = features[rows]
    z1 = nn.linear_forward(real, params[f"{prefix}.l1.w"], params[f"{prefix}.l1.b"])
    a1 = nn.relu_forward(z1)
    z2 = nn.linear_forward(a1, params[f"{prefix}.l2.w"], params[f"{prefix}.l2.b"])
    a2 = nn.relu_forward(z2)
    z3 = nn.linear_forward(a2, params[f"{prefix}.l3.w"], params[f"{prefix}.l3.b"])
    t, argmax = nn.set_max_pool_forward(z3, np.ones(len(rows)))
    cache = (real, z1, a1, z2, a2, z3, argmax)
    return t, cache


def encode_pd_backward(cache, params: dict, dt: np.ndarray, prefix: str = "enc") -> dict:
    features, z1, a1, z2, a2, z3, argmax = cache
    grads: dict[str, np.ndarray] = {}
    dz3 = nn.set_max_pool_backward(z3.shape, argmax, dt)
    da2, grads[f"{prefix}.l3.w"], grads[f"{prefix}.l3.b"] = nn.linear_backward(
        a2, params[f"{prefix}.l3.w"], dz3
    )
    dz2 = nn.relu_backward(z2, da2)
    da1, grads[f"{prefix}.l2.w"], grads[f"{prefix}.l2.b"] = nn.linear_backward(
        a1, params[f"{prefix}.l2.w"], dz2
    )
    dz1 = nn.relu_backward(z1, da1)
    _, grads[f"{prefix}.l1.w"], grads[f"{prefix}.l1.b"] = nn.linear_backward(
        features, params[f"{prefix}.l1.w"], dz1
    )
    return grads


# ------------------------------------------------------------------------ gate


def gate_forward(t: np.ndarray, params: dict, prefix: str):
    """Channel gate: sigmoid(expand(relu(reduce(t)))), every output in (0, 1)."""
    zr = nn.linear_forward(t, params[f"{prefix}.reduce.w"], params[f"{prefix}.reduce.b"])
    ar = nn.relu_forward(zr)
    ze = nn.linear_forward(ar, params[f"{prefix}.expand.w"], params[f"{prefix}.expand.b"])
    g = nn.sigmoid_forward(ze)
    return g, (t, zr, ar, g)


def gate_backward(cache, params: dict, dg: np.ndarray, prefix: str):
    """Returns (dt, grads)."""
    t, zr, ar, g = cache
    grads: dict[str, np.ndarray] = {}
    dze = nn.sigmoid_backward(g, dg)
    dar, grads[f"{prefix}.expand.w"], grads[f"{prefix}.expand.b"] = nn.linear_backward(
        ar, params[f"{prefix}.expand.w"], dze
    )
    dzr = nn.relu_backward(zr, dar)
    dt, grads[f"{prefix}.reduce.w"], grads[f"{prefix}.reduce.b"] = nn.linear_backward(
        t, params[f"{prefix}.reduce.w"], dzr
    )
    return dt, grads


def refine(feature_map: np.ndarray, gate_vec: np.ndarray) -> np.ndarray:
    """Broadcast the channel gate along the spatial dimensions: F * g."""
    if feature_map.shape[-1] != gate_vec.shape[0]:
        raise ValueError(
            f"channel mismatch: {feature_map.shape[-1]} vs {gate_vec.shape[0]}"
        )
    return feature_map * gate_vec


# ----------------------------------------------------------------- full model


def forward(model: PHGModel, image: np.ndarray, pd_features: np.ndarray | None):
    """Run the fused model; returns (logits_vision, logits_topo, cache).

    image: (h, w) float in [0, 1]. With use_phg off the gates are identity and
    the topological branch is skipped (zero logits).
    """
    p = model.params
    x = np.asarray(image, dtype=np.float64)[:, :, None]
    cache: dict = {"x": x}

    phg = model.use_phg and pd_features is not None
    ts = []
    if phg:
        for i in range(2):
            prefix = model.encoder_prefix(i)
            if model.share_encoder and i == 1:
                ts.append(ts[0])
                continue
            t, ec = encode_pd(pd_features, p, prefix)
            cache[f"enc_cache{i}"] = ec
            ts.append(t)

    y1, patches1 = nn.conv3x3_forward(x, p["conv1.w"], p["conv1.b"])
    a1 = nn.relu_forward(y1)
    if phg and not model.freeze_gates_at_one:
        g1, gc1 = gate_forward(ts[0], p, "gate0")
        cache["gate_cache0"] = gc1
        a1g = refine(a1, g1)
    else:
        g1, a1g = None, a1
    p1, arg1 = nn.maxpool2x2_forward(a1g)

    y2, patches2 = nn.conv3x3_forward(p1, p["conv2.w"], p["conv2.b"])
    a2 = nn.relu_forward(y2)
    if phg and not model.freeze_gates_at_one:
        g2, gc2 = gate_forward(ts[1], p, "gate1")
        cache["gate_cache1"] = gc2
        a2g = refine(a2, g2)
    else:
        g2, a2g = None, a2
    p2, arg2 = nn.maxpool2x2_forward(a2g)

    pooled = nn.global_avg_pool_forward(p2)
    logits_v = nn.linear_forward(pooled, p["vhead.w"], p["vhead.b"])

    if phg:
        t_head = ts[0]
        th1 = nn.linear_forward(t_head, p["thead.l1.w"], p["thead.l1.b"])
        ta1 = nn.relu_forward(th1)
        logits_t = nn.linear_forward(ta1, p["thead.l2.w"], p["thead.l2.b"])
        cache["topo"] = (t_head, th1, ta1)
    else:
        logits_t = np.zeros(model.n_classes)

    cache.update(
        phg=phg,
        y1=y1,
        a1=a1,
        g1=g1,
        a1g=a1g,
        patches1=patches1,
        arg1=arg1,
        p1=p1,
        y2=y2,
        a2=a2,
        g2=g2,
        a2g=a2g,
        patches2=patches2,
        arg2=arg2,
        p2=p2,
        pooled=pooled,
    )
    return logits_v, logits_t, cache


def backward(model: PHGModel, cache: dict, dlogits_v: np.ndarray, dlogits_t: np.ndarray) -> dict:
    """Exact gradients of the joint loss w.r.t. every trainable parameter."""
    p = model.params
    grads: dict[str, np.ndarray] = {}
    phg = cache["phg"]
    gated = phg and not model.freeze_gates_at_one

    dpooled, grads["vhead.w"], grads["vhead.b"] = nn.linear_backward(
        cache["pooled"], p["vhead.w"], dlogits_v
    )
    dp2 = nn.global_avg_pool_backward(cache["p2"].shape, dpooled)
    da2g = nn.maxpool2x2_backward(cache["a2g"].shape, cache["arg2"], dp2)
    dt_terms = [np.zeros(model.m_dim), np.zeros(model.m_dim)]
    if gated:
        da2 = da2g * cache["g2"]
        dg2 = (da2g * cache["a2"]).sum(axis=(0, 1))
        dt2, g2_grads = gate_backward(cache["gate_cache1"], p, dg2, "gate1")
        grads.update(g2_grads)
        dt_terms[1] = dt2
    else:
        da2 = da2g
    dy2 = nn.relu_backward(cache["y2"], da2)
    dp1, grads["conv2.w"], grads["conv2.b"] = nn.conv3x3_backward(
        cache["p1"], p["conv2.w"], cache["patches2"], dy2
    )
    da1g = nn.maxpool2x2_backward(cache["a1g"].shape, cache["arg1"], dp1)
    if gated:
        da1 = da1g * cache["g1"]
        dg1 = (da1g * cache["a1"]).sum(axis=(0, 1))
        dt1, g1_grads = gate_backward(cache["gate_cache0"], p, dg1, "gate0")
        grads.update(g1_grads)
        dt_terms[0] = dt1
    else:
        da1 = da1g
    dy1 = nn.relu_backward(cache["y1"], da1)
    _, grads["conv1.w"], grads["conv1.b"] = nn.conv3x3_backward(
        cache["x"], p["conv1.w"], cache["patches1"], dy1
    )

    if phg:
        t_head, th1, ta1 = cache["topo"]
        dta1, grads["thead.l2.w"], grads["thead.l2.b"] = nn.linear_backward(
            ta1, p["thead.l2.w"], dlogits_t
        )
        dth1 = nn.relu_backward(th1, dta1)
        dt_topo, grads["thead.l1.w"], grads["thead.l1.b"] = nn.linear_backward(
            t_head, p["thead.l1.w"], dth1
        )
        dt_terms[0] = dt_terms[0] + dt_topo
        if model.share_encoder:
            dt = dt_terms[0] + dt_terms[1]
            enc_grads = encode_pd_backward(cache["enc_cache0"], p, dt, "enc")
            grads.update(enc_grads)
        else:
            for i in range(2):
                enc_grads = encode_pd_backward(
                    cache[f"enc_cache{i}"], p, dt_terms[i], f"enc{i}"
                )
                grads.update(enc_grads)
    return grads


def total_loss(logits_v, logits_t, label: int, alpha: float):
    """L = CE(vision) + alpha * CE(topo); returns (loss, dlogits_v, dlogits_t)."""
    loss_v, dv = nn.softmax_cross_entropy(logits_v, label)
    loss_t, dt = nn.softmax_cross_entropy(logits_t, label)
    return loss_v + alpha * loss_t, dv, alpha * dt


# ------------------------------------------------------------ PD-only variant


def pd_only_forward(model: PHGModel, pd_features: np.ndarray):
    t, ec = encode_pd(pd_features, model.params, model.encoder_prefix(0))
    p = model.params
    th1 = nn.linear_forward(t, p["thead.l1.w"], p["thead.l1.b"])
    ta1 = nn.relu_forward(th1)
    logits = nn.linear_forward(ta1, p["thead.l2.w"], p["thead.l2.b"])
    return logits, (ec, t, th1, ta1)


def pd_only_backward(model: PHGModel, cache, dlogits: np.ndarray) -> dict:
    ec, t, th1, ta1 = cache
    p = model.params
    grads: dict[str, np.ndarray] = {}
    dta1, grads["thead.l2.w"], grads["thead.l2.b"] = nn.linear_backward(
        ta1, p["thead.l2.w"], dlogits
    )
    dth1 = nn.relu_backward(th1, dta1)
    dt, grads["thead.l1.w"], grads["thead.l1.b"] = nn.linear_backward(
        t, p["thead.l1.w"], dth1
    )
    grads.update(encode_pd_backward(ec, p, dt, model.encoder_prefix(0)))
    return grads


# -------------------------------------------------------------------- training


def _sample_loss_and_grads(model: PHGModel, image, features, label, config: TrainConfig):
    if config.mode == "pd_only":
        logits, cache = pd_only_forward(model, features)
        loss, dlogits = nn.softmax_cross_entropy(logits, label)
        return loss, pd_only_backward(model, cache, dlogits)
    logits_v, logits_t, cache = forward(model, image, features)
    if cache["phg"]:
        loss, dv, dt = total_loss(logits_v, logits_t, label, config.alpha)
    else:
        loss, dv = nn.softmax_cross_entropy(logits_v, label)
        dt = np.zeros_like(logits_t)
    return loss, backward(model, cache, dv, dt)


def train(dataset, config: TrainConfig, eval_dataset=None):
    """Train a model on (image uint8, point-features, label) triples.

    Deterministic given config.seed. Returns (model, history) where history
    holds per-epoch mean training loss (and eval accuracy when eval_dataset
    is given).
    """
    if not dataset:
        raise ValueError("empty training dataset")
    labels = {s[2] for s in dataset}
    if max(labels) >= config.n_classes:
        raise ValueError("label outside configured class range")
    if config.mode == "vision_only":
        config = _replace(config, use_phg=False)
    model = init_model(config)
    state = nn.AdamState(lr=config.lr)
    rng = np.random.default_rng([config.seed, 4])
    images = [np.asarray(s[0], dtype=np.float64) / 255.0 for s in dataset]
    history: list[dict] = []
    n = len(dataset)
    for epoch in range(config.epochs):
        lr = nn.poly_lr(config.lr, epoch, config.epochs, config.lr_power)
        order = rng.permutation(n)
        flips = rng.random(n) < 0.5 if config.augment else np.zeros(n, bool)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch_grads: dict[str, np.ndarray] = {}
            batch_loss = 0.0
            for j in idx:
                img = images[j][:, ::-1] if flips[j] else images[j]
                loss, grads = _sample_loss_and_grads(
                    model, img, dataset[j][1], dataset[j][2], config
                )
                batch_loss += loss
                for name in grads:
                    if name in batch_grads:
                        batch_grads[name] += grads[name]
                    else:
                        batch_grads[name] = grads[name].copy()
            scale = 1.0 / len(idx)
            for name in batch_grads:
                batch_grads[name] *= scale
            nn.adam_step(model.params, batch_grads, state, lr=lr)
            epoch_loss += batch_loss
        record = {"epoch": epoch, "lr": lr, "train_loss": epoch_loss / n}
        if eval_dataset is not None:
            record["eval_acc"] = evaluate(model, eval_dataset, config.mode)["accuracy"]
        history.append(record)
    return model, history


def _replace(config: TrainConfig, **kw) -> TrainConfig:
    d = asdict(config)
    d.update(kw)
    d["channels"] = tuple(d["channels"])
    return TrainConfig(**d)


# ------------------------------------------------------------------ evaluation


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _auc_ovr(scores: np.ndarray, positives: np.ndarray) -> float:
    """Mann-Whitney AUC of scores for positive vs negative samples."""
    pos = scores[positives]
    neg = scores[~positives]
    if len(pos) == 0 or len(neg) == 0:
        return math.nan
    order = np.argsort(np.concatenate([pos, neg]), kind="stable")
    ranks = np.empty(len(order))
    all_scores = np.concatenate([pos, neg])[order]
    # average ranks for ties
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and all_scores[j + 1] == all_scores[i]:
            j += 1
        ranks[i : j + 1] = (i + j) / 2.0 + 1.0
        i = j + 1
    pos_ranks = ranks[np.argsort(order)][: len(pos)]
    u = pos_ranks.sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


def evaluate(model: PHGModel, dataset, mode: str = "full") -> dict:
    """Accuracy plus one-vs-rest AUC/sensitivity/specificity class averages."""
    if not dataset:
        raise ValueError("empty evaluation dataset")
    k = model.n_classes
    probs = np.zeros((len(dataset), k))
    labels = np.zeros(len(dataset), dtype=np.int64)
    for i, (image, features, label) in enumerate(dataset):
        # [0] drops each forward's cache before the next forward runs
        if mode == "pd_only":
            logits = pd_only_forward(model, features)[0]
        else:
            img = np.asarray(image, dtype=np.float64) / 255.0
            logits = forward(model, img, features)[0]
        probs[i] = _softmax(logits)
        labels[i] = label
    present = np.unique(labels)
    if len(present) < k:
        raise ValueError(f"classes missing from evaluation split: {set(range(k)) - set(present)}")
    preds = probs.argmax(axis=1)
    acc = float((preds == labels).mean())
    sens, specs, aucs = [], [], []
    for c in range(k):
        positives = labels == c
        tp = int(((preds == c) & positives).sum())
        fn = int(((preds != c) & positives).sum())
        fp = int(((preds == c) & ~positives).sum())
        tn = int(((preds != c) & ~positives).sum())
        sens.append(tp / (tp + fn))
        specs.append(tn / (tn + fp))
        aucs.append(_auc_ovr(probs[:, c], positives))
    return {
        "accuracy": acc,
        "auc": float(np.mean(aucs)),
        "sensitivity": float(np.mean(sens)),
        "specificity": float(np.mean(specs)),
    }


# ----------------------------------------------------------------- checkpoints


def save_checkpoint(directory, model: PHGModel, config: TrainConfig, stats: NormalizationStats) -> None:
    """Flat JSON manifest plus raw little-endian float64 parameter blob."""
    os.makedirs(directory, exist_ok=True)
    names = sorted(model.params)
    manifest = {
        "format": 1,
        "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
        "model": {
            "n_classes": model.n_classes,
            "m_dim": model.m_dim,
            "channels": list(model.channels),
            "ratio": model.ratio,
            "share_encoder": model.share_encoder,
            "use_phg": model.use_phg,
        },
        "config": {**asdict(config), "channels": list(config.channels)},
        "stats": {"mean": stats.mean.tolist(), "std": stats.std.tolist()},
    }
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    blob = np.concatenate([model.params[n].ravel() for n in names])
    blob.astype("<f8").tofile(os.path.join(directory, "params.bin"))


def load_checkpoint(directory):
    """Returns (model, config, stats) written by save_checkpoint."""
    with open(os.path.join(directory, "manifest.json")) as f:
        manifest = json.load(f)
    blob = np.fromfile(os.path.join(directory, "params.bin"), dtype="<f8")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        params[entry["name"]] = blob[offset : offset + size].reshape(shape).copy()
        offset += size
    cfg = manifest["config"]
    cfg["channels"] = tuple(cfg["channels"])
    config = TrainConfig(**cfg)
    m = manifest["model"]
    model = PHGModel(
        params=params,
        n_classes=m["n_classes"],
        m_dim=m["m_dim"],
        channels=tuple(m["channels"]),
        ratio=m["ratio"],
        share_encoder=m["share_encoder"],
        use_phg=m["use_phg"],
        freeze_gates_at_one=config.freeze_gates_at_one,
    )
    stats = NormalizationStats(np.array(manifest["stats"]["mean"]), np.array(manifest["stats"]["std"]))
    return model, config, stats
