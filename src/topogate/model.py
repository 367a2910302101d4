"""Learned components: the permutation-invariant PD encoder, sigmoid gates
that inject topological features into a small two-block CNN, the topological
classifier head, joint loss, and deterministic training/evaluation loops.

The PD encoding is computed once per sample. It gates both conv blocks, which
`forward` runs in one loop and `backward` in the reversed loop, and it feeds
the topological head. The encoder, the gates and the topological head are
linear/relu stacks run by one private forward/backward pair, which the fused
model and the `pd_only` variant share.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tinynn as nn
from .diagram import DEFAULT_N_PER_GROUP, FEATURE_WIDTH, NormalizationStats

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
    n_per_group: int = DEFAULT_N_PER_GROUP
    ratio: int = 8
    share_encoder: bool = True
    use_phg: bool = True
    mode: str = "full"  # full | vision_only | pd_only
    m_dim: int = 64
    channels: tuple[int, int] = (16, 32)
    n_classes: int = 3


@dataclass
class PHGModel:
    """Vision stub (two conv-pool blocks) with per-block topological gates.

    Only what the parameters cannot tell is stored: whether the topological
    branch runs (`use_phg`). The sizes and the encoder layout are read from
    the parameter shapes.
    """

    params: dict[str, np.ndarray]
    use_phg: bool

    @property
    def n_classes(self) -> int:
        return self.params["vhead.b"].shape[0]

    @property
    def m_dim(self) -> int:
        return self.params["thead.l1.w"].shape[1]

    @property
    def channels(self) -> tuple[int, int]:
        return self.params["conv1.b"].shape[0], self.params["conv2.b"].shape[0]

    @property
    def share_encoder(self) -> bool:
        return "enc.l1.w" in self.params

    def encoder_prefix(self, block: int) -> str:
        return "enc" if self.share_encoder else f"enc{block}"


def _encoder_layers(prefix: str) -> tuple[str, ...]:
    return f"{prefix}.l1", f"{prefix}.l2", f"{prefix}.l3"


def _gate_layers(prefix: str) -> tuple[str, ...]:
    return f"{prefix}.reduce", f"{prefix}.expand"


_THEAD = ("thead.l1", "thead.l2")  # topological classifier head


def _init_mlp(params, rng, prefixes, widths):
    for prefix, n_in, n_out in zip(prefixes, widths, widths[1:]):
        params[f"{prefix}.w"] = nn.glorot_uniform(rng, n_in, n_out, (n_out, n_in))
        params[f"{prefix}.b"] = np.zeros(n_out)


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
    for n, (c_in, c_out) in enumerate(((1, c1), (c1, c2)), 1):
        params[f"conv{n}.w"] = nn.glorot_uniform(rng_v, 9 * c_in, 9 * c_out, (c_out, c_in, 3, 3))
        params[f"conv{n}.b"] = np.zeros(c_out)
    _init_mlp(params, rng_v, ("vhead",), (c2, k))

    rng_e = np.random.default_rng([config.seed, 1])
    for prefix in ("enc",) if config.share_encoder else ("enc0", "enc1"):
        _init_mlp(params, rng_e, _encoder_layers(prefix), (FEATURE_WIDTH, 64, 128, m))

    rng_g = np.random.default_rng([config.seed, 2])
    for i, c in enumerate((c1, c2)):
        hidden = max(1, math.ceil(c / config.ratio))
        _init_mlp(params, rng_g, _gate_layers(f"gate{i}"), (m, hidden, c))

    rng_t = np.random.default_rng([config.seed, 3])
    _init_mlp(params, rng_t, _THEAD, (m, 32, k))
    return _build_model(params, config)


def _build_model(params: dict[str, np.ndarray], config: TrainConfig) -> PHGModel:
    """Used by init and load alike; `vision_only` turns the topological branch off."""
    return PHGModel(params=params, use_phg=config.use_phg and config.mode != "vision_only")


# ------------------------------------------------------------------------- MLP


def _mlp_forward(params: dict, prefixes, x: np.ndarray):
    """Linear layers named by `prefixes`, a relu between each two; returns (z, cache)."""
    cache = []
    for prefix in prefixes:
        if cache:
            x = nn.relu_forward(z)
        z = nn.linear_forward(x, params[f"{prefix}.w"], params[f"{prefix}.b"])
        cache.append((x, z))
    return z, cache


def _mlp_backward(params: dict, prefixes, cache, dz: np.ndarray):
    """Returns (dx, grads) for _mlp_forward."""
    grads: dict[str, np.ndarray] = {}
    dx = None
    for prefix, (x, z) in zip(prefixes[::-1], cache[::-1]):
        if dx is not None:
            dz = nn.relu_backward(z, dx)
        dx, grads[f"{prefix}.w"], grads[f"{prefix}.b"] = nn.linear_backward(
            x, params[f"{prefix}.w"], dz
        )
    return dx, grads


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
    z, mlp_cache = _mlp_forward(params, _encoder_layers(prefix), features[rows])
    t, argmax = nn.set_max_pool_forward(z, np.ones(len(rows)))
    return t, (mlp_cache, argmax)


def encode_pd_backward(cache, params: dict, dt: np.ndarray, prefix: str = "enc") -> dict:
    mlp_cache, argmax = cache
    dz = nn.set_max_pool_backward(mlp_cache[-1][1].shape, argmax, dt)
    return _mlp_backward(params, _encoder_layers(prefix), mlp_cache, dz)[1]


# ------------------------------------------------------------------------ gate


def gate_forward(t: np.ndarray, params: dict, prefix: str):
    """Channel gate: sigmoid(expand(relu(reduce(t)))), every output in (0, 1)."""
    ze, mlp_cache = _mlp_forward(params, _gate_layers(prefix), t)
    g = nn.sigmoid_forward(ze)
    return g, (mlp_cache, g)


def gate_backward(cache, params: dict, dg: np.ndarray, prefix: str):
    """Returns (dt, grads)."""
    mlp_cache, g = cache
    dze = nn.sigmoid_backward(g, dg)
    return _mlp_backward(params, _gate_layers(prefix), mlp_cache, dze)


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
    cache: dict = {}

    phg = model.use_phg and pd_features is not None
    ts = []
    if phg:
        for i in range(1 if model.share_encoder else 2):
            t, cache[f"enc_cache{i}"] = encode_pd(pd_features, p, model.encoder_prefix(i))
            ts.append(t)
        if model.share_encoder:
            ts.append(ts[0])

    h = x
    for i, n in enumerate((1, 2)):
        y, patches = nn.conv3x3_forward(h, p[f"conv{n}.w"], p[f"conv{n}.b"])
        a = nn.relu_forward(y)
        if phg:
            g, cache[f"gate_cache{i}"] = gate_forward(ts[i], p, f"gate{i}")
            ag = refine(a, g)
        else:
            g, ag = None, a
        h, arg = nn.maxpool2x2_forward(ag)
        cache.update({f"y{n}": y, f"a{n}": a, f"g{n}": g, f"a{n}g": ag,
                      f"patches{n}": patches, f"arg{n}": arg, f"p{n}": h})

    pooled = nn.global_avg_pool_forward(h)
    logits_v = nn.linear_forward(pooled, p["vhead.w"], p["vhead.b"])
    if phg:
        logits_t, cache["topo"] = _mlp_forward(p, _THEAD, ts[0])
    else:
        logits_t = np.zeros(model.n_classes)
    cache.update(phg=phg, pooled=pooled)
    return logits_v, logits_t, cache


def backward(model: PHGModel, cache: dict, dlogits_v: np.ndarray, dlogits_t: np.ndarray) -> dict:
    """Exact gradients of the joint loss w.r.t. every trainable parameter."""
    p = model.params
    grads: dict[str, np.ndarray] = {}
    phg = cache["phg"]

    dpooled, grads["vhead.w"], grads["vhead.b"] = nn.linear_backward(
        cache["pooled"], p["vhead.w"], dlogits_v
    )
    dh = nn.global_avg_pool_backward(cache["p2"].shape, dpooled)
    dt_terms = [np.zeros(model.m_dim), np.zeros(model.m_dim)]
    for i, n in ((1, 2), (0, 1)):
        dag = nn.maxpool2x2_backward(cache[f"a{n}g"].shape, cache[f"arg{n}"], dh)
        if phg:
            dg = (dag * cache[f"a{n}"]).sum(axis=(0, 1))
            dt_terms[i], gate_grads = gate_backward(cache[f"gate_cache{i}"], p, dg, f"gate{i}")
            grads.update(gate_grads)
            dag *= cache[f"g{n}"]  # now the gradient of the ungated activation
        dy = nn.relu_backward(cache[f"y{n}"], dag)
        w, patches = p[f"conv{n}.w"], cache[f"patches{n}"]
        if n == 2:
            dh, grads["conv2.w"], grads["conv2.b"] = nn.conv3x3_backward(cache["p1"], w, patches, dy)
        else:  # block 1's input is the image, which needs no gradient
            grads["conv1.w"], grads["conv1.b"] = nn.conv3x3_param_backward(w, patches, dy)

    if phg:
        dt_topo, head_grads = _mlp_backward(p, _THEAD, cache["topo"], dlogits_t)
        grads.update(head_grads)
        dt_terms[0] = dt_terms[0] + dt_topo
        if model.share_encoder:
            dt_terms = [dt_terms[0] + dt_terms[1]]
        for i, dt in enumerate(dt_terms):
            grads.update(
                encode_pd_backward(cache[f"enc_cache{i}"], p, dt, model.encoder_prefix(i))
            )
    return grads


def total_loss(logits_v, logits_t, label: int, alpha: float):
    """L = CE(vision) + alpha * CE(topo); returns (loss, dlogits_v, dlogits_t)."""
    loss_v, dv = nn.softmax_cross_entropy(logits_v, label)
    loss_t, dt = nn.softmax_cross_entropy(logits_t, label)
    return loss_v + alpha * loss_t, dv, alpha * dt


# ------------------------------------------------------------ PD-only variant


def pd_only_forward(model: PHGModel, pd_features: np.ndarray):
    t, enc_cache = encode_pd(pd_features, model.params, model.encoder_prefix(0))
    logits, head_cache = _mlp_forward(model.params, _THEAD, t)
    return logits, (enc_cache, head_cache)


def pd_only_backward(model: PHGModel, cache, dlogits: np.ndarray) -> dict:
    enc_cache, head_cache = cache
    dt, grads = _mlp_backward(model.params, _THEAD, head_cache, dlogits)
    grads.update(encode_pd_backward(enc_cache, model.params, dt, model.encoder_prefix(0)))
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


def train(dataset, config: TrainConfig):
    """Train a model on (image uint8, point-features, label) triples.

    Each epoch shuffles the samples and flips each image left-right with
    probability 1/2. Deterministic given config.seed. Returns (model, history)
    where history holds the per-epoch learning rate and mean training loss.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    labels = {s[2] for s in dataset}
    if max(labels) >= config.n_classes:
        raise ValueError("label outside configured class range")
    model = init_model(config)
    state = nn.AdamState(lr=config.lr)
    rng = np.random.default_rng([config.seed, 4])
    images = [np.asarray(s[0], dtype=np.float64) / 255.0 for s in dataset]
    history: list[dict] = []
    n = len(dataset)
    for epoch in range(config.epochs):
        lr = nn.poly_lr(config.lr, epoch, config.epochs)
        order = rng.permutation(n)
        flips = rng.random(n) < 0.5
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
        history.append({"epoch": epoch, "lr": lr, "train_loss": epoch_loss / n})
    return model, history


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
    # a tie group ending at 1-based rank `end` shares the rank (2 * end - count + 1) / 2
    _, group, counts = np.unique(
        np.concatenate([pos, neg]), return_inverse=True, return_counts=True
    )
    ends = np.cumsum(counts)
    ranks = (2 * ends - counts + 1) / 2.0
    u = ranks[group[: len(pos)]].sum() - len(pos) * (len(pos) + 1) / 2.0
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
        "format": 2,
        "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
        "config": {**asdict(config), "channels": list(config.channels)},
        "stats": {"mean": stats.mean.tolist(), "std": stats.std.tolist()},
    }
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    blob = np.concatenate([model.params[n].ravel() for n in names])
    blob.astype("<f8").tofile(os.path.join(directory, "params.bin"))


def load_checkpoint(directory):
    """Returns (model, config, stats) written by save_checkpoint.

    Raises ValueError naming the file when the manifest is not a JSON object
    of format 2 with "params", "config" (TrainConfig's fields) and "stats"
    (two numbers each for "mean" and "std"), when "params" does not list each
    parameter the config builds once as {"name": str, "shape": [int, ...]}
    with its shape, or when the blob does not hold exactly the values the
    manifest lists.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    blob_path = os.path.join(directory, "params.bin")
    with open(manifest_path) as f:
        try:
            manifest = json.load(f)
        except ValueError as e:  # not JSON, or not text
            raise ValueError(f"{manifest_path}: not JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: not a JSON object")
    if manifest.get("format") != 2:
        raise ValueError(f"{manifest_path}: unsupported format {manifest.get('format')!r}")
    missing = {"params", "config", "stats"} - manifest.keys()
    if missing:
        raise ValueError(f"{manifest_path}: missing {', '.join(sorted(missing))}")
    cfg, stats = manifest["config"], manifest["stats"]
    names = {f.name for f in fields(TrainConfig)}
    if not isinstance(cfg, dict) or cfg.keys() != names:
        got = sorted(cfg) if isinstance(cfg, dict) else type(cfg).__name__
        raise ValueError(f"{manifest_path}: config must hold TrainConfig's fields, got {got}")
    if not isinstance(stats, dict) or not all(_two_numbers(stats.get(k)) for k in ("mean", "std")):
        raise ValueError(f"{manifest_path}: stats mean and std must each hold 2 numbers")
    try:
        config = TrainConfig(**{**cfg, "channels": tuple(cfg["channels"])})
        shapes = {n: list(a.shape) for n, a in init_model(config).params.items()}
    except (TypeError, ValueError) as e:
        raise ValueError(f"{manifest_path}: config does not build a model: {e}") from None
    entries = manifest["params"]
    if not isinstance(entries, list) or not all(map(_param_entry, entries)):
        raise ValueError(
            f"{manifest_path}: params must be a list of objects with a string name"
            " and a shape of non-negative ints"
        )
    listed = {e["name"]: e["shape"] for e in entries}
    if len(listed) != len(entries) or listed != shapes:
        raise ValueError(
            f"{manifest_path}: params must list each parameter the config builds once,"
            " with its shape"
        )
    sizes = [math.prod(entry["shape"]) for entry in entries]
    with open(blob_path, "rb") as f:
        data = f.read()
    if len(data) != 8 * sum(sizes):
        raise ValueError(
            f"{blob_path}: holds {len(data)} bytes, the manifest lists {sum(sizes)} float64 values"
        )
    chunks = np.split(np.frombuffer(data, dtype="<f8"), np.cumsum(sizes)[:-1])
    params = {e["name"]: c.reshape(e["shape"]).copy() for e, c in zip(entries, chunks)}
    stats = NormalizationStats(np.array(stats["mean"]), np.array(stats["std"]))
    return _build_model(params, config), config, stats


def _param_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in entry["shape"])
    )


def _two_numbers(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    )
