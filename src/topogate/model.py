"""Learned components: the permutation-invariant PD encoder, sigmoid gates
that inject topological features into a small two-block CNN, the topological
classifier head, joint loss, and deterministic training/evaluation loops.

The training mode decides which parameters a model holds, and the parameters
decide what `forward` and `backward` run: `vision_only` holds the vision stub,
`pd_only` the encoder and the topological head, and `full` both, joined by the
gates. The PD encoding is computed once per sample. It gates both conv blocks,
which `forward` runs in one loop and `backward` in the reversed loop, and it
feeds the topological head. The encoder, the gates and both heads are
linear/relu stacks run by one private forward/backward pair.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import InitVar, asdict, dataclass, fields

import numpy as np

from . import tinynn as nn
from .diagram import DEFAULT_N_PER_GROUP, FEATURE_WIDTH, NormalizationStats
from .grid import FormatError, finite_number, read_json

__all__ = [
    "MODES",
    "MAX_WIDTH",
    "CONFIG_RULES",
    "TrainConfig",
    "PHGModel",
    "init_model",
    "encode_pd",
    "gate_forward",
    "forward",
    "backward",
    "total_loss",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]


MODES = ("full", "vision_only", "pd_only")

# The most classes, PD-encoding width (m_dim) or channels per conv block a model
# may have, so a config read from a file cannot ask for an array init_model
# cannot allocate: every parameter array holds at most 1024 x 1024 x 9 values.
MAX_WIDTH = 1024

# The rule a TrainConfig field must meet beyond its type, as (rule, test of an
# object holding the field); the CLI checks its same-named train flags with them.
CONFIG_RULES = {
    "epochs": ("in 1..1000", lambda c: 1 <= c.epochs <= 1000),
    "lr": ("> 0", lambda c: c.lr > 0),
    "alpha": (">= 0", lambda c: c.alpha >= 0),
    "batch_size": (">= 1", lambda c: c.batch_size >= 1),
    "seed": (">= 0", lambda c: c.seed >= 0),
    # a 256x256 image's diagram holds at most 65536 points in a group
    "n_per_group": ("in 1..65536", lambda c: 1 <= c.n_per_group <= 65536),
    "ratio": (">= 1", lambda c: c.ratio >= 1),
    "m_dim": (f"in 1..{MAX_WIDTH}", lambda c: 1 <= c.m_dim <= MAX_WIDTH),
    "channels": (f"two ints, each in 1..{MAX_WIDTH}",
                 lambda c: len(c.channels) == 2
                 and all(type(n) is int and 1 <= n <= MAX_WIDTH for n in c.channels)),
    "mode": ("one of " + ", ".join(MODES), lambda c: c.mode in MODES),
    "n_classes": (f"in 2..{MAX_WIDTH}", lambda c: 2 <= c.n_classes <= MAX_WIDTH),
}


@dataclass
class TrainConfig:
    """Training hyper-parameters; the defaults are the run `topogate train` starts. Each
    field must have its annotated type, be finite if a float, and meet its CONFIG_RULES row."""

    epochs: int = 15
    lr: float = 3e-3
    alpha: float = 0.1
    batch_size: int = 16
    seed: int = 0
    n_per_group: int = DEFAULT_N_PER_GROUP
    ratio: int = 8
    share_encoder: bool = True  # False gives gate1 its own encoder (full mode only)
    mode: str = "full"  # one of MODES
    m_dim: int = 64
    channels: tuple[int, int] = (16, 32)
    n_classes: int = 3
    # accepted for older callers when it agrees with `mode`; never stored
    use_phg: InitVar[bool | None] = None

    def __post_init__(self, use_phg):
        for f in fields(self):
            v, kind = getattr(self, f.name), type(f.default)
            typed = isinstance(v, (int, float) if kind is float else kind)  # a float may be an int
            if not typed or isinstance(v, bool) != (kind is bool):
                raise ValueError(f"{f.name} {v!r}: must be of type {kind.__name__}")
            if kind is float and not finite_number(v):
                raise ValueError(f"{f.name} {v!r}: must be finite")
        for name, (rule, ok) in CONFIG_RULES.items():
            if not ok(self):
                raise ValueError(f"{name} {getattr(self, name)!r}: must be {rule}")
        if use_phg is not None and use_phg != (self.mode != "vision_only"):
            raise ValueError(f"use_phg={use_phg} contradicts mode {self.mode!r}")


@dataclass
class PHGModel:
    """The parameters of the branches a mode runs.

    Vision stub: conv1, conv2, vhead. Topological branch: the PD encoder
    (enc, or enc0 and enc1 unshared) and thead. Gates gate0 and gate1 exist
    only when both branches do. Sizes and layout are read from the shapes.
    """

    params: dict[str, np.ndarray]

    @property
    def n_classes(self) -> int:
        head = "vhead.b" if "vhead.b" in self.params else "thead.l2.b"
        return self.params[head].shape[0]

    @property
    def share_encoder(self) -> bool:
        return "enc.l1.w" in self.params

    def encoder_prefix(self, block: int) -> str:
        return "enc" if self.share_encoder else f"enc{block}"


def _encoder_layers(prefix: str) -> tuple[str, ...]:
    return f"{prefix}.l1", f"{prefix}.l2", f"{prefix}.l3"


def _gate_layers(prefix: str) -> tuple[str, ...]:
    return f"{prefix}.reduce", f"{prefix}.expand"


_VHEAD = ("vhead",)  # vision classifier head
_THEAD = ("thead.l1", "thead.l2")  # topological classifier head


def _init_mlp(params, rng, prefixes, widths):
    for prefix, n_in, n_out in zip(prefixes, widths, widths[1:]):
        params[f"{prefix}.w"] = nn.glorot_uniform(rng, n_in, n_out, (n_out, n_in))
        params[f"{prefix}.b"] = np.zeros(n_out)


def init_model(config: TrainConfig) -> PHGModel:
    """Deterministic initialization of the branches `config.mode` runs.

    Each component draws from an independent seeded stream, so every array
    is the same whichever other components exist (needed for the
    fusion-reduces-to-baseline property).
    """
    params: dict[str, np.ndarray] = {}
    c1, c2 = config.channels
    k, m = config.n_classes, config.m_dim
    vision, topo = config.mode != "pd_only", config.mode != "vision_only"

    if vision:
        rng_v = np.random.default_rng([config.seed, 0])
        for n, (c_in, c_out) in enumerate(((1, c1), (c1, c2)), 1):
            params[f"conv{n}.w"] = nn.glorot_uniform(rng_v, 9 * c_in, 9 * c_out, (c_out, c_in, 3, 3))
            params[f"conv{n}.b"] = np.zeros(c_out)
        _init_mlp(params, rng_v, _VHEAD, (c2, k))

    if topo:
        rng_e = np.random.default_rng([config.seed, 1])
        for prefix in ("enc0", "enc1") if vision and not config.share_encoder else ("enc",):
            _init_mlp(params, rng_e, _encoder_layers(prefix), (FEATURE_WIDTH, 64, 128, m))

    if vision and topo:
        rng_g = np.random.default_rng([config.seed, 2])
        for i, c in enumerate((c1, c2)):
            hidden = max(1, math.ceil(c / config.ratio))
            _init_mlp(params, rng_g, _gate_layers(f"gate{i}"), (m, hidden, c))

    if topo:
        rng_t = np.random.default_rng([config.seed, 3])
        _init_mlp(params, rng_t, _THEAD, (m, 32, k))
    return PHGModel(params)


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
    """Rowwise MLP (5 -> 64 -> 128 -> M) over the present rows, then a set max-pool.

    The presence column (index 4) keeps padded rows out of the MLP and the
    pool; an all-padding input yields the zero vector. A row equal to the row
    before it is skipped: it can neither raise a column's max nor take its
    first argmax. Exactly permutation-invariant by construction (the pool
    tie-break is deterministic). Returns (t, cache); as t depends only on the
    rows the pool picked, the cache holds each layer's (x, z) of those rows.
    """
    if features.shape[1] != FEATURE_WIDTH:
        raise ValueError(f"expected {FEATURE_WIDTH} features, got {features.shape[1]}")
    x = features[features[:, 4] > 0.5]
    keep = np.ones(len(x), dtype=bool)
    np.any(x[1:] != x[:-1], axis=1, out=keep[1:])
    z, mlp_cache = _mlp_forward(params, _encoder_layers(prefix), x[keep])
    t, argmax = nn.set_max_pool_forward(z)
    if len(z):  # an all-padding pool has argmax -1 and no rows to pick
        picked, argmax = np.unique(argmax, return_inverse=True)
        mlp_cache = [(xl[picked], zl[picked]) for xl, zl in mlp_cache]
    return t, (mlp_cache, argmax)


# ------------------------------------------------------------------------ gate


def gate_forward(t: np.ndarray, params: dict, prefix: str):
    """Channel gate g = sigmoid(expand(relu(reduce(t)))), each in (0, 1); returns (g, cache)."""
    ze, mlp_cache = _mlp_forward(params, _gate_layers(prefix), t)
    return nn.sigmoid_forward(ze), mlp_cache


# ----------------------------------------------------------- forward, backward


def forward(model: PHGModel, image: np.ndarray, pd_features: np.ndarray):
    """Run the branches the model holds; returns (logits_vision, logits_topo, cache).

    image: (h, w) float in [0, 1], read only by the vision stub. A branch the
    model does not hold gives None logits; the gates run when both branches do.
    """
    p = model.params
    cache: dict = {}
    logits_v = logits_t = None

    ts = []
    if "thead.l1.w" in p:
        for i in range(1 if model.share_encoder else 2):
            t, cache[f"enc_cache{i}"] = encode_pd(pd_features, p, model.encoder_prefix(i))
            ts.append(t)
        logits_t, cache["topo"] = _mlp_forward(p, _THEAD, ts[0])

    if "vhead.w" in p:
        h = np.asarray(image, dtype=np.float64)[:, :, None]
        for i, n in enumerate((1, 2)):
            y, patches = nn.conv3x3_forward(h, p[f"conv{n}.w"], p[f"conv{n}.b"])
            a = nn.relu_forward(y)
            g = None
            if ts:
                g, cache[f"gate_cache{i}"] = gate_forward(ts[0 if model.share_encoder else i], p, f"gate{i}")
            # the channel gate broadcasts along both spatial axes
            h, arg = nn.maxpool2x2_forward(a if g is None else a * g)
            cache.update({f"a{n}": a, f"g{n}": g, f"patches{n}": patches, f"arg{n}": arg, f"p{n}": h})
        logits_v, cache["vision"] = _mlp_forward(p, _VHEAD, nn.global_avg_pool_forward(h))
    return logits_v, logits_t, cache


def backward(model: PHGModel, cache: dict, dlogits_v, dlogits_t) -> dict:
    """Exact gradients of the joint loss w.r.t. every parameter the model holds."""
    p = model.params
    grads: dict[str, np.ndarray] = {}
    dt_gates = []  # gate0's, then gate1's gradient of its PD encoding

    if "vhead.w" in p:
        dpooled, grads = _mlp_backward(p, _VHEAD, cache["vision"], dlogits_v)
        dh = nn.global_avg_pool_backward(cache["p2"].shape, dpooled)
        for i, n in ((1, 2), (0, 1)):
            dag = nn.maxpool2x2_backward(cache[f"a{n}"].shape, cache[f"arg{n}"], dh)
            g = cache[f"g{n}"]
            if g is not None:
                dze = nn.sigmoid_backward(g, (dag * cache[f"a{n}"]).sum(axis=(0, 1)))
                dt, gate_grads = _mlp_backward(p, _gate_layers(f"gate{i}"), cache[f"gate_cache{i}"], dze)
                dt_gates.insert(0, dt)
                grads.update(gate_grads)
                dag *= g  # now the gradient of the ungated activation
            dy = nn.relu_backward(cache[f"a{n}"], dag)  # a > 0 exactly where y > 0
            w, patches = p[f"conv{n}.w"], cache[f"patches{n}"]
            if n == 2:
                dh, grads["conv2.w"], grads["conv2.b"] = nn.conv3x3_backward(cache["p1"], w, patches, dy)
            else:  # block 1's input is the image, which needs no gradient
                grads["conv1.w"], grads["conv1.b"] = nn.conv3x3_param_backward(w, patches, dy)

    if "thead.l1.w" in p:
        dt, head_grads = _mlp_backward(p, _THEAD, cache["topo"], dlogits_t)
        grads.update(head_grads)
        dts = [dt]
        if dt_gates:  # encoder 0 feeds gate0 and the head, encoder 1 feeds gate1
            dts = [dt_gates[0] + dt, dt_gates[1]]
            if model.share_encoder:
                dts = [dts[0] + dts[1]]
        for i, dt in enumerate(dts):
            mlp_cache, argmax = cache[f"enc_cache{i}"]
            dz = nn.set_max_pool_backward(mlp_cache[-1][1].shape, argmax, dt)
            grads.update(_mlp_backward(p, _encoder_layers(model.encoder_prefix(i)), mlp_cache, dz)[1])
    return grads


def total_loss(logits_v, logits_t, label: int, alpha: float):
    """L = CE(vision) + alpha * CE(topo); returns (loss, dlogits_v, dlogits_t).

    A branch whose logits are None adds no term and gets a None gradient;
    without the vision branch, CE(topo) is the whole loss, at weight 1.
    """
    loss_v, dv = (0.0, None) if logits_v is None else nn.softmax_cross_entropy(logits_v, label)
    loss_t, dt = (0.0, None) if logits_t is None else nn.softmax_cross_entropy(logits_t, label)
    weight = 1.0 if logits_v is None else alpha
    return loss_v + weight * loss_t, dv, None if dt is None else weight * dt


# -------------------------------------------------------------------- training


def _sample_grads(model: PHGModel, image, features, label, alpha: float):
    """(loss, grads) of one sample; the forward cache is freed on return."""
    logits_v, logits_t, cache = forward(model, image, features)
    loss, dv, dt = total_loss(logits_v, logits_t, label, alpha)
    return loss, backward(model, cache, dv, dt)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # non-finite results raise below
def train(dataset, config: TrainConfig):
    """Train a model on (image uint8, point-features, label) triples.

    Each epoch shuffles the samples and flips each image left-right with
    probability 1/2. Deterministic given config.seed. Returns (model, history)
    where history holds the per-epoch learning rate and mean training loss.
    Raises FloatingPointError when a batch's loss, or a parameter at the end,
    is not finite.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    labels = {s[2] for s in dataset}
    if max(labels) >= config.n_classes:
        raise ValueError("label outside configured class range")
    model = init_model(config)
    state = nn.AdamState()
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
            batch_grads, batch_loss = None, 0.0
            for j in idx:
                img = images[j][:, ::-1] if flips[j] else images[j]
                loss, grads = _sample_grads(model, img, dataset[j][1], dataset[j][2], config.alpha)
                batch_loss += loss
                if batch_grads is None:  # backward returns fresh arrays, so they sum in place
                    batch_grads = grads
                    continue
                for name in grads:
                    batch_grads[name] += grads[name]
            if not math.isfinite(batch_loss):
                raise FloatingPointError(f"training diverged: the loss of epoch {epoch}, "
                                         f"batch {start // config.batch_size} is not finite")
            scale = 1.0 / len(idx)
            for name in batch_grads:
                batch_grads[name] *= scale
            nn.adam_step(model.params, batch_grads, state, lr)
            epoch_loss += batch_loss
        history.append({"epoch": epoch, "lr": lr, "train_loss": epoch_loss / n})
    if not all(np.isfinite(p).all() for p in model.params.values()):
        raise FloatingPointError("training diverged: a parameter is not finite")
    return model, history


# ------------------------------------------------------------------ evaluation


def _auc_ovr(scores: np.ndarray, positives: np.ndarray) -> float:
    """Mann-Whitney AUC of scores for positive vs negative samples."""
    pos, neg = scores[positives], scores[~positives]
    # a tie group ending at 1-based rank `end` shares the rank (2 * end - count + 1) / 2
    _, group, counts = np.unique(
        np.concatenate([pos, neg]), return_inverse=True, return_counts=True
    )
    ends = np.cumsum(counts)
    ranks = (2 * ends - counts + 1) / 2.0
    u = ranks[group[: len(pos)]].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


def evaluate(model: PHGModel, dataset, mode: str | None = None) -> dict:
    """Accuracy plus one-vs-rest AUC/sensitivity/specificity class averages.

    The model picks the head: its vision logits when it holds the vision stub,
    else its topological ones. `mode` selects nothing: if given, it must be
    "pd_only" exactly when the model lacks the stub, else ValueError.
    Raises FloatingPointError when a sample's logits are not finite.
    """
    head = 0 if "vhead.w" in model.params else 1
    if mode is not None and mode not in (("pd_only",) if head else ("full", "vision_only")):
        raise ValueError(f"mode {mode!r} does not match a model {'without' if head else 'with'} vhead")
    if not dataset:
        raise ValueError("empty evaluation dataset")
    k = model.n_classes
    probs = np.zeros((len(dataset), k))
    labels = np.zeros(len(dataset), dtype=np.int64)
    for i, (image, features, label) in enumerate(dataset):
        # indexing drops each forward's cache before the next forward runs
        img = np.asarray(image, dtype=np.float64) / 255.0
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite logits raise below
            logits = forward(model, img, features)[head]
        if not np.isfinite(logits).all():
            raise FloatingPointError(f"the model's logits for sample {i} are not finite")
        probs[i] = nn.softmax(logits)
        labels[i] = label
    present = np.unique(labels)
    if present[-1] >= k:
        raise ValueError(f"labels {present[present >= k].tolist()} exceed the model's {k} classes")
    if len(present) < k:
        raise ValueError(f"classes missing from evaluation split: {set(range(k)) - set(present)}")
    preds = probs.argmax(axis=1)
    acc = float((preds == labels).mean())
    sens, specs, aucs = [], [], []
    for c in range(k):
        positives = labels == c
        tp = int(((preds == c) & positives).sum())
        tn = int(((preds != c) & ~positives).sum())
        sens.append(tp / int(positives.sum()))
        specs.append(tn / int((~positives).sum()))
        aucs.append(_auc_ovr(probs[:, c], positives))
    return {
        "accuracy": acc,
        "auc": float(np.mean(aucs)),
        "sensitivity": float(np.mean(sens)),
        "specificity": float(np.mean(specs)),
    }


# ----------------------------------------------------------------- checkpoints


def save_checkpoint(directory, model: PHGModel, config: TrainConfig, stats: NormalizationStats) -> None:
    """Flat JSON manifest plus raw little-endian float64 parameter blob.

    The blob holds the parameters in name order; `init_model(config)` gives
    their names and shapes, so the manifest lists none of them.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format": 3,
        "config": asdict(config),
        "stats": {"mean": stats.mean.tolist(), "std": stats.std.tolist()},
    }
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    blob = np.concatenate([model.params[n].ravel() for n in sorted(model.params)])
    blob.astype("<f8").tofile(os.path.join(directory, "params.bin"))


def load_checkpoint(directory):
    """Returns (model, config, stats) written by save_checkpoint.

    Raises FormatError naming the file when the manifest is not a JSON object
    of format 3 with "config" (TrainConfig's fields, meeting its rules) and
    "stats" (two finite numbers each for "mean" and "std", std above 0), or
    when the blob does not hold exactly the parameters the config builds, all
    of them finite.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    blob_path = os.path.join(directory, "params.bin")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: not a JSON object")
    if manifest.get("format") != 3:
        raise FormatError(
            f"{manifest_path}: unsupported format {manifest.get('format')!r}; this version"
            " reads format 3, so retrain"
        )
    missing = {"config", "stats"} - manifest.keys()
    if missing:
        raise FormatError(f"{manifest_path}: missing {', '.join(sorted(missing))}")
    cfg, stats = manifest["config"], manifest["stats"]
    names = {f.name for f in fields(TrainConfig)}
    if not isinstance(cfg, dict) or cfg.keys() != names:
        got = sorted(cfg) if isinstance(cfg, dict) else type(cfg).__name__
        raise FormatError(f"{manifest_path}: config must hold TrainConfig's fields, got {got}")
    if not isinstance(stats, dict) or not all(
        isinstance(v, list) and len(v) == 2 and all(map(finite_number, v))
        for v in (stats.get("mean"), stats.get("std"))
    ) or min(stats["std"]) <= 0:
        raise FormatError(f"{manifest_path}: stats mean and std must each hold 2 numbers,"
                          " all finite, with std above 0")
    try:
        config = TrainConfig(**{**cfg, "channels": tuple(cfg["channels"])})
        params = init_model(config).params
    except (TypeError, ValueError) as e:
        raise FormatError(f"{manifest_path}: config does not build a model: {e}") from None
    order = sorted(params)
    sizes = [params[n].size for n in order]
    with open(blob_path, "rb") as f:
        data = f.read()
    if len(data) != 8 * sum(sizes):
        raise FormatError(
            f"{blob_path}: holds {len(data)} bytes, the config builds {sum(sizes)} float64 values"
        )
    values = np.frombuffer(data, dtype="<f8")
    if not np.isfinite(values).all():
        raise FormatError(f"{blob_path}: holds a NaN or infinite parameter")
    chunks = np.split(values, np.cumsum(sizes)[:-1])
    for n, c in zip(order, chunks):
        params[n] = c.reshape(params[n].shape).copy()
    stats = NormalizationStats(np.array(stats["mean"]), np.array(stats["std"]))
    return PHGModel(params), config, stats
