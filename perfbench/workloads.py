"""The three workloads: set-up, one timed round, and the output checks.

Each workload drives topogate through the calls a user makes:
``topogate.cli.main`` for ``compute``, and the ``pipeline``/``model``/``grid``
functions that ``cmd_train`` and ``cmd_eval`` call. Functions are looked up
on their modules at call time so that the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re

import numpy as np

from topogate import cli, grid, model, pipeline
from topogate.cubical import grid_persistence
from topogate.diagram import DEFAULT_N_PER_GROUP as N_PER_GROUP
from topogate.diagram import scale_normalize, to_point_features
from topogate.pipeline import DEFAULT_INTENSITY_MAX as INTENSITY_MAX
from topogate.pipeline import DEFAULT_MIN_PERS as MIN_PERS  # also `compute`'s default

WARMUP_IMAGES = 3


def run_cli(argv: list[str]) -> tuple[int, str]:
    """topogate.cli.main with its stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def gen(seed: int, n: int, size: int, out: str) -> None:
    code, text = run_cli(
        ["gen", "--seed", str(seed), "--n", str(n), "--size", str(size), "--noise", "20", "--out", out]
    )
    if code != 0:
        raise RuntimeError(f"gen exited {code}: {text}")


def read_labels(directory: str) -> list[tuple[str, int]]:
    with open(os.path.join(directory, "labels.csv"), newline="") as f:
        return [(os.path.join(directory, r["file"]), int(r["label"])) for r in csv.DictReader(f)]


def load_samples(rows) -> list:
    return [grid.SyntheticSample(image=grid.load_pgm(path), label=label) for path, label in rows]


def train_config(seed: int, epochs: int, batch_size: int) -> model.TrainConfig:
    """The config `topogate train --mode full` builds, with its CLI defaults."""
    return model.TrainConfig(
        epochs=epochs, lr=3e-3, alpha=0.1, batch_size=batch_size, seed=seed,
        n_per_group=N_PER_GROUP, ratio=8, share_encoder=True, mode="full",
        use_phg=True, n_classes=3,
    )


def warm_up(directory: str, seed: int) -> list[str]:
    """gen -> compute -> train -> eval on three 64x64 images through the CLI.

    Pays first-call costs before anything is timed, and gives a traced figure
    to every layer, also to those a workload's own set-up and rounds skip.
    """
    data, diags, run = (os.path.join(directory, d) for d in ("data", "diagrams", "run"))
    failures = []
    for argv in (
        ["gen", "--seed", str(seed), "--n", str(WARMUP_IMAGES), "--size", "64", "--out", data],
        ["compute", "--input", data, "--out", diags],
        ["train", "--data", data, "--out", run, "--epochs", "1", "--batch-size", "3", "--seed", str(seed)],
        ["eval", "--data", data, "--checkpoint", run],
    ):
        code, text = run_cli(argv)
        if code != 0:
            failures.append(f"warm-up `{argv[0]}` exited {code}: {text.strip()}")
    return failures


def thresholds(seed: int, stride: int) -> range:
    """Every stride-th intensity, from an offset the seed picks."""
    return range(int(np.random.default_rng(seed).integers(stride)), 255, stride)


# ---------------------------------------------------------------- compute-224


class Compute:
    """`topogate compute` with default flags over directories of 224x224 PGMs."""

    name = "compute-224"
    pool = 24  # images generated per set-up
    batch = 2  # images per directory, one directory per round
    images_per_setup = pool
    items_per_round = batch
    oracle_stride = 8

    def setup(self, directory: str, seed: int) -> dict:
        data = os.path.join(directory, "data")
        gen(seed, self.pool, 224, data)
        batches = []
        for k in range(self.pool // self.batch):
            bdir = os.path.join(directory, "in", f"b{k:03d}")
            os.makedirs(bdir)
            for i in range(k * self.batch, (k + 1) * self.batch):
                name = f"sample_{i:05d}.pgm"
                os.replace(os.path.join(data, name), os.path.join(bdir, name))
            batches.append(bdir)
        return {"dir": directory, "batches": batches, "seed": seed}

    def run_round(self, st: dict, r: int):
        bdir = st["batches"][r % len(st["batches"])]
        out = os.path.join(st["dir"], "out", f"r{r:05d}")
        code, text = run_cli(["compute", "--input", bdir, "--out", out])
        m = re.search(r"computed (\d+)/(\d+) diagrams", text)
        done = int(m.group(1)) if m else 0
        return self.batch - done, (bdir, out, code)

    def check(self, st: dict, outputs) -> list[str]:
        from oracle import check_persistent_betti, read_p5

        failures = []
        first: dict[str, bytes] = {}
        levels = thresholds(st["seed"], self.oracle_stride)
        for bdir, out, code in outputs:
            if code != 0:
                failures.append(f"compute on {bdir} exited {code}")
            for name in sorted(os.listdir(bdir)):
                stem = os.path.splitext(name)[0]
                path = os.path.join(out, stem + ".json")
                with open(path, "rb") as f:
                    raw = f.read()
                if stem in first:
                    if raw != first[stem]:
                        failures.append(f"{path}: differs from the first diagram of {name}")
                    continue
                first[stem] = raw
                points = json.loads(raw)["points"]
                births = [p["birth"] for p in points]
                deaths = [p["death"] for p in points]
                if any(p["essential"] or p["death"] is None for p in points):
                    failures.append(f"{path}: essential point after finitize")
                    continue
                if any(not (MIN_PERS <= d - b and d <= INTENSITY_MAX) for b, d in zip(births, deaths)):
                    failures.append(f"{path}: point below min_pers or above the intensity ceiling")
                errs = check_persistent_betti(
                    read_p5(os.path.join(bdir, name)), births, deaths,
                    [p["dim"] for p in points], levels, MIN_PERS,
                )
                failures += [f"{path}: {e}" for e in errs[:3]]
        return failures


# ------------------------------------------------------------------- train-64


class Train:
    """`model.train` in full mode over point features built in set-up."""

    name = "train-64"
    n = 32
    epochs = 4
    batch_size = 16
    images_per_setup = n
    items_per_round = n * epochs  # sample-steps

    def setup(self, directory: str, seed: int) -> dict:
        data = os.path.join(directory, "data")
        gen(seed, self.n, 64, data)
        samples = load_samples(read_labels(data))
        dataset, stats = pipeline.build_feature_dataset(samples, n_per_group=N_PER_GROUP)
        config = train_config(seed, self.epochs, self.batch_size)
        return {"dir": directory, "dataset": dataset, "stats": stats, "config": config, "seed": seed}

    def run_round(self, st: dict, r: int):
        return 0, model.train(st["dataset"], st["config"])

    def check(self, st: dict, outputs) -> list[str]:
        from oracle import check_gradients

        failures = []
        model0, history0 = outputs[0]
        for r, (m, history) in enumerate(outputs):
            losses = [h["train_loss"] for h in history]
            if len(losses) != self.epochs or not all(np.isfinite(losses)):
                failures.append(f"round {r}: epoch losses {losses}")
            elif not losses[-1] < losses[0]:
                failures.append(f"round {r}: last epoch loss {losses[-1]} not below first {losses[0]}")
            if history != history0 or any(
                not np.array_equal(m.params[k], model0.params[k]) for k in model0.params
            ):
                failures.append(f"round {r}: differs from round 0 under the same seed")

        rng = np.random.default_rng(st["seed"])
        alpha = st["config"].alpha
        for j in (0, 1):
            image, feats, label = st["dataset"][j]
            img = np.asarray(image, dtype=np.float64) / 255.0

            def loss_fn():
                lv, lt, _ = model.forward(model0, img, feats)
                return model.total_loss(lv, lt, label, alpha)[0]

            lv, lt, cache = model.forward(model0, img, feats)
            _, dv, dt = model.total_loss(lv, lt, label, alpha)
            grads = model.backward(model0, cache, dv, dt)
            failures += [f"sample {j}: {e}" for e in check_gradients(loss_fn, model0.params, grads, rng)]

        ckpt = os.path.join(st["dir"], "checkpoint")
        model.save_checkpoint(ckpt, model0, st["config"], st["stats"])
        loaded, _, _ = model.load_checkpoint(ckpt)
        if sorted(loaded.params) != sorted(model0.params) or any(
            loaded.params[k].dtype != v.dtype or not np.array_equal(loaded.params[k], v)
            for k, v in model0.params.items()
        ):
            failures.append("load_checkpoint(save_checkpoint(model)) changed the parameters")
        return failures


# -------------------------------------------------------------------- eval-64


class Eval:
    """The `topogate eval` path per 64x64 image, with a checkpoint from set-up."""

    name = "eval-64"
    n_train = 24
    train_epochs = 2
    pool = 36  # evaluation images, in batches that each hold every class
    batch = 12
    images_per_setup = n_train + pool
    items_per_round = batch
    oracle_stride = 2

    def setup(self, directory: str, seed: int) -> dict:
        train_dir, eval_dir = os.path.join(directory, "train"), os.path.join(directory, "eval")
        gen(2 * seed, self.n_train, 64, train_dir)
        dataset, stats = pipeline.build_feature_dataset(
            load_samples(read_labels(train_dir)), n_per_group=N_PER_GROUP
        )
        config = train_config(seed, self.train_epochs, 8)
        trained, _ = model.train(dataset, config)
        ckpt = os.path.join(directory, "checkpoint")
        model.save_checkpoint(ckpt, trained, config, stats)
        loaded, config, stats = model.load_checkpoint(ckpt)
        gen(2 * seed + 1, self.pool, 64, eval_dir)
        rows = read_labels(eval_dir)
        batches = [rows[k : k + self.batch] for k in range(0, self.pool, self.batch)]
        return {"model": loaded, "config": config, "stats": stats, "batches": batches, "seed": seed}

    def run_round(self, st: dict, r: int):
        k = r % len(st["batches"])
        samples = load_samples(st["batches"][k])
        dataset, _ = pipeline.build_feature_dataset(
            samples, stats=st["stats"], n_per_group=st["config"].n_per_group
        )
        return 0, (k, dataset, model.evaluate(st["model"], dataset, st["config"].mode))

    def check(self, st: dict, outputs) -> list[str]:
        from oracle import check_persistent_betti, compare_metrics, eval_metrics, read_p5, softmax

        failures = []
        m, stats = st["model"], st["stats"]
        rng = np.random.default_rng(st["seed"])
        levels = thresholds(st["seed"], self.oracle_stride)
        first: dict[int, tuple] = {}
        for r, (k, dataset, metrics) in enumerate(outputs):
            if k in first:
                feats0, metrics0 = first[k]
                if metrics != metrics0 or any(
                    not np.array_equal(f, d[1]) for f, d in zip(feats0, dataset)
                ):
                    failures.append(f"round {r}: batch {k} differs from its first evaluation")
                continue
            first[k] = ([d[1] for d in dataset], metrics)
            probs, labels = [], []
            for (path, label), (image, feats, dlabel) in zip(st["batches"][k], dataset):
                if not np.array_equal(read_p5(path), image) or label != dlabel:
                    failures.append(f"{path}: loaded image or label differs from the file")
                diag = pipeline.preprocess_diagram(grid_persistence(image), INTENSITY_MAX, MIN_PERS)
                expect = to_point_features(scale_normalize(diag, INTENSITY_MAX, stats), N_PER_GROUP)
                if not np.array_equal(expect, feats):
                    failures.append(f"{path}: point features differ from its diagram's")
                errs = check_persistent_betti(image, diag.births, diag.deaths, diag.dims, levels, MIN_PERS)
                failures += [f"{path}: {e}" for e in errs[:3]]
                prefix = m.encoder_prefix(0)
                t1, _ = model.encode_pd(feats, m.params, prefix)
                t2, _ = model.encode_pd(feats[rng.permutation(len(feats))], m.params, prefix)
                if not np.max(np.abs(t1 - t2)) <= 1e-12:
                    failures.append(f"{path}: PD encoding changes under a row permutation")
                logits, _, _ = model.forward(m, np.asarray(image, dtype=np.float64) / 255.0, feats)
                probs.append(softmax(logits))
                labels.append(label)
            errs = compare_metrics(metrics, eval_metrics(np.array(probs), np.array(labels)))
            failures += [f"batch {k}: {e}" for e in errs]
        return failures


WORKLOADS = {w.name: w for w in (Compute(), Train(), Eval())}
