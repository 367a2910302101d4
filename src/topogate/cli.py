"""Command-line surface: PD computation, vectorization, dataset generation,
training, evaluation, and SVG plotting.

Every command prints its resolved configuration and is byte-reproducible
given identical inputs, flags, and seed (no timestamps in any artifact).
Exit codes: 0 success, 1 per-file failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import diagram as dg
from . import grid as gridmod
from . import model as modelmod
from . import pipeline, vectorize
from .cubical import grid_persistence


def _load_image(path: str) -> np.ndarray:
    if path.endswith(".csv"):
        return gridmod.load_csv_grid(path)
    return gridmod.load_pgm(path)


# -------------------------------------------------------------------- compute


def cmd_compute(args) -> int:
    if os.path.isdir(args.input):
        names = sorted(
            n
            for n in os.listdir(args.input)
            if n.endswith((".pgm", ".csv")) and n != "labels.csv"
        )
        if not names:
            raise gridmod.FormatError(f"{args.input}: no .pgm or .csv images")
        inputs = [os.path.join(args.input, n) for n in names]
    else:
        inputs = [args.input]
    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for path in inputs:
        out_path = os.path.join(args.out, os.path.splitext(os.path.basename(path))[0] + ".json")
        try:
            diag = pipeline.preprocess_diagram(
                grid_persistence(_load_image(path)), args.finitize, args.min_pers
            )
            dg.write_diagram(out_path, diag)
        except Exception as e:  # per-file isolation: report, don't abort the batch
            print(f"error: {path}: {e}", file=sys.stderr)
            failures += 1
    print(f"computed {len(inputs) - failures}/{len(inputs)} diagrams -> {args.out}")
    return 1 if failures else 0


# ------------------------------------------------------------------ vectorize


def cmd_vectorize(args) -> int:
    diag = dg.read_diagram(args.diagram)
    if diag.essential.any():
        raise gridmod.FormatError(f"{args.diagram}: essential point; vectorize needs a finitized diagram")
    if args.method == "pimage":
        lo = min([args.t_min] + diag.births.tolist())
        hi = max([args.t_max] + diag.deaths.tolist())
        spec = vectorize.ImageGridSpec(
            args.resolution, args.resolution, (lo, hi), (0.0, hi - lo), args.sigma
        )
        name = f"pimage_res{args.resolution}_sigma{args.sigma:g}"
        header = [f"{name}_col{c}" for c in range(spec.cols)]
        rows = vectorize.persistence_image(diag, spec)
    else:  # a curve: one row per grid value t
        t_grid = np.linspace(args.t_min, args.t_max, args.samples)
        if args.method == "betti":
            names, cols = ["betti"], [vectorize.betti_curve(diag, t_grid)]
        elif args.method == "landscape":
            ks = range(1, args.levels + 1)
            names = [f"landscape_k{k}" for k in ks]
            cols = [vectorize.landscape(diag, k, t_grid) for k in ks]
        else:
            names = [f"silhouette_p{args.power:g}"]
            cols = [vectorize.silhouette(diag, args.power, t_grid)]
        header, rows = ["t"] + names, np.column_stack([t_grid] + cols)
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)
    print(f"wrote {args.method} vectorization -> {args.out}")
    return 0


# ------------------------------------------------------------------------ gen


def _dataset_hash(directory: str, names: list[str]) -> str:
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(directory, name), "rb") as f:
            digest.update(name.encode())
            digest.update(f.read())
    return digest.hexdigest()


def cmd_gen(args) -> int:
    samples = gridmod.generate_shapes(args.seed, args.n, args.size, noise=args.noise)
    os.makedirs(args.out, exist_ok=True)
    names = []
    with open(os.path.join(args.out, "labels.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["file", "label"])
        for i, s in enumerate(samples):
            name = f"sample_{i:05d}.pgm"
            gridmod.save_pgm(os.path.join(args.out, name), s.image)
            writer.writerow([name, s.label])
            names.append(name)
    manifest = {
        "seed": args.seed,
        "n": args.n,
        "size": args.size,
        "noise": args.noise,
        "classes": list(gridmod.SHAPE_CLASSES),
        "dataset_hash": _dataset_hash(args.out, names + ["labels.csv"]),
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"generated {args.n} samples -> {args.out} (hash {manifest['dataset_hash'][:12]})")
    return 0


def _load_dataset(directory: str, mode: str):
    """The samples labels.csv lists; the vision stub needs sides divisible by
    4, since both of its max-pools halve the image."""
    path = os.path.join(directory, "labels.csv")
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            columns, rows = reader.fieldnames or (), list(reader)
    except UnicodeDecodeError:
        raise gridmod.FormatError(f"{path}: not UTF-8 text") from None
    missing = {"file", "label"} - set(columns)
    if missing:
        raise gridmod.FormatError(f"{path}: missing column(s) {', '.join(sorted(missing))}")
    try:
        labels = [int(r["label"]) for r in rows]
    except (TypeError, ValueError):  # a short row gives None
        raise gridmod.FormatError(f"{path}: every label must be an integer") from None
    if not labels:
        raise gridmod.FormatError(f"{path}: no samples")
    if not all(r["file"] and "\0" not in r["file"] for r in rows):
        raise gridmod.FormatError(f"{path}: every file must be a name without NUL bytes")
    if min(labels) < 0:
        raise gridmod.FormatError(f"{path}: labels must be non-negative")
    if len(set(labels)) < 2:
        raise gridmod.FormatError(f"{path}: labels name fewer than two classes")
    samples = []
    for r, y in zip(rows, labels):
        image_path = os.path.join(directory, r["file"])
        try:
            image = gridmod.load_pgm(image_path)
        except gridmod.FormatError as e:
            raise gridmod.FormatError(f"{image_path}: {e}") from None
        if mode != "pd_only" and (image.shape[0] % 4 or image.shape[1] % 4):
            raise gridmod.FormatError(
                f"{image_path}: {image.shape[0]}x{image.shape[1]} image; mode {mode} max-pools"
                " it twice, so both sides must be divisible by 4"
            )
        samples.append(gridmod.SyntheticSample(image=image, label=y))
    return samples


# ----------------------------------------------------------------- train/eval


def cmd_train(args) -> int:
    samples = _load_dataset(args.data, args.mode)
    # each train flag's dest is the TrainConfig field it sets
    flags = {f.name for f in dataclasses.fields(modelmod.TrainConfig)} & vars(args).keys()
    config = modelmod.TrainConfig(**{f: getattr(args, f) for f in flags},
                                  n_classes=max(s.label for s in samples) + 1)
    dataset, stats = pipeline.build_feature_dataset(samples, n_per_group=config.n_per_group)
    try:
        model, history = modelmod.train(dataset, config)
    except FloatingPointError as e:  # a finite but too large --lr can overflow float64
        print(f"error: {args.data}: {e}; try a smaller --lr", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    modelmod.save_checkpoint(args.out, model, config, stats)
    with open(os.path.join(args.out, "history.json"), "w") as f:
        json.dump(history, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"trained {config.mode} model for {config.epochs} epochs -> {args.out}")
    print(f"final train loss {history[-1]['train_loss']:.4f}")
    return 0


def cmd_eval(args) -> int:
    model, config, stats = modelmod.load_checkpoint(args.checkpoint)
    samples = _load_dataset(args.data, config.mode)
    dataset, _ = pipeline.build_feature_dataset(
        samples, stats=stats, n_per_group=config.n_per_group
    )
    try:
        metrics = modelmod.evaluate(model, dataset, config.mode)
    except FloatingPointError as e:  # finite parameters can still overflow float64
        print(f"error: {args.checkpoint}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:  # the split cannot be scored, e.g. a class is missing
        print(f"error: {args.data}: {e}", file=sys.stderr)
        return 1
    print(f"{'metric':<14}{'value':>8}")
    for key in ("accuracy", "auc", "sensitivity", "specificity"):
        print(f"{key:<14}{metrics[key]:>8.4f}")
    return 0


# ----------------------------------------------------------------------- plot


def _svg_header(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _svg_frame(size: int, pad: int, *under: str) -> list[str]:
    """A square plot: the SVG header, the lines in `under`, then the x and y axes."""
    return _svg_header(size, size) + list(under) + [
        f'<line x1="{pad}" y1="{size-pad}" x2="{size-pad}" y2="{size-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{size-pad}" x2="{pad}" y2="{pad}" stroke="black"/>',
    ]


def _write_svg(path: str, lines: list[str]) -> None:
    with open(path, "w") as f:
        f.write("\n".join(lines + ["</svg>"]) + "\n")


def _plot_diagram_svg(diag: dg.Diagram, path: str, size: int = 360) -> None:
    pad = 40
    finite = [float(d) for d in diag.deaths if np.isfinite(d)]
    hi = max([1.0] + [float(b) for b in diag.births] + finite)
    scale = (size - 2 * pad) / hi

    def sx(v):
        return pad + v * scale

    def sy(v):
        return size - pad - v * scale

    diagonal = (
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(hi):.2f}" y2="{sy(hi):.2f}" '
        'stroke="gray" stroke-dasharray="4 3"/>'
    )
    lines = _svg_frame(size, pad, diagonal)
    colors = {0: "blue", 1: "orange"}
    d = diag.canonical()
    for b, dd, k, e in zip(d.births, d.deaths, d.dims, d.essential):
        # essential points sit on the top edge as squares
        x, y, fill = sx(float(b)), sy(hi if e else float(dd)), colors[int(k)]
        lines.append(
            f'<rect x="{x-3:.2f}" y="{y-3:.2f}" width="6" height="6" fill="{fill}"/>'
            if e
            else f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{fill}"/>'
        )
    _write_svg(path, lines)


def _plot_curves_svg(t, columns: dict[str, np.ndarray], path: str, size: int = 360) -> None:
    pad = 40
    hi = max(1e-12, max(float(np.max(c)) for c in columns.values()))
    t = np.asarray(t, dtype=np.float64)
    t0, t1 = float(t[0]), float(t[-1])
    xs = pad + (t - t0) / max(t1 - t0, 1e-12) * (size - 2 * pad)
    palette = ["blue", "orange", "green", "red", "purple", "brown"]
    lines = _svg_frame(size, pad)
    for i, (name, col) in enumerate(columns.items()):
        ys = size - pad - np.asarray(col) / hi * (size - 2 * pad)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{palette[i % len(palette)]}">'
            f"<title>{name}</title></polyline>"
        )
    _write_svg(path, lines)


def _plot_heatmap_svg(values: np.ndarray, path: str, cell: int = 12) -> None:
    rows, cols = values.shape
    hi = max(1e-12, float(values.max()))
    lines = _svg_header(cols * cell, rows * cell)
    for r in range(rows):
        for c in range(cols):
            v = values[rows - 1 - r, c] / hi  # persistence axis upward
            shade = int(round(255 * (1 - v)))
            lines.append(
                f'<rect x="{c*cell}" y="{r*cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)"/>'
            )
    _write_svg(path, lines)


def _read_curve_csv(path: str):
    """Header and numeric rows of a `vectorize` CSV; FormatError naming the file."""
    try:
        with open(path, newline="") as f:
            header, *rows = list(csv.reader(f)) or [[]]
    except UnicodeDecodeError:
        raise gridmod.FormatError(f"{path}: not UTF-8 text") from None
    try:
        data = [[float(v) for v in row] for row in rows]
    except ValueError:
        raise gridmod.FormatError(f"{path}: a cell below the header is not a number") from None
    if not data or any(len(row) != len(header) for row in data):
        raise gridmod.FormatError(f"{path}: needs a header and rows of as many numbers")
    if header == ["t"]:
        raise gridmod.FormatError(f"{path}: holds no column besides t")
    data = np.array(data)
    if not np.isfinite(data).all():
        raise gridmod.FormatError(f"{path}: holds a NaN or infinite cell")
    return header, data


def _read_history(path: str):
    """Epochs and losses of a history.json; FormatError naming the file."""
    history = gridmod.read_json(path)
    fields = ("epoch", "train_loss")
    if not isinstance(history, list) or not history or not all(
        isinstance(h, dict) and all(dg._number(h.get(k)) and dg._finite(h[k]) for k in fields)
        for h in history
    ):
        raise gridmod.FormatError(
            f"{path}: must be a non-empty list of records with finite numeric epoch and train_loss"
        )
    epochs = np.array([h["epoch"] for h in history], dtype=np.float64)
    return epochs, np.array([h["train_loss"] for h in history])


def cmd_plot(args) -> int:
    if [args.diagram, args.curve, args.history].count(None) != 2:
        print("error: plot takes exactly one of --diagram/--curve/--history", file=sys.stderr)
        return 2
    if args.diagram:
        _plot_diagram_svg(dg.read_diagram(args.diagram), args.out)
    elif args.curve:
        header, data = _read_curve_csv(args.curve)
        if header[0] == "t":
            cols = {name: data[:, i + 1] for i, name in enumerate(header[1:])}
            _plot_curves_svg(data[:, 0], cols, args.out)
        else:
            _plot_heatmap_svg(data, args.out)
    else:
        epochs, losses = _read_history(args.history)
        _plot_curves_svg(epochs, {"train_loss": losses}, args.out)
    print(f"wrote plot -> {args.out}")
    return 0


# ----------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topogate",
        description="Topological feature engine: cubical persistence with gated fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute persistence diagrams for images")
    p.add_argument("--input", required=True, help="PGM/CSV image or directory")
    p.add_argument("--out", required=True, help="output directory for diagram JSON")
    p.add_argument("--min-pers", type=float, default=pipeline.DEFAULT_MIN_PERS, dest="min_pers")
    p.add_argument("--finitize", type=float, default=pipeline.DEFAULT_INTENSITY_MAX)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("vectorize", help="vectorize a diagram to CSV")
    p.add_argument("--diagram", required=True)
    p.add_argument("--method", required=True, choices=["betti", "landscape", "silhouette", "pimage"])
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--t-min", type=float, default=0.0, dest="t_min")
    p.add_argument("--t-max", type=float, default=pipeline.DEFAULT_INTENSITY_MAX, dest="t_max")
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--power", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=10.0)
    p.add_argument("--resolution", type=int, default=20)
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("gen", help="generate a synthetic shape dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--noise", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    # --epochs, --lr and --batch-size default to a shorter run than TrainConfig's
    defaults = modelmod.TrainConfig()
    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=modelmod.MODES, default=defaults.mode)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--alpha", type=float, default=defaults.alpha)
    p.add_argument("--batch-size", type=int, default=16, dest="batch_size")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--n-per-group", type=int, default=dg.DEFAULT_N_PER_GROUP, dest="n_per_group")
    p.add_argument("--ratio", type=int, default=defaults.ratio)
    p.add_argument("--share-encoder", action=argparse.BooleanOptionalAction, default=defaults.share_encoder, dest="share_encoder")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render diagrams, curves, or loss histories as SVG")
    p.add_argument("--diagram")
    p.add_argument("--curve")
    p.add_argument("--history")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


# The rule each numeric flag's value must meet, by argparse dest, as (rule,
# test of the parsed args), train's (and gen --seed's) being TrainConfig's rows.
# main checks the flags the command has before it runs, so a bad value exits 2
# naming the flag and no file is written. Every float flag must also be finite:
# inf passes a lower bound, and --min-pers, --finitize and --t-min have no rule.
_FLAG_RULES = {
    **modelmod.CONFIG_RULES,
    "n": (">= 1", lambda a: a.n >= 1),
    "size": (f">= {gridmod.MIN_SIZE}", lambda a: a.size >= gridmod.MIN_SIZE),
    "noise": (">= 0", lambda a: a.noise >= 0),
    "sigma": ("> 0", lambda a: a.sigma > 0),
    "power": (">= 0", lambda a: a.power >= 0),
    "levels": (">= 1", lambda a: a.levels >= 1),
    "samples": (">= 1", lambda a: a.samples >= 1),
    "resolution": (">= 1", lambda a: a.resolution >= 1),
    "t_max": ("> --t-min", lambda a: a.t_max > a.t_min),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("config:", json.dumps(resolved, default=str, sort_keys=True))
    broken = [(d, "finite") for d, v in vars(args).items()
              if isinstance(v, float) and not math.isfinite(v)]
    broken += [(d, rule) for d, (rule, ok) in _FLAG_RULES.items() if d in args and not ok(args)]
    if broken:
        dest, rule = broken[0]
        flag = "--" + dest.replace("_", "-")
        print(f"error: {args.command} {flag} {getattr(args, dest):g}: must be {rule}",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (gridmod.FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
