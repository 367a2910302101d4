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
import multiprocessing
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


def _compute_one(path: str, out_path: str, finitize: float, min_pers: float) -> str | None:
    """Write one image's diagram; return its `error: <path>: <message>` line, or None."""
    try:
        diag = pipeline.preprocess_diagram(grid_persistence(_load_image(path)), finitize, min_pers)
        dg.write_diagram(out_path, diag)
    except Exception as e:  # per-file isolation: report, don't abort the batch
        return f"error: {path}: {e}"
    return None


def _compute_share(jobs, finitize: float, min_pers: float) -> list[str | None]:
    return [_compute_one(path, out_path, finitize, min_pers) for path, out_path in jobs]


def _send_share(conn, jobs, finitize: float, min_pers: float) -> None:
    """A forked child's work: compute its share and send the results back."""
    conn.send(_compute_share(jobs, finitize, min_pers))
    conn.close()


def cmd_compute(args) -> int:
    if os.path.isdir(args.input):
        names = sorted(
            n
            for n in os.listdir(args.input)
            if n.endswith((".pgm", ".csv")) and n != "labels.csv"
        )
        if not names:
            raise gridmod.FormatError(f"{args.input}: no .pgm or .csv images")
        pgms = {n for n in names if n.endswith(".pgm")}
        for n in names:
            if n.endswith(".csv") and (stem := n[:-4]) + ".pgm" in pgms:
                raise gridmod.FormatError(f"{args.input}: {n} and {stem}.pgm would both write {stem}.json")
        inputs = [os.path.join(args.input, n) for n in names]
    else:
        inputs = [args.input]
    os.makedirs(args.out, exist_ok=True)
    jobs = [(path, os.path.join(args.out, os.path.splitext(os.path.basename(path))[0] + ".json"))
            for path in inputs]
    # Input i goes to process i mod k: the calling process computes share 0 and
    # one forked child each other share, so the usable CPUs work side by side.
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    k = min(len(jobs), len(affinity(0)) if affinity else 1)
    shares = [jobs[j::k] for j in range(k)]
    children = []
    try:
        if k > 1:
            ctx = multiprocessing.get_context("fork")  # children start with numpy and topogate loaded
            for share in shares[1:]:
                recv_end, send_end = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_send_share, daemon=True,
                                    args=(send_end, share, args.finitize, args.min_pers))
                child.start()  # flushes stdout and stderr first, so no child repeats their buffers
                send_end.close()  # so recv() sees EOF if the child dies
                children.append((child, recv_end))
        results = [_compute_share(shares[0], args.finitize, args.min_pers)]
        for (child, recv_end), share in zip(children, shares[1:]):
            try:
                results.append(recv_end.recv())
            except EOFError:  # killed (out of memory, a signal) before it sent: its share failed
                child.join()
                # "" counts a file as failed; the worker's line reports it
                results.append([f"error: {args.input}: a compute worker for {len(share)} files"
                                f" died (exit code {child.exitcode})"] + [""] * (len(share) - 1))
            child.join()
    finally:
        for child, recv_end in children:
            recv_end.close()
            child.kill()  # nothing to do for a child already joined
            child.join()
    lines = [results[i % k][i // k] for i in range(len(jobs))]  # back in input order
    failures = sum(line is not None for line in lines)
    for line in lines:
        if line:
            print(line, file=sys.stderr)
    print(f"computed {len(inputs) - failures}/{len(inputs)} diagrams -> {args.out}")
    return 1 if failures else 0


# ------------------------------------------------------------------ vectorize

# The most cells (2^24 float64 values are 128 MiB) of an array vectorize writes or
# builds from one diagram, and the most pixels gen draws: --resolution and --size <= 4096.
_MAX_CELLS = 1 << 24
_MAX_SIDE = math.isqrt(_MAX_CELLS)


def cmd_vectorize(args) -> int:
    diag = dg.read_diagram(args.diagram)
    if diag.essential.any():
        raise gridmod.FormatError(f"{args.diagram}: essential point; vectorize needs a finitized diagram")
    # the largest array a method builds: points x --samples tents, or points x 2 --resolution Gaussians
    flag, width = ("--resolution", 2 * args.resolution) if args.method == "pimage" else ("--samples", args.samples)
    if len(diag.births) * width > _MAX_CELLS:
        print(f"error: {args.diagram}: {len(diag.births)} points x {width} is over {_MAX_CELLS} cells;"
              f" try a smaller {flag}", file=sys.stderr)
        return 2
    try:
        if args.method == "pimage":
            lo = min([args.t_min] + diag.births.tolist())
            hi = max([args.t_max] + diag.deaths.tolist())
            if not math.isfinite(hi - lo):
                raise gridmod.FormatError(
                    f"{args.diagram}: the image spans {lo:g}..{hi:g}, wider than float64 holds")
            spec = vectorize.ImageGridSpec(
                args.resolution, args.resolution, (lo, hi), (0.0, hi - lo), args.sigma
            )
            name = f"pimage_res{args.resolution}_sigma{args.sigma:g}"
            header = [f"{name}_col{c}" for c in range(spec.cols)]
            rows = vectorize.persistence_image(diag, spec)
        else:  # a curve: one row per grid value t
            t_grid = np.linspace(args.t_min, args.t_max, args.samples)
            if args.method == "betti":
                names, cols = ["betti"], vectorize.betti_curve(diag, t_grid)
            elif args.method == "landscape":
                names = [f"landscape_k{k}" for k in range(1, args.levels + 1)]
                cols = vectorize.landscapes(diag, args.levels, t_grid)
            else:
                names = [f"silhouette_p{args.power:g}"]
                cols = vectorize.silhouette(diag, args.power, t_grid)
            header, rows = ["t"] + names, np.column_stack([t_grid, cols])
    except FloatingPointError as e:  # a tiny --sigma or a large --power can pass its rule and still overflow
        hint = "a larger --sigma" if args.method == "pimage" else "a smaller --power"
        print(f"error: {args.diagram}: {e}; try {hint}", file=sys.stderr)
        return 2
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
        metrics = modelmod.evaluate(model, dataset)
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
        isinstance(h, dict) and all(gridmod.finite_number(h.get(k)) for k in fields)
        for h in history
    ):
        raise gridmod.FormatError(
            f"{path}: must be a non-empty list of records with finite numeric epoch and train_loss"
        )
    epochs = np.array([h["epoch"] for h in history], dtype=np.float64)
    return epochs, np.array([h["train_loss"] for h in history])


def cmd_plot(args) -> int:
    if args.diagram is not None:  # argparse gave exactly one source, maybe an empty path
        _plot_diagram_svg(dg.read_diagram(args.diagram), args.out)
    elif args.curve is not None:
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

    defaults = modelmod.TrainConfig()
    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=modelmod.MODES, default=defaults.mode)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--alpha", type=float, default=defaults.alpha)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size, dest="batch_size")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--n-per-group", type=int, default=defaults.n_per_group, dest="n_per_group")
    p.add_argument("--ratio", type=int, default=defaults.ratio)
    p.add_argument("--share-encoder", action=argparse.BooleanOptionalAction, default=defaults.share_encoder, dest="share_encoder")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render diagrams, curves, or loss histories as SVG")
    source = p.add_mutually_exclusive_group(required=True)
    for flag in ("--diagram", "--curve", "--history"):
        source.add_argument(flag)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


# The rule each numeric flag's value must meet, by argparse dest, as (rule,
# test of the parsed args), train's (and gen --seed's) being TrainConfig's rows
# and --sigma's the one persistence_image checks. --samples (a t column and a
# curve), --levels and --resolution keep the CSV within _MAX_CELLS cells.
# main checks the flags the command has before it runs, so a bad value exits 2
# naming the flag and no file is written. Every float flag must also be finite:
# inf passes a lower bound, and --min-pers, --finitize and --t-min have no rule.
_FLAG_RULES = {
    **modelmod.CONFIG_RULES,
    "size": (f"in {gridmod.MIN_SIZE}..{_MAX_SIDE}", lambda a: gridmod.MIN_SIZE <= a.size <= _MAX_SIDE),
    # generate_shapes holds every image before gen writes one; a bad --size is named first
    "n": (f">= 1, with --n x --size^2 <= {_MAX_CELLS}", lambda a: a.n >= 1 and a.n * a.size**2 <= _MAX_CELLS),
    "noise": ("in 0..255", lambda a: 0 <= a.noise <= 255),  # pixels are clipped to 0..255
    "sigma": vectorize.SIGMA_RULE,
    "power": (">= 0", lambda a: a.power >= 0),
    "samples": (f"in 1..{_MAX_CELLS // 2}", lambda a: 1 <= a.samples <= _MAX_CELLS // 2),
    "levels": (f">= 1, with --samples x (--levels + 1) <= {_MAX_CELLS}",
               lambda a: a.levels >= 1 and (a.method != "landscape" or a.samples * (a.levels + 1) <= _MAX_CELLS)),
    "resolution": (f"in 1..{_MAX_SIDE}", lambda a: 1 <= a.resolution <= _MAX_SIDE),
    "t_max": ("> --t-min, with --t-max - --t-min finite",
              lambda a: a.t_max > a.t_min and math.isfinite(a.t_max - a.t_min)),
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
        flag, value = "--" + dest.replace("_", "-"), getattr(args, dest)
        shown = f"{value:g}" if isinstance(value, float) else value  # an int prints exactly
        print(f"error: {args.command} {flag} {shown}: must be {rule}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (gridmod.FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
