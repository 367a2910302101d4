"""Benchmark of topogate's compute, train and eval paths.

    python3 perfbench/run.py --workload compute-224 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; topogate is imported from its ``src``. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 5
REFERENCE_S = 0.030  # median time of reference_work() at the reference speed


def reference_work() -> None:
    """Fixed work that does not depend on topogate: an interpreter loop and
    small numpy operations, the two kinds of work the program does.

    It takes about REFERENCE_S on the 2-core host the bounds were set on. The
    host's speed drifts by 10-20 % over minutes, so the run's time metrics are
    scaled by how fast this work ran in the same run.
    """
    s = 0
    for i in range(150_000):
        s += i * i % 7
    a = b = np.random.default_rng(0).random((64, 64))
    for _ in range(400):
        a = np.maximum(a @ b, 0.0)
        a /= a.max()


def import_topogate() -> None:
    sys.path.insert(0, SRC)
    try:
        import topogate
    except ImportError as e:
        sys.exit(f"error: cannot import topogate from {SRC}: {e}")
    if os.path.dirname(os.path.dirname(os.path.abspath(topogate.__file__))) != SRC:
        sys.exit(f"error: imported topogate from {topogate.__file__}, not from {SRC}")


def measure(wl, state, seconds: float):
    """Whole rounds until `seconds` have passed, each followed by one timed
    reference_work(); returns (round times, reference times, outputs, failed)."""
    times, ref_times, outputs, failed = [], [], [], 0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        n_failed, out = wl.run_round(state, len(times))
        t1 = time.perf_counter()
        reference_work()
        times.append(t1 - t0)
        ref_times.append(time.perf_counter() - t1)
        outputs.append(out)
        failed += n_failed
    return times, ref_times, outputs, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    import_topogate()
    from spans import Tracer, layer_metrics
    from workloads import WARMUP_IMAGES, WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    rundir = os.path.join(WORK, f"{wl.name}-seed{args.seed}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        failures = warm_up(os.path.join(rundir, "warmup"), args.seed)
        if tracer:
            tracer.phase = "setup"
        setup_s = []
        for k in range(1 if tracer else SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(os.path.join(rundir, f"setup{k}"), args.seed)
            setup_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.phase = "run"
        times, ref_times, outputs, failed = measure(wl, state, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = statistics.median(ref_times) / REFERENCE_S  # > 1: host slower than reference
    raw_items_per_s = wl.items_per_round / statistics.median(times)
    items_per_s = raw_items_per_s * speed

    failures += wl.check(state, outputs)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
    print(
        f"{wl.name} seed {args.seed} trace {args.trace}: {len(times)} rounds of "
        f"{wl.items_per_round} items, round s median {statistics.median(times):.4f} "
        f"(q1 {q1:.4f}, q3 {q3:.4f}), {raw_items_per_s:.4f} items/s as measured, "
        f"reference work {statistics.median(ref_times) * 1e3:.2f} ms, "
        f"{items_per_s:.4f} items/s normalised; set-up s as measured {setup_s}",
        file=sys.stderr,
    )

    if tracer:
        items = {"run": len(times) * wl.items_per_round, "setup": wl.images_per_setup,
                 "warmup": WARMUP_IMAGES}
        metrics = layer_metrics(tracer, spec["per_layer"], items, speed)
        tracer.write(
            os.path.join(WORK, f"trace-{wl.name}-seed{args.seed}.json"),
            {"workload": wl.name, "seed": args.seed, "items": items,
             "traced_items_per_s": items_per_s, "raw_items_per_s": raw_items_per_s,
             "metrics": metrics},
        )
    else:
        metrics = {
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
            "setup_s": {"value": statistics.median(setup_s) / speed, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    shutil.rmtree(rundir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": len(times) * wl.items_per_round,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
