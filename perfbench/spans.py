"""In-memory span tracing around the public functions of topogate's modules.

The benchmark, not the program, installs the wrappers: every plain function
named in a module's ``__all__`` is replaced in its home module and in every
topogate namespace that imported it by name (``cli.grid_persistence``,
``pipeline.finitize``, ...). Each call records one span (name, phase, parent,
start, end); counts are taken from results at the same boundaries. Spans stay
in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict

import numpy as np

from topogate.diagram import DEFAULT_N_PER_GROUP

TRACED_MODULES = ("grid", "cubical", "diagram", "pipeline", "tinynn", "model")
NAMESPACES = TRACED_MODULES + ("cli",)
PHASES = ("run", "setup", "warmup")  # priority order for a layer's figure


def _observe(name, result, args, kwargs):
    """Counts recorded at a span boundary, as {counter: value}."""
    if name == "cubical.build_filtration":
        return {"cubical.cells": result.n_cells}
    if name == "cubical.compute_persistence":
        return {"cubical.points_raw": len(result)}
    if name == "diagram.filter_persistence":
        return {"diagram.points_kept": len(result)}
    if name == "diagram.to_point_features":
        diag = args[0]
        n_per_group = args[1] if len(args) > 1 else kwargs.get("n_per_group", DEFAULT_N_PER_GROUP)
        dims = np.asarray(diag.dims)
        cut = sum(max(0, int(np.sum(dims == g)) - n_per_group) for g in (0, 1))
        return {"diagram.rows_truncated": cut}
    if name == "diagram.write_diagram":
        path = args[0] if args else kwargs["path"]
        return {"diagram.json_bytes": os.path.getsize(path)}
    return None


class Tracer:
    """Records spans and counts; use as a context manager to patch topogate."""

    def __init__(self):
        self.phase = "warmup"
        self.spans: list[tuple] = []  # (id, name, phase, parent, t0_ns, t1_ns)
        self.counts = defaultdict(lambda: [0, 0])  # (phase, counter) -> [sum, n]
        self._next_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            phase = self.phase
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, phase, parent, t0, t1))
            observed = _observe(name, result, args, kwargs)
            if observed:
                for counter, value in observed.items():
                    c = counts[(phase, counter)]
                    c[0] += value
                    c[1] += 1
            return result

        return traced

    def __enter__(self):
        mods = {m: importlib.import_module(f"topogate.{m}") for m in NAMESPACES}
        wrapped = {}  # original function -> wrapper
        for short in TRACED_MODULES:
            mod = mods[short]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        return False

    # ------------------------------------------------------------ reduction

    def self_times(self):
        """{(phase, name): [self_ns, calls]}; self = duration - children."""
        child_ns = defaultdict(int)
        for _, _, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0])
        for sid, name, phase, _, t0, t1 in self.spans:
            acc = out[(phase, name)]
            acc[0] += t1 - t0 - child_ns[sid]
            acc[1] += 1
        return out

    def write(self, path, header: dict) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            **header,
            "span_fields": ["id", "name", "phase", "parent", "t0_ns", "t1_ns"],
            "names": names,
            "spans": [
                [sid, index[name], phase, parent, t0, t1]
                for sid, name, phase, parent, t0, t1 in self.spans
            ],
            "counts": {f"{p}:{c}": v for (p, c), v in sorted(self.counts.items())},
        }
        with open(path, "w") as f:
            json.dump(payload, f, separators=(",", ":"))
            f.write("\n")


def layer_metrics(tracer: Tracer, specs: list[dict], items: dict, speed: float) -> dict:
    """Per-layer figures from a finished trace.

    ``items`` maps each phase to its item count: timed items for "run", images
    per set-up for "setup", images of the warm-up pass for "warmup". A time
    metric (``<module>.<function>.ms`` or ``.self_ms``) is the function's self
    time per item in the first phase of PHASES in which it ran, divided by the
    run's speed factor like the end-to-end times; a count is the
    per-call mean in the first phase that recorded it, and
    ``diagram.kept_ratio`` is points kept over raw pairs in that phase.
    """
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if unit == "ms":
            fn = name.rsplit(".", 1)[0]
            phase = next(p for p in PHASES if selfs.get((p, fn), (0, 0))[1])
            value = selfs[(phase, fn)][0] / 1e6 / items[phase] / speed
        elif name == "diagram.kept_ratio":
            phase = next(p for p in PHASES if (p, "diagram.points_kept") in counts)
            value = counts[(phase, "diagram.points_kept")][0] / counts[(phase, "cubical.points_raw")][0]
        else:
            phase = next(p for p in PHASES if (p, name) in counts)
            total, n = counts[(phase, name)]
            value = total / n
        out[name] = {"value": value, "unit": unit}
    return out
