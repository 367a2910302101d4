"""Checks computed apart from topogate: persistent Betti numbers from
``scipy.ndimage.label``, evaluation metrics from per-image softmax outputs,
and central-difference gradients.

Every check returns a list of human-readable failures; empty means it passed.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage, stats

FOUR = ndimage.generate_binary_structure(2, 1)
EIGHT = np.ones((3, 3), dtype=bool)


def read_p5(path) -> np.ndarray:
    """Minimal reader for the ``P5\\n<w> <h>\\n255\\n<bytes>`` files ``gen`` writes."""
    with open(path, "rb") as f:
        data = f.read()
    magic, size, maxval, rest = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not a plain 8-bit P5 file")
    w, h = (int(v) for v in size.split())
    return np.frombuffer(rest, dtype=np.uint8, count=w * h).reshape(h, w)


def _bars_alive_count(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query q, how many keys are <= q."""
    return np.searchsorted(np.sort(keys), queries, side="right")


def check_persistent_betti(grid, births, deaths, dims, thresholds, min_pers: float) -> list[str]:
    """Compare a finitized, filtered diagram with persistent Betti numbers.

    For integers a < b with b - a >= min_pers - 1 and b < 255, the bars with
    birth <= a and death > b must number:
      H0: the 4-connected components of {g <= b} that meet {g <= a};
      H1: the 8-connected components of {g > a} that do not touch the border
          and meet {g > b}.
    ``thresholds`` lists the b values checked for H0 (against every a) and the
    a values checked for H1 (against every b). The grid is integer-valued, so
    every bar counted has persistence >= b - a + 1 >= min_pers and survived
    the filter; bars of persistence exactly min_pers are counted too.
    """
    g = np.asarray(grid, dtype=np.int64)
    births = np.asarray(births, dtype=np.float64)
    deaths = np.asarray(deaths, dtype=np.float64)
    dims = np.asarray(dims)
    gap = int(np.ceil(min_pers)) - 1
    failures = []
    border = np.zeros(g.shape, dtype=bool)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    for t in thresholds:
        # H0: fix b = t, vary a over 0 .. b - gap
        b = int(t)
        a_vals = np.arange(0, b - gap + 1)
        if b < 255 and len(a_vals):
            lab, n = ndimage.label(g <= b, structure=FOUR)
            mins = ndimage.minimum(g, lab, np.arange(1, n + 1)) if n else np.zeros(0)
            want = _bars_alive_count(np.asarray(mins), a_vals)
            alive = births[(dims == 0) & (deaths > b)]
            got = _bars_alive_count(alive, a_vals)
            if not np.array_equal(want, got):
                i = int(np.argmax(want != got))
                failures.append(f"H0 at (a={a_vals[i]}, b={b}): oracle {want[i]}, diagram {got[i]}")
        # H1: fix a = t, vary b over a + gap .. 254
        a = int(t)
        b_vals = np.arange(a + gap, 255)
        if len(b_vals):
            lab, n = ndimage.label(g > a, structure=EIGHT)
            interior = np.setdiff1d(np.arange(1, n + 1), lab[border])
            maxs = ndimage.maximum(g, lab, interior) if len(interior) else np.zeros(0)
            want = len(interior) - _bars_alive_count(np.asarray(maxs), b_vals)
            alive = deaths[(dims == 1) & (births <= a)]
            got = len(alive) - _bars_alive_count(alive, b_vals)
            if not np.array_equal(want, got):
                i = int(np.argmax(want != got))
                failures.append(f"H1 at (a={a}, b={b_vals[i]}): oracle {want[i]}, diagram {got[i]}")
    return failures


def softmax(z) -> np.ndarray:
    e = np.exp(z - np.max(z))
    return e / e.sum()


def eval_metrics(probs: np.ndarray, labels: np.ndarray) -> dict:
    """Accuracy and class-averaged one-vs-rest sensitivity, specificity and
    AUC, the AUC as the Mann-Whitney U over n_pos * n_neg."""
    preds = probs.argmax(axis=1)
    sens, spec, auc = [], [], []
    for c in range(probs.shape[1]):
        pos = labels == c
        sens.append(np.sum((preds == c) & pos) / np.sum(pos))
        spec.append(np.sum((preds != c) & ~pos) / np.sum(~pos))
        u = stats.mannwhitneyu(probs[pos, c], probs[~pos, c]).statistic
        auc.append(u / (np.sum(pos) * np.sum(~pos)))
    return {
        "accuracy": float(np.mean(preds == labels)),
        "auc": float(np.mean(auc)),
        "sensitivity": float(np.mean(sens)),
        "specificity": float(np.mean(spec)),
    }


def compare_metrics(reported: dict, recomputed: dict, tol: float = 1e-12) -> list[str]:
    return [
        f"{k}: evaluate {reported.get(k)!r}, recomputed {v!r}"
        for k, v in recomputed.items()
        if k not in reported or not abs(reported[k] - v) <= tol
    ]


def check_gradients(loss_fn, params: dict, grads: dict, rng, per_group: int = 3,
                    h: float = 1e-7, atol: float = 2e-8, rtol: float = 1e-5) -> list[str]:
    """Difference quotients of ``loss_fn()`` against the analytic ``grads`` at
    ``per_group`` coordinates of every parameter array: the one with the
    largest analytic gradient (many entries are exactly 0 behind dead ReLUs)
    and random others.

    A coordinate passes when its gradient agrees with the central, forward or
    backward quotient. The loss is piecewise smooth: with tens of thousands of
    ReLU and max-pool decisions, a kink lies within h of the point for a few
    percent of samples, and then only the quotient on its kink-free side
    matches. A wrong gradient matches none of the three.
    """
    failures = []
    missing = sorted(set(params) - set(grads))
    if missing:
        failures.append(f"no gradient for {missing}")
    f0 = loss_fn()
    for name in sorted(set(params) & set(grads)):
        flat = params[name].flat  # writes through to the array
        size = params[name].size
        coords = {int(np.argmax(np.abs(grads[name])))}
        coords.update(int(i) for i in rng.choice(size, size=min(per_group, size) - 1, replace=False))
        for i in sorted(coords):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            analytic = grads[name].flat[i]
            quotients = ((up - down) / (2 * h), (up - f0) / h, (f0 - down) / h)
            if not any(abs(analytic - q) <= atol + rtol * max(abs(analytic), abs(q)) for q in quotients):
                failures.append(
                    f"{name}[{i}]: backward {analytic:.9g}, central difference {quotients[0]:.9g}"
                )
    return failures
