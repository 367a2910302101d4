"""Shows that the benchmark's checks catch corrupted outputs.

    python3 perfbench/selfcheck.py

Runs each check once on a correct output, where it must pass, and once on
each deliberately corrupted copy, where it must fail: a diagram with a bar
dropped, added or shifted; a gradient off by 1 %; evaluation metrics off by
1e-9. Exits 0 when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import sys

import numpy as np

from run import import_topogate


def main() -> int:
    import_topogate()
    from oracle import check_gradients, check_persistent_betti, compare_metrics, eval_metrics, softmax
    from topogate import grid, model, pipeline
    from topogate.cubical import grid_persistence
    from workloads import MIN_PERS, N_PER_GROUP, train_config

    results = []

    def expect(label: str, failures: list[str], should_fail: bool) -> None:
        ok = bool(failures) == should_fail
        results.append(ok)
        first = failures[0] if failures else "no failure"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {first}")

    samples = grid.generate_shapes(5, 6, 64)
    image = samples[1].image  # an annulus: both H0 and H1 bars
    diag = pipeline.preprocess_diagram(grid_persistence(image))
    b, d, k = diag.births, diag.deaths, diag.dims
    levels = range(255)

    def betti(births, deaths, dims):
        return check_persistent_betti(image, births, deaths, dims, levels, MIN_PERS)

    expect("diagram as computed", betti(b, d, k), False)
    for dim in (0, 1):
        i = int(np.argmax(np.where((k == dim) & (d < 255), d - b, -1)))  # longest finite bar
        keep = np.arange(len(b)) != i
        expect(f"H{dim} bar dropped", betti(b[keep], d[keep], k[keep]), True)
        expect(f"H{dim} bar added", betti(np.append(b, b[i]), np.append(d, d[i]), np.append(k, dim)), True)
        shifted = d.copy()
        shifted[i] += 1
        expect(f"H{dim} death shifted by 1", betti(b, shifted, k), True)

    config = train_config(seed=3, epochs=2, batch_size=3)
    dataset, _ = pipeline.build_feature_dataset(samples, n_per_group=N_PER_GROUP)
    trained, _ = model.train(dataset, config)
    img = dataset[0][0] / 255.0

    def loss_fn():
        lv, lt, _ = model.forward(trained, img, dataset[0][1])
        return model.total_loss(lv, lt, dataset[0][2], config.alpha)[0]

    lv, lt, cache = model.forward(trained, img, dataset[0][1])
    _, dv, dt = model.total_loss(lv, lt, dataset[0][2], config.alpha)
    grads = model.backward(trained, cache, dv, dt)
    rng = np.random.default_rng(0)
    expect("gradients as computed", check_gradients(loss_fn, trained.params, grads, rng), False)
    for name in ("conv1.w", "gate1.expand.w", "enc.l1.w", "thead.l2.b"):
        bad = dict(grads, **{name: grads[name] * 1.01})
        expect(f"{name} gradient scaled by 1.01", check_gradients(loss_fn, trained.params, bad, rng), True)

    reported = model.evaluate(trained, dataset, config.mode)
    probs = np.array([softmax(model.forward(trained, s[0] / 255.0, s[1])[0]) for s in dataset])
    recomputed = eval_metrics(probs, np.array([s[2] for s in dataset]))
    expect("metrics as computed", compare_metrics(reported, recomputed), False)
    for key in recomputed:
        expect(f"{key} off by 1e-9", compare_metrics(dict(reported, **{key: reported[key] + 1e-9}), recomputed), True)

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
