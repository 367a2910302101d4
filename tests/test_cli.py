import argparse
import dataclasses
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import as_multiset, diagram_from_points, empty_diagram
from topogate import cli
from topogate import model as modelmod
from topogate.cli import _FLAG_RULES, build_parser, main
from topogate.diagram import read_diagram, write_diagram
from topogate.grid import save_pgm


def run(argv):
    return main(argv)


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    assert run(["gen", "--seed", "1", "--n", "6", "--size", "48", "--out", str(out)]) == 0
    return out


class TestCompute:
    def test_constant_image_single_essential(self, tmp_path, capsys):
        img = tmp_path / "c.pgm"
        save_pgm(img, np.full((4, 4), 9, dtype=np.uint8))
        out = tmp_path / "diag"
        assert run(["compute", "--input", str(img), "--out", str(out)]) == 0
        d = read_diagram(out / "c.json")
        # finitized at 255 by the preprocessing defaults
        assert as_multiset(d) == [(9.0, 255.0, 0, False)]

    def test_reproducible_bytes(self, tmp_path, dataset_dir):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert run(["compute", "--input", str(dataset_dir), "--out", str(out1)]) == 0
        assert run(["compute", "--input", str(dataset_dir), "--out", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2)) and len(names) == 6
        for n in names:
            assert (out1 / n).read_bytes() == (out2 / n).read_bytes()

    def test_batch_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "imgs"
        src.mkdir()
        save_pgm(src / "good.pgm", np.full((3, 3), 5, dtype=np.uint8))
        (src / "bad.pgm").write_text("P2\n1 1\n65535\n1\n")
        # sorted: bad, cbad, dbad, good; with two processes cbad and good fall to the child
        (src / "cbad.pgm").write_text("P2\n0 2\n255\n")
        (src / "dbad.pgm").write_text("P2\n2 1\n255\n7 x\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "d"
        assert run(["compute", "--input", str(src), "--out", str(out)]) == 1
        assert (out / "good.json").exists() and not (out / "bad.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert err[0].startswith(f"error: {src / 'bad.pgm'}: ")
        assert err[1] == f"error: {src / 'cbad.pgm'}: bad PGM dimensions 0x2"
        assert err[2].startswith(f"error: {src / 'dbad.pgm'}: non-numeric P2 pixel")
        assert not (out / "cbad.json").exists() and not (out / "dbad.json").exists()

    @pytest.mark.parametrize("cpus", [None, {0}, {0, 1, 2}], ids=["affinity", "one-cpu", "three-cpus"])
    def test_split_writes_per_file_bytes(self, tmp_path, monkeypatch, cpus):
        """However the files are split between processes, each diagram is the
        one a `compute` call on that file alone writes."""
        src, each, out = tmp_path / "ds", tmp_path / "each", tmp_path / "all"
        assert run(["gen", "--seed", "3", "--n", "5", "--size", "48", "--out", str(src)]) == 0
        for name in sorted(os.listdir(src)):
            if name.endswith(".pgm"):
                assert run(["compute", "--input", str(src / name), "--out", str(each)]) == 0
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert run(["compute", "--input", str(src), "--out", str(out)]) == 0
        names = sorted(os.listdir(each))
        assert len(names) == 5 and sorted(os.listdir(out)) == names
        for n in names:
            assert (out / n).read_bytes() == (each / n).read_bytes()

    @pytest.mark.parametrize("n,cpus", [(3, {0}), (1, {0, 1})], ids=["one-cpu", "one-file"])
    def test_one_process_forks_nothing(self, tmp_path, monkeypatch, capsys, n, cpus):
        src = tmp_path / "imgs"
        src.mkdir()
        for i in range(n):
            save_pgm(src / f"x{i}.pgm", np.full((3, 3), 5 + i, dtype=np.uint8))

        def no_fork(*args):
            raise AssertionError("compute forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(cli.multiprocessing, "get_context", no_fork)
        assert run(["compute", "--input", str(src), "--out", str(tmp_path / "d")]) == 0
        assert f"computed {n}/{n} diagrams" in capsys.readouterr().out

    @pytest.mark.parametrize("death,code", [
        (lambda: os._exit(3), 3),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ], ids=["exit", "sigkill"])
    def test_dead_worker_fails_its_share(self, tmp_path, monkeypatch, capsys, death, code):
        src, out = tmp_path / "imgs", tmp_path / "d"
        src.mkdir()
        for name in "abc":
            save_pgm(src / f"{name}.pgm", np.full((3, 3), 5, dtype=np.uint8))
        parent, compute_one = os.getpid(), cli._compute_one

        def dies_in_child(*args):
            if os.getpid() != parent:  # fork copied the patched module
                death()
            return compute_one(*args)

        monkeypatch.setattr(cli, "_compute_one", dies_in_child)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run(["compute", "--input", str(src), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {src}: a compute worker for 1 files died (exit code {code})\n"
        assert f"computed 2/3 diagrams -> {out}" in captured.out
        assert sorted(os.listdir(out)) == ["a.json", "c.json"]

    def test_interrupt_stops_every_worker(self, tmp_path, monkeypatch):
        """An exception out of the calling process's own share (Ctrl-C) kills
        and reaps the children; the autouse fixture sees none left."""
        src = tmp_path / "imgs"
        src.mkdir()
        for name in "abc":
            save_pgm(src / f"{name}.pgm", np.full((3, 3), 5, dtype=np.uint8))
        parent = os.getpid()

        def slow_child_interrupted_parent(*args):
            if os.getpid() != parent:
                time.sleep(30)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_compute_one", slow_child_interrupted_parent)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run(["compute", "--input", str(src), "--out", str(tmp_path / "d")])
        assert time.monotonic() - t0 < 10

    def test_piped_stdout_prints_each_line_once(self, tmp_path, dataset_dir):
        """Block-buffered stdout holds the config line when compute forks; no
        child prints its copy of it or anything else."""
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        out = tmp_path / "d"
        script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                  "from topogate.cli import main; sys.exit(main(sys.argv[1:]))")
        child = subprocess.run(
            [sys.executable, "-c", script, "compute", "--input", str(dataset_dir), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        lines = child.stdout.splitlines()
        assert len(lines) == 2 and lines[0].startswith("config: ")
        assert lines[1] == f"computed 6/6 diagrams -> {out}"

    def test_empty_csv_grid_says_only_its_error(self, tmp_path, capsys):
        grid = tmp_path / "empty.csv"
        grid.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt would warn of "no data"
            assert run(["compute", "--input", str(grid), "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == f"error: {grid}: CSV grid holds no values\n"

    def test_directory_without_images_exits_1(self, tmp_path, capsys):
        src = tmp_path / "imgs"
        src.mkdir()
        (src / "labels.csv").write_text("file,label\n")  # not an image
        out = tmp_path / "d"
        assert run(["compute", "--input", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {src}: no .pgm or .csv images\n"
        assert not out.exists()

    def test_shared_stem_exits_1_before_writing(self, tmp_path, capsys):
        src = tmp_path / "imgs"
        src.mkdir()
        save_pgm(src / "x.pgm", np.full((3, 3), 5, dtype=np.uint8))
        (src / "x.csv").write_text("1,2\n3,4\n")
        out = tmp_path / "d"
        assert run(["compute", "--input", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {src}: x.csv and x.pgm would both write x.json\n"
        assert not out.exists()

    @pytest.mark.parametrize("text,error", [
        ("P2\n0 2\n255\n", "bad PGM dimensions 0x2"),
        ("P2\n2 1\n255\n7 x\n", "non-numeric P2 pixel"),
        ("P2\n3 2\n255\n1 2 3 4\n", "truncated P2 raster"),
    ], ids=["zero-width", "non-numeric-pixel", "truncated-raster"])
    def test_malformed_pgm_names_file(self, tmp_path, capsys, text, error):
        image, out = tmp_path / "t.pgm", tmp_path / "d"
        image.write_text(text)
        assert run(["compute", "--input", str(image), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {image}: {error}")
        assert not (out / "t.json").exists()

    def test_roundtrip_preserves_diagram(self, tmp_path):
        d = diagram_from_points([(0, math.inf, 0), (10, 200, 1)])
        p = tmp_path / "x.json"
        write_diagram(p, d)
        assert as_multiset(read_diagram(p)) == as_multiset(d)


class TestVectorizeCmd:
    @pytest.fixture
    def diagram_path(self, tmp_path):
        p = tmp_path / "d.json"
        write_diagram(p, diagram_from_points([(0, 100, 0), (50, 200, 1)]))
        return p

    @pytest.mark.parametrize("method", ["betti", "landscape", "silhouette", "pimage"])
    def test_methods_reproducible(self, tmp_path, diagram_path, method):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["vectorize", "--diagram", str(diagram_path), "--method", method,
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert method[:4] in header or header.startswith("t,")

    def test_unknown_method_usage_error(self, diagram_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["vectorize", "--diagram", str(diagram_path), "--method", "nope",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--sigma", "0"), ("--sigma", "-2"), ("--sigma", "1e-160"), ("--sigma", "1e-200"),
        ("--sigma", "1e200"), ("--power", "-1"), ("--levels", "0"),
        ("--samples", "0"), ("--resolution", "0"), ("--t-max", "-1"),
        ("--levels", "100000000000"), ("--samples", "8388609"), ("--resolution", "4097"),
    ], ids=["sigma-zero", "sigma-negative", "sigma-tiny", "sigma-underflow", "sigma-overflow",
            "power-negative", "levels-zero", "samples-zero", "resolution-zero", "t-max-below-t-min",
            "levels-over-cells", "samples-over-cells", "resolution-over-cells"])
    def test_bad_flag_value_usage_error(self, tmp_path, diagram_path, capsys, flag, value):
        method = {"--sigma": "pimage", "--power": "silhouette", "--levels": "landscape",
                  "--resolution": "pimage"}.get(flag, "betti")
        out = tmp_path / "x.csv"
        assert run(["vectorize", "--diagram", str(diagram_path), "--method", method,
                    flag, value, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("resolution,code", [("4", 0), ("1", 2)], ids=["far", "overflow"])
    def test_tiny_sigma(self, tmp_path, capsys, resolution, code):
        """--sigma 1e-154 passes its rule: pixels far from the point read 0, and an image
        that overflows float64 is a usage error naming the file and sigma, with no output."""
        p, out = tmp_path / "d.json", tmp_path / "x.csv"
        write_diagram(p, diagram_from_points([(50, 100, 0)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["vectorize", "--diagram", str(p), "--method", "pimage", "--sigma", "1e-154",
                        "--resolution", resolution, "--t-min", "0", "--t-max", "100",
                        "--out", str(out)]) == code
        if code:
            err = capsys.readouterr().err
            assert str(p) in err and "sigma 1e-154" in err and not out.exists()
        else:
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == 4 and {float(v) for r in rows for v in r.split(",")} == {0.0}

    @pytest.mark.parametrize("points,flags,code,says", [
        ([(50, 100, 0)], ["--method", "landscape", "--t-min=-1e308", "--t-max=1e308",
                          "--samples", "4"], 2, "--t-max 1e+308: must be"),
        ([(-1e308, 1e308, 0)], ["--method", "silhouette"], 1, "death 1e+308 - birth -1e+308"),
        ([(-1e308, 1e308, 0)], ["--method", "pimage"], 1, "death 1e+308 - birth -1e+308"),
        ([(-1e308, -9e307, 0), (9e307, 1e308, 1)], ["--method", "pimage"], 1,
         "spans -1e+308..1e+308"),
    ], ids=["t-range", "persistence-silhouette", "persistence-pimage", "pimage-span"])
    def test_overflowing_range_refused(self, tmp_path, capsys, points, flags, code, says):
        """Finite inputs whose width overflows float64 exit with an error naming the
        flag or the diagram, with no CSV written."""
        p, out = tmp_path / "d.json", tmp_path / "x.csv"
        write_diagram(p, diagram_from_points(points))
        assert run(["vectorize", "--diagram", str(p), *flags, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert says in err and (code == 2 or str(p) in err) and not out.exists()

    @pytest.mark.parametrize("flags,flag", [
        (["--method", "silhouette", "--samples", "10000"], "--samples"),
        (["--method", "pimage", "--resolution", "4096"], "--resolution"),
    ], ids=["tents", "gaussians"])
    def test_diagram_matrix_over_cells_refused(self, tmp_path, capsys, flags, flag):
        """3 000 points by 10 000 samples, or by 2 x 4096 pixel centres, is more than
        2^24 cells: exit 2 naming the flag and the diagram, with no CSV written."""
        p, out = tmp_path / "d.json", tmp_path / "x.csv"
        write_diagram(p, diagram_from_points([(i % 200, i % 200 + 20, i % 2) for i in range(3000)]))
        assert run(["vectorize", "--diagram", str(p), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and str(p) in err and not out.exists()

    def test_silhouette_power_overflow_refused(self, tmp_path, diagram_path, capsys):
        """100^1000 overflows float64: exit 2 naming --power and the diagram, with no
        numpy warning and no CSV of NaN."""
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["vectorize", "--diagram", str(diagram_path), "--method", "silhouette",
                        "--power", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--power" in err and str(diagram_path) in err and not out.exists()

    def test_essential_point_rejected(self, tmp_path, capsys):
        p = tmp_path / "raw.json"
        write_diagram(p, diagram_from_points([(0, math.inf, 0), (10, 200, 1)]))
        assert run(["vectorize", "--diagram", str(p), "--method", "betti",
                    "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert str(p) in err and "essential" in err

    @pytest.mark.parametrize("payload", [
        {"points": [{"death": 3, "dim": 0}]},
        {"points": [{"birth": 1, "dim": 0}]},
        {"points": [{"birth": 1, "death": 3}]},
        {"points": 5},
        {"points": [[1, 3, 0]]},
        {"points": [{"birth": "1", "death": 3, "dim": 0}]},
        {"dots": []},
    ], ids=["no-birth", "no-death", "no-dim", "points-not-list", "point-not-object",
            "text-birth", "no-points"])
    def test_malformed_diagram_names_file(self, tmp_path, capsys, payload):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        assert run(["vectorize", "--diagram", str(p), "--method", "betti",
                    "--out", str(tmp_path / "x.csv")]) == 1
        assert f"error: {p}: " in capsys.readouterr().err


class TestGen:
    def test_same_seed_same_hash(self, tmp_path):
        h = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["gen", "--seed", "9", "--n", "4", "--out", str(out)]) == 0
            h.append(json.loads((out / "manifest.json").read_text())["dataset_hash"])
        assert h[0] == h[1]

    def test_different_seed_different_hash(self, tmp_path):
        h = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            assert run(["gen", "--seed", seed, "--n", "4", "--out", str(out)]) == 0
            h.append(json.loads((out / "manifest.json").read_text())["dataset_hash"])
        assert h[0] != h[1]

    def test_size_below_minimum_is_usage_error(self, tmp_path, capsys):
        assert run(["gen", "--seed", "1", "--n", "3", "--size", "16",
                    "--out", str(tmp_path / "g")]) == 2
        assert "--size 16" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--n", "-2"), ("--n", "0"), ("--noise", "-5"), ("--noise", "256"),
        ("--noise", "100000000000000000000"), ("--seed", "-1"), ("--size", "4097"),
        ("--n", str(2**31)), ("--n", str(2**63)), ("--n", "4097"),
    ], ids=["n-negative", "n-zero", "noise-negative", "noise-above-255", "noise-above-int64",
            "seed-negative", "size-over-cells", "n-2^31", "n-2^63", "n-over-pixels"])
    def test_bad_flag_value_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "g"  # the last --n given wins
        assert run(["gen", "--seed", "1", "--n", "3", "--out", str(out), flag, value]) == 2
        assert f"error: gen {flag} {value}: must be" in capsys.readouterr().err
        assert not out.exists()


class TestTrainEval:
    def test_train_eval_memorization(self, tmp_path, dataset_dir, capsys):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir),
                    "--mode", "pd_only", "--epochs", "40", "--lr", "0.01",
                    "--batch-size", "4", "--n-per-group", "8"]) == 0
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "params.bin").exists()
        assert run(["eval", "--data", str(dataset_dir), "--checkpoint", str(run_dir)]) == 0
        out = capsys.readouterr().out
        acc_line = [l for l in out.splitlines() if l.startswith("accuracy")][0]
        assert float(acc_line.split()[-1]) == 1.0

    @pytest.mark.parametrize("flag,value", [
        ("--epochs", "0"), ("--batch-size", "0"), ("--ratio", "0"), ("--n-per-group", "-3"),
        ("--lr", "0"), ("--lr", "-0.1"), ("--alpha", "-1"), ("--seed", "-1"),
        ("--n-per-group", "65537"), ("--epochs", "1001"), ("--epochs", str(2**31)),
        ("--epochs", str(2**63)),
    ], ids=["epochs-zero", "batch-size-zero", "ratio-zero", "n-per-group-negative",
            "lr-zero", "lr-negative", "alpha-negative", "seed-negative", "n-per-group-above-65536",
            "epochs-above-1000", "epochs-2^31", "epochs-2^63"])
    def test_bad_flag_value_usage_error(self, tmp_path, dataset_dir, capsys, flag, value):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir), flag, value]) == 2
        assert f"error: train {flag} {value}: must be" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_empty_file_cell_names_path(self, tmp_path, dataset_dir, capsys):
        (dataset_dir / "labels.csv").write_text("file,label\n,0\n")
        assert run(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run")]) == 1
        assert f"{dataset_dir}" in capsys.readouterr().err

    def test_train_determinism_bytes(self, tmp_path, dataset_dir):
        outs = []
        for name in ("r1", "r2"):
            run_dir = tmp_path / name
            assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir),
                        "--mode", "pd_only", "--epochs", "2", "--batch-size", "4",
                        "--n-per-group", "8"]) == 0
            outs.append(run_dir)
        for fname in ("manifest.json", "params.bin", "history.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_eval_split_missing_class(self, tmp_path, dataset_dir, capsys):
        run_dir, small = tmp_path / "run", tmp_path / "small"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir),
                    "--epochs", "1", "--batch-size", "3"]) == 0
        assert run(["gen", "--seed", "2", "--n", "2", "--size", "48", "--out", str(small)]) == 0
        capsys.readouterr()
        assert run(["eval", "--data", str(small), "--checkpoint", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert str(small) in err and "missing" in err

    @pytest.mark.parametrize("text,says", [
        ("name,class\nsample_00000.pgm,0\n", "missing column(s) file, label"),
        ("file,label\nsample_00000.pgm,two\n", "integer"),
        ("file,label\nsample_00000.pgm\n", "integer"),
        ("file,label\nsample\x0000000.pgm,0\nsample_00001.pgm,1\n", "without NUL bytes"),
        ("label,file\n0\n1\n", "every file must be a name"),
    ])
    def test_malformed_labels_csv(self, tmp_path, dataset_dir, capsys, text, says):
        (dataset_dir / "labels.csv").write_text(text)
        assert run(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "labels.csv" in err and says in err

    @pytest.mark.parametrize("text,says", [
        ("file,label\nsample_00000.pgm,-1\n", "non-negative"),
        ("file,label\n", "no samples"),
        ("file,label\nsample_00000.pgm,0\nsample_00001.pgm,0\n", "fewer than two classes"),
    ], ids=["negative", "empty", "one-class"])
    def test_label_set_rejected(self, tmp_path, dataset_dir, capsys, text, says):
        (dataset_dir / "labels.csv").write_text(text)
        assert run(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "labels.csv" in err and says in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_labels_csv(self, tmp_path, dataset_dir, capsys, command):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir), "--mode", "pd_only",
                    "--epochs", "1", "--n-per-group", "8"]) == 0
        path = dataset_dir / "labels.csv"
        path.write_text("")
        capsys.readouterr()
        flags = ["--out", str(tmp_path / "again")] if command == "train" else ["--checkpoint", str(run_dir)]
        assert run([command, "--data", str(dataset_dir), *flags]) == 1
        assert f"error: {path}: missing column(s) file, label" in capsys.readouterr().err

    def test_labels_csv_not_text(self, tmp_path, dataset_dir, capsys):
        path = dataset_dir / "labels.csv"
        path.write_bytes(np.random.default_rng(0).bytes(200))
        assert run(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run")]) == 1
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_eval_labels_beyond_model_classes(self, tmp_path, dataset_dir, capsys):
        two = tmp_path / "two"
        shutil.copytree(dataset_dir, two)
        rows = (two / "labels.csv").read_text().splitlines()
        (two / "labels.csv").write_text("\n".join(r for r in rows if not r.endswith(",2")) + "\n")
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(two), "--out", str(run_dir), "--mode", "pd_only",
                    "--epochs", "1", "--batch-size", "2", "--n-per-group", "8"]) == 0
        capsys.readouterr()
        assert run(["eval", "--data", str(dataset_dir), "--checkpoint", str(run_dir)]) == 1
        assert f"error: {dataset_dir}: labels [2] exceed the model's 2 classes" in capsys.readouterr().err

    def test_labels_with_a_gap_train(self, tmp_path, dataset_dir):
        rows = (dataset_dir / "labels.csv").read_text().splitlines()
        kept = [rows[0]] + [r.replace(",1", ",2") for r in rows[1:] if not r.endswith(",2")]
        (dataset_dir / "labels.csv").write_text("\n".join(kept) + "\n")
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir),
                    "--epochs", "1", "--batch-size", "4", "--n-per-group", "8"]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["n_classes"] == 3

    def test_eval_truncated_checkpoint(self, tmp_path, dataset_dir, capsys):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir), "--mode",
                    "pd_only", "--epochs", "1", "--batch-size", "3", "--n-per-group", "8"]) == 0
        blob = run_dir / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        capsys.readouterr()
        assert run(["eval", "--data", str(dataset_dir), "--checkpoint", str(run_dir)]) == 1
        assert str(blob) in capsys.readouterr().err

    def test_eval_nan_parameter(self, tmp_path, dataset_dir, capsys):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir), "--mode",
                    "pd_only", "--epochs", "1", "--batch-size", "3", "--n-per-group", "8"]) == 0
        blob = run_dir / "params.bin"
        blob.write_bytes(np.full(1, np.nan, "<f8").tobytes() + blob.read_bytes()[8:])
        capsys.readouterr()
        assert run(["eval", "--data", str(dataset_dir), "--checkpoint", str(run_dir)]) == 1
        assert f"error: {blob}: holds a NaN or infinite parameter" in capsys.readouterr().err

    def test_eval_overflowing_parameters(self, tmp_path, dataset_dir, capsys):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir), "--mode",
                    "pd_only", "--epochs", "1", "--batch-size", "3", "--n-per-group", "8"]) == 0
        blob = run_dir / "params.bin"
        blob.write_bytes(np.full(blob.stat().st_size // 8, 1e200, "<f8").tobytes())
        capsys.readouterr()
        assert run(["eval", "--data", str(dataset_dir), "--checkpoint", str(run_dir)]) == 1
        assert f"error: {run_dir}: the model's logits for sample 0 are not finite" in capsys.readouterr().err

    def test_diverged_training_exits_1_and_writes_nothing(self, tmp_path, capsys):
        data, run_dir = tmp_path / "d", tmp_path / "run"
        assert run(["gen", "--seed", "2", "--n", "6", "--size", "32", "--out", str(data)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning may escape
            assert run(["train", "--data", str(data), "--out", str(run_dir), "--mode", "pd_only",
                        "--epochs", "2", "--lr", "1e300"]) == 1
        err = capsys.readouterr().err
        assert f"error: {data}: training diverged" in err and "--lr" in err
        assert not run_dir.exists()

    def test_eval_format_2_checkpoint_says_retrain(self, tmp_path, dataset_dir, capsys):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir), "--mode",
                    "pd_only", "--epochs", "1", "--batch-size", "3", "--n-per-group", "8"]) == 0
        path = run_dir / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "format": 2}))
        capsys.readouterr()
        assert run(["eval", "--data", str(dataset_dir), "--checkpoint", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: unsupported format 2" in err and "retrain" in err

    def test_truncated_image_named(self, tmp_path, dataset_dir, capsys):
        image = dataset_dir / "sample_00003.pgm"
        image.write_bytes(image.read_bytes()[:100])
        assert run(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run")]) == 1
        assert f"error: {image}: truncated P5 payload" in capsys.readouterr().err

    def test_sides_not_divisible_by_4_named(self, tmp_path, capsys):
        data, run_dir = tmp_path / "d34", tmp_path / "run"
        assert run(["gen", "--seed", "1", "--n", "3", "--size", "34", "--out", str(data)]) == 0
        capsys.readouterr()
        assert run(["train", "--data", str(data), "--out", str(run_dir), "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: {data / 'sample_00000.pgm'}: 34x34" in err and "divisible by 4" in err
        # the diagram branch alone pools no image, so pd_only trains; eval of a
        # vision checkpoint on the same images is refused the same way
        assert run(["train", "--data", str(data), "--out", str(run_dir), "--mode", "pd_only",
                    "--epochs", "1", "--batch-size", "3", "--n-per-group", "8"]) == 0
        full = tmp_path / "full"
        assert run(["gen", "--seed", "1", "--n", "3", "--size", "32", "--out", str(tmp_path / "d32")]) == 0
        assert run(["train", "--data", str(tmp_path / "d32"), "--out", str(full), "--epochs", "1",
                    "--batch-size", "3", "--n-per-group", "8"]) == 0
        capsys.readouterr()
        assert run(["eval", "--data", str(data), "--checkpoint", str(full)]) == 1
        assert f"error: {data / 'sample_00000.pgm'}: 34x34" in capsys.readouterr().err

    def test_eval_missing_checkpoint(self, dataset_dir, tmp_path):
        assert run(["eval", "--data", str(dataset_dir), "--checkpoint",
                    str(tmp_path / "nothing")]) == 1


@pytest.fixture(scope="module")
def full_checkpoint(tmp_path_factory):
    """A dataset and the full-mode checkpoint trained on it, shared read-only."""
    root = tmp_path_factory.mktemp("full")
    assert run(["gen", "--seed", "1", "--n", "6", "--size", "32", "--out", str(root / "data")]) == 0
    assert run(["train", "--data", str(root / "data"), "--out", str(root / "run"),
                "--epochs", "1", "--batch-size", "3"]) == 0
    return root / "data", root / "run"


@pytest.mark.parametrize("section,key,value", [
    ("config", "ratio", 0), ("config", "n_per_group", -3), ("config", "n_per_group", 1.5),
    ("config", "mode", "bogus"), ("config", "share_encoder", "no"), ("config", "lr", math.nan),
    ("config", "seed", -1), ("config", "channels", [0, 0]), ("stats", "mean", [math.nan, 0.0]),
    ("stats", "std", [0, -1]),
], ids=["ratio-0", "n-per-group-negative", "n-per-group-float", "mode-bogus",
        "share-encoder-text", "lr-nan", "seed-negative", "channels-zero", "mean-nan",
        "std-not-positive"])
def test_eval_malformed_manifest_exits_1(tmp_path, full_checkpoint, capsys, section, key, value):
    """Each edit of one manifest value exits 1 naming the manifest, with no traceback."""
    data, run_dir = full_checkpoint
    shutil.copytree(run_dir, tmp_path / "run")
    path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[section][key] = value
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["eval", "--data", str(data), "--checkpoint", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_every_numeric_flag_has_a_rule():
    """main range-checks every int or float flag, except those that take any
    finite value; the train flags are checked with TrainConfig's own rows."""
    any_finite = {"--min-pers", "--finitize", "--t-min"}
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in commands.choices.items():
        for action in parser._actions:
            if action.type in (int, float):
                assert (action.dest in _FLAG_RULES) != (action.option_strings[0] in any_finite), (
                    command, action.option_strings)
            if command == "train" and action.dest in _FLAG_RULES:
                assert _FLAG_RULES[action.dest] is modelmod.CONFIG_RULES[action.dest], action.dest


def test_train_flags_default_to_train_config():
    """topogate train with no optional flag trains TrainConfig's default run."""
    args = build_parser().parse_args(["train", "--data", "d", "--out", "o"])
    defaults = modelmod.TrainConfig()
    flags = [f.name for f in dataclasses.fields(defaults) if f.name in vars(args)]
    assert len(flags) == 9
    for name in flags:
        assert getattr(args, name) == getattr(defaults, name), name


@pytest.mark.parametrize("command,flag,value", [
    ("compute", "--min-pers", "nan"),
    ("compute", "--finitize", "nan"),
    ("compute", "--finitize", "inf"),
    ("vectorize", "--t-min", "-inf"),
    ("vectorize", "--t-max", "inf"),
    ("vectorize", "--power", "inf"),
    ("vectorize", "--sigma", "inf"),
    ("train", "--lr", "inf"),
    ("train", "--alpha", "inf"),
], ids=lambda v: v.lstrip("-"))
def test_non_finite_float_flag_usage_error(tmp_path, dataset_dir, capsys, command, flag, value):
    """Every float flag must be finite; main refuses before any file is written."""
    diagram = tmp_path / "d.json"
    write_diagram(diagram, diagram_from_points([(10, 200, 1)]))
    out = tmp_path / "out"
    inputs = {
        "compute": ["--input", str(dataset_dir)],
        "vectorize": ["--diagram", str(diagram), "--method", "betti"],
        "train": ["--data", str(dataset_dir)],
    }[command]
    assert run([command, *inputs, "--out", str(out), f"{flag}={value}"]) == 2
    assert f"error: {command} {flag} {value}: must be finite" in capsys.readouterr().err
    assert not out.exists()


class TestPlot:
    def test_empty_diagram_svg(self, tmp_path):
        p = tmp_path / "empty.json"
        write_diagram(p, empty_diagram())
        out = tmp_path / "pd.svg"
        assert run(["plot", "--diagram", str(p), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "line" in text and "circle" not in text

    def test_diagram_svg_reproducible(self, tmp_path):
        p = tmp_path / "d.json"
        write_diagram(p, diagram_from_points([(0, math.inf, 0), (10, 200, 1)]))
        svgs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            assert run(["plot", "--diagram", str(p), "--out", str(out)]) == 0
            svgs.append(out.read_bytes())
        assert svgs[0] == svgs[1]

    def test_pimage_heatmap_svg(self, tmp_path):
        p, grid = tmp_path / "d.json", tmp_path / "pimage.csv"
        write_diagram(p, diagram_from_points([(0, 100, 0), (50, 200, 1)]))
        assert run(["vectorize", "--diagram", str(p), "--method", "pimage", "--resolution", "3",
                    "--out", str(grid)]) == 0
        svgs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            assert run(["plot", "--curve", str(grid), "--out", str(out)]) == 0
            svgs.append(out.read_text())
        assert svgs[0] == svgs[1]
        assert svgs[0].count("<rect") == 3 * 3 + 1  # one per cell, plus the background

    @pytest.mark.parametrize("flag", ["--diagram", "--curve", "--history"])
    def test_empty_source_path_names_no_file(self, tmp_path, capsys, flag):
        out = tmp_path / "x.svg"
        assert run(["plot", flag, "", "--out", str(out)]) == 1
        assert "No such file or directory" in capsys.readouterr().err and not out.exists()

    def test_history_plot(self, tmp_path):
        h = tmp_path / "history.json"
        h.write_text(json.dumps([{"epoch": 0, "train_loss": 1.0}, {"epoch": 1, "train_loss": 0.5}]))
        out = tmp_path / "loss.svg"
        assert run(["plot", "--history", str(h), "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    @pytest.mark.parametrize("flag,text", [
        ("--curve", "t,betti\n0.0,1\n1.0,x\n"),
        ("--curve", "t,betti\n"),
        ("--curve", "t,betti\n0.0,1,2\n"),
        ("--curve", "t\n0.0\n"),
        ("--curve", "p_col0,p_col1\n1,nan\n"),
        ("--history", "not json"),
        ("--history", json.dumps([{"epoch": 0, "lr": 0.1}])),
        ("--history", json.dumps([])),
        ("--history", '[{"epoch": 0, "train_loss": NaN}, {"epoch": 1, "train_loss": 1.0}]'),
        ("--history", '[{"epoch": Infinity, "train_loss": 1.0}]'),
    ], ids=["curve-text-cell", "curve-header-only", "curve-ragged", "curve-t-only",
            "curve-nan", "history-not-json", "history-no-train-loss", "history-empty",
            "history-nan-loss", "history-inf-epoch"])
    def test_malformed_plot_input_names_file(self, tmp_path, capsys, flag, text):
        src = tmp_path / "input"
        src.write_text(text)
        out = tmp_path / "x.svg"
        assert run(["plot", flag, str(src), "--out", str(out)]) == 1
        assert f"error: {src}: " in capsys.readouterr().err and not out.exists()

    def test_curve_not_text(self, tmp_path, capsys):
        src = tmp_path / "curve.csv"
        src.write_bytes(np.random.default_rng(0).bytes(200))
        assert run(["plot", "--curve", str(src), "--out", str(tmp_path / "x.svg")]) == 1
        assert f"error: {src}: not UTF-8 text" in capsys.readouterr().err

    def test_no_source_is_usage_error(self, tmp_path):
        out = tmp_path / "x.svg"
        with pytest.raises(SystemExit) as exc:
            run(["plot", "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()

    def test_two_sources_is_usage_error(self, tmp_path, capsys):
        d, h, out = tmp_path / "d.json", tmp_path / "h.json", tmp_path / "x.svg"
        write_diagram(d, diagram_from_points([(10, 200, 1)]))
        h.write_text(json.dumps([{"epoch": 0, "train_loss": 1.0}]))
        with pytest.raises(SystemExit) as exc:
            run(["plot", "--diagram", str(d), "--history", str(h), "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err and not out.exists()
