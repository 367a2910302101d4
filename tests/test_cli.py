import json
import math
import os

import numpy as np
import pytest

from topogate.cli import main
from topogate.diagram import Diagram, read_diagram, write_diagram
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
        assert d.as_multiset() == [(9.0, 255.0, 0, False)]

    def test_reproducible_bytes(self, tmp_path, dataset_dir):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert run(["compute", "--input", str(dataset_dir), "--out", str(out1)]) == 0
        assert run(["compute", "--input", str(dataset_dir), "--out", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2)) and len(names) == 6
        for n in names:
            assert (out1 / n).read_bytes() == (out2 / n).read_bytes()

    def test_batch_failure_exit_code(self, tmp_path):
        src = tmp_path / "imgs"
        src.mkdir()
        save_pgm(src / "good.pgm", np.full((3, 3), 5, dtype=np.uint8))
        (src / "bad.pgm").write_text("P2\n1 1\n65535\n1\n")
        out = tmp_path / "d"
        assert run(["compute", "--input", str(src), "--out", str(out)]) == 1
        assert (out / "good.json").exists() and not (out / "bad.json").exists()

    def test_roundtrip_preserves_diagram(self, tmp_path):
        d = Diagram.from_points([(0, math.inf, 0), (10, 200, 1)])
        p = tmp_path / "x.json"
        write_diagram(p, d)
        assert read_diagram(p).as_multiset() == d.as_multiset()


class TestVectorizeCmd:
    @pytest.fixture
    def diagram_path(self, tmp_path):
        p = tmp_path / "d.json"
        write_diagram(p, Diagram.from_points([(0, 100, 0), (50, 200, 1)]))
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
        ("--sigma", "0"), ("--sigma", "-2"), ("--power", "-1"), ("--levels", "0"),
        ("--samples", "0"), ("--resolution", "0"), ("--t-max", "-1"),
    ], ids=["sigma-zero", "sigma-negative", "power-negative", "levels-zero", "samples-zero",
            "resolution-zero", "t-max-below-t-min"])
    def test_bad_flag_value_usage_error(self, tmp_path, diagram_path, capsys, flag, value):
        method = {"--sigma": "pimage", "--power": "silhouette", "--levels": "landscape",
                  "--resolution": "pimage"}.get(flag, "betti")
        out = tmp_path / "x.csv"
        assert run(["vectorize", "--diagram", str(diagram_path), "--method", method,
                    flag, value, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err and not out.exists()

    def test_essential_point_rejected(self, tmp_path, capsys):
        p = tmp_path / "raw.json"
        write_diagram(p, Diagram.from_points([(0, math.inf, 0), (10, 200, 1)]))
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
    ])
    def test_malformed_labels_csv(self, tmp_path, dataset_dir, capsys, text, says):
        (dataset_dir / "labels.csv").write_text(text)
        assert run(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "labels.csv" in err and says in err

    @pytest.mark.parametrize("text,says", [
        ("file,label\nsample_00000.pgm,-1\n", "non-negative"),
        ("file,label\n", "no samples"),
    ], ids=["negative", "empty"])
    def test_label_set_rejected(self, tmp_path, dataset_dir, capsys, text, says):
        (dataset_dir / "labels.csv").write_text(text)
        assert run(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "labels.csv" in err and says in err

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

    def test_eval_params_entry_without_shape(self, tmp_path, dataset_dir, capsys):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir), "--out", str(run_dir), "--mode",
                    "pd_only", "--epochs", "1", "--batch-size", "3", "--n-per-group", "8"]) == 0
        path = run_dir / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "params": [{"name": "x"}]}))
        capsys.readouterr()
        assert run(["eval", "--data", str(dataset_dir), "--checkpoint", str(run_dir)]) == 1
        assert f"{path}: params must be" in capsys.readouterr().err

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


class TestPlot:
    def test_empty_diagram_svg(self, tmp_path):
        p = tmp_path / "empty.json"
        write_diagram(p, Diagram.empty())
        out = tmp_path / "pd.svg"
        assert run(["plot", "--diagram", str(p), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "line" in text and "circle" not in text

    def test_diagram_svg_reproducible(self, tmp_path):
        p = tmp_path / "d.json"
        write_diagram(p, Diagram.from_points([(0, math.inf, 0), (10, 200, 1)]))
        svgs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            assert run(["plot", "--diagram", str(p), "--out", str(out)]) == 0
            svgs.append(out.read_bytes())
        assert svgs[0] == svgs[1]

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
    ], ids=["curve-text-cell", "curve-header-only", "curve-ragged", "curve-t-only",
            "curve-nan", "history-not-json", "history-no-train-loss", "history-empty"])
    def test_malformed_plot_input_names_file(self, tmp_path, capsys, flag, text):
        src = tmp_path / "input"
        src.write_text(text)
        out = tmp_path / "x.svg"
        assert run(["plot", flag, str(src), "--out", str(out)]) == 1
        assert f"error: {src}: " in capsys.readouterr().err and not out.exists()

    def test_no_source_is_usage_error(self, tmp_path):
        assert run(["plot", "--out", str(tmp_path / "x.svg")]) == 2
