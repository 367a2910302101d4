"""Seeded mutation fuzz of every input reader, through the commands that read it.

Each reader's input is replaced by fixed edge cases (an empty file, the first
line only, NUL bytes, a 1x1 image) and by seeded byte mutations of a valid
file. Every run must return 0, 1 or 2 without an exception; exit 1 must name a
path in the damaged file's directory, and exit 0 must leave only finite output.
"""

import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from topogate.cli import main
from topogate.model import load_checkpoint

MUTATIONS = 20
EDGE_CASES = [b"", b"\0" * 64, b"P5\n1 1\n255\n\x07", b"7\n"]
# bytes a mutation favours, since they keep text formats half-valid
SPECIAL = b"0123456789-+.eE,:[]{}\"# \n\x00\xff"
TRAIN = ["--mode", "pd_only", "--epochs", "1", "--batch-size", "3", "--n-per-group", "8"]


def _argv(ws, out):
    """The command line of each reader's case: (the damaged file, argv)."""
    data, ck = ws / "data", ws / "ck"
    evaluate = ["eval", "--data", str(data), "--checkpoint", str(ck)]
    train = ["train", "--data", str(data), "--out", str(out), *TRAIN]
    diagram = ws / "diag" / "sample_00000.json"
    return {
        "pgm-compute": (data / "sample_00000.pgm",
                        ["compute", "--input", str(data / "sample_00000.pgm"), "--out", str(out)]),
        "pgm-train": (data / "sample_00001.pgm", train),
        "csv-grid-compute": (ws / "grid.csv",
                             ["compute", "--input", str(ws / "grid.csv"), "--out", str(out)]),
        "labels-train": (data / "labels.csv", train),
        "labels-eval": (data / "labels.csv", evaluate),
        "diagram-vectorize": (diagram, ["vectorize", "--diagram", str(diagram), "--method",
                                        "pimage", "--resolution", "4", "--out", str(out / "v.csv")]),
        "diagram-plot": (diagram, ["plot", "--diagram", str(diagram), "--out", str(out / "d.svg")]),
        "curve-plot": (ws / "curve.csv",
                       ["plot", "--curve", str(ws / "curve.csv"), "--out", str(out / "c.svg")]),
        "history-plot": (ck / "history.json",
                         ["plot", "--history", str(ck / "history.json"), "--out", str(out / "h.svg")]),
        "manifest-eval": (ck / "manifest.json", evaluate),
        "params-eval": (ck / "params.bin", evaluate),
    }


READERS = sorted(_argv(Path("ws"), Path("out")))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 32x32 dataset, its diagrams, a pd_only checkpoint, a curve and a CSV grid."""
    ws = tmp_path_factory.mktemp("fuzz")
    data = ws / "data"
    quiet = [["gen", "--seed", "2", "--n", "6", "--size", "32", "--out", str(data)],
             ["compute", "--input", str(data), "--out", str(ws / "diag")],
             ["train", "--data", str(data), "--out", str(ws / "ck"), *TRAIN],
             ["vectorize", "--diagram", str(ws / "diag" / "sample_00000.json"), "--method",
              "landscape", "--samples", "8", "--out", str(ws / "curve.csv")]]
    for argv in quiet:
        assert main(argv) == 0
    image = np.frombuffer((data / "sample_00000.pgm").read_bytes()[-32 * 32:], np.uint8)
    np.savetxt(ws / "grid.csv", image.reshape(32, 32)[:8, :8], fmt="%d", delimiter=",")
    return ws


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One to three byte flips, inserts, deletions or truncations."""
    data = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(len(data) + 1))
        byte = SPECIAL[rng.integers(len(SPECIAL))] if rng.random() < 0.5 else int(rng.integers(256))
        op = rng.integers(4)
        if op == 0 and at < len(data):
            data[at] = byte
        elif op == 1:
            data.insert(at, byte)
        elif op == 2:
            del data[at : at + int(rng.integers(1, 9))]
        elif op == 3 and rng.random() < 0.3:
            del data[at:]
    return bytes(data)


_NON_FINITE = re.compile(r"nan|inf", re.IGNORECASE)


def assert_finite_output(out, stdout):
    """Printed figures and written text hold no NaN or infinity; a checkpoint loads."""
    assert not _NON_FINITE.search(stdout.split("\n", 1)[1])  # line 1 echoes the flags
    if out.is_dir():
        for path in out.rglob("*"):
            if path.suffix in (".json", ".csv", ".svg"):
                assert not _NON_FINITE.search(path.read_text()), path
        if (out / "params.bin").exists():
            load_checkpoint(out)


@pytest.mark.parametrize("reader", READERS)
def test_reader_fuzz(workspace, tmp_path, capsys, reader):
    rng = np.random.default_rng(sum(map(ord, reader)))
    target, _ = _argv(workspace, tmp_path)[reader]
    original = target.read_bytes()
    first_line = original.split(b"\n", 1)[0] + b"\n"
    cases = EDGE_CASES + [first_line] + [mutate(original, rng) for _ in range(MUTATIONS)]
    try:
        for i, content in enumerate(cases):
            out = tmp_path / f"out{i}"
            _, argv = _argv(workspace, out)[reader]
            out.mkdir()
            target.write_bytes(content)
            capsys.readouterr()
            code = main(argv)
            stdout, stderr = capsys.readouterr()
            assert code in (0, 1, 2), (i, content)
            if code == 1:
                assert str(target.parent) in stderr, (i, content, stderr)
            elif code == 0:
                assert_finite_output(out, stdout)
            shutil.rmtree(out)
    finally:
        target.write_bytes(original)
