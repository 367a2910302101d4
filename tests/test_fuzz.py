"""Seeded mutation fuzz of every input reader, through the commands that read it,
and a fuzz of every command's numeric flags.

Each reader's input is replaced by fixed edge cases (an empty file, the first
line only, NUL bytes, a 1x1 image) and by seeded byte mutations of a valid
file. Every run must return 0, 1 or 2 without an exception; exit 1 must name a
path in the damaged file's directory, and exit 0 must leave only finite output.
Each numeric flag is set to extreme values in a child process with a capped
address space and a timeout, so a run that asks for unbounded work fails the
test instead of the machine. Fixed file values that size a model past its
caps run in such a child too.
"""

import json
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topogate
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
    for path in out.rglob("*") if out.is_dir() else [out]:
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


# each numeric vectorize flag, with a method that reads it
VECTORIZE_FLAGS = {"--samples": "silhouette", "--t-min": "pimage", "--t-max": "landscape",
                   "--levels": "landscape", "--power": "silhouette", "--sigma": "pimage",
                   "--resolution": "pimage"}
OTHER_FLAGS = {"gen": ["--seed", "--n", "--size", "--noise"],
               "compute": ["--min-pers", "--finitize"],
               "train": ["--epochs", "--lr", "--alpha", "--batch-size", "--seed", "--n-per-group",
                         "--ratio"]}
# a vectorize flag's case is the flag alone, another command's "<command> <flag>"
FLAG_CASES = sorted(VECTORIZE_FLAGS) + [f"{c} {f}" for c, flags in OTHER_FLAGS.items() for f in flags]
EXTREMES = ["0", "-1", str(2**31), str(2**63), "1e308", "-1e308"]
CHILD_ADDRESS_SPACE = 2 << 30  # bytes
CHILD_SECONDS = 60


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _flag_argv(ws, case, out):
    """The command line of a FLAG_CASES case, but for its flag's value."""
    command, flag = case.split() if " " in case else ("vectorize", case)
    inputs = {
        "vectorize": ["--diagram", str(ws / "diag" / "sample_00000.json"),
                      "--method", VECTORIZE_FLAGS.get(flag)],
        "gen": ["--seed", "1", "--n", "3", "--size", "32"],
        "compute": ["--input", str(ws / "data")],
        "train": ["--data", str(ws / "data"), *TRAIN],
    }[command]
    return [command, *inputs, "--out", str(out)], flag


@pytest.mark.parametrize("case", FLAG_CASES)
def test_vectorize_flag_fuzz(workspace, tmp_path, case):
    """Each topogate command with one numeric flag at 0, -1, 2^31, 2^63 or +-1e308 (the
    flag given last wins), each run in a child process limited to 2 GiB of address space
    and 60 s: it exits 0, 1 or 2 with no traceback and no numpy warning; exit 0 writes
    only finite output, any other exit writes no file."""
    env = {**os.environ, "PYTHONPATH": str(Path(topogate.__file__).parents[1])}
    out = tmp_path / ("v.csv" if " " not in case else "out")
    argv, flag = _flag_argv(workspace, case, out)
    for value in EXTREMES:
        child = subprocess.run([sys.executable, "-m", "topogate.cli", *argv, f"{flag}={value}"],
                               env=env, capture_output=True, text=True, timeout=CHILD_SECONDS,
                               preexec_fn=_cap_address_space)
        seen = (value, child.returncode, child.stderr[-2000:])
        assert child.returncode in (0, 1, 2), seen
        assert "Traceback" not in child.stderr and "Warning" not in child.stderr, seen
        if child.returncode != 0:  # compute may have made its output directory, empty
            assert not out.is_file() and not any(out.rglob("*")), seen
            continue
        assert_finite_output(out, child.stdout)
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink()


# Values a file may hold that size a model past what memory or int64 holds: a first
# label (the model gets label + 1 classes), or edits to a checkpoint's config. The
# channels are set in full mode, the mode that builds conv layers from them.
FILE_VALUES = [("labels-train", 10**8), ("labels-train", 2**63), ("labels-eval", 10**8),
               ("labels-eval", 2**63), ("manifest-eval", {"n_classes": 10**8}),
               ("manifest-eval", {"m_dim": 10**9}),
               ("manifest-eval", {"channels": [100000, 100000], "mode": "full"})]


def _set_value(path, value):
    if path.name == "labels.csv":
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, f"{first.split(',')[0]},{value}", *rest]) + "\n")
    else:
        manifest = json.loads(path.read_text())
        manifest["config"].update(value)
        path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("reader,value", FILE_VALUES, ids=[
    "labels-train-1e8", "labels-train-2^63", "labels-eval-1e8", "labels-eval-2^63",
    "manifest-n-classes-1e8", "manifest-m-dim-1e9", "manifest-channels-1e5"])
def test_file_value_fuzz(workspace, tmp_path, reader, value):
    """A labels.csv or checkpoint that asks for a model larger than the caps, run in a
    child process limited to 2 GiB of address space and 60 s: it exits 1 naming the
    file, with no traceback, and writes nothing."""
    ws, out = tmp_path / "ws", tmp_path / "out"
    for name in ("data", "ck"):
        shutil.copytree(workspace / name, ws / name)
    target, argv = _argv(ws, out)[reader]
    _set_value(target, value)
    before = {p: p.read_bytes() for p in ws.rglob("*") if p.is_file()}
    env = {**os.environ, "PYTHONPATH": str(Path(topogate.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-m", "topogate.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=CHILD_SECONDS,
                           preexec_fn=_cap_address_space)
    seen = (child.returncode, child.stderr[-2000:])
    assert child.returncode == 1 and str(target) in child.stderr, seen
    assert "Traceback" not in child.stderr, seen
    assert not out.exists(), seen
    assert {p: p.read_bytes() for p in ws.rglob("*") if p.is_file()} == before
