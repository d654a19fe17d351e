"""Property-based fuzzing of the dataset loaders through the CLI.

Each example damages one file of a tiny valid dataset, by truncating it at
a byte, by replacing one comma- or '='-separated field or by inserting a
non-ASCII character, then runs every command that reads a dataset.  A
command must succeed or fail with exit code 2 and a one-line ``error:``
message (naming the damaged file, for a non-ASCII byte); it must never
raise.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchshape.cli import main

DATASET_FILES = ("manifest.txt", "sketches.csv", "shapes.csv", "noisy.csv")

# Values a damaged field takes: empty, non-numeric, non-finite, labels and
# counts out of range, and ids, splits and modalities that belong elsewhere.
TOKENS = (
    "", "x", " ", "nan", "-inf", "1e400", "-1", "0", "1", "2", "3", "99", "1.5", "-0.0",
    "sketch", "shape", "train", "test", "sketch_train_0000", "shape_train_0000.v01",
    "shape_train_0000.v07", "shape_test_0001", "count_x", "views", "ambiguous",
)

FUZZ = settings(derandomize=True, database=None, max_examples=20, deadline=None)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A tiny dataset with a sketch and a shape checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "tiny.cfg"
    cfg.write_text("hidden = 6\nembed_dim = 4\nbatch_size = 4\n")
    data, run = root / "data", root / "run"
    assert main(["gen-data", "--out", str(data), "--classes", "2", "--train-per-class", "3",
                 "--test-per-class", "2", "--dim", "3", "--views", "2", "--noise-frac", "0.3", "--seed", "1"]) == 0
    assert main(["train-sketch", "--data", str(data), "--out", str(run), "--config", str(cfg),
                 "--epochs", "1"]) == 0
    assert main(["train-shape", "--data", str(data), "--checkpoint", str(run / "sketch.ckpt"),
                 "--out", str(run), "--config", str(cfg), "--epochs", "1"]) == 0
    return {"data": data, "run": run, "cfg": cfg, "files": {n: (data / n).read_bytes() for n in DATASET_FILES}}


def _commands(data, run, cfg, out):
    sketch, shape = str(run / "sketch.ckpt"), str(run / "shape.ckpt")
    return [
        ["train-sketch", "--data", data, "--out", out / "s1", "--config", cfg, "--epochs", "1"],
        ["train-shape", "--data", data, "--checkpoint", sketch, "--out", out / "s2", "--config", cfg,
         "--epochs", "1"],
        ["embed", "--checkpoint", sketch, "--data", data, "--out", out / "q.csv"],
        ["embed", "--checkpoint", shape, "--data", data, "--out", out / "g.csv"],
        ["report-uncertainty", "--checkpoint", sketch, "--data", data, "--out", out / "u"],
    ]


def _run_all(valid, name, damaged: bytes, named=False):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = shutil.copytree(valid["data"], tmp / "data")
        (data / name).write_bytes(damaged)
        for argv in _commands(str(data), valid["run"], str(valid["cfg"]), tmp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(a) for a in argv])
            err = err.getvalue()
            assert code in (0, 2), (argv[0], code, err)
            assert "Traceback" not in err
            if code == 2:
                assert err.startswith("error:") and len(err.splitlines()) == 1, err
                assert not named or name in err, err


@pytest.mark.parametrize("name", DATASET_FILES)
@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_file(valid, name, cut):
    content = valid["files"][name]
    _run_all(valid, name, content[: int(cut * len(content))])


@pytest.mark.parametrize("name", DATASET_FILES)
@FUZZ
@given(where=st.floats(0.0, 1.0))
def test_inserted_non_ascii_bytes(valid, name, where):
    content = valid["files"][name]
    at = int(where * len(content))
    _run_all(valid, name, content[:at] + b"\xc3\xa9" + content[at:], named=True)


@pytest.mark.parametrize("name", DATASET_FILES)
@FUZZ
@given(where=st.floats(0.0, 1.0, exclude_max=True), field=st.integers(0, 80), token=st.sampled_from(TOKENS))
def test_replaced_field(valid, name, where, field, token):
    lines = valid["files"][name].decode("ascii").splitlines(keepends=True)
    i = int(where * len(lines))
    parts = re.split(r"([,=\n])", lines[i])
    fields = range(0, len(parts), 2)
    parts[fields[field % len(fields)]] = token
    lines[i] = "".join(parts)
    _run_all(valid, name, "".join(lines).encode("ascii"))
