"""Property-based fuzzing of checkpoints, configs and embedding CSVs
through the CLI.

Each example damages one file that a command reads besides the dataset, by
truncating it at a byte or by replacing one field (whitespace-separated in
checkpoints, '='-separated in configs, comma-separated in embedding CSVs),
then runs every command that reads that file.  A command must succeed or
fail with exit code 2 and a one-line ``error:`` message; it must never
raise, and every checkpoint a successful command writes must load.
"""

import contextlib
import io
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchshape.cli import main
from sketchshape.model import load_checkpoint
from sketchshape.train import TrainConfig

# Values a damaged field takes: empty, non-numeric, non-finite, huge,
# negative, and names that belong elsewhere.  None parses to a size above
# 99, so no run allocates much memory.
TOKENS = (
    "", "x", " ", "nan", "inf", "-inf", "1e400", "1e308", "-1", "0", "1", "2", "3", "99", "1.5", "-0.0",
    "matrix", "kind", "sketch", "shape", "true", "false", "test", "sketch_test_0000", "lr0",
)

FUZZ = settings(derandomize=True, database=None, max_examples=20, deadline=None)

# Small sizes, one batch per epoch (so only the end-of-run check sees the
# last update), and every float key of TrainConfig.
CONFIG = (
    "hidden = 6\nembed_dim = 4\nbatch_size = 8\nlr0 = 0.05\nmomentum = 0.5\nlam = 0.005\n"
    "s_sketch = 30.0\nm_s = 0.5\ns_shape = 15.0\nm_v = 0.8\n"
)

SEPARATORS = {".ckpt": r"([ \n])", ".csv": r"([,\n])"}

FILES = ("sketch.ckpt", "shape.ckpt", "tiny.cfg", "queries.csv", "gallery.csv")


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A tiny dataset, the config, both checkpoints and both embedding files."""
    root = tmp_path_factory.mktemp("artifacts")
    float_keys = {f.name for f in fields(TrainConfig) if type(f.default) is float}
    assert float_keys <= {line.split(" = ")[0] for line in CONFIG.splitlines()}
    (root / "tiny.cfg").write_text(CONFIG)
    data, cfg = str(root / "data"), str(root / "tiny.cfg")
    for argv in (
        ["gen-data", "--out", data, "--classes", "2", "--train-per-class", "3", "--test-per-class", "2",
         "--dim", "3", "--views", "2", "--noise-frac", "0.3", "--seed", "1"],
        ["train-sketch", "--data", data, "--out", str(root), "--config", cfg, "--epochs", "1"],
        ["train-shape", "--data", data, "--checkpoint", str(root / "sketch.ckpt"), "--out", str(root),
         "--config", cfg, "--epochs", "1"],
        ["embed", "--checkpoint", str(root / "sketch.ckpt"), "--data", data, "--out", str(root / "queries.csv")],
        ["embed", "--checkpoint", str(root / "shape.ckpt"), "--data", data, "--out", str(root / "gallery.csv")],
    ):
        assert main(argv) == 0, argv
    return {"data": root / "data", "files": {name: (root / name).read_bytes() for name in FILES}}


def _commands(name, data, here: Path, out: Path):
    """The commands that read file ``name``, with every file but the dataset
    taken from ``here``."""
    cfg = here / "tiny.cfg"
    if name == "tiny.cfg":
        return [
            ["train-sketch", "--data", data, "--out", out / "s1", "--config", cfg, "--epochs", "1"],
            ["train-shape", "--data", data, "--checkpoint", here / "sketch.ckpt", "--out", out / "s2",
             "--config", cfg, "--epochs", "1"],
        ]
    if name.endswith(".csv"):
        return [["eval", "--queries", here / "queries.csv", "--gallery", here / "gallery.csv", "--out", out / "e"]]
    ckpt = here / name
    return [
        ["embed", "--checkpoint", ckpt, "--data", data, "--out", out / "e.csv"],
        ["report-uncertainty", "--checkpoint", ckpt, "--data", data, "--out", out / "u"],
        ["train-shape", "--data", data, "--checkpoint", ckpt, "--out", out / "s2", "--config", cfg, "--epochs", "1"],
    ]


def _run_all(valid, name, damaged: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        here = Path(tmp)
        for other, content in valid["files"].items():
            (here / other).write_bytes(damaged if other == name else content)
        out = here / "out"
        for argv in _commands(name, valid["data"], here, out):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([str(a) for a in argv])
            err = stderr.getvalue()
            assert code in (0, 2), (argv[0], code, err)
            assert "Traceback" not in err
            if code == 2:
                assert err.startswith("error:") and len(err.splitlines()) == 1, err
            else:
                for ckpt in out.rglob("*.ckpt"):
                    load_checkpoint(ckpt)


@pytest.mark.parametrize("name", FILES)
@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_file(valid, name, cut):
    content = valid["files"][name]
    _run_all(valid, name, content[: int(cut * len(content))])


@pytest.mark.parametrize("name", [n for n in FILES if n != "tiny.cfg"])
@FUZZ
@given(where=st.floats(0.0, 1.0, exclude_max=True), field=st.integers(0, 80), token=st.sampled_from(TOKENS))
def test_replaced_field(valid, name, where, field, token):
    lines = valid["files"][name].decode("ascii").splitlines(keepends=True)
    i = int(where * len(lines))
    parts = re.split(SEPARATORS[Path(name).suffix], lines[i])
    fields_at = range(0, len(parts), 2)
    parts[fields_at[field % len(fields_at)]] = token
    lines[i] = "".join(parts)
    _run_all(valid, name, "".join(lines).encode("ascii"))


@pytest.mark.parametrize("key", [line.split(" = ")[0] for line in CONFIG.splitlines()])
@FUZZ
@given(field=st.integers(0, 1), token=st.sampled_from(TOKENS))
def test_replaced_config_field(valid, key, field, token):
    """The config has few lines, so each key's line is a case of its own."""
    lines = CONFIG.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    parts = lines[i].split("=")
    parts[field] = token + "\n" * field
    lines[i] = "=".join(parts)
    _run_all(valid, "tiny.cfg", "".join(lines).encode("ascii"))
