"""The bits of the README's desk pipeline, pinned for this platform.

One in-process run of the README pipeline (gen-data, train-sketch and
train-shape with its desk.cfg, embed of both test splits, eval,
report-uncertainty on the train split, gradcheck --seed 0) writes 15 files
and gradcheck prints its report.  The sha256 of each must equal the entry
recorded in golden_bits.json under this platform's key
(platform_key.py); where no entry is recorded for the key, the test skips
and names it.  A change that alters one output bit changes behaviour, and
updates golden_bits.json in the same diff.  To record this platform's
entry, from the root of a checkout:

    PYTHONPATH=src python tests/test_golden_bits.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from platform_key import platform_key
from sketchshape.cli import main

GOLDEN = Path(__file__).with_name("golden_bits.json")

DESK_CONFIG = "hidden = 64,64\nembed_dim = 32\nbatch_size = 8\nlr0 = 0.08\nmax_epochs = 60\n"

GRADCHECK_STDOUT = "gradcheck --seed 0 stdout"


def desk_digests(root: Path) -> dict:
    """{output: sha256} of the README pipeline run in ``root``: each file
    by its path under ``root``, and gradcheck's standard output."""
    data, run, cfg = root / "data", root / "run", root / "desk.cfg"
    cfg.write_text(DESK_CONFIG)
    commands = [
        ["gen-data", "--out", data, "--classes", "10", "--train-per-class", "50", "--test-per-class", "30",
         "--dim", "16", "--views", "12", "--noise-frac", "0.2", "--noise-mode", "ambiguous", "--seed", "7"],
        ["train-sketch", "--data", data, "--out", run, "--config", cfg, "--seed", "7"],
        ["train-shape", "--data", data, "--checkpoint", run / "sketch.ckpt", "--out", run, "--config", cfg,
         "--seed", "8"],
        ["embed", "--checkpoint", run / "sketch.ckpt", "--data", data, "--split", "test",
         "--out", root / "queries.csv"],
        ["embed", "--checkpoint", run / "shape.ckpt", "--data", data, "--split", "test",
         "--out", root / "gallery.csv"],
        ["eval", "--queries", root / "queries.csv", "--gallery", root / "gallery.csv", "--out", root / "eval"],
        ["report-uncertainty", "--checkpoint", run / "sketch.ckpt", "--data", data, "--split", "train",
         "--out", root / "uncert"],
        ["gradcheck", "--seed", "0"],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main([str(arg) for arg in argv]) == 0, argv
    digests = {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in root.rglob("*") if path.is_file() and path != cfg}
    digests[GRADCHECK_STDOUT] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


def test_desk_pipeline_has_the_recorded_bits(tmp_path):
    key = platform_key()
    recorded = json.loads(GOLDEN.read_text()).get(key)
    if recorded is None:
        pytest.skip(f"no golden bits recorded for platform {key!r}")
    got = desk_digests(tmp_path)
    changed = sorted(name for name in recorded.keys() | got.keys() if recorded.get(name) != got.get(name))
    assert not changed, f"outputs whose bits differ from {GOLDEN.name} under {key!r}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        entry = desk_digests(Path(scratch))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[platform_key()] = entry
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(entry)} digests under {platform_key()!r} in {GOLDEN}")
