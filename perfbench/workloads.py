"""The three benchmark workloads and the inputs they are built from.

Every workload is a fixed sequence of ``sketchshape`` CLI commands run one
after another by a single client (closed loop: each command starts when
the previous one has exited, because each consumes the files the previous
ones wrote).  Inputs are made in set-up from the benchmark seed, so the
same seed gives byte-identical inputs; the program only ever sees the
generated files.

Why these three (measured sizes are in perfbench/README.md):

* ``desk``    - the README pipeline, what users run.  Dominated by the two
                training stages (rng, model, losses, ops, train) and by
                interpreter start-up; ranking is a ~1.5% share, so a
                retrieval optimisation should leave it unchanged.
* ``gallery`` - one ``eval`` of 2000 queries against a 10000-item gallery.
                Ranking and the per-query metric loops are ~95% of it and
                nothing is trained, so a training optimisation should
                leave it unchanged.
* ``bulk_io`` - dataset generation and loading at volume (~67 MB of CSV),
                forward-only encoding at a large batch with one view sort
                per shape.  No training and no ranking.
"""

from dataclasses import dataclass, field
from pathlib import Path

# The README's desk.cfg.
DESK_CONFIG = "hidden = 64,64\nembed_dim = 32\nbatch_size = 8\nlr0 = 0.08\nmax_epochs = 60\n"

# Seeds of the README pipeline; the benchmark seed is added to each so that
# seed 0 reproduces the README run exactly.
DATA_SEED = 7
SKETCH_SEED = 7
SHAPE_SEED = 8
# gradcheck is a fixed self-test of the backward passes, run with the
# README's seed whatever the benchmark seed is.
GRADCHECK_SEED = 0

GALLERY_QUERIES = 2000
GALLERY_ITEMS = 10000
GALLERY_DIM = 32
GALLERY_CLASSES = 50
GALLERY_NOISE = 1.0

DATASET_FILES = ("manifest.txt", "sketches.csv", "shapes.csv", "noisy.csv")


@dataclass
class Command:
    """One CLI invocation: the name it is reported under, its argv after
    ``sketchshape`` and the files it must produce (relative to the
    iteration's output directory)."""

    name: str
    argv: list
    outputs: list = field(default_factory=list)


def _gen_data_argv(out, classes, dim, seed):
    return [
        "gen-data", "--out", str(out), "--classes", str(classes), "--train-per-class", "50",
        "--test-per-class", "30", "--dim", str(dim), "--views", "12", "--noise-frac", "0.2",
        "--noise-mode", "ambiguous", "--seed", str(DATA_SEED + seed),
    ]


def _dataset_outputs(prefix):
    return [f"{prefix}/{name}" for name in DATASET_FILES]


def desk_commands(inputs: Path, out: Path, seed: int):
    cfg = str(inputs / "desk.cfg")
    data, run = out / "data", out / "run"
    return [
        Command("gen_data", _gen_data_argv(data, 10, 16, seed), _dataset_outputs("data")),
        Command(
            "train_sketch",
            ["train-sketch", "--data", str(data), "--out", str(run), "--config", cfg,
             "--seed", str(SKETCH_SEED + seed)],
            ["run/sketch.ckpt", "run/stage1_report.txt"],
        ),
        Command(
            "train_shape",
            ["train-shape", "--data", str(data), "--checkpoint", str(run / "sketch.ckpt"), "--out", str(run),
             "--config", cfg, "--seed", str(SHAPE_SEED + seed)],
            ["run/shape.ckpt", "run/stage2_report.txt"],
        ),
        Command(
            "embed",
            ["embed", "--checkpoint", str(run / "sketch.ckpt"), "--data", str(data), "--split", "test",
             "--out", str(out / "queries.csv")],
            ["queries.csv"],
        ),
        Command(
            "embed",
            ["embed", "--checkpoint", str(run / "shape.ckpt"), "--data", str(data), "--split", "test",
             "--out", str(out / "gallery.csv")],
            ["gallery.csv"],
        ),
        Command(
            "eval",
            ["eval", "--queries", str(out / "queries.csv"), "--gallery", str(out / "gallery.csv"),
             "--out", str(out / "eval")],
            ["eval/metrics.txt", "eval/per_query.csv", "eval/pr_curve.txt"],
        ),
        Command(
            "report_uncertainty",
            ["report-uncertainty", "--checkpoint", str(run / "sketch.ckpt"), "--data", str(data),
             "--split", "train", "--out", str(out / "uncert")],
            ["uncert/uncertainty.csv", "uncert/uncertainty_summary.txt"],
        ),
        Command("gradcheck", ["gradcheck", "--seed", str(GRADCHECK_SEED)]),
    ]


def gallery_commands(inputs: Path, out: Path, seed: int):
    return [
        Command(
            "eval",
            ["eval", "--queries", str(inputs / "queries.csv"), "--gallery", str(inputs / "gallery.csv"),
             "--out", str(out / "eval")],
            ["eval/metrics.txt", "eval/per_query.csv", "eval/pr_curve.txt"],
        ),
    ]


def bulk_io_setup_commands(inputs: Path, seed: int):
    """One-epoch checkpoints trained on a dataset seeded exactly like the
    one the timed ``gen-data`` writes."""
    cfg = str(inputs / "desk.cfg")
    data, run = inputs / "data", inputs / "run"
    return [
        Command("gen_data", _gen_data_argv(data, 50, 64, seed)),
        Command(
            "train_sketch",
            ["train-sketch", "--data", str(data), "--out", str(run), "--config", cfg, "--epochs", "1",
             "--seed", str(SKETCH_SEED + seed)],
        ),
        Command(
            "train_shape",
            ["train-shape", "--data", str(data), "--checkpoint", str(run / "sketch.ckpt"), "--out", str(run),
             "--config", cfg, "--epochs", "1", "--seed", str(SHAPE_SEED + seed)],
        ),
    ]


def bulk_io_commands(inputs: Path, out: Path, seed: int):
    data, run = out / "data", inputs / "run"
    return [
        Command("gen_data", _gen_data_argv(data, 50, 64, seed), _dataset_outputs("data")),
        Command(
            "embed",
            ["embed", "--checkpoint", str(run / "sketch.ckpt"), "--data", str(data), "--split", "train",
             "--out", str(out / "sketch_train.csv")],
            ["sketch_train.csv"],
        ),
        Command(
            "embed",
            ["embed", "--checkpoint", str(run / "shape.ckpt"), "--data", str(data), "--split", "train",
             "--out", str(out / "shape_train.csv")],
            ["shape_train.csv"],
        ),
        Command(
            "report_uncertainty",
            ["report-uncertainty", "--checkpoint", str(run / "sketch.ckpt"), "--data", str(data),
             "--split", "train", "--out", str(out / "uncert")],
            ["uncert/uncertainty.csv", "uncert/uncertainty_summary.txt"],
        ),
    ]


def gallery_embeddings(seed: int, queries=GALLERY_QUERIES, items=GALLERY_ITEMS, dim=GALLERY_DIM,
                       classes=GALLERY_CLASSES, noise=GALLERY_NOISE):
    """Synthetic query and gallery embeddings: a standard-normal prototype
    per class plus isotropic noise, every class present on both sides.

    Returns (query_labels, query_matrix, gallery_labels, gallery_matrix);
    the draw order (prototypes, queries, gallery) is fixed, so a seed
    gives bitwise-identical embeddings.
    """
    from sketchshape.rng import Rng

    rng = Rng(seed)
    protos = rng.normal_matrix(classes, dim)
    qlabels = [i % classes for i in range(queries)]
    glabels = [i % classes for i in range(items)]
    q = protos[qlabels] + noise * rng.normal_matrix(queries, dim)
    g = protos[glabels] + noise * rng.normal_matrix(items, dim)
    return qlabels, q, glabels, g


def embedding_ids(count: int, prefix: str):
    width = max(4, len(str(count - 1)))
    return [f"{prefix}_{i:0{width}d}" for i in range(count)]


def write_embedding_csv(path: Path, ids, modality: str, labels, matrix) -> None:
    """The embedding CSV format ``eval`` reads (README, File formats);
    floats written with repr so the file round-trips bitwise."""
    lines = ["id,label,split,modality," + ",".join(f"v{i}" for i in range(matrix.shape[1]))]
    for sample_id, label, row in zip(ids, labels, matrix.tolist()):
        lines.append(f"{sample_id},{label},test,{modality}," + ",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_desk_config(inputs: Path) -> None:
    (inputs / "desk.cfg").write_text(DESK_CONFIG, encoding="ascii")
