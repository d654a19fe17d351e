"""Synthetic two-modality benchmark data and its on-disk formats.

Classes are random unit prototype vectors kept pairwise dissimilar by
rejection sampling.  Clean sketches are a prototype plus small isotropic
noise; "noisy" sketches are either semantically ambiguous (midpoint of two
prototypes, wider noise) or mislabeled (a clean feature of another class
under the wrong label).  Shapes are bundles of per-view features around the
prototype.  The noisy flag is ground truth that real sketch datasets lack
and lives in its own file so evaluation code cannot read it by accident.

Files (all ASCII text, floats serialised with repr so round-trips are
bitwise; a non-ASCII byte is an error naming the file and the line):
  manifest.txt   key=value summary of the generation parameters and counts
  sketches.csv   id,label,split,modality,v0..v{dim-1}, one row per sketch
  shapes.csv     same header, one row per view, view rows share a common id
                 prefix with a ".vNN" suffix
  noisy.csv      id,noisy for every sketch; only the full load_dataset reads it

A feature file (the two above, and the embedding files) is held in memory
as five columns, from parse to write: ids, labels (int64), splits and
modalities, and one float64 rows x dim matrix.
"""

import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ops import l2_normalize_rows
from .rng import Rng

MANIFEST_MAGIC = "sketchshape-dataset v1"

CLEAN_NOISE_STD = 0.1
AMBIGUOUS_NOISE_STD = 0.3
VIEW_NOISE_STD = 0.1

NOISE_MODES = ("ambiguous", "label")


@dataclass
class SampleRecord:
    sample_id: str
    label: int
    split: str
    modality: str
    features: np.ndarray  # (dim,) for sketches, (views, dim) for shapes
    noisy: bool | None = None  # None: noisy.csv was not read


@dataclass
class Manifest:
    classes: int
    feature_dim: int
    views: int
    counts: dict
    noise_frac: float
    noise_mode: str
    seed: int


@dataclass
class Dataset:
    manifest: Manifest
    records: list = field(default_factory=list)

    def subset(self, modality: str, split: str):
        return [r for r in self.records if r.modality == modality and r.split == split]

    def sketches(self, split: str):
        return self.subset("sketch", split)

    def shapes(self, split: str):
        return self.subset("shape", split)


def _class_prototypes(classes: int, dim: int, rng: Rng, max_cos: float = 0.5) -> np.ndarray:
    protos = np.empty((classes, dim))
    attempts = 0
    limit = 1000 * classes
    count = 0
    while count < classes:
        attempts += 1
        if attempts > limit:
            raise ValueError(
                f"could not place {classes} prototypes with pairwise cosine < {max_cos} "
                f"in {dim} dimensions; increase the feature dimension"
            )
        cand = l2_normalize_rows(rng.normal_matrix(1, dim))[0]
        if count and np.any(protos[:count] @ cand >= max_cos):
            continue
        protos[count] = cand
        count += 1
    return protos


def _other_class(label: int, classes: int, rng: Rng) -> int:
    other = rng.integer(classes - 1)
    return other if other < label else other + 1


def generate(
    classes: int,
    train_per_class: int,
    test_per_class: int,
    dim: int,
    views: int,
    noise_frac: float,
    noise_mode: str,
    rng: Rng,
    seed: int = 0,
) -> Dataset:
    """Build the synthetic benchmark; both modalities use the same per-class
    train/test counts.  noise_frac of the sketches in each class and split
    (rounded up) are flagged noisy; shapes are always clean.  ``seed`` is
    recorded in the manifest and should match the seed used to build rng.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if not 0.0 <= noise_frac <= 1.0:
        raise ValueError(f"noise_frac must be in [0, 1], got {noise_frac}")
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {noise_mode!r}")
    if train_per_class < 1 or test_per_class < 1 or views < 1 or dim < 2:
        raise ValueError("train_per_class, test_per_class and views must be >= 1 and dim >= 2")

    protos = _class_prototypes(classes, dim, rng)
    records = []
    counts = {}
    for split, per_class in (("train", train_per_class), ("test", test_per_class)):
        k = math.ceil(noise_frac * per_class)
        index = 0
        for label in range(classes):
            flags = [True] * k + [False] * (per_class - k)
            rng.shuffle(flags)
            for noisy in flags:
                if not noisy:
                    feat = protos[label] + CLEAN_NOISE_STD * rng.normal_matrix(1, dim)[0]
                elif noise_mode == "ambiguous":
                    other = _other_class(label, classes, rng)
                    mid = 0.5 * (protos[label] + protos[other])
                    feat = mid + AMBIGUOUS_NOISE_STD * rng.normal_matrix(1, dim)[0]
                else:  # label noise: a clean feature of some other class
                    other = _other_class(label, classes, rng)
                    feat = protos[other] + CLEAN_NOISE_STD * rng.normal_matrix(1, dim)[0]
                records.append(
                    SampleRecord(f"sketch_{split}_{index:04d}", label, split, "sketch", feat, noisy)
                )
                index += 1
        counts[f"sketch_{split}"] = index
    for split, per_class in (("train", train_per_class), ("test", test_per_class)):
        index = 0
        for label in range(classes):
            for _ in range(per_class):
                view_feats = protos[label] + VIEW_NOISE_STD * rng.normal_matrix(views, dim)
                records.append(
                    SampleRecord(f"shape_{split}_{index:04d}", label, split, "shape", view_feats, False)
                )
                index += 1
        counts[f"shape_{split}"] = index

    manifest = Manifest(classes, dim, views, counts, noise_frac, noise_mode, seed)
    return Dataset(manifest, records)


def _feature_header(dim: int) -> str:
    return "id,label,split,modality," + ",".join(f"v{i}" for i in range(dim))


def write_feature_csv(path, ids, labels, splits, modalities, matrix) -> None:
    """One row per sample: the four text columns, then the row of
    ``matrix`` (rows x dim) formatted one row at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_feature_header(matrix.shape[1]) + "\n")
        for sample_id, label, split, modality, vec in zip(ids, labels, splits, modalities, matrix):
            values = ",".join(map(repr, vec.tolist()))
            fh.write(f"{sample_id},{label},{split},{modality},{values}\n")


def _text_lines(path):
    """Yield (line number, line) of an ASCII text file, with text-mode
    newlines; a non-ASCII byte raises ValueError naming the file and line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
                raise ValueError(f"{path} line {lineno}: non-ASCII byte 0x{byte:02x}")
            yield lineno, line


def read_feature_csv(path):
    """Returns the columns (ids, labels, splits, modalities, matrix), labels
    as int64 and matrix as float64 rows x dim; raises with the offending
    line number on malformed input or a non-finite value."""
    lines = _text_lines(path)
    header = next(lines, (1, ""))[1].rstrip("\n")
    cols = header.split(",")
    if len(cols) < 5 or cols[:4] != ["id", "label", "split", "modality"] or cols[4] != "v0":
        raise ValueError(f"{path}: unrecognised header {header!r}")
    dim = len(cols) - 4
    if cols[4:] != [f"v{i}" for i in range(dim)]:
        raise ValueError(f"{path}: feature columns must be v0..v{dim - 1}")
    ids, splits, modalities = [], [], []
    labels, values = array("q"), array("d")
    for lineno, line in lines:
        if line == "\n":
            continue
        parts = line.rstrip("\n").split(",")
        if len(parts) != 4 + dim:
            raise ValueError(f"{path} line {lineno}: expected {4 + dim} fields, got {len(parts)}")
        try:
            labels.append(int(parts[1]))
            row = [float(v) for v in parts[4:]]
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
        # The row's float sum is finite unless a value is not or the sum
        # overflows; only then is each value checked.
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise ValueError(f"{path} line {lineno}: row {parts[0]} has non-finite values")
        ids.append(parts[0])
        splits.append(parts[2])
        modalities.append(parts[3])
        values.extend(row)
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(ids), dim)
    return ids, np.frombuffer(labels, dtype=np.int64), splits, modalities, matrix


def _columns(records):
    """The ids, labels, splits and modalities of records, as lists."""
    return tuple([getattr(r, name) for r in records] for name in ("sample_id", "label", "split", "modality"))


def save_dataset(ds: Dataset, outdir) -> None:
    outdir = _as_dir(outdir)
    m = ds.manifest
    with open(outdir / "manifest.txt", "w", encoding="ascii") as fh:
        fh.write(MANIFEST_MAGIC + "\n")
        fh.write(f"classes = {m.classes}\n")
        fh.write(f"feature_dim = {m.feature_dim}\n")
        fh.write(f"views = {m.views}\n")
        for key in sorted(m.counts):
            fh.write(f"count_{key} = {m.counts[key]}\n")
        fh.write(f"noise_frac = {m.noise_frac!r}\n")
        fh.write(f"noise_mode = {m.noise_mode}\n")
        fh.write(f"seed = {m.seed}\n")

    sketches = [r for r in ds.records if r.modality == "sketch"]
    features = np.array([r.features for r in sketches]).reshape(-1, m.feature_dim)
    write_feature_csv(outdir / "sketches.csv", *_columns(sketches), features)
    shapes = [r for r in ds.records if r.modality == "shape"]
    ids = [f"{r.sample_id}.v{j:02d}" for r in shapes for j in range(len(r.features))]
    views = [r for r in shapes for _ in r.features]
    features = np.array([r.features for r in shapes]).reshape(-1, m.feature_dim)
    write_feature_csv(outdir / "shapes.csv", ids, *_columns(views)[1:], features)
    with open(outdir / "noisy.csv", "w", encoding="ascii") as fh:
        fh.write("id,noisy\n")
        for r in sketches:
            fh.write(f"{r.sample_id},{int(r.noisy)}\n")


def _as_dir(path):
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def load_manifest(path) -> Manifest:
    entries = {}
    lines = _text_lines(path)
    magic = next(lines, (1, ""))[1].rstrip("\n")
    if magic != MANIFEST_MAGIC:
        raise ValueError(f"{path}: bad manifest magic {magic!r}")
    for lineno, line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path} line {lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        entries[key] = (lineno, raw)

    def value(key, kind=str, least=None):
        if key not in entries:
            raise ValueError(f"{path}: missing key {key!r}")
        lineno, raw = entries[key]
        try:
            v = kind(raw)
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {key}: {exc}") from None
        if least is not None and v < least:
            raise ValueError(f"{path} line {lineno}: {key} must be >= {least}, got {v}")
        return v

    return Manifest(
        classes=value("classes", int, least=2),
        feature_dim=value("feature_dim", int),
        views=value("views", int, least=1),
        counts={key[len("count_") :]: value(key, int) for key in entries if key.startswith("count_")},
        noise_frac=value("noise_frac", float),
        noise_mode=value("noise_mode"),
        seed=value("seed", int),
    )


def _read_noisy(path) -> dict:
    noisy = {}
    lines = _text_lines(path)
    header = next(lines, (1, ""))[1].rstrip("\n")
    if header != "id,noisy":
        raise ValueError(f"{path}: unrecognised header {header!r}")
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path} line {lineno}: expected 2 fields")
        noisy[parts[0]] = parts[1] == "1"
    return noisy


def _read_rows(path, manifest: Manifest):
    """The columns of one of the dataset's feature files, checked against
    the manifest's feature dimension and class count."""
    ids, labels, splits, modalities, matrix = read_feature_csv(path)
    if matrix.shape[1] != manifest.feature_dim:
        raise ValueError(f"{path}: dim {matrix.shape[1]} != manifest feature_dim {manifest.feature_dim}")
    bad = np.flatnonzero((labels < 0) | (labels >= manifest.classes))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: row {ids[i]} has label {labels[i]}, manifest says {manifest.classes} classes")
    return ids, labels.tolist(), splits, modalities, matrix


def _load_sketches(indir: Path, manifest: Manifest, noisy=None):
    """One record per sketch row; ``noisy`` maps ids to flags (an id it
    lacks is clean), and None leaves every flag None, unread."""
    columns = _read_rows(indir / "sketches.csv", manifest)
    flags = [None if noisy is None else noisy.get(i, False) for i in columns[0]]
    return list(map(SampleRecord, *columns, flags))


def _load_shapes(indir: Path, manifest: Manifest):
    """One record per shape from its view rows, which must agree on label,
    split and modality and be numbered .v00 to the manifest's view count."""
    path = indir / "shapes.csv"
    ids, *meta_columns, matrix = _read_rows(path, manifest)
    grouped = {}
    meta = {}
    for i, (sample_id, row_meta) in enumerate(zip(ids, zip(*meta_columns))):
        base, _, suffix = sample_id.rpartition(".v")
        if not base or not suffix.isdigit():
            raise ValueError(f"{path}: view row id {sample_id!r} lacks a .vNN suffix")
        if meta.setdefault(base, row_meta) != row_meta:
            raise ValueError(f"{path}: view row {sample_id} disagrees with shape {base} on label, split or modality")
        grouped.setdefault(base, []).append((int(suffix), i))
    records = []
    for base, items in grouped.items():
        items.sort()
        views = [j for j, _ in items]
        if views != list(range(manifest.views)):
            raise ValueError(f"{path}: shape {base} has views {views}, manifest says {manifest.views}")
        records.append(SampleRecord(base, *meta[base], matrix[[i for _, i in items]], False))
    return records


def load_dataset(indir, modality=None) -> Dataset:
    """Read ``manifest.txt`` and the files of one modality: ``"sketch"``
    reads ``sketches.csv``, ``"shape"`` reads ``shapes.csv`` and None
    reads both and ``noisy.csv``, whose flags only this full load joins
    (a sketch-only load leaves them None).  The manifest's counts are
    checked for each modality read."""
    if modality not in (None, "sketch", "shape"):
        raise ValueError(f"modality must be 'sketch', 'shape' or None, got {modality!r}")
    indir = Path(indir)
    manifest = load_manifest(indir / "manifest.txt")
    records = []
    if modality in (None, "sketch"):
        noisy = _read_noisy(indir / "noisy.csv") if modality is None else None
        records += _load_sketches(indir, manifest, noisy)
    if modality in (None, "shape"):
        records += _load_shapes(indir, manifest)
    ds = Dataset(manifest, records)
    for key, expected in manifest.counts.items():
        kind, _, split = key.partition("_")
        if modality not in (None, kind):
            continue
        actual = len(ds.subset(kind, split))
        if actual != expected:
            raise ValueError(f"{indir / 'manifest.txt'}: manifest count {key} = {expected} but found {actual} records")
    return ds


def save_embeddings(path, records, matrix: np.ndarray) -> None:
    """One row per sample in record order: id,label,split,modality,values."""
    if len(records) != matrix.shape[0]:
        raise ValueError(f"{len(records)} records but {matrix.shape[0]} embedding rows")
    write_feature_csv(path, *_columns(records), matrix)


def load_embeddings(path):
    """read_feature_csv's columns of an embedding file, which must have a
    row; every value is finite (read_feature_csv rejects the others)."""
    columns = read_feature_csv(path)
    if not columns[0]:
        raise ValueError(f"{path}: no embedding rows")
    return columns
