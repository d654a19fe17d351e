"""Synthetic two-modality benchmark data and its on-disk formats.

Classes are random unit prototype vectors kept pairwise dissimilar by
rejection sampling.  Clean sketches are a prototype plus small isotropic
noise; "noisy" sketches are either semantically ambiguous (midpoint of two
prototypes, wider noise) or mislabeled (a clean feature of another class
under the wrong label).  Shapes are bundles of per-view features around the
prototype.  The noisy flag is ground truth that real sketch datasets lack
and lives in its own file so evaluation code cannot read it by accident.

Files (all plain text, floats serialised with repr so round-trips are
bitwise):
  manifest.txt   key=value summary of the generation parameters and counts
  sketches.csv   id,label,split,modality,v0..v{dim-1}, one row per sketch
  shapes.csv     same header, one row per view, view rows share a common id
                 prefix with a ".vNN" suffix
  noisy.csv      id,noisy for every sketch
"""

import math
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
    noisy: bool = False


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


def write_feature_csv(path, rows, dim: int) -> None:
    """rows: iterable of (id, label, split, modality, vector)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_feature_header(dim) + "\n")
        for sample_id, label, split, modality, vec in rows:
            values = ",".join(repr(float(v)) for v in vec)
            fh.write(f"{sample_id},{label},{split},{modality},{values}\n")


def read_feature_csv(path):
    """Returns (rows, dim) with rows of (id, label, split, modality,
    vector); raises with the offending line number on malformed input."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if len(cols) < 5 or cols[:4] != ["id", "label", "split", "modality"] or cols[4] != "v0":
            raise ValueError(f"{path}: unrecognised header {header!r}")
        dim = len(cols) - 4
        expected = [f"v{i}" for i in range(dim)]
        if cols[4:] != expected:
            raise ValueError(f"{path}: feature columns must be v0..v{dim - 1}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4 + dim:
                raise ValueError(f"{path} line {lineno}: expected {4 + dim} fields, got {len(parts)}")
            try:
                label = int(parts[1])
                vec = np.array([float(v) for v in parts[4:]])
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            rows.append((parts[0], label, parts[2], parts[3], vec))
    return rows, dim


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

    sketch_rows = []
    noisy_rows = []
    for r in ds.records:
        if r.modality != "sketch":
            continue
        sketch_rows.append((r.sample_id, r.label, r.split, r.modality, r.features))
        noisy_rows.append((r.sample_id, int(r.noisy)))
    write_feature_csv(outdir / "sketches.csv", sketch_rows, m.feature_dim)

    shape_rows = []
    for r in ds.records:
        if r.modality != "shape":
            continue
        for j, view in enumerate(r.features):
            shape_rows.append((f"{r.sample_id}.v{j:02d}", r.label, r.split, r.modality, view))
    write_feature_csv(outdir / "shapes.csv", shape_rows, m.feature_dim)

    with open(outdir / "noisy.csv", "w", encoding="ascii") as fh:
        fh.write("id,noisy\n")
        for sample_id, flag in noisy_rows:
            fh.write(f"{sample_id},{flag}\n")


def _as_dir(path):
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def load_manifest(path) -> Manifest:
    values = {}
    counts = {}
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != MANIFEST_MAGIC:
            raise ValueError(f"{path}: bad manifest magic {magic!r}")
        for lineno, line in enumerate(fh, start=2):
            stripped = line.strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path} line {lineno}: expected key = value")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key.startswith("count_"):
                counts[key[len("count_") :]] = int(raw)
            else:
                values[key] = raw
    return Manifest(
        classes=int(values["classes"]),
        feature_dim=int(values["feature_dim"]),
        views=int(values["views"]),
        counts=counts,
        noise_frac=float(values["noise_frac"]),
        noise_mode=values["noise_mode"],
        seed=int(values["seed"]),
    )


def load_dataset(indir) -> Dataset:
    indir = Path(indir)
    manifest = load_manifest(indir / "manifest.txt")

    noisy = {}
    with open(indir / "noisy.csv", "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != "id,noisy":
            raise ValueError(f"{indir / 'noisy.csv'}: unrecognised header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{indir / 'noisy.csv'} line {lineno}: expected 2 fields")
            noisy[parts[0]] = parts[1] == "1"

    records = []
    sketch_rows, dim = read_feature_csv(indir / "sketches.csv")
    if dim != manifest.feature_dim:
        raise ValueError(f"sketches.csv dim {dim} != manifest feature_dim {manifest.feature_dim}")
    for sample_id, label, split, modality, vec in sketch_rows:
        records.append(SampleRecord(sample_id, label, split, modality, vec, noisy.get(sample_id, False)))

    shape_rows, dim = read_feature_csv(indir / "shapes.csv")
    if dim != manifest.feature_dim:
        raise ValueError(f"shapes.csv dim {dim} != manifest feature_dim {manifest.feature_dim}")
    grouped = {}
    meta = {}
    for sample_id, label, split, modality, vec in shape_rows:
        base, _, suffix = sample_id.rpartition(".v")
        if not base or not suffix.isdigit():
            raise ValueError(f"shapes.csv: view row id {sample_id!r} lacks a .vNN suffix")
        grouped.setdefault(base, []).append((int(suffix), vec))
        meta[base] = (label, split, modality)
    for base, items in grouped.items():
        items.sort(key=lambda t: t[0])
        if manifest.views and len(items) != manifest.views:
            raise ValueError(f"shape {base} has {len(items)} views, manifest says {manifest.views}")
        label, split, modality = meta[base]
        records.append(SampleRecord(base, label, split, modality, np.stack([v for _, v in items]), False))

    ds = Dataset(manifest, records)
    for key, expected in manifest.counts.items():
        modality, split = key.split("_", 1)
        actual = len(ds.subset(modality, split))
        if actual != expected:
            raise ValueError(f"manifest count {key} = {expected} but found {actual} records")
    return ds


def save_embeddings(path, records, matrix: np.ndarray) -> None:
    """One row per sample in record order: id,label,split,modality,values."""
    if len(records) != matrix.shape[0]:
        raise ValueError(f"{len(records)} records but {matrix.shape[0]} embedding rows")
    rows = [(r.sample_id, r.label, r.split, r.modality, matrix[i]) for i, r in enumerate(records)]
    write_feature_csv(path, rows, matrix.shape[1])


def load_embeddings(path):
    """Returns (ids, labels, splits, modalities, matrix); every value must
    be finite."""
    rows, dim = read_feature_csv(path)
    if not rows:
        raise ValueError(f"{path}: no embedding rows")
    ids = [r[0] for r in rows]
    labels = np.array([r[1] for r in rows], dtype=np.int64)
    splits = [r[2] for r in rows]
    modalities = [r[3] for r in rows]
    matrix = np.stack([r[4] for r in rows])
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: embedding {ids[int(np.argmin(finite))]} has non-finite values")
    return ids, labels, splits, modalities, matrix
