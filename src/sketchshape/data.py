"""Synthetic two-modality benchmark data and its on-disk formats.

Classes are random unit prototype vectors kept pairwise dissimilar by
rejection sampling.  Clean sketches are a prototype plus small isotropic
noise; "noisy" sketches are either semantically ambiguous (midpoint of two
prototypes, wider noise) or mislabeled (a clean feature of another class
under the wrong label).  Shapes are bundles of per-view features around the
prototype.  The noisy flag is ground truth that real sketch datasets lack:
generate sets it, save_dataset writes it to its own file, and no code here
reads that file back, so evaluation cannot use it by accident.

Files (all ASCII text, floats serialised with repr so round-trips are
bitwise; a non-ASCII byte is an error naming the file and the line):
  manifest.txt   key=value summary of the generation parameters and counts
  sketches.csv   id,label,split,modality,v0..v{dim-1}, one row per sketch
  shapes.csv     same header, one row per view, view rows share a common id
                 prefix with a ".vNN" suffix
  noisy.csv      id,noisy for every sketch; written, never read

A feature file (the two above, and the embedding files) is held in memory
as five columns, from parse to write: ids, labels (int64), splits and
modalities (interned strings, one object per distinct value), and one
float64 rows x dim matrix.  It is read in blocks of rows: numpy's C parser
reads a block's values, which gives float()'s bits, and a block with any
fault is re-read line by line with float(), so the error names the file
and the line of the first fault.  It is written in blocks of rows too,
formatted in a pool of worker processes when the write is large and the
process may use more than one CPU; the bytes are the same either way.  A
dataset holds these columns per modality (``Samples``) from generate or
the parse to the encoder or writer, a shape's view rows as one
N x views x dim block: shapes.csv is written from that block, views rows
per sample, and loaded into it as a view of the parsed matrix when its
rows come in the writer's order.  A split that is one contiguous range of
rows, as in every generated dataset, is a view of the loaded columns
(``Dataset.subset``), so embed and report-uncertainty hold one copy of the
features; editing such a subset in place edits the dataset, which no
caller here does.
"""

import math
import os
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ops import l2_normalize_rows
from .rng import Rng

MANIFEST_MAGIC = "sketchshape-dataset v1"

CLEAN_NOISE_STD = 0.1
AMBIGUOUS_NOISE_STD = 0.3
VIEW_NOISE_STD = 0.1

NOISE_MODES = ("ambiguous", "label")

# The keys of manifest.txt; the four counts are count_<modality>_<split>.
_MANIFEST_KEYS = ("classes", "feature_dim", "views", "noise_frac", "noise_mode", "seed",
                  *(f"count_{kind}_{split}" for kind in ("sketch", "shape") for split in ("train", "test")))

# Feature files are parsed and formatted in blocks of this many rows, and a
# write of at least _POOL_MIN_VALUES values may use a pool of processes.
_BLOCK_ROWS = 256
_POOL_MIN_VALUES = 1 << 18


class Samples(NamedTuple):
    """One modality's samples as columns; features are N x dim for sketches
    and N x views x dim for shapes; noisy holds generate's flags and is None
    in loaded samples."""

    ids: list
    labels: np.ndarray
    splits: list
    features: np.ndarray
    noisy: np.ndarray | None

    @property
    def modality(self) -> str:
        return "shape" if self.features.ndim == 3 else "sketch"

    def take(self, rows) -> "Samples":
        """The samples at the index array ``rows``, in that order."""
        picked, noisy = rows.tolist(), None if self.noisy is None else self.noisy[rows]
        ids, splits = [self.ids[i] for i in picked], [self.splits[i] for i in picked]
        return Samples(ids, self.labels[rows], splits, self.features[rows], noisy)


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
    """The manifest and the samples of each modality read (None: not read)."""

    manifest: Manifest
    sketch: Samples | None = None
    shape: Samples | None = None

    def subset(self, modality: str, split: str) -> Samples:
        """The samples of ``split`` in file order.  When they are one
        contiguous range of rows, as in every generated dataset, the
        columns are slices: the lists are copied, but the arrays are views
        of the dataset's, so editing them in place edits the dataset.  Any
        other split is copied by Samples.take."""
        samples = getattr(self, modality) if modality in ("sketch", "shape") else None
        if samples is None:
            raise ValueError(f"the dataset holds no {modality} samples")
        rows = [i for i, s in enumerate(samples.splits) if s == split]
        if rows and rows[-1] - rows[0] != len(rows) - 1:
            return samples.take(np.array(rows, dtype=np.int64))
        part = slice(rows[0], rows[-1] + 1) if rows else slice(0)
        return Samples(*(None if column is None else column[part] for column in samples))

    def sketches(self, split: str) -> Samples:
        return self.subset("sketch", split)

    def shapes(self, split: str) -> Samples:
        return self.subset("shape", split)


def _class_prototypes(classes: int, dim: int, rng: Rng) -> np.ndarray:
    protos = np.empty((classes, dim))
    attempts = 0
    limit = 1000 * classes
    count = 0
    while count < classes:
        attempts += 1
        if attempts > limit:
            raise ValueError(
                f"could not place {classes} prototypes with pairwise cosine < 0.5 "
                f"in {dim} dimensions; increase the feature dimension"
            )
        cand = l2_normalize_rows(rng.normal_matrix(1, dim))[0]
        if count and np.any(protos[:count] @ cand >= 0.5):
            continue
        protos[count] = cand
        count += 1
    return protos


def _other_class(label: int, classes: int, rng: Rng) -> int:
    other = rng.integer(classes - 1)
    return other if other < label else other + 1


def generate(
    classes: int, train_per_class: int, test_per_class: int, dim: int, views: int, noise_frac: float,
    noise_mode: str, seed: int,
) -> Dataset:
    """Build the synthetic benchmark from ``Rng(seed)``, and record the seed
    in the manifest; both modalities use the same per-class train/test
    counts.  noise_frac of the sketches in each class and split (rounded up)
    are flagged noisy; shapes are always clean."""
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if not 0.0 <= noise_frac <= 1.0:
        raise ValueError(f"noise_frac must be in [0, 1], got {noise_frac}")
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {noise_mode!r}")
    if train_per_class < 1 or test_per_class < 1 or views < 1 or dim < 2:
        raise ValueError("train_per_class, test_per_class and views must be >= 1 and dim >= 2")

    rng = Rng(seed)
    protos = _class_prototypes(classes, dim, rng)
    per_split = (("train", train_per_class), ("test", test_per_class))
    names = [f"{split}_{index:04d}" for split, per_class in per_split for index in range(classes * per_class)]
    splits = [name.partition("_")[0] for name in names]
    labels = np.concatenate([np.repeat(np.arange(classes, dtype=np.int64), per_class) for _, per_class in per_split])
    sketch_features = np.empty((len(names), dim))
    noisy = []
    for split, per_class in per_split:
        k = math.ceil(noise_frac * per_class)
        for label in range(classes):
            flags = [True] * k + [False] * (per_class - k)
            rng.shuffle(flags)
            for flag in flags:
                if not flag:
                    feat = protos[label] + CLEAN_NOISE_STD * rng.normal_matrix(1, dim)[0]
                elif noise_mode == "ambiguous":
                    other = _other_class(label, classes, rng)
                    mid = 0.5 * (protos[label] + protos[other])
                    feat = mid + AMBIGUOUS_NOISE_STD * rng.normal_matrix(1, dim)[0]
                else:  # label noise: a clean feature of some other class
                    other = _other_class(label, classes, rng)
                    feat = protos[other] + CLEAN_NOISE_STD * rng.normal_matrix(1, dim)[0]
                sketch_features[len(noisy)] = feat
                noisy.append(flag)
    shape_features = np.empty((len(names), views, dim))
    for row, label in enumerate(labels.tolist()):
        shape_features[row] = protos[label] + VIEW_NOISE_STD * rng.normal_matrix(views, dim)

    counts = {f"{kind}_{split}": classes * per_class for kind in ("sketch", "shape") for split, per_class in per_split}
    manifest = Manifest(classes, dim, views, counts, noise_frac, noise_mode, seed)
    sketch = Samples([f"sketch_{name}" for name in names], labels, splits, sketch_features, np.array(noisy))
    shape = Samples([f"shape_{name}" for name in names], labels.copy(), list(splits), shape_features,
                    np.zeros(len(names), dtype=bool))
    return Dataset(manifest, sketch, shape)


def write_feature_csv(path, ids, labels, splits, modalities, matrix) -> None:
    """One row per sample: the four text columns, then the row of
    ``matrix`` (rows x dim) in repr.  An N x views x dim ``matrix`` writes
    ``views`` rows per sample, with ids ``<id>.vNN`` (shapes.csv).  Rows
    are formatted in blocks; a write of at least _POOL_MIN_VALUES values,
    in a process that may run on more than one CPU, formats them in a
    pool of worker processes and writes the same bytes."""
    rows = matrix.shape[0]
    lengths = [len(column) for column in (ids, labels, splits, modalities)]
    if lengths != [rows] * 4:
        raise ValueError(f"ids, labels, splits and modalities have {lengths} entries, matrix has {rows} rows")
    step = max(1, _BLOCK_ROWS // matrix.shape[1]) if matrix.ndim == 3 else _BLOCK_ROWS
    blocks = (
        tuple(column[start : start + step] for column in (ids, labels, splits, modalities, matrix))
        for start in range(0, rows, step)
    )
    workers = _usable_cpus()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("id,label,split,modality," + ",".join(f"v{i}" for i in range(matrix.shape[-1])) + "\n")
        if workers > 1 and matrix.size >= _POOL_MIN_VALUES:
            _write_pooled(fh, blocks, workers)
        else:
            for block in blocks:
                fh.write(_format_rows(*block))


def _format_rows(ids, labels, splits, modalities, matrix) -> str:
    """The CSV text of a block of samples, each value in repr: one row per
    sample, or per view of a sample of an N x views x dim block."""
    if matrix.ndim == 3:
        suffixes = [f".v{j:02d}" for j in range(matrix.shape[1])]
        ids = [sample_id + suffix for sample_id in ids for suffix in suffixes]
        labels, splits, modalities = ([value for value in column for _ in suffixes]
                                      for column in (labels, splits, modalities))
        matrix = matrix.reshape(-1, matrix.shape[2])
    return "".join(
        f"{sample_id},{label},{split},{modality},{','.join(map(repr, values))}\n"
        for sample_id, label, split, modality, values in zip(ids, labels, splits, modalities, matrix.tolist())
    )


def _write_pooled(fh, blocks, workers) -> None:
    """Write _format_rows of each block to fh in order, formatted by
    forked workers with at most 2 * workers blocks in flight.  Forking
    spares each worker the import of numpy; the workers only format the
    floats and strings they are sent and take no lock the parent held."""
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(workers) as pool:
        pending = deque()
        for block in blocks:
            pending.append(pool.apply_async(_format_rows, block))
            if len(pending) > 2 * workers:
                fh.write(pending.popleft().get())
        for result in pending:
            fh.write(result.get())


def _usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform
    does not say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _text_lines(path):
    """Yield (line number, line) of an ASCII text file, with text-mode
    newlines; a non-ASCII byte raises ValueError naming the file and line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
                raise ValueError(f"{path} line {lineno}: non-ASCII byte 0x{byte:02x}")
            yield lineno, line


def _key_values(path, lines, known, what: str, comment=None) -> dict:
    """{key: (line number, raw value)} of the ``key = value`` lines among the
    (line number, line) pairs of ``what`` file ``path``, skipping blank
    lines and any ``comment``; a line without '=', a key not in ``known``
    or a repeated key raises ValueError."""
    entries = {}
    for lineno, line in lines:
        text = (line.split(comment, 1)[0] if comment else line).strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path} line {lineno}: expected key = value, got {line.strip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in known:
            raise ValueError(f"{path} line {lineno}: unknown {what} key {key!r}")
        if key in entries:
            raise ValueError(f"{path} line {lineno}: key {key!r} repeats line {entries[key][0]}")
        entries[key] = lineno, raw
    return entries


def _typed_value(path, entries, key, kind=str, least=None, most=None):
    """``kind(raw value)`` of ``key`` in ``_key_values``' entries; a missing
    key, a value ``kind`` rejects, or one not within ``least`` and ``most``
    (NaN is within neither) raises ValueError."""
    if key not in entries:
        raise ValueError(f"{path}: missing key {key!r}")
    lineno, raw = entries[key]
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ValueError(f"{path} line {lineno}: {key}: {exc}") from None
    if (least is not None and not value >= least) or (most is not None and not value <= most):
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{path} line {lineno}: {key} must be {bounds}, got {value}")
    return value


def _noise_mode(raw: str) -> str:
    if raw not in NOISE_MODES:
        raise ValueError(f"expected one of {', '.join(NOISE_MODES)}, got {raw!r}")
    return raw


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
    columns = ([], array("q"), [], [], array("d"))
    rows = ((lineno, line) for lineno, line in lines if line != "\n")
    for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
        _read_block(path, block, dim, columns)
    ids, labels, splits, modalities, values = columns
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(ids), dim)
    return ids, np.frombuffer(labels, dtype=np.int64), splits, modalities, matrix


def _read_block(path, block, dim, columns) -> None:
    """Append a block of (line number, line) rows to columns, its values
    parsed by one np.loadtxt call.  On any fault, or on text where numpy
    and float() could disagree, the block is re-read by _read_lines, which
    accepts what float() accepts and reports the first fault by line."""
    fields = [line.split(",", 4) for _, line in block]
    try:
        labels = array("q", [int(f[1]) for f in fields])
        rests = [f[4] for f in fields]
        # np.loadtxt skips an empty line (and warns on a block of them),
        # and strips \x1c-\x1f around a number, which float() rejects.
        if "\n" in rests or "" in rests or any(c in rest for rest in rests for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError("a block numpy could read unlike float()")
        values = np.loadtxt(rests, delimiter=",", comments=None, ndmin=2)
    except (IndexError, ValueError, OverflowError):
        return _read_lines(path, block, dim, columns)
    if values.shape != (len(block), dim) or not np.isfinite(values).all():
        return _read_lines(path, block, dim, columns)
    ids, all_labels, splits, modalities, all_values = columns
    ids.extend(f[0] for f in fields)
    all_labels.extend(labels)
    splits.extend(sys.intern(f[2]) for f in fields)
    modalities.extend(sys.intern(f[3]) for f in fields)
    all_values.frombytes(values.tobytes())


def _read_lines(path, block, dim, columns) -> None:
    """Append a block of (line number, line) rows to columns one line at a
    time with float(); raises with the line of the first fault."""
    ids, labels, splits, modalities, values = columns
    for lineno, line in block:
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
        splits.append(sys.intern(parts[2]))
        modalities.append(sys.intern(parts[3]))
        values.extend(row)


def save_dataset(ds: Dataset, outdir) -> None:
    """Write the four dataset files of a dataset generate built: both
    modalities and every sketch's noisy flag.  A partial dataset (any
    load_dataset) raises ValueError before any file is opened."""
    sketch, shape, m = ds.sketch, ds.shape, ds.manifest
    missing = [f"{kind} records" for kind, samples in (("sketch", sketch), ("shape", shape)) if samples is None]
    if sketch is not None and sketch.noisy is None:
        missing.append("the noisy flags of the sketches")
    if missing:
        raise ValueError(f"cannot save a partial dataset: it lacks {' and '.join(missing)}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    counts = [f"count_{key} = {m.counts[key]}" for key in sorted(m.counts)]
    with open(outdir / "manifest.txt", "w", encoding="ascii") as fh:
        fh.writelines(f"{line}\n" for line in [
            MANIFEST_MAGIC, f"classes = {m.classes}", f"feature_dim = {m.feature_dim}", f"views = {m.views}", *counts,
            f"noise_frac = {m.noise_frac!r}", f"noise_mode = {m.noise_mode}", f"seed = {m.seed}",
        ])

    n = len(sketch.ids)
    write_feature_csv(outdir / "sketches.csv", sketch.ids, sketch.labels.tolist(), sketch.splits, ["sketch"] * n,
                      sketch.features)
    n = len(shape.ids)
    write_feature_csv(outdir / "shapes.csv", shape.ids, shape.labels.tolist(), shape.splits, ["shape"] * n,
                      shape.features)
    with open(outdir / "noisy.csv", "w", encoding="ascii") as fh:
        fh.write("id,noisy\n")
        fh.writelines(f"{sample_id},{int(flag)}\n" for sample_id, flag in zip(sketch.ids, sketch.noisy.tolist()))


def load_manifest(path) -> Manifest:
    """The manifest save_dataset writes: only its keys, each once, the
    counts optional; any other key, or a value out of range (noise_mode
    outside NOISE_MODES, noise_frac outside [0, 1]), raises ValueError
    naming the line."""
    lines = _text_lines(path)
    magic = next(lines, (1, ""))[1].rstrip("\n")
    if magic != MANIFEST_MAGIC:
        raise ValueError(f"{path}: bad manifest magic {magic!r}")
    entries = _key_values(path, lines, _MANIFEST_KEYS, "manifest")
    return Manifest(
        classes=_typed_value(path, entries, "classes", int, least=2),
        feature_dim=_typed_value(path, entries, "feature_dim", int),
        views=_typed_value(path, entries, "views", int, least=1),
        counts={key[len("count_") :]: _typed_value(path, entries, key, int)
                for key in entries if key.startswith("count_")},
        noise_frac=_typed_value(path, entries, "noise_frac", float, least=0.0, most=1.0),
        noise_mode=_typed_value(path, entries, "noise_mode", _noise_mode),
        seed=_typed_value(path, entries, "seed", int),
    )


def _read_rows(path, manifest: Manifest, modality: str):
    """The ids, labels, splits and matrix of one of the dataset's feature
    files, checked against the manifest's feature dimension and class
    count and against the file's modality."""
    ids, labels, splits, modalities, matrix = read_feature_csv(path)
    if matrix.shape[1] != manifest.feature_dim:
        raise ValueError(f"{path}: dim {matrix.shape[1]} != manifest feature_dim {manifest.feature_dim}")
    bad = np.flatnonzero((labels < 0) | (labels >= manifest.classes))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: row {ids[i]} has label {labels[i]}, manifest says {manifest.classes} classes")
    if modalities.count(modality) != len(modalities):
        i = next(i for i, m in enumerate(modalities) if m != modality)
        raise ValueError(f"{path}: row {ids[i]} has modality {modalities[i]!r}, expected {modality!r}")
    return ids, labels, splits, matrix


def _load_shapes(indir: Path, manifest: Manifest) -> Samples:
    """One sample per shape from its view rows, which must agree on label
    and split and be numbered .v00 to the manifest's view count.  Each row
    gets its shape's index (shapes in order of first appearance) and its
    view number, and one stable lexsort groups the rows.  The
    N x views x dim block is a view of the parsed matrix when the rows come
    in the writer's order (each shape's views together, .v00 first), and is
    gathered with one index array otherwise."""
    path = indir / "shapes.csv"
    ids, labels, splits, matrix = _read_rows(path, manifest, "shape")
    views = manifest.views
    index, first, shape_of, view_of = {}, array("q"), array("q"), array("q")
    for i, sample_id in enumerate(ids):
        base, _, suffix = sample_id.rpartition(".v")
        if not base or not suffix.isdigit():
            raise ValueError(f"{path}: view row id {sample_id!r} lacks a .vNN suffix")
        if base not in index:
            index[base] = len(first)
            first.append(i)
        shape_of.append(index[base])
        # A view number past the last is a fault whatever its size; capped, it fits an int64.
        view_of.append(min(int(suffix), views))
    bases = list(index)
    first, shape_of, view_of = (np.frombuffer(column, dtype=np.int64) for column in (first, shape_of, view_of))
    shape_labels, shape_splits = labels[first], [splits[i] for i in first.tolist()]
    disagree = np.flatnonzero((labels != shape_labels[shape_of])
                              | (np.array(splits, dtype=object) != np.array(shape_splits, dtype=object)[shape_of]))
    if disagree.size:
        i = disagree[0]
        raise ValueError(f"{path}: view row {ids[i]} disagrees with shape {bases[shape_of[i]]} on label or split")
    order = np.lexsort((view_of, shape_of))
    if order.size != len(bases) * views or (view_of[order].reshape(-1, views) != np.arange(views)).any():
        found = [[] for _ in bases]
        for sample_id, k in zip(ids, shape_of.tolist()):
            found[k].append(int(sample_id.rpartition(".v")[2]))
        k = next(k for k, numbers in enumerate(found) if sorted(numbers) != list(range(views)))
        raise ValueError(f"{path}: shape {bases[k]} has views {sorted(found[k])}, manifest says {views}")
    rows = order.reshape(len(bases), views)
    in_order = np.array_equal(order, np.arange(order.size))
    block = matrix.reshape(*rows.shape, matrix.shape[1]) if in_order else matrix[rows]
    return Samples(bases, shape_labels, shape_splits, block, None)


def load_dataset(indir, modality: str) -> Dataset:
    """Read ``manifest.txt`` and the feature file of one modality:
    ``"sketch"`` reads ``sketches.csv`` and ``"shape"`` reads ``shapes.csv``.
    No load reads ``noisy.csv``, so the samples' noisy column is None.  The
    manifest's counts of the modality are checked against its splits column."""
    if modality not in ("sketch", "shape"):
        raise ValueError(f"modality must be 'sketch' or 'shape', got {modality!r}")
    indir = Path(indir)
    ds = Dataset(load_manifest(indir / "manifest.txt"))
    if modality == "sketch":
        samples = ds.sketch = Samples(*_read_rows(indir / "sketches.csv", ds.manifest, "sketch"), None)
    else:
        samples = ds.shape = _load_shapes(indir, ds.manifest)
    for key, expected in ds.manifest.counts.items():
        kind, _, split = key.partition("_")
        if kind == modality and (actual := samples.splits.count(split)) != expected:
            raise ValueError(f"{indir / 'manifest.txt'}: manifest count {key} = {expected} but found {actual} records")
    return ds


def save_embeddings(path, samples: Samples, matrix: np.ndarray) -> None:
    """One row per sample, in order: id,label,split,modality,values."""
    n = len(samples.ids)
    if n != matrix.shape[0]:
        raise ValueError(f"{n} records but {matrix.shape[0]} embedding rows")
    write_feature_csv(path, samples.ids, samples.labels.tolist(), samples.splits, [samples.modality] * n, matrix)


def load_embeddings(path):
    """read_feature_csv's columns of an embedding file, which must have a
    row; every value is finite (read_feature_csv rejects the others)."""
    columns = read_feature_csv(path)
    if not columns[0]:
        raise ValueError(f"{path}: no embedding rows")
    return columns
