"""Synthetic two-modality benchmark data and its on-disk formats.

Classes are random unit prototype vectors kept pairwise dissimilar by
rejection sampling.  Clean sketches are a prototype plus small isotropic
noise; "noisy" sketches are either semantically ambiguous (midpoint of two
prototypes, wider noise) or mislabeled (a clean feature of another class
under the wrong label).  Shapes are bundles of per-view features around the
prototype, drawn when they are read: generate records the generator's
position at the first shape's draw, and a run of shapes is drawn from that
position advanced past the shapes before it, with the bits of a draw of
every shape in order.  The noisy flag is ground truth that real sketch
datasets lack: generate sets it, save_dataset writes it to its own file,
and no code here reads that file back, so evaluation cannot use it by
accident.

Files (all ASCII text, floats serialised with repr so round-trips are
bitwise; a non-ASCII byte is an error naming the file and the line):
  manifest.txt   key=value summary of the generation parameters and counts
  sketches.csv   id,label,split,modality,v0..v{dim-1}, one row per sketch
  shapes.csv     same header, one row per view: each shape's views rows in
                 order, ids <id>.v00 to <id>.v{views-1:02d}
  noisy.csv      id,noisy for every sketch; written, never read

A feature file (the two above, and the embedding files) is held in memory
as five columns: ids, labels (int64), splits and modalities (interned
strings, one object per distinct value), and one float64 rows x dim
matrix, from parse to write, except that gen-data never holds its shape
views: the writer slices them a block at a time, and each slice draws
only its own shapes.  It is read in blocks of rows: numpy's C parser
reads a block's values, which gives float()'s bits, and a block with any
fault is re-read line by line with float(), so the error names the file
and the line of the first fault.  It is written in blocks of rows too;
a large write is cut into one contiguous run of samples per CPU the
process may use, a forked process formats each run after the first into
a part file, and the parts are appended in order, so the bytes are the
same either way.

A load reads one modality and one split (``load_dataset(dir, modality,
split)``), and parses only that split's values: every row's text columns
(ASCII, field count, label, modality, the writer's layout of a shape's
view rows and their agreement) and the manifest's counts of both splits
are checked, but a malformed or non-finite value in a row of the other
split goes unread.  The loaded samples (``Samples``) hold that split
alone, a shape's view rows as one N x views x dim block: shapes.csv is
written from that block, views rows per sample, and loaded into it as a
view of the parsed matrix; a file in any other layout is malformed.
``Dataset.subset`` copies one split of generate's datasets.
"""

import math
import os
import shutil
import signal
import sys
import tempfile
from array import array
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
# write of at least _POOL_MIN_VALUES values is shared between processes.
_BLOCK_ROWS = 256
_POOL_MIN_VALUES = 1 << 18


class Samples(NamedTuple):
    """One modality's samples as columns; features are N x dim for sketches
    and N x views x dim for shapes (from generate, a _DrawnViews that draws
    them when read); noisy holds generate's flags and is None in loaded
    samples."""

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
    """The manifest and the samples of each modality: both splits of both
    from generate, one split of one from load_dataset (None: not read)."""

    manifest: Manifest
    sketch: Samples | None = None
    shape: Samples | None = None

    def subset(self, modality: str, split: str) -> Samples:
        """A copy of the samples of ``split``, in order (Samples.take)."""
        samples = getattr(self, modality) if modality in ("sketch", "shape") else None
        if samples is None:
            raise ValueError(f"the dataset holds no {modality} samples")
        return samples.take(np.array([i for i, s in enumerate(samples.splits) if s == split], dtype=np.int64))

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


class _DrawnViews:
    """generate's N x views x dim shape views, drawn when they are read.
    Shape i's views are its prototype plus VIEW_NOISE_STD times one
    normal_matrix(views, dim) draw, the draws in shape order from ``rng``,
    which nothing else draws from.  A slice of shapes a:b (step 1) is one
    normal_batches draw of those shapes' views, from ``rng`` advanced past
    the raw outputs of shapes 0:a, so it holds only its own shapes and has
    the bits of the per-shape loop.  np.asarray, and any other index, draws
    every shape."""

    ndim = 3

    def __init__(self, rng: Rng, protos: np.ndarray, labels: np.ndarray, views: int):
        self._rng, self._protos, self._labels = rng, protos, labels
        self.shape = (len(labels), views, protos.shape[1])
        self.size = math.prod(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index) -> np.ndarray:
        if not isinstance(index, slice) or index.step not in (None, 1):
            return np.asarray(self)[index]
        first, stop, _ = index.indices(len(self))
        count, views, dim = max(stop - first, 0), *self.shape[1:]
        # A shape's draw takes views * dim raw outputs, rounded up to a pair.
        normals = self._rng.ahead(first * (views * dim + views * dim % 2)).normal_batches(count * views, views, dim)
        protos = self._protos[self._labels[first : first + count], None]
        return protos + VIEW_NOISE_STD * normals.reshape(count, views, dim)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)


def generate(
    classes: int, train_per_class: int, test_per_class: int, dim: int, views: int, noise_frac: float,
    noise_mode: str, seed: int,
) -> Dataset:
    """Build the synthetic benchmark from ``Rng(seed)``, and record the seed
    in the manifest; both modalities use the same per-class train/test
    counts.  noise_frac of the sketches in each class and split (rounded up)
    are flagged noisy; shapes are always clean.  The sketches are drawn
    here; the shape views are drawn after them, one normal_matrix(views,
    dim) per shape in order, but only when read (_DrawnViews), so the
    N x views x dim block is never held unless a caller asks for all of it
    (np.asarray, Dataset.subset)."""
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
    shape_features = _DrawnViews(rng, protos, labels.copy(), views)

    counts = {f"{kind}_{split}": classes * per_class for kind in ("sketch", "shape") for split, per_class in per_split}
    manifest = Manifest(classes, dim, views, counts, noise_frac, noise_mode, seed)
    sketch = Samples([f"sketch_{name}" for name in names], labels, splits, sketch_features, np.array(noisy))
    shape = Samples([f"shape_{name}" for name in names], labels.copy(), list(splits), shape_features,
                    np.zeros(len(names), dtype=bool))
    return Dataset(manifest, sketch, shape)


def write_feature_csv(path, ids, labels, splits, modalities, matrix) -> None:
    """One row per sample: the four text columns, then the row of
    ``matrix`` (rows x dim) in repr.  An N x views x dim ``matrix`` writes
    ``views`` rows per sample, with ids ``<id>.vNN`` (shapes.csv).

    Rows are formatted a block at a time.  A write of at least
    _POOL_MIN_VALUES values is cut into one contiguous run of samples per
    CPU the process may use (a share); a process forked for each share
    after the first formats its run into a temporary part file beside
    ``path``, while this process formats the first run into ``path`` and
    then appends the parts in order, so the bytes are those of one run.
    The children are forked before ``path`` is opened and leave by
    os._exit, so they flush no buffer they inherited, and they only
    format the values they inherited and take no lock another thread may
    hold.  A share that fails raises OSError naming ``path``; no part
    file or child outlives the call."""
    rows = matrix.shape[0]
    lengths = [len(column) for column in (ids, labels, splits, modalities)]
    if lengths != [rows] * 4:
        raise ValueError(f"ids, labels, splits and modalities have {lengths} entries, matrix has {rows} rows")
    columns = (ids, labels, splits, modalities, matrix)
    shares = _usable_cpus() if matrix.size >= _POOL_MIN_VALUES else 1
    bounds = [rows * share // shares for share in range(shares + 1)]
    path, owner, parts, children = Path(path), os.getpid(), [], []
    try:
        for share in range(1, shares):
            fd, part = tempfile.mkstemp(".part", f".{path.name}.", path.parent)
            os.close(fd)
            parts.append(part)
            children.append(os.fork())
            if children[-1] == 0:
                with open(part, "w", encoding="ascii") as fh:
                    _write_rows(fh, columns, bounds[share], bounds[share + 1])
                os._exit(0)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,label,split,modality," + ",".join(f"v{i}" for i in range(matrix.shape[-1])) + "\n")
            _write_rows(fh, columns, 0, bounds[1])
            for share, part in enumerate(parts, start=1):
                status = os.waitpid(children[0], 0)[1]
                children.pop(0)
                if status:
                    raise OSError(f"{path}: the process formatting rows {bounds[share]} to {bounds[share + 1]} "
                                  f"failed with exit code {os.waitstatus_to_exitcode(status)}")
                fh.flush()
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
    finally:
        if os.getpid() != owner:
            os._exit(1)  # a share's own failure: the owner reports it, and no child traceback
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            os.remove(part)


def _write_rows(fh, columns, start, stop) -> None:
    """Write the rows of samples start to stop of the five columns to fh,
    formatted a block of _BLOCK_ROWS rows (whole samples) at a time."""
    matrix = columns[-1]
    step = max(1, _BLOCK_ROWS // matrix.shape[1]) if matrix.ndim == 3 else _BLOCK_ROWS
    for first in range(start, stop, step):
        fh.write(_format_rows(*(column[first : min(first + step, stop)] for column in columns)))


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


def read_feature_csv(path, split):
    """Returns the columns (ids, labels, splits, modalities, matrix): the
    four text columns of every row, labels as int64, and matrix the float64
    values of the rows whose split is ``split`` (of every row for None),
    rows x dim in file order.  Every row's text and field count are checked,
    and only the values in matrix are parsed; a fault raises with the
    offending line number, so a malformed or non-finite value in a row of
    another split goes unread."""
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
        _read_block(path, block, dim, split, columns)
    ids, labels, splits, modalities, values = columns
    matrix = np.frombuffer(values, dtype=np.float64).reshape(-1, dim)
    return ids, np.frombuffer(labels, dtype=np.int64), splits, modalities, matrix


def _read_block(path, block, dim, split, columns) -> None:
    """Append a block of (line number, line) rows to columns, the values of
    its rows of ``split`` parsed by one np.loadtxt call.  On any fault, or
    on text where numpy and float() could disagree, the block is re-read by
    _read_lines, which accepts what float() accepts and reports the first
    fault by line."""
    fields = [line.split(",", 4) for _, line in block]
    try:
        labels = array("q", [int(f[1]) for f in fields])
        rests = [f[4] for f in fields if split is None or f[2] == split]
        # A row of another split is not parsed, but must hold dim values.
        if len(rests) < len(fields) and any(f[4].count(",") != dim - 1 for f in fields if f[2] != split):
            raise ValueError("a field count to report by line")
        # np.loadtxt skips an empty line (and warns on a block of them),
        # and strips \x1c-\x1f around a number, which float() rejects.
        if "\n" in rests or "" in rests or any(c in rest for rest in rests for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError("a block numpy could read unlike float()")
        values = np.loadtxt(rests, delimiter=",", comments=None, ndmin=2) if rests else np.empty((0, dim))
    except (IndexError, ValueError, OverflowError):
        return _read_lines(path, block, dim, split, columns)
    if values.shape != (len(rests), dim) or not np.isfinite(values).all():
        return _read_lines(path, block, dim, split, columns)
    ids, all_labels, splits, modalities, all_values = columns
    ids.extend(f[0] for f in fields)
    all_labels.extend(labels)
    splits.extend(sys.intern(f[2]) for f in fields)
    modalities.extend(sys.intern(f[3]) for f in fields)
    all_values.frombytes(values.tobytes())


def _read_lines(path, block, dim, split, columns) -> None:
    """Append a block of (line number, line) rows to columns one line at a
    time, the values of rows of ``split`` with float(); raises with the
    line of the first fault."""
    ids, labels, splits, modalities, values = columns
    for lineno, line in block:
        parts = line.rstrip("\n").split(",")
        if len(parts) != 4 + dim:
            raise ValueError(f"{path} line {lineno}: expected {4 + dim} fields, got {len(parts)}")
        try:
            labels.append(int(parts[1]))
            row = [float(v) for v in parts[4:]] if split is None or parts[2] == split else []
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


def _read_rows(path, manifest: Manifest, modality: str, split: str):
    """The ids, labels and splits of every row of one of the dataset's
    feature files, and the matrix of the rows of ``split``; every row is
    checked against the manifest's class count and the file's modality,
    and the matrix against the manifest's feature dimension."""
    ids, labels, splits, modalities, matrix = read_feature_csv(path, split)
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


def _of_split(ids, labels, splits, features, split: str) -> Samples:
    """The samples of ``split`` among columns of every sample, with the
    features of that split alone."""
    rows = [i for i, s in enumerate(splits) if s == split]
    return Samples([ids[i] for i in rows], labels[rows], [splits[i] for i in rows], features, None)


def _load_sketches(indir: Path, manifest: Manifest, split: str):
    """(the split of every sketch, the sketches of ``split``)."""
    ids, labels, splits, matrix = _read_rows(indir / "sketches.csv", manifest, "sketch", split)
    return splits, _of_split(ids, labels, splits, matrix, split)


def _load_shapes(indir: Path, manifest: Manifest, split: str):
    """(the split of every shape, the shapes of ``split``).  shapes.csv must
    hold the layout write_feature_csv writes: each shape as the manifest's
    ``views`` consecutive rows with ids <id>.v00 to <id>.v{views-1:02d}, in
    that order, which agree on label and split, and no shape id twice; the
    first row at fault raises ValueError.  A split's rows are then whole
    shapes in file order, so its N x views x dim block is a view of the
    parsed matrix."""
    path = indir / "shapes.csv"
    ids, labels, splits, matrix = _read_rows(path, manifest, "shape", split)
    views = manifest.views
    bases = [sample_id.rpartition(".v")[0] for sample_id in ids[::views]]
    # A manifest's view count may exceed the rows, by any amount; one suffix
    # past the last row is enough to report the shortfall.
    suffixes = [f".v{j:02d}" for j in range(min(views, len(ids) + 1))]
    # Row i is view i % views of the shape its group's first row names.
    i = next((i for i, sample_id in enumerate(ids) if sample_id != bases[i // views] + suffixes[i % views]),
             len(ids) if len(ids) % views else None)
    if i is not None:
        got = f"row {ids[i]}" if i < len(ids) else "the end of the file"
        raise ValueError(f"{path}: expected view row {bases[i // views]}{suffixes[i % views]} ({views} rows per "
                         f"shape, in order), got {got}")
    if len(set(bases)) != len(bases):
        first = {}
        k = next(k for k, base in enumerate(bases) if first.setdefault(base, k) != k)
        raise ValueError(f"{path}: row {ids[k * views]} starts shape {bases[k]} a second time")
    shape_labels, shape_splits = labels[::views], splits[::views]
    if any(splits[k * views : (k + 1) * views].count(s) != views for k, s in enumerate(shape_splits)) or (
            labels.reshape(-1, views) != shape_labels[:, None]).any():
        i = next(i for i, (label, s) in enumerate(zip(labels, splits))
                 if (label, s) != (shape_labels[i // views], shape_splits[i // views]))
        raise ValueError(f"{path}: view row {ids[i]} disagrees with shape {bases[i // views]} on label or split")
    block = matrix.reshape(-1, views, matrix.shape[1])
    return shape_splits, _of_split(bases, shape_labels, shape_splits, block, split)


def load_dataset(indir, modality: str, split: str) -> Dataset:
    """Read ``manifest.txt`` and the samples of one modality and one split:
    ``"sketch"`` reads ``sketches.csv`` and ``"shape"`` reads
    ``shapes.csv``, and the samples hold the rows of ``split``, ``"train"``
    or ``"test"``, alone.  Every row's text columns are checked, and the
    manifest's counts of the modality against the split of every sample;
    only the split's values are parsed.  No load reads ``noisy.csv``, so
    the samples' noisy column is None."""
    if modality not in ("sketch", "shape"):
        raise ValueError(f"modality must be 'sketch' or 'shape', got {modality!r}")
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    indir = Path(indir)
    manifest = load_manifest(indir / "manifest.txt")
    every_split, samples = (_load_sketches if modality == "sketch" else _load_shapes)(indir, manifest, split)
    for key, expected in manifest.counts.items():
        kind, _, counted = key.partition("_")
        if kind == modality and (actual := every_split.count(counted)) != expected:
            raise ValueError(f"{indir / 'manifest.txt'}: manifest count {key} = {expected} but found {actual} records")
    return Dataset(manifest, **{modality: samples})


def save_embeddings(path, samples: Samples, matrix: np.ndarray) -> None:
    """One row per sample, in order: id,label,split,modality,values."""
    n = len(samples.ids)
    if n != matrix.shape[0]:
        raise ValueError(f"{n} records but {matrix.shape[0]} embedding rows")
    write_feature_csv(path, samples.ids, samples.labels.tolist(), samples.splits, [samples.modality] * n, matrix)


def load_embeddings(path):
    """read_feature_csv's columns of an embedding file, which must have a
    row; every value is finite (read_feature_csv rejects the others)."""
    columns = read_feature_csv(path, None)
    if not columns[0]:
        raise ValueError(f"{path}: no embedding rows")
    return columns
