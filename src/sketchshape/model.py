"""Encoders: sketch MLP with a Gaussian (mu, log-variance) head, and the
multi-view shape encoder that mean-pools per-view features before a final
projection into the shared embedding space.

The sketch Gaussian is reported on the unit scale: the heads' raw output
N(m, s2) is divided by ||m||, giving mean m / ||m|| and variance
s2 / ||m||^2.  The losses only see the direction of a sample, and
m + eps * s and (m + eps * s) / ||m|| point the same way, so this is the
variance that training samples with; it cannot be traded against the
length of the mean.

The private forward passes ``_sketch_forward`` and ``_shape_forward``,
which training runs on every step, do arithmetic only and return caches
consumed by the matching ``*_backward`` functions, which write the
gradients into the given views of one gradient vector, one list per network
(``train._flat_parameters``); parameters are plain float64 arrays, which the
trainer makes views of one vector and updates in place.  An MLP's cache
is its list of activations, one array per layer (each layer adds its bias
and applies its relu in place on its product), and the backward pass takes
each relu mask from the activations.

The public ``encode_*_batch`` functions return outputs only, and check
once that they are finite.  They encode in blocks of ops.BLOCK_ROWS
samples, the last block padded with copies of one of its samples
(``ops.padded_blocks``), and keep only each block's outputs: memory does
not grow with the number of samples beyond the outputs, and every product
has the same row count, so a sample's outputs are the same bits whichever
other samples are encoded with it, in any order.

A model's dataclass fields are its networks, in the order of its
parameters, their gradients and its checkpoint's matrices
(``_named_matrices``).  Checkpoints are text that round-trips
bitwise; ``load_checkpoint`` accepts only what the writer writes.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import _text_lines
from .losses import Classifier
from .ops import l2_normalize_rows, normalize_rows_fwd, padded_blocks, require_finite
from .rng import Rng

CHECKPOINT_MAGIC = "sketchshape-checkpoint v1"


@dataclass
class Mlp:
    """Stack of linear layers (weight d_out x d_in, bias d_out) with relu
    between layers; the final layer has no activation."""

    layers: list = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]


def mlp_forward(mlp: Mlp, x: np.ndarray):
    """Batch forward pass; returns (output, cache).

    The cache is the list of activations ``[x, act_1, ..., output]``, one
    array per layer: each layer's product takes its bias and its relu in
    place, so no pre-activation is kept."""
    if x.ndim != 2 or x.shape[1] != mlp.input_dim:
        raise ValueError(f"input shape {x.shape} does not match first layer input dim {mlp.input_dim}")
    last = len(mlp.layers) - 1
    acts = [x]
    a = x
    for i, (w, b) in enumerate(mlp.layers):
        a = a @ w.T
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return a, acts


def mlp_backward(mlp: Mlp, cache, dout: np.ndarray, out, input_grad: bool = True):
    """Writes the parameter gradients into ``out``, a list of arrays
    ordered weight, bias, layer by layer, and returns the input gradient,
    or None when input_grad is false.

    ``cache`` is mlp_forward's list of activations, and a hidden layer's
    relu mask comes from its activation: ``act > 0`` equals ``pre > 0`` for
    every pre-activation, since relu keeps the positive values, maps the
    others but NaN to zero, and NaN is not positive either way."""
    last = len(mlp.layers) - 1
    g = dout
    for i in range(last, -1, -1):
        if i < last:
            g = g * (cache[i + 1] > 0.0)
        np.matmul(g.T, cache[i], out=out[2 * i])
        np.add.reduce(g, axis=0, out=out[2 * i + 1])
        g = g @ mlp.layers[i][0] if i or input_grad else None
    return g


@dataclass
class SketchModel:
    backbone: Mlp
    mu_head: Mlp
    logvar_head: Mlp


@dataclass
class ShapeModel:
    backbone: Mlp
    proj: Mlp


def reparameterize(mu, logvar, eps):
    """z = mu + eps * exp(logvar / 2), elementwise; works on vectors and
    batches alike.  eps = 0 returns mu."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if mu.shape != logvar.shape or mu.shape != eps.shape:
        raise ValueError(f"shape mismatch: mu {mu.shape}, logvar {logvar.shape}, eps {eps.shape}")
    return mu + eps * np.exp(0.5 * logvar)


def unit_scale_forward(mu: np.ndarray, logvar: np.ndarray):
    """Rescale each row's Gaussian N(mu, exp(logvar)) by 1 / ||mu||.

    Returns (mu / ||mu||, logvar - log ||mu||^2, cache).  A row whose mean
    is too short to have a direction (norm below ops.NORM_EPS) is returned
    unchanged; when every row is full, nothing is selected.
    """
    unit, norms, full = normalize_rows_fwd(mu)
    if np.logical_and.reduce(full, axis=None):
        scale, mu_hat = norms, unit
    else:
        scale, mu_hat = np.where(full, norms, 1.0), np.where(full, unit, mu)
    return mu_hat, logvar - 2.0 * np.log(scale), (mu_hat, scale, full)


def unit_scale_backward(cache, dmu_hat: np.ndarray, dlogvar: np.ndarray):
    """Backward pass of unit_scale_forward; returns (dmu, dlogvar).

    With v = mu / ||mu||: d v / d mu = (I - v v^T) / ||mu|| and
    d log ||mu||^2 / d mu = 2 v / ||mu||, so the log-variance gradient
    reaches mu along v only.
    """
    mu_hat, scale, full = cache
    radial = np.add.reduce(dmu_hat * mu_hat, axis=1, keepdims=True)
    radial += 2.0 * np.add.reduce(dlogvar, axis=1, keepdims=True)
    return np.where(full, (dmu_hat - radial * mu_hat) / scale, dmu_hat), dlogvar


def _prepare_sketches(x) -> np.ndarray:
    """Encoder input rows: features L2-normalised (see encode_sketch_batch)."""
    return l2_normalize_rows(np.asarray(x, dtype=np.float64))


def _sketch_forward(model: SketchModel, xn: np.ndarray):
    """(mu, logvar, cache) of rows already through _prepare_sketches, one
    product per layer; encode_sketch_batch runs it on padded blocks."""
    h, bcache = mlp_forward(model.backbone, xn)
    raw_mu, mcache = mlp_forward(model.mu_head, h)
    raw_logvar, vcache = mlp_forward(model.logvar_head, h)
    mu, logvar, ucache = unit_scale_forward(raw_mu, raw_logvar)
    return mu, logvar, (bcache, mcache, vcache, ucache)


def encode_sketch_batch(model: SketchModel, x: np.ndarray):
    """Returns (mu, logvar) for an N x D_in feature batch: the unit scale
    Gaussian (see unit_scale_forward) of the two heads' output, encoded in
    padded blocks (see the module docstring).

    Input rows are L2-normalised before the backbone: downstream losses and
    retrieval are cosine-based, so feature magnitude carries no class signal
    and letting it through only couples the learned variance to input scale.
    A non-finite mu or logvar raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected N x D_in features, got shape {x.shape}")
    mu = np.empty((len(x), model.mu_head.output_dim))
    logvar = np.empty((len(x), model.logvar_head.output_dim))
    for start, stop, block in padded_blocks(x):
        block_mu, block_logvar, _ = _sketch_forward(model, _prepare_sketches(block))
        mu[start:stop], logvar[start:stop] = block_mu[: stop - start], block_logvar[: stop - start]
    return require_finite(mu, "sketch mu"), require_finite(logvar, "sketch logvar")


def sketch_backward(model: SketchModel, cache, dmu: np.ndarray, dlogvar: np.ndarray, out) -> None:
    """Writes the gradient of every sketch parameter into ``out``: one
    list per network, backbone, mu_head and logvar_head (see
    mlp_backward)."""
    bcache, mcache, vcache, ucache = cache
    b_out, m_out, v_out = out
    dmu, dlogvar = unit_scale_backward(ucache, dmu, dlogvar)
    dh = mlp_backward(model.mu_head, mcache, dmu, m_out)
    dh += mlp_backward(model.logvar_head, vcache, dlogvar, v_out)
    mlp_backward(model.backbone, bcache, dh, b_out, input_grad=False)


def _canonical_view_order(views: np.ndarray) -> np.ndarray:
    """N x V view order of an N x V x D block: each shape's views in
    lexicographic row order, so pooling is bit-identical for any permutation
    of the same view set.  One stable lexsort sorts every shape at once."""
    return np.lexsort(np.moveaxis(views, -1, 0)[::-1], axis=-1)


def _prepare_views(views: np.ndarray) -> np.ndarray:
    """Encoder input block: each shape's views in canonical order, each view
    L2-normalised like a sketch feature."""
    n, v, d = views.shape
    ordered = np.take_along_axis(views, _canonical_view_order(views)[:, :, None], axis=1)
    return l2_normalize_rows(ordered.reshape(n * v, d)).reshape(n, v, d)


def _shape_forward(model: ShapeModel, prepared: np.ndarray):
    """(embeddings, cache) of a block already through _prepare_views, one
    product per layer; encode_shape_batch runs it on padded blocks."""
    n, v, d = prepared.shape
    h, bcache = mlp_forward(model.backbone, prepared.reshape(n * v, d))
    pooled = np.add.reduce(h.reshape(n, v, -1), axis=1)
    pooled /= v
    f, pcache = mlp_forward(model.proj, pooled)
    return f, (bcache, pcache, n, v)


def encode_shape_batch(model: ShapeModel, views: np.ndarray) -> np.ndarray:
    """The N x embed_dim embeddings of an N x V x D_in block of view
    features, encoded in padded blocks of shapes (see the module docstring).

    Per-view features are mean-pooled per sample with the views visited in
    a canonical (lexicographically sorted) order, then projected.  A
    non-finite embedding raises ValueError.
    """
    if views.ndim != 3:
        raise ValueError(f"expected N x V x D_in views, got shape {views.shape}")
    if views.shape[1] < 1:
        raise ValueError("each shape needs at least one view")
    f = np.empty((len(views), model.proj.output_dim))
    for start, stop, block in padded_blocks(views):
        f[start:stop] = _shape_forward(model, _prepare_views(block))[0][: stop - start]
    return require_finite(f, "shape embedding")


def shape_backward(model: ShapeModel, cache, df: np.ndarray, out) -> None:
    """Writes the gradient of every shape parameter into ``out``: one list
    per network, backbone and proj (see mlp_backward)."""
    bcache, pcache, n, v = cache
    b_out, p_out = out
    dpooled = mlp_backward(model.proj, pcache, df, p_out)
    mlp_backward(model.backbone, bcache, (dpooled / v).repeat(v, axis=0), b_out, input_grad=False)


def glorot_matrix(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Uniform(-b, b) with b = sqrt(6 / (rows + cols)), drawn row-major."""
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform_matrix(rows, cols, -bound, bound)


def init_mlp(rng: Rng, dims, weight_scale: float = 1.0) -> Mlp:
    """dims = [d_in, h1, ..., d_out]; weights Glorot-uniform times
    ``weight_scale`` (x 1.0 is exact), biases zero.  Layers are drawn in
    order."""
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ValueError(f"invalid layer dims {list(dims)}")
    return Mlp([(glorot_matrix(rng, dout, din) * weight_scale, np.zeros(dout))
                for din, dout in zip(dims[:-1], dims[1:])])


def init_sketch_model(cfg, rng: Rng) -> SketchModel:
    """Draw order: backbone layers, mu head, logvar head.  The logvar head
    weights are scaled by 0.1 so initial sigma is close to 1."""
    backbone = init_mlp(rng, [cfg.feature_dim, *cfg.hidden])
    mu_head = init_mlp(rng, [cfg.hidden[-1], *cfg.head_hidden, cfg.embed_dim])
    logvar_head = init_mlp(rng, [cfg.hidden[-1], *cfg.head_hidden, cfg.embed_dim], weight_scale=0.1)
    return SketchModel(backbone, mu_head, logvar_head)


def init_shape_model(cfg, rng: Rng) -> ShapeModel:
    """Draw order: view backbone layers, then the projection layer."""
    backbone = init_mlp(rng, [cfg.feature_dim, *cfg.hidden])
    proj = init_mlp(rng, [cfg.hidden[-1], cfg.embed_dim])
    return ShapeModel(backbone, proj)


def init_classifier(cfg, rng: Rng) -> Classifier:
    return Classifier(glorot_matrix(rng, cfg.classes, cfg.embed_dim), frozen=False)


_KINDS = {"sketch": SketchModel, "shape": ShapeModel}
_HEADERS = {"kind": tuple(_KINDS), "classifier_frozen": ("true", "false")}


def _named_matrices(model, classifier: Classifier | None = None):
    """(name, matrix) in file order: ``<field>.<i>.weight`` and ``.bias`` for
    each layer of each network field, then any ``classifier.weight``."""
    for f in fields(model):
        for i, (w, b) in enumerate(getattr(model, f.name).layers):
            yield f"{f.name}.{i}.weight", w
            yield f"{f.name}.{i}.bias", b
    if classifier is not None:
        yield "classifier.weight", classifier.weights


def _write_checkpoint(path, kind: str, meta: dict, named_matrices) -> None:
    """Magic line, ``kind <kind>``, one ``<key> <value>`` line per meta entry,
    then per matrix a ``matrix <name> <rows> <cols>`` header and its rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\nkind {kind}\n")
        for key, value in meta.items():
            fh.write(f"{key} {value}\n")
        for name, a in named_matrices:
            a2 = np.atleast_2d(np.asarray(a, dtype=np.float64))
            fh.write(f"matrix {name} {a2.shape[0]} {a2.shape[1]}\n")
            for row in a2:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def save_sketch_checkpoint(path, model: SketchModel, classifier: Classifier) -> None:
    frozen = "true" if classifier.frozen else "false"
    _write_checkpoint(path, "sketch", {"classifier_frozen": frozen}, _named_matrices(model, classifier))


def save_shape_checkpoint(path, model: ShapeModel) -> None:
    _write_checkpoint(path, "shape", {}, _named_matrices(model))


def _read_checkpoint(path):
    """Parse a checkpoint once; returns (meta, matrices), mapping each header
    key and matrix name to (line number, value).  Header lines (``_HEADERS``
    gives their values) come once each, kind first, before the matrices; a
    matrix comes once, its header followed by exactly its rows.  Any other
    non-blank line, a malformed row or a non-finite value raises ValueError
    naming the line."""
    meta = {}
    matrices = {}
    lines = _text_lines(path)
    magic = next(lines, (1, ""))[1].rstrip("\n")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        header = f"{path} line {lineno}"
        if parts[0] != "matrix":
            if matrices:
                raise ValueError(f"{header}: stray line {line.strip()!r} after the {rows} rows of matrix {name}")
            if len(parts) != 2 or parts[1] not in _HEADERS.get(parts[0], ()):
                raise ValueError(f"{header}: expected 'kind sketch|shape' or 'classifier_frozen true|false', "
                                 f"got {line.strip()!r}")
            if parts[0] in meta:
                raise ValueError(f"{header}: {parts[0]} repeats line {meta[parts[0]][0]}")
            if parts[0] == "kind" and meta:
                raise ValueError(f"{header}: kind comes after classifier_frozen on line {meta['classifier_frozen'][0]}")
            meta[parts[0]] = lineno, parts[1]
            continue
        if len(parts) != 4 or not all(p.isdigit() and int(p) > 0 for p in parts[2:]):
            raise ValueError(f"{header}: expected 'matrix <name> <rows> <cols>' with sizes >= 1, got {line.strip()!r}")
        name, rows, cols = parts[1], int(parts[2]), int(parts[3])
        if name in matrices:
            raise ValueError(f"{header}: matrix {name} repeats line {matrices[name][0]}")
        data = []  # grows with the rows read, never with the header's count
        for r in range(rows):
            at, line = next(lines, (lineno + r + 1, ""))
            vals = line.split()
            if len(vals) != cols:
                raise ValueError(f"{path} line {at}: matrix {name} row {r} has {len(vals)} values, expected {cols}")
            try:
                data.append([float(v) for v in vals])
            except ValueError as exc:
                raise ValueError(f"{path} line {at}: {exc}") from None
        matrices[name] = lineno, require_finite(np.array(data).reshape(rows, cols), f"{header}: matrix {name}")
    return meta, matrices


def load_checkpoint(path, kind=None):
    """Read a checkpoint, of kind ``kind`` if given, with one parse; returns
    (kind, model, classifier), the classifier None for a shape checkpoint.

    The fields of the kind's model class (``_KINDS``) are read as networks,
    the first taking the input features and the others its output.  The
    file must hold exactly the matrices ``_named_matrices`` gives for the
    model built, in that order, and a ``classifier_frozen`` line if and only
    if it is a sketch checkpoint; anything else raises ValueError naming the
    file, and the line where there is one."""
    meta, matrices = _read_checkpoint(path)
    found = meta.get("kind", (1, None))[1]
    if found is None or kind not in (None, found):
        raise ValueError(f"{path}: expected a {kind or 'sketch or shape'} checkpoint, found kind {found!r}")
    nets = {}
    for f in fields(_KINDS[found]):
        layers, inputs = [], nets["backbone"].output_dim if nets else None
        while f"{f.name}.{len(layers)}.weight" in matrices:  # each layer with a one-row bias
            name = f"{f.name}.{len(layers)}"
            if f"{name}.bias" not in matrices:
                raise ValueError(f"{path}: missing matrix {name}.bias")
            (lineno, w), (_, b) = matrices[f"{name}.weight"], matrices[f"{name}.bias"]
            if b.shape != (1, w.shape[0]) or (inputs is not None and w.shape[1] != inputs):
                raise ValueError(f"{path} line {lineno}: layer {name} is {w.shape[0]}x{w.shape[1]} with "
                                 f"{b.shape[0]}x{b.shape[1]} biases, expected {inputs} inputs")
            layers.append((w, b.reshape(-1)))
            inputs = w.shape[0]
        if not layers:
            raise ValueError(f"{path}: missing matrix {f.name}.0.weight")
        nets[f.name] = Mlp(layers)
    model, classifier = _KINDS[found](**nets), None
    if found == "sketch":
        if "classifier.weight" not in matrices:
            raise ValueError(f"{path}: missing matrix classifier.weight")
        weights, dim = matrices["classifier.weight"][1], model.mu_head.output_dim
        if model.logvar_head.output_dim != dim or weights.shape[1] != dim or len(weights) < 2:
            raise ValueError(f"{path}: classifier.weight must be C x {dim} with C >= 2, and logvar_head must "
                             f"match the {dim}-dim mu_head")
        if "classifier_frozen" not in meta:
            raise ValueError(f"{path}: missing line 'classifier_frozen true|false'")
        classifier = Classifier(weights, frozen=meta["classifier_frozen"][1] == "true")
    elif "classifier_frozen" in meta:
        raise ValueError(f"{path} line {meta['classifier_frozen'][0]}: a shape checkpoint has no classifier_frozen")
    expected = [name for name, _ in _named_matrices(model, classifier)]
    for name, (lineno, _) in matrices.items():
        if name not in expected:
            raise ValueError(f"{path} line {lineno}: unexpected matrix {name} in a {found} checkpoint")
    for (name, (lineno, _)), want in zip(matrices.items(), expected):
        if name != want:
            raise ValueError(f"{path} line {lineno}: matrix {name} where the writer puts matrix {want}")
    return found, model, classifier
