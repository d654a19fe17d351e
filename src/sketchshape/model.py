"""Encoders: sketch MLP with a Gaussian (mu, log-variance) head, and the
multi-view shape encoder that mean-pools per-view features before a final
projection into the shared embedding space.

The sketch Gaussian is reported on the unit scale: the heads' raw output
N(m, s2) is divided by ||m||, giving mean m / ||m|| and variance
s2 / ||m||^2.  The losses only see the direction of a sample, and
m + eps * s and (m + eps * s) / ||m|| point the same way, so this is the
variance that training samples with; it cannot be traded against the
length of the mean.

Forward passes return caches consumed by the matching ``*_backward``
functions; parameters are plain float64 arrays updated in place by the
trainer.  The public ``encode_*_batch`` functions check that their outputs
are finite; the private ``_sketch_forward`` and ``_shape_forward``, which
training runs on every step, do arithmetic only.  Checkpoints are a
line-oriented text format (magic string, one shape header per matrix,
repr-encoded rows) that round-trips bitwise.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import _text_lines
from .losses import Classifier
from .ops import l2_normalize_rows, normalize_rows_fwd, require_finite
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

    def parameters(self) -> list:
        out = []
        for w, b in self.layers:
            out.append(w)
            out.append(b)
        return out


def mlp_forward(mlp: Mlp, x: np.ndarray):
    """Batch forward pass; returns (output, cache)."""
    if x.ndim != 2 or x.shape[1] != mlp.input_dim:
        raise ValueError(f"input shape {x.shape} does not match first layer input dim {mlp.input_dim}")
    last = len(mlp.layers) - 1
    pres = []
    acts = [x]
    a = x
    for i, (w, b) in enumerate(mlp.layers):
        pre = a @ w.T + b
        pres.append(pre)
        a = np.maximum(pre, 0.0) if i < last else pre
        acts.append(a)
    return a, (pres, acts)


def mlp_backward(mlp: Mlp, cache, dout: np.ndarray, input_grad: bool = True):
    """Returns (dinput, grads) with grads ordered like Mlp.parameters();
    dinput is None when input_grad is false."""
    pres, acts = cache
    last = len(mlp.layers) - 1
    grads = [None] * (2 * len(mlp.layers))
    g = dout
    for i in range(last, -1, -1):
        if i < last:
            g = g * (pres[i] > 0.0)
        grads[2 * i] = g.T @ acts[i]
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ mlp.layers[i][0] if i or input_grad else None
    return g, grads


@dataclass
class SketchModel:
    backbone: Mlp
    mu_head: Mlp
    logvar_head: Mlp

    def parameters(self) -> list:
        return self.backbone.parameters() + self.mu_head.parameters() + self.logvar_head.parameters()


@dataclass
class ShapeModel:
    backbone: Mlp
    proj: Mlp

    def parameters(self) -> list:
        return self.backbone.parameters() + self.proj.parameters()


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
    unchanged.
    """
    unit, norms, full = normalize_rows_fwd(mu)
    scale = np.where(full, norms, 1.0)
    mu_hat = np.where(full, unit, mu)
    return mu_hat, logvar - 2.0 * np.log(scale), (mu_hat, scale, full)


def unit_scale_backward(cache, dmu_hat: np.ndarray, dlogvar: np.ndarray):
    """Backward pass of unit_scale_forward; returns (dmu, dlogvar).

    With v = mu / ||mu||: d v / d mu = (I - v v^T) / ||mu|| and
    d log ||mu||^2 / d mu = 2 v / ||mu||, so the log-variance gradient
    reaches mu along v only.
    """
    mu_hat, scale, full = cache
    radial = np.sum(dmu_hat * mu_hat, axis=1, keepdims=True) + 2.0 * np.sum(dlogvar, axis=1, keepdims=True)
    return np.where(full, (dmu_hat - radial * mu_hat) / scale, dmu_hat), dlogvar


def _prepare_sketches(x) -> np.ndarray:
    """Encoder input rows: features L2-normalised (see encode_sketch_batch)."""
    return l2_normalize_rows(np.asarray(x, dtype=np.float64))


def _sketch_forward(model: SketchModel, xn: np.ndarray):
    """encode_sketch_batch on rows already through _prepare_sketches."""
    h, bcache = mlp_forward(model.backbone, xn)
    raw_mu, mcache = mlp_forward(model.mu_head, h)
    raw_logvar, vcache = mlp_forward(model.logvar_head, h)
    mu, logvar, ucache = unit_scale_forward(raw_mu, raw_logvar)
    return mu, logvar, (bcache, mcache, vcache, ucache)


def encode_sketch_batch(model: SketchModel, x: np.ndarray):
    """Returns (mu, logvar, cache) for an NxD_in feature batch: the unit
    scale Gaussian (see unit_scale_forward) of the two heads' output.

    Input rows are L2-normalised before the backbone: downstream losses and
    retrieval are cosine-based, so feature magnitude carries no class signal
    and letting it through only couples the learned variance to input scale.
    A non-finite mu or logvar raises ValueError.
    """
    mu, logvar, cache = _sketch_forward(model, _prepare_sketches(x))
    return require_finite(mu, "sketch mu"), require_finite(logvar, "sketch logvar"), cache


def sketch_backward(model: SketchModel, cache, dmu: np.ndarray, dlogvar: np.ndarray):
    """Gradients for every sketch parameter, ordered like
    SketchModel.parameters()."""
    bcache, mcache, vcache, ucache = cache
    dmu, dlogvar = unit_scale_backward(ucache, dmu, dlogvar)
    dh_mu, mu_grads = mlp_backward(model.mu_head, mcache, dmu)
    dh_lv, lv_grads = mlp_backward(model.logvar_head, vcache, dlogvar)
    _, backbone_grads = mlp_backward(model.backbone, bcache, dh_mu + dh_lv, input_grad=False)
    return backbone_grads + mu_grads + lv_grads


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
    """encode_shape_batch on a block already through _prepare_views."""
    n, v, d = prepared.shape
    h, bcache = mlp_forward(model.backbone, prepared.reshape(n * v, d))
    pooled = h.reshape(n, v, -1).mean(axis=1)
    f, pcache = mlp_forward(model.proj, pooled)
    return f, (bcache, pcache, n, v)


def encode_shape_batch(model: ShapeModel, views: np.ndarray):
    """Returns (embeddings, cache) for an N x V x D_in block of view features.

    Per-view features are mean-pooled per sample with the views visited in
    a canonical (lexicographically sorted) order, then projected.  A
    non-finite embedding raises ValueError.
    """
    if views.ndim != 3:
        raise ValueError(f"expected N x V x D_in views, got shape {views.shape}")
    if views.shape[1] < 1:
        raise ValueError("each shape needs at least one view")
    f, cache = _shape_forward(model, _prepare_views(views))
    return require_finite(f, "shape embedding"), cache


def shape_backward(model: ShapeModel, cache, df: np.ndarray):
    """Gradients for every shape parameter, ordered like
    ShapeModel.parameters()."""
    bcache, pcache, n, v = cache
    dpooled, proj_grads = mlp_backward(model.proj, pcache, df)
    dviews = np.repeat(dpooled / v, v, axis=0)
    _, backbone_grads = mlp_backward(model.backbone, bcache, dviews, input_grad=False)
    return backbone_grads + proj_grads


def glorot_matrix(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Uniform(-b, b) with b = sqrt(6 / (rows + cols)), drawn row-major."""
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform_matrix(rows, cols, -bound, bound)


def init_mlp(rng: Rng, dims, weight_scale: float = 1.0) -> Mlp:
    """dims = [d_in, h1, ..., d_out]; weights Glorot-uniform (optionally
    rescaled), biases zero.  Layers are drawn in order."""
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ValueError(f"invalid layer dims {list(dims)}")
    layers = []
    for din, dout in zip(dims[:-1], dims[1:]):
        w = glorot_matrix(rng, dout, din)
        if weight_scale != 1.0:
            w = w * weight_scale
        layers.append((w, np.zeros(dout)))
    return Mlp(layers)


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


def _mlp_matrices(prefix: str, mlp: Mlp):
    for i, (w, b) in enumerate(mlp.layers):
        yield f"{prefix}.{i}.weight", w
        yield f"{prefix}.{i}.bias", b


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
    _write_checkpoint(
        path,
        "sketch",
        {"classifier_frozen": "true" if classifier.frozen else "false"},
        [
            *_mlp_matrices("backbone", model.backbone),
            *_mlp_matrices("mu_head", model.mu_head),
            *_mlp_matrices("logvar_head", model.logvar_head),
            ("classifier.weight", classifier.weights),
        ],
    )


def save_shape_checkpoint(path, model: ShapeModel) -> None:
    _write_checkpoint(
        path, "shape", {}, [*_mlp_matrices("backbone", model.backbone), *_mlp_matrices("proj", model.proj)]
    )


def _read_checkpoint(path):
    """Parse a checkpoint once; returns (kind, meta, matrices).  A malformed
    matrix header or row, or a non-finite value, raises ValueError naming
    the file and the line."""
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
        if parts[0] != "matrix":
            meta[parts[0]] = parts[1] if len(parts) > 1 else ""
            continue
        header = f"{path} line {lineno}"
        if len(parts) != 4 or not (parts[2].isdigit() and parts[3].isdigit()):
            raise ValueError(f"{header}: expected 'matrix <name> <rows> <cols>', got {line.strip()!r}")
        name, rows, cols = parts[1], int(parts[2]), int(parts[3])
        data = []  # grows with the rows read, never with the header's count
        for r in range(rows):
            lineno, line = next(lines, (lineno + 1, ""))
            vals = line.split()
            if len(vals) != cols:
                raise ValueError(f"{path} line {lineno}: matrix {name} row {r} has {len(vals)} values, expected {cols}")
            try:
                data.append([float(v) for v in vals])
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
        matrices[name] = require_finite(np.array(data).reshape(rows, cols), f"{header}: matrix {name}")
    return meta.pop("kind", ""), meta, matrices


def _collect_mlp(path, matrices, prefix: str, input_dim=None) -> Mlp:
    """Layers prefix.0, prefix.1, ... up to the first missing weight: at
    least one, each with a bias, each taking the previous layer's output."""
    layers = []
    while f"{prefix}.{len(layers)}.weight" in matrices:
        name = f"{prefix}.{len(layers)}"
        w, b = matrices[f"{name}.weight"], matrices.get(f"{name}.bias")
        if b is None:
            raise ValueError(f"{path}: missing matrix {name}.bias")
        if b.size != w.shape[0] or (input_dim is not None and w.shape[1] != input_dim):
            raise ValueError(f"{path}: layer {name} is {w.shape[0]}x{w.shape[1]} with {b.size} biases, "
                             f"expected {input_dim} inputs")
        layers.append((w, b.reshape(-1)))
        input_dim = w.shape[0]
    if not layers:
        raise ValueError(f"{path}: missing matrix {prefix}.0.weight")
    return Mlp(layers)


def load_checkpoint(path):
    """Read a checkpoint of either kind with one parse; returns (kind,
    model, classifier), the classifier None for a shape checkpoint.  A
    missing or misshapen matrix raises ValueError naming the file."""
    kind, meta, matrices = _read_checkpoint(path)
    if kind not in ("sketch", "shape"):
        raise ValueError(f"{path}: unknown checkpoint kind {kind!r}")
    backbone = _collect_mlp(path, matrices, "backbone")
    if kind == "shape":
        return kind, ShapeModel(backbone, _collect_mlp(path, matrices, "proj", backbone.output_dim)), None
    mu_head = _collect_mlp(path, matrices, "mu_head", backbone.output_dim)
    logvar_head = _collect_mlp(path, matrices, "logvar_head", backbone.output_dim)
    weights = matrices.get("classifier.weight")
    if weights is None:
        raise ValueError(f"{path}: missing matrix classifier.weight")
    if logvar_head.output_dim != mu_head.output_dim or weights.shape[1] != mu_head.output_dim:
        raise ValueError(f"{path}: logvar_head and classifier.weight must match the {mu_head.output_dim}-dim mu_head")
    classifier = Classifier(weights, frozen=meta.get("classifier_frozen") == "true")
    return kind, SketchModel(backbone, mu_head, logvar_head), classifier


def load_sketch_checkpoint(path):
    """(model, classifier) of a sketch checkpoint; any other kind raises."""
    kind, model, classifier = load_checkpoint(path)
    if kind != "sketch":
        raise ValueError(f"{path}: expected a sketch checkpoint, found kind {kind!r}")
    return model, classifier
