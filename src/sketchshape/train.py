"""Two-stage training: sketch uncertainty learning, then shape transfer.

Stage 1 trains the sketch encoder, Gaussian head and class centers with the
sampled-embedding margin loss plus the KL term; each embedding is drawn
from the encoder's unit-scale Gaussian (unit-length mean, variance relative
to that length), the same (mu, logvar) that ``encode_sketch_batch``
reports.  It returns the frozen class centers.  Stage 2 trains the shape
encoder against those frozen centers and never touches them.  Both stages
run plain SGD (optional momentum) with an epoch-level cosine-annealed
learning rate, shuffle with the run's own Rng, and keep the last partial
batch, so a fixed seed reproduces the parameter trajectory bitwise.

Each stage trains one contiguous parameter vector: the model's layer
weights and biases (and in stage 1 the class-center weights) are views of
it, the backward passes write into views of one gradient vector, and each
step is one ``sgd_step`` on the two vectors.  Stage 1 draws an epoch's
noise in one block right after the epoch's permutation, with the values
and the raw stream of one draw per batch.

Each stage's objective is composed once, in ``_sketch_objective`` and
``_shape_objective``: loss and gradients from prepared encoder inputs.  The
training steps call them, and ``gradcheck``'s chain checks verify the same
functions against finite differences.  Each stage checks its features,
labels and classifier once per run, then trains with steps that do
arithmetic only, with stage 2's frozen centers normalised once; a run that
diverges stops at ``_fit``'s non-finite loss or parameter check.
"""

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import _key_values, _text_lines, _typed_value
from .losses import Classifier, MarginParams, _margin_core, _uncertainty_core
from .model import (
    _named_matrices,
    _prepare_sketches,
    _prepare_views,
    _shape_forward,
    _sketch_forward,
    init_classifier,
    init_shape_model,
    init_sketch_model,
    shape_backward,
    sketch_backward,
)
from .ops import _first, normalize_rows_bwd, normalize_rows_fwd, require_finite
from .rng import Rng


@dataclass
class TrainConfig:
    """Every hyperparameter of the pipeline, with the published defaults
    where the method defines them and desk-scale dimensions elsewhere."""

    feature_dim: int = 16
    hidden: tuple = (64, 64)
    head_hidden: tuple = ()
    embed_dim: int = 32
    classes: int = 10
    batch_size: int = 64
    lr0: float = 4e-4
    max_epochs: int = 200
    s_sketch: float = 30.0
    m_s: float = 0.5
    s_shape: float = 15.0
    m_v: float = 0.8
    lam: float = 0.005
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        self.head_hidden = tuple(int(h) for h in self.head_hidden)
        for name in ("feature_dim", "embed_dim", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.classes < 2:
            raise ValueError(f"classes must be >= 2, got {self.classes}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden must be a non-empty tuple of positive ints, got {self.hidden}")
        if any(h < 1 for h in self.head_hidden):
            raise ValueError(f"head_hidden dims must be positive, got {self.head_hidden}")
        for name in ("lr0", "lam", "momentum", "s_sketch", "s_shape"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr0 < 0 or self.lam < 0 or self.momentum < 0:
            raise ValueError("lr0, lam and momentum must be >= 0")
        for name in ("m_s", "m_v"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.s_sketch <= 0 or self.s_shape <= 0:
            raise ValueError("scales s_sketch and s_shape must be > 0")

    def sketch_margins(self) -> MarginParams:
        return MarginParams(self.s_sketch, self.m_s)

    def shape_margins(self) -> MarginParams:
        return MarginParams(self.s_shape, self.m_v)


def _int_tuple(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(",") if v.strip() != "")


_PARSERS = {f.name: {tuple: _int_tuple}.get(type(f.default), type(f.default)) for f in fields(TrainConfig)}


def load_config(path, base: TrainConfig = None) -> TrainConfig:
    """``key = value`` text file of TrainConfig fields; '#' starts a comment,
    and an unknown or repeated key is an error."""
    entries = _key_values(path, _text_lines(path), _PARSERS, "config", comment="#")
    values = {key: _typed_value(path, entries, key, _PARSERS[key]) for key in entries}
    try:
        return replace(base, **values) if base is not None else TrainConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_config(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines)


def cosine_lr(t: int, total: int, lr0: float) -> float:
    """Epoch-level cosine annealing: lr0 * (1 + cos(pi t / total)) / 2."""
    if total < 1:
        raise ValueError(f"total epochs must be >= 1, got {total}")
    if t < 0 or t > total:
        raise ValueError(f"epoch {t} outside [0, {total}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * t / total))


def sgd_step(params, grads, lr: float, momentum: float, velocity=None) -> None:
    """v <- momentum * v + g;  p <- p - lr * v, all in place, with one
    velocity buffer per parameter array.  Training passes each stage's one
    parameter vector, so a step is one update; the rule is elementwise, so
    it gives the bits of a step on each array apart.

    At momentum 0 ``velocity`` may be None, and the step is p <- p - lr * g
    with no buffer to scale and add to.  The two agree bit for bit except on
    a parameter equal to -0.0, which training never holds: initial values
    are nonzero or +0.0, and subtraction from those never gives -0.0.
    """
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    if velocity is None and momentum != 0.0:
        raise ValueError(f"sgd_step needs a velocity buffer at momentum {momentum}")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"sgd_step shape mismatch: param {p.shape} vs grad {g.shape}")
        if velocity is None:
            p -= lr * g
        else:
            v = velocity[i]
            v *= momentum
            v += g
            p -= lr * v


@dataclass
class TrainReport:
    """Per-epoch averages plus run metadata.  Wall time is informational
    and deliberately kept out of the written file so identical seeds produce
    identical report files."""

    losses: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    seed: int = 0
    wall_time: float = 0.0

    def lines(self):
        out = [f"# seed {self.seed}", "# epoch loss lr"]
        for epoch, (loss, lr) in enumerate(zip(self.losses, self.lrs)):
            out.append(f"{epoch} {loss!r} {lr!r}")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(self.lines()) + "\n")


def _flat_parameters(model, classifier: Classifier | None = None):
    """One float64 vector holding every matrix of ``_named_matrices(model,
    classifier)`` in order, with the model's layers (and the classifier's
    weights) rebound as views of it; returns (params, grads, grad_views):
    a gradient vector of the same layout and its views, ordered like the
    matrices."""
    arrays = [a for _, a in _named_matrices(model, classifier)]
    params = np.concatenate([a.ravel() for a in arrays])
    grads = np.empty_like(params)
    ends = np.cumsum([a.size for a in arrays]).tolist()

    def views(flat):
        return [flat[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]

    rebound = iter(views(params))
    for f in fields(model):
        net = getattr(model, f.name)
        net.layers = [(next(rebound), next(rebound)) for _ in net.layers]
    if classifier is not None:
        classifier.weights = next(rebound)
    return params, grads, views(grads)


def _fit(stage: str, cfg: TrainConfig, rng: Rng, n: int, params, grads, step, noise_dim: int = 0) -> TrainReport:
    """The SGD loop both stages share, on one parameter vector and its
    gradient vector.  Per epoch: the cosine learning rate, one
    rng.permutation of the n samples, as an int64 array, then the epoch's
    n x noise_dim noise in one rng.normal_batches draw (the stream of one
    normal_matrix draw per batch; at noise_dim 0 nothing is drawn).  Per
    batch of indices (an array slice): ``step(batch, noise) -> loss``,
    which gets the batch's noise rows and fills ``grads``, then one
    sgd_step, with a velocity vector only when cfg.momentum is nonzero.
    The stages validate their inputs before calling this, so ``step`` does
    arithmetic only.  Aborts with a diagnostic on a non-finite loss, or
    parameter after the last step."""
    velocity = [np.zeros_like(params)] if cfg.momentum else None
    report = TrainReport(seed=cfg.seed)
    start_time = time.perf_counter()
    for epoch in range(cfg.max_epochs):
        lr = cosine_lr(epoch, cfg.max_epochs, cfg.lr0)
        order = np.array(rng.permutation(n), dtype=np.int64)
        noise = rng.normal_batches(n, cfg.batch_size, noise_dim)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss = step(batch, noise[start : start + cfg.batch_size])
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"{stage} aborted: non-finite loss {loss} at epoch {epoch}, in the batch at position {start} of "
                    "the epoch's shuffled order"
                )
            sgd_step([params], [grads], lr, cfg.momentum, velocity)
            total += loss * len(batch)
        report.losses.append(total / n)
        report.lrs.append(lr)
    # The loss checks see every update but the last one.
    if not np.isfinite(params).all():
        raise RuntimeError(f"{stage} aborted: non-finite parameters after the last step of epoch {epoch}")
    report.wall_time = time.perf_counter() - start_time
    return report


def _inputs(stage: str, samples, cfg, what: str, layout: str):
    """(features, labels) of a non-empty training set, checked once: float64
    features with one axis per letter of ``layout`` ("N" or "NV") plus a
    feature_dim axis, all finite, and one int64 label per sample."""
    x = np.asarray(samples.features, dtype=np.float64)
    if x.ndim != len(layout) + 1 or x.shape[-1] != cfg.feature_dim:
        raise ValueError(f"{what} have shape {x.shape}, expected {'x'.join(layout)}x{cfg.feature_dim}")
    y = np.asarray(samples.labels, dtype=np.int64)
    if y.shape != x.shape[:1]:
        raise ValueError(f"{what}: {y.size} labels for {x.shape[0]} samples")
    if not y.size:
        raise ValueError(f"{stage}: empty training set")
    return require_finite(x, what), y


def _sketch_objective(model, weights, xn, labels, eps, margins: MarginParams, lam: float, out=None):
    """Stage-1 loss and gradients, ordered like model.parameters() plus the
    class-center weights: the unit-scale Gaussian of rows through
    _prepare_sketches, sampled with noise ``eps``, scored by the margin loss
    plus lam * KL.  The gradients are written into the arrays of ``out``
    when given."""
    mu, logvar, cache = _sketch_forward(model, xn)
    # model.reparameterize without its per-call checks: same expression.
    z = mu + eps * np.exp(0.5 * logvar)
    centers = normalize_rows_fwd(weights)
    loss, dmu, dlogvar, dcos, zb = _uncertainty_core(z, mu, logvar, centers, labels, margins, lam)
    grads = sketch_backward(model, cache, dmu, dlogvar, None if out is None else out[:-1])
    return loss, grads + [normalize_rows_bwd(dcos.T @ zb, *centers, into=None if out is None else out[-1])]


def _shape_objective(model, centers, views, labels, margins: MarginParams, out=None):
    """Stage-2 loss and gradients, ordered like model.parameters(): the
    margin loss of a block through _prepare_views against frozen centers,
    given as ``normalize_rows_fwd(weights)``.  The gradients are written
    into the arrays of ``out`` when given."""
    f, cache = _shape_forward(model, views)
    loss, df, _, _ = _margin_core(f, centers, labels, margins)
    return loss, shape_backward(model, cache, df, out)


def train_stage1(samples, cfg: TrainConfig, rng: Rng):
    """Sketch uncertainty learning on samples' .features and .labels;
    returns (model, frozen classifier, report).  Aborts with a diagnostic
    if the loss goes non-finite."""
    x, y = _inputs("stage 1", samples, cfg, "sketch features", "N")
    bad = sorted(set(y[(y < 0) | (y >= cfg.classes)].tolist()))
    if bad:
        raise ValueError(f"stage 1: sketch labels out of range [0, {cfg.classes}): {_first(bad, len(bad))}")
    present = set(y.tolist())
    if len(present) < cfg.classes:
        missing = (c for c in range(cfg.classes) if c not in present)
        count = cfg.classes - len(present)
        raise ValueError(f"stage 1: {count} classes without any training sketch: {_first(missing, count)}")

    model = init_sketch_model(cfg, rng)
    classifier = init_classifier(cfg, rng)
    params, grads, out = _flat_parameters(model, classifier)
    margins = cfg.sketch_margins()
    xn = _prepare_sketches(x)

    def step(batch, eps):
        return _sketch_objective(model, classifier.weights, xn[batch], y[batch], eps, margins, cfg.lam, out)[0]

    report = _fit("stage 1", cfg, rng, len(y), params, grads, step, cfg.embed_dim)
    return model, classifier.freeze(), report


def train_stage2(samples, classifier: Classifier, cfg: TrainConfig, rng: Rng):
    """Shape feature transfer toward the frozen sketch class centers, on
    samples' .features and .labels; returns (model, report).  The
    classifier is bitwise unchanged."""
    x, y = _inputs("stage 2", samples, cfg, "shape view features", "NV")
    if not classifier.frozen:
        raise ValueError("stage 2 requires a frozen classifier from stage 1")
    if classifier.weights.shape[1] != cfg.embed_dim:
        raise ValueError(f"stage 2: embedding dim {cfg.embed_dim} != class-center dim {classifier.weights.shape[1]}")
    extra = sorted(set(y[(y < 0) | (y >= classifier.num_classes)].tolist()))
    if extra:
        raise ValueError(
            f"stage 2: shape labels {_first(extra, len(extra))} missing from the "
            f"{classifier.num_classes} sketch classes"
        )

    weights_before = classifier.weights.copy()
    model = init_shape_model(cfg, rng)
    params, grads, out = _flat_parameters(model)
    margins = cfg.shape_margins()
    views = _prepare_views(x)
    # transfer_loss's arithmetic: the frozen centers are normalised once, and
    # the classifier gradient it would discard is never formed.
    centers = normalize_rows_fwd(classifier.weights)

    def step(batch, _):
        return _shape_objective(model, centers, views[batch], y[batch], margins, out)[0]

    report = _fit("stage 2", cfg, rng, len(y), params, grads, step)
    if not np.array_equal(weights_before, classifier.weights):
        raise RuntimeError("stage 2 modified the frozen classifier")
    return model, report
