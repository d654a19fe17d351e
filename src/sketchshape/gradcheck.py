"""Finite-difference verification of every hand-derived gradient.

Each check builds a small random instance, wraps the loss as a function of
its trainable arrays, and compares the closed-form gradients against central
differences via ops.grad_check.  Returns the worst relative error per check;
anything at or above TOLERANCE means a backward pass is wrong.

The two chain checks call the training objectives themselves,
``train._sketch_objective`` and ``train._shape_objective``, on parameter and
gradient vectors from ``train._flat_parameters``, and read the gradient
vector split like the parameter vector, as ``sgd_step`` pairs them.
"""

import numpy as np

from .losses import Classifier, MarginParams, kl_gaussian, margin_cosine_loss, transfer_loss, uncertainty_loss
from .model import (
    _named_matrices,
    _prepare_sketches,
    _prepare_views,
    init_classifier,
    init_shape_model,
    init_sketch_model,
    reparameterize,
    unit_scale_backward,
    unit_scale_forward,
)
from .ops import grad_check, normalize_rows_fwd
from .rng import Rng
from .train import TrainConfig, _flat_parameters, _shape_objective, _sketch_objective, _views

TOLERANCE = 1e-4


def _rand(rng, rows, cols):
    return rng.uniform_matrix(rows, cols, -2.0, 2.0)


def check_margin_loss(seed: int, n: int = 6, dim: int = 12, classes: int = 5) -> float:
    rng = Rng(seed)
    z = _rand(rng, n, dim)
    w = _rand(rng, classes, dim)
    labels = np.array([rng.integer(classes) for _ in range(n)])
    params = MarginParams(30.0, 0.5)

    def f(ps):
        loss, dz, dw = margin_cosine_loss(ps[0], ps[1], labels, params)
        return loss, [dz, dw]

    return grad_check(f, [z, w])


def check_kl(seed: int, n: int = 6, dim: int = 12) -> float:
    rng = Rng(seed)
    mu = _rand(rng, n, dim)
    logvar = _rand(rng, n, dim)

    def f(ps):
        loss, dmu, dlv = kl_gaussian(ps[0], ps[1])
        return loss, [dmu, dlv]

    return grad_check(f, [mu, logvar])


# KL weight of the stage-1 checks: far above the training default, so that
# an error on the KL path is not hidden under the margin-loss gradient.
CHECK_LAM = 1.0


def check_uncertainty_loss(seed: int, n: int = 6, dim: int = 12, classes: int = 5) -> float:
    """Stage-1 objective from the raw head outputs: unit-scale Gaussian,
    reparameterised sample, margin loss plus CHECK_LAM * KL."""
    rng = Rng(seed)
    mu = _rand(rng, n, dim)
    logvar = rng.uniform_matrix(n, dim, -1.0, 1.0)
    w = _rand(rng, classes, dim)
    labels = np.array([rng.integer(classes) for _ in range(n)])
    eps = rng.normal_matrix(n, dim)
    params = MarginParams(30.0, 0.5)

    def f(ps):
        classifier = Classifier(ps[2])
        mu_hat, lv, cache = unit_scale_forward(ps[0], ps[1])
        z = reparameterize(mu_hat, lv, eps)
        loss, dmu, dlv, dw = uncertainty_loss(z, mu_hat, lv, classifier, labels, params, CHECK_LAM)
        return loss, [*unit_scale_backward(cache, dmu, dlv), dw]

    return grad_check(f, [mu, logvar, w])


def check_transfer_loss(seed: int, n: int = 6, dim: int = 12, classes: int = 5) -> float:
    rng = Rng(seed)
    emb = _rand(rng, n, dim)
    labels = np.array([rng.integer(classes) for _ in range(n)])
    classifier = Classifier(_rand(rng, classes, dim), frozen=True)
    params = MarginParams(15.0, 0.8)

    def f(ps):
        loss, demb, dw = transfer_loss(ps[0], classifier, labels, params)
        if np.any(dw != 0.0):
            raise AssertionError("transfer_loss produced a non-zero classifier gradient")
        return loss, [demb]

    return grad_check(f, [emb])


def _check_flat(model, classifier, objective) -> float:
    """grad_check of ``objective(out) -> loss`` on _flat_parameters' vectors,
    both split into the matrices of ``_named_matrices(model, classifier)``."""
    arrays = [a for _, a in _named_matrices(model, classifier)]
    params, grads, out = _flat_parameters(model, classifier)
    analytic = _views(grads, arrays)
    return grad_check(lambda _ps: (objective(out), analytic), _views(params, arrays))


def check_sketch_chain(seed: int, n: int = 5) -> float:
    """The stage-1 training objective through the sketch encoder parameters
    and the class centers, including the unit-scale rescaling of the heads'
    Gaussian."""
    cfg = TrainConfig(feature_dim=6, hidden=(8,), embed_dim=8, classes=4, lam=CHECK_LAM, seed=seed)
    rng = Rng(seed)
    model = init_sketch_model(cfg, rng)
    classifier = init_classifier(cfg, rng)
    xn = _prepare_sketches(_rand(rng, n, cfg.feature_dim))
    labels = np.array([rng.integer(cfg.classes) for _ in range(n)])
    eps = rng.normal_matrix(n, cfg.embed_dim)
    margins = cfg.sketch_margins()
    return _check_flat(model, classifier, lambda out: _sketch_objective(
        model, classifier.weights, xn, labels, eps, margins, cfg.lam, out))


def check_shape_chain(seed: int, n: int = 4, views: int = 3) -> float:
    """The stage-2 training objective through the shape encoder parameters."""
    cfg = TrainConfig(feature_dim=6, hidden=(8,), embed_dim=8, classes=4, seed=seed)
    rng = Rng(seed)
    model = init_shape_model(cfg, rng)
    centers = normalize_rows_fwd(_rand(rng, cfg.classes, cfg.embed_dim))
    x = rng.uniform_matrix(n * views, cfg.feature_dim, -2.0, 2.0)
    prepared = _prepare_views(x.reshape(n, views, cfg.feature_dim))
    labels = np.array([rng.integer(cfg.classes) for _ in range(n)])
    margins = cfg.shape_margins()
    return _check_flat(model, None, lambda out: _shape_objective(model, centers, prepared, labels, margins, out))


ALL_CHECKS = {
    "margin_loss": check_margin_loss,
    "kl": check_kl,
    "uncertainty_loss": check_uncertainty_loss,
    "transfer_loss": check_transfer_loss,
    "sketch_chain": check_sketch_chain,
    "shape_chain": check_shape_chain,
}


def run_all(seed: int) -> dict:
    """Worst finite-difference relative error per check, keyed by name."""
    return {name: fn(seed) for name, fn in ALL_CHECKS.items()}
