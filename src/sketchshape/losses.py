"""Training objectives for the two-stage pipeline.

All losses operate on cosine similarities between L2-normalised embeddings
and class-center rows, so they are invariant to any positive rescaling of
their inputs.  Each function returns the scalar loss together with
closed-form gradients for exactly the arguments that are trainable; the
finite-difference checker in ``ops`` verifies every formula here.

margin_cosine_loss:
    -mean_i log[ e^{s(cos_yi - m)} / (e^{s(cos_yi - m)} + sum_{j!=yi} e^{s cos_j}) ]
kl_gaussian:
    mean over samples and dimensions of -1/2 (1 + log s2 - mu^2 - s2),
    the divergence of N(mu, s2 I) from N(0, I), averaged per dimension so
    the weight of the term does not depend on the embedding size.

In stage 1 (mu, s2) is the sketch encoder's unit-scale Gaussian (see
``model.unit_scale_forward``): mu has length 1, so the KL's mu^2 part is a
constant and the term acts on the variance alone.

The public functions check their arguments and call the private cores
(``_margin_core``, ``_kl_core``, ``_uncertainty_core``), which do the
arithmetic alone.  The trainer validates once per run and calls the cores
on every step from its stage objectives, which the finite-difference
chain checks in ``gradcheck`` call too.
"""

from dataclasses import dataclass

import numpy as np

from .ops import normalize_rows_fwd, normalize_rows_bwd, require_finite


@dataclass
class MarginParams:
    """Scale s and cosine margin m of the margin softmax."""

    scale: float
    margin: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError(f"margin must be in [0, 1), got {self.margin}")


@dataclass
class Classifier:
    """Class-center weight matrix, one row per class.

    Stage 1 trains the rows; ``freeze()`` takes the bitwise snapshot that
    stage 2 reuses as fixed transfer targets.
    """

    weights: np.ndarray
    frozen: bool = False

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[0] < 2:
            raise ValueError(f"classifier needs a Cx D matrix with C >= 2, got shape {self.weights.shape}")
        require_finite(self.weights, "classifier weights")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    def freeze(self) -> "Classifier":
        return Classifier(self.weights.copy(), frozen=True)


def _check_batch(z, weights, labels):
    """(z, weights, labels) as float64, float64 and int64 arrays, after the
    shape and label-range checks every public loss makes."""
    z = np.asarray(z, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ValueError(f"need a non-empty NxD embedding batch, got shape {z.shape}")
    if z.shape[1] != weights.shape[1]:
        raise ValueError(f"embedding dim {z.shape[1]} != class-center dim {weights.shape[1]}")
    n, c = z.shape[0], weights.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        bad = labels[(labels < 0) | (labels >= c)]
        raise ValueError(f"labels out of range [0, {c}): {sorted(set(bad.tolist()))}")
    return z, weights, labels


def _check_gaussian(mu, logvar):
    """(mu, logvar) as float64 arrays of one shape."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise ValueError(f"mu shape {mu.shape} != logvar shape {logvar.shape}")
    return mu, logvar


def _margin_core(z, centers, labels, params: MarginParams):
    """The margin softmax of margin_cosine_loss on checked arrays.

    ``centers`` is ``normalize_rows_fwd(weights)``, so a caller whose
    weights do not change normalises them once.  Returns (loss, dz, dcos,
    zb): the gradient per cosine and the normalised batch, from which a
    caller that trains the weights takes
    ``dweights = normalize_rows_bwd(dcos.T @ zb, *centers)``.
    """
    wb = centers[0]
    n = z.shape[0]
    zb, znorms, zfull = normalize_rows_fwd(z)
    logits = params.scale * (zb @ wb.T)
    rows = np.arange(n)
    logits[rows, labels] -= params.scale * params.margin

    row_max = np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted = np.exp(logits - row_max)
    denom = np.add.reduce(shifted, axis=1, keepdims=True)
    log_prob = (logits[rows, labels] - row_max[:, 0]) - np.log(denom[:, 0])
    loss = float(-(np.add.reduce(log_prob) / n))

    probs = shifted / denom
    probs[rows, labels] -= 1.0
    dcos = (params.scale / n) * probs
    return loss, normalize_rows_bwd(dcos @ wb, zb, znorms, zfull), dcos, zb


def _kl_core(mu, logvar):
    """kl_gaussian on arrays through _check_gaussian."""
    sig2 = np.exp(logvar)
    terms = -0.5 * (1.0 + logvar - mu * mu - sig2)
    inv = 1.0 / terms.size
    return float(np.add.reduce(terms, axis=None) / terms.size), mu * inv, 0.5 * (sig2 - 1.0) * inv


def _uncertainty_core(z, mu, logvar, centers, labels, params: MarginParams, lam: float):
    """uncertainty_loss on checked arrays, with ``centers`` as in
    _margin_core; returns (loss, dmu, dlogvar, dcos, zb)."""
    lmc, dz, dcos, zb = _margin_core(z, centers, labels, params)
    kl, dmu_kl, dlv_kl = _kl_core(mu, logvar)
    # dz/dlogvar = eps * sigma / 2 = (z - mu) / 2 for the fixed eps draw.
    return lmc + lam * kl, dz + lam * dmu_kl, 0.5 * (z - mu) * dz + lam * dlv_kl, dcos, zb


def margin_cosine_loss(z, weights, labels, params: MarginParams):
    """Margin softmax over scaled cosines; returns (loss, dz, dweights).

    The margin is subtracted from the ground-truth cosine only.  Logits are
    shifted by their row max before exponentiation (mandatory at s = 30).
    """
    z, weights, labels = _check_batch(z, weights, labels)
    centers = normalize_rows_fwd(weights)
    loss, dz, dcos, zb = _margin_core(z, centers, labels, params)
    return loss, dz, normalize_rows_bwd(dcos.T @ zb, *centers)


def kl_gaussian(mu, logvar):
    """KL(N(mu, s2 I) || N(0, I)) averaged per dimension and per sample.

    Returns (loss, dmu, dlogvar).  Non-negative; zero exactly when mu = 0
    and s2 = 1; strictly decreasing in each sigma over (0, 1).
    """
    return _kl_core(*_check_gaussian(mu, logvar))


def uncertainty_loss(z, mu, logvar, classifier: Classifier, labels, params: MarginParams, lam: float):
    """Margin loss on sampled embeddings plus lam * KL regulariser.

    ``z`` must be the reparameterised batch mu + eps * exp(logvar / 2) built
    from the same (mu, logvar); gradients flow into mu and logvar both
    through z and through the KL term.  Returns (loss, dmu, dlogvar,
    dweights).  With lam = 0 the result equals the plain margin loss.
    Stage 1 passes the encoder's unit-scale (mu, logvar), so the variance
    penalised here is the one z is drawn with.
    """
    if lam < 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if z.shape != mu.shape:
        raise ValueError(f"z shape {z.shape} != mu shape {mu.shape}")
    z, weights, labels = _check_batch(z, classifier.weights, labels)
    mu, logvar = _check_gaussian(mu, logvar)
    centers = normalize_rows_fwd(weights)
    loss, dmu, dlogvar, dcos, zb = _uncertainty_core(z, mu, logvar, centers, labels, params, lam)
    return loss, dmu, dlogvar, normalize_rows_bwd(dcos.T @ zb, *centers)


def transfer_loss(embeddings, classifier: Classifier, labels, params: MarginParams):
    """Margin cosine loss against frozen class centers.

    Same formula as margin_cosine_loss, but the classifier must be frozen
    and its gradient is identically zero.  Returns (loss, dembeddings,
    dweights) with dweights an exact zero matrix.
    """
    if not classifier.frozen:
        raise ValueError("transfer_loss requires a frozen classifier")
    z, weights, labels = _check_batch(embeddings, classifier.weights, labels)
    loss, dembeddings, _, _ = _margin_core(z, normalize_rows_fwd(weights), labels, params)
    return loss, dembeddings, np.zeros_like(classifier.weights)


def center_accuracy(embeddings, classifier: Classifier, labels) -> float:
    """Fraction of embeddings whose highest-cosine class center is their label."""
    from .ops import cosine_matrix

    labels = np.asarray(labels, dtype=np.int64)
    preds = np.argmax(cosine_matrix(np.asarray(embeddings, dtype=np.float64), classifier.weights), axis=1)
    return float(np.mean(preds == labels))
