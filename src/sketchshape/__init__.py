"""Uncertainty-aware cross-modal embedding learning and retrieval.

Sketches are embedded as Gaussians (mu, sigma) whose variance tracks sample
noisiness; a second stage maps multi-view shape features onto the frozen
sketch class centers; a cosine-ranking engine scores cross-modal retrieval
with the standard six-metric suite.  Everything is float64, seeded and
deterministic.
"""

from .losses import (
    Classifier,
    MarginParams,
    center_accuracy,
    kl_gaussian,
    margin_cosine_loss,
    transfer_loss,
    uncertainty_loss,
)
from .metrics import MetricReport, RankedList, average_precision, dcg, e_measure, evaluate, rank, tier_metrics
from .model import (
    GaussianEmbedding,
    Mlp,
    ShapeModel,
    SketchModel,
    encode_shape,
    encode_sketch,
    reparameterize,
)
from .ops import cosine_matrix, grad_check, l2_normalize_rows
from .rng import Rng
from .train import TrainConfig, TrainReport, cosine_lr, sgd_step, train_stage1, train_stage2
from .uncertainty import UncertaintyRecord, detection_auc, harmonic_mean, normalize_and_bucket

__version__ = "0.1.0"

__all__ = [
    "Classifier",
    "GaussianEmbedding",
    "MarginParams",
    "MetricReport",
    "Mlp",
    "RankedList",
    "Rng",
    "ShapeModel",
    "SketchModel",
    "TrainConfig",
    "TrainReport",
    "UncertaintyRecord",
    "average_precision",
    "center_accuracy",
    "cosine_lr",
    "cosine_matrix",
    "dcg",
    "detection_auc",
    "e_measure",
    "encode_shape",
    "encode_sketch",
    "evaluate",
    "grad_check",
    "harmonic_mean",
    "kl_gaussian",
    "l2_normalize_rows",
    "margin_cosine_loss",
    "normalize_and_bucket",
    "rank",
    "reparameterize",
    "sgd_step",
    "tier_metrics",
    "train_stage1",
    "train_stage2",
    "transfer_loss",
    "uncertainty_loss",
]
