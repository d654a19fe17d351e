"""Scalar uncertainty scores from per-dimension variances, plus bucketing.

Each row of an N x D variance matrix is collapsed to one score, the harmonic
mean over its dimensions (as in DUL, Chang et al., CVPR 2020).  The scores
are min-max normalised into [0, 1] and split into three equal-width buckets
(low / mid / high), as arrays in row order, with the share per bucket.
"""

from typing import NamedTuple

import numpy as np

BUCKETS = ("low", "mid", "high")


class Scores(NamedTuple):
    """analyze's per-sample arrays, in row order, and percent per bucket."""

    score: np.ndarray
    normalized: np.ndarray
    bucket: np.ndarray
    percentages: dict


def harmonic_mean(sigma2):
    """D / sum_d(1 / sigma2_d) of a vector (a float) or of each row of an
    N x D matrix, bitwise equal per row: in C order each row reduces with a
    vector's pairwise sum.  Every entry must be finite and strictly
    positive."""
    sigma2 = np.ascontiguousarray(sigma2, dtype=np.float64)
    if sigma2.shape[-1] == 0:
        raise ValueError("harmonic_mean of an empty vector")
    if not np.all((sigma2 > 0.0) & (sigma2 < np.inf)):
        raise ValueError("harmonic_mean requires finite, strictly positive entries")
    scores = sigma2.shape[-1] / np.add.reduce(1.0 / sigma2, axis=-1)
    return float(scores) if sigma2.ndim == 1 else scores


def analyze(ids, sigma2) -> Scores:
    """Scores of the rows of a variance matrix, one row per id, min-max
    normalised and bucketed by thirds: [0, 1/3) low, [1/3, 2/3) mid,
    [2/3, 1] high.  Needs at least two distinct scores."""
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if len(ids) != len(sigma2):
        raise ValueError(f"{len(ids)} ids but {len(sigma2)} variance rows")
    if len(sigma2) < 2:
        raise ValueError(f"need at least 2 scores to normalise, got {len(sigma2)}")
    scores = harmonic_mean(sigma2.reshape(len(sigma2), -1))
    lo, hi = scores.min(), scores.max()
    if lo == hi:
        raise ValueError("all scores equal; min-max normalisation undefined")
    normalized = (scores - lo) / (hi - lo)
    bucket = np.searchsorted([1.0 / 3.0, 2.0 / 3.0], normalized, side="right")
    counts = np.bincount(bucket, minlength=len(BUCKETS)).tolist()
    percentages = {name: 100.0 * count / len(scores) for name, count in zip(BUCKETS, counts)}
    return Scores(scores, normalized, bucket, percentages)


def write_report(ids, scores: Scores, csv_path, summary_path) -> None:
    rows = zip(ids, scores.score.tolist(), scores.normalized.tolist(), scores.bucket.tolist())
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write("id,score,normalized,bucket\n")
        fh.writelines(f"{i},{s!r},{n!r},{BUCKETS[b]}\n" for i, s, n, b in rows)
    with open(summary_path, "w", encoding="ascii") as fh:
        fh.write(f"samples = {len(scores.score)}\n")
        for name in BUCKETS:
            fh.write(f"percent_{name} = {scores.percentages[name]!r}\n")


def detection_auc(scores, flags) -> float:
    """Area under the ROC curve of the scores as a detector of flagged
    samples: the share of (flagged, unflagged) pairs in which the flagged
    sample scores higher, ties counting half.

    Counted as the Mann-Whitney statistic from midranks (Hanley & McNeil,
    1982).  Twice a midrank is an integer, so the count is exact and equals
    the pairwise one.
    """
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    if scores.shape != flags.shape or scores.ndim != 1:
        raise ValueError(f"detection_auc needs one flag per score, got {scores.shape} and {flags.shape}")
    if np.isnan(scores).any():
        raise ValueError("detection_auc scores contain NaN")
    pos = int(flags.sum())
    neg = flags.size - pos
    if not pos or not neg:
        raise ValueError("detection_auc needs both flagged and unflagged samples")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # a group of equal scores holds ranks last - count + 1 .. last
    twice_midrank = 2 * np.cumsum(counts) - counts + 1
    wins = (int(twice_midrank[group][flags].sum()) - pos * (pos + 1)) / 2
    return wins / (pos * neg)
