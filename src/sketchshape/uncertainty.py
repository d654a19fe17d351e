"""Scalar uncertainty scores from per-dimension variances, plus bucketing.

A sample's learned variance vector is collapsed to one score with the
harmonic mean over dimensions.  Scores are min-max normalised into [0, 1]
and split into three equal-width buckets (low / mid / high); the summary
reports the percentage of samples per bucket.
"""

from dataclasses import dataclass

import numpy as np

BUCKETS = ("low", "mid", "high")


@dataclass
class UncertaintyRecord:
    sample_id: str
    sigma2: np.ndarray
    score: float
    normalized: float
    bucket: str


def harmonic_mean(sigma2) -> float:
    """D / sum(1 / sigma2_d); every entry must be strictly positive."""
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if sigma2.size == 0:
        raise ValueError("harmonic_mean of an empty vector")
    if np.any(sigma2 <= 0.0):
        raise ValueError("harmonic_mean requires strictly positive entries")
    return float(sigma2.size / np.sum(1.0 / sigma2))


def bucket_of(normalized: float) -> str:
    """Equal-width thirds: [0, 1/3) low, [1/3, 2/3) mid, [2/3, 1] high."""
    if normalized < 1.0 / 3.0:
        return "low"
    if normalized < 2.0 / 3.0:
        return "mid"
    return "high"


def normalize_and_bucket(scores, ids=None):
    """Min-max normalise raw scores and assign buckets.

    Returns (records, percentages) where records carry (id, raw score,
    normalised score, bucket) and percentages maps bucket name to the share
    of samples in percent.  Needs at least two distinct scores, otherwise
    the normalisation is undefined.
    """
    scores = [float(s) for s in scores]
    if len(scores) < 2:
        raise ValueError(f"need at least 2 scores to normalise, got {len(scores)}")
    lo, hi = min(scores), max(scores)
    if lo == hi:
        raise ValueError("all scores equal; min-max normalisation undefined")
    if ids is None:
        ids = [str(i) for i in range(len(scores))]
    records = []
    counts = dict.fromkeys(BUCKETS, 0)
    for sample_id, score in zip(ids, scores):
        normalized = (score - lo) / (hi - lo)
        bucket = bucket_of(normalized)
        counts[bucket] += 1
        records.append(UncertaintyRecord(str(sample_id), None, score, normalized, bucket))
    percentages = {name: 100.0 * counts[name] / len(scores) for name in BUCKETS}
    return records, percentages


def analyze(ids, sigma2_rows):
    """Full per-sample analysis from variance vectors.

    Returns (records, percentages): harmonic-mean scores, normalised and
    bucketed, with the variance vectors attached to the records.
    """
    sigma2_rows = [np.asarray(row, dtype=np.float64) for row in sigma2_rows]
    if len(ids) != len(sigma2_rows):
        raise ValueError(f"{len(ids)} ids but {len(sigma2_rows)} variance rows")
    scores = [harmonic_mean(row) for row in sigma2_rows]
    records, percentages = normalize_and_bucket(scores, ids)
    for record, row in zip(records, sigma2_rows):
        record.sigma2 = row
    return records, percentages


def write_report(records, percentages, csv_path, summary_path) -> None:
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write("id,score,normalized,bucket\n")
        for r in records:
            fh.write(f"{r.sample_id},{r.score!r},{r.normalized!r},{r.bucket}\n")
    with open(summary_path, "w", encoding="ascii") as fh:
        fh.write(f"samples = {len(records)}\n")
        for name in BUCKETS:
            fh.write(f"percent_{name} = {percentages[name]!r}\n")


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
