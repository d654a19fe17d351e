"""Uncertainty scoring: harmonic mean, normalisation, bucketing."""

import numpy as np
import pytest

from sketchshape.rng import Rng
from sketchshape.uncertainty import (
    analyze,
    bucket_of,
    detection_auc,
    harmonic_mean,
    normalize_and_bucket,
    write_report,
)


class TestHarmonicMean:
    def test_constant_vector(self):
        assert harmonic_mean([2.5, 2.5, 2.5]) == pytest.approx(2.5, abs=1e-12)

    def test_hand_case(self):
        assert harmonic_mean([1.0, 1.0 / 3.0]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            harmonic_mean([1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            harmonic_mean([1.0, -2.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_never_exceeds_arithmetic_mean(self, seed):
        v = Rng(seed).uniform_matrix(1, 6, 0.05, 3.0)[0]
        assert harmonic_mean(v) <= v.mean() + 1e-12

    def test_equals_arithmetic_mean_iff_constant(self):
        assert harmonic_mean([2.0, 2.0]) == pytest.approx(2.0, abs=1e-15)
        v = [1.0, 2.0]
        assert harmonic_mean(v) < np.mean(v)


class TestNormalizeAndBucket:
    def test_three_point_example(self):
        records, percentages = normalize_and_bucket([1.0, 2.0, 3.0])
        assert [r.normalized for r in records] == [0.0, 0.5, 1.0]
        assert [r.bucket for r in records] == ["low", "mid", "high"]
        assert percentages == {"low": pytest.approx(100 / 3), "mid": pytest.approx(100 / 3), "high": pytest.approx(100 / 3)}

    def test_min_is_low_bucket(self):
        records, _ = normalize_and_bucket([5.0, 9.0, 7.0])
        lowest = min(records, key=lambda r: r.score)
        assert lowest.normalized == 0.0
        assert lowest.bucket == "low"

    def test_percentages_sum_to_hundred(self):
        scores = Rng(1).uniform_block(37).tolist()
        _, percentages = normalize_and_bucket(scores)
        assert sum(percentages.values()) == pytest.approx(100.0, abs=1e-9)

    def test_all_equal_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            normalize_and_bucket([2.0, 2.0, 2.0])

    def test_too_few_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            normalize_and_bucket([1.0])

    def test_bucketing_is_monotone_in_raw_score(self):
        scores = Rng(2).uniform_block(50).tolist()
        records, _ = normalize_and_bucket(scores)
        order = {"low": 0, "mid": 1, "high": 2}
        by_score = sorted(records, key=lambda r: r.score)
        buckets = [order[r.bucket] for r in by_score]
        assert buckets == sorted(buckets)

    def test_normalization_preserves_ranks(self):
        scores = Rng(3).uniform_block(25).tolist()
        records, _ = normalize_and_bucket(scores)
        raw_rank = np.argsort([r.score for r in records])
        norm_rank = np.argsort([r.normalized for r in records])
        np.testing.assert_array_equal(raw_rank, norm_rank)

    def test_bucket_boundaries(self):
        assert bucket_of(0.0) == "low"
        assert bucket_of(1.0 / 3.0) == "mid"
        assert bucket_of(2.0 / 3.0) == "high"
        assert bucket_of(1.0) == "high"


class TestAnalyze:
    def test_records_carry_sigma2_and_ids(self):
        sigma2 = [[1.0, 1.0], [4.0, 4.0], [0.25, 0.25]]
        records, percentages = analyze(["a", "b", "c"], sigma2)
        assert [r.sample_id for r in records] == ["a", "b", "c"]
        assert records[1].score == pytest.approx(4.0, abs=1e-12)
        assert records[1].bucket == "high"
        np.testing.assert_array_equal(records[0].sigma2, [1.0, 1.0])
        assert sum(percentages.values()) == pytest.approx(100.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="ids"):
            analyze(["a"], [[1.0], [2.0]])

    def test_report_files(self, tmp_path):
        records, percentages = analyze(["a", "b"], [[1.0], [2.0]])
        write_report(records, percentages, tmp_path / "u.csv", tmp_path / "s.txt")
        lines = (tmp_path / "u.csv").read_text().splitlines()
        assert lines[0] == "id,score,normalized,bucket"
        assert len(lines) == 3
        summary = (tmp_path / "s.txt").read_text()
        assert "percent_low" in summary and "samples = 2" in summary


class TestDetectionAuc:
    def test_perfect_separation(self):
        assert detection_auc([1.0, 2.0, 10.0, 11.0], [False, False, True, True]) == 1.0

    def test_inverted_separation(self):
        assert detection_auc([5.0, 6.0, 1.0, 2.0], [False, False, True, True]) == 0.0

    def test_ties_count_half(self):
        assert detection_auc([1.0, 1.0], [True, False]) == 0.5

    def test_matches_pairwise_count_with_ties(self):
        rng = Rng(15)
        for _ in range(50):
            n = 2 + rng.integer(40)
            scores = [float(rng.integer(4)) for _ in range(n)]
            flags = [rng.integer(3) == 0 for _ in range(n)]
            if all(flags) or not any(flags):
                continue
            pos = [s for s, f in zip(scores, flags) if f]
            neg = [s for s, f in zip(scores, flags) if not f]
            wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
            assert detection_auc(scores, flags) == wins / (len(pos) * len(neg))

    def test_needs_both_groups(self):
        with pytest.raises(ValueError, match="both"):
            detection_auc([1.0, 2.0], [True, True])
