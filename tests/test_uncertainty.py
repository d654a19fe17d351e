"""Uncertainty scoring: harmonic mean, normalisation, bucketing."""

import numpy as np
import pytest

from sketchshape.rng import Rng
from sketchshape.uncertainty import BUCKETS, analyze, detection_auc, harmonic_mean, write_report


def _rows(scores):
    """Width-1 variance rows whose harmonic means are exactly ``scores``."""
    rows = np.asarray(scores, dtype=np.float64)[:, None]
    assert harmonic_mean(rows).tolist() == list(scores)
    return rows


def _random_rows(seed, n):
    """n random variance rows, and their harmonic means as the raw scores."""
    rows = Rng(seed).uniform_matrix(n, 3, 0.05, 3.0)
    return rows, harmonic_mean(rows)


def _ids(n):
    return [str(i) for i in range(n)]


def _buckets(result):
    return [BUCKETS[b] for b in result.bucket.tolist()]


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
        with pytest.raises(ValueError, match="positive"):
            harmonic_mean([[1.0, 2.0], [3.0, 0.0]])

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_entry_rejected(self, value):
        """An overflowed variance has no score: 1 / inf would drop its
        dimension, and a test for entries <= 0 lets NaN through."""
        with pytest.raises(ValueError, match="finite, strictly positive"):
            harmonic_mean([[1.0, 2.0], [3.0, value]])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            harmonic_mean([])
        with pytest.raises(ValueError, match="empty"):
            harmonic_mean(np.ones((3, 0)))

    @pytest.mark.parametrize("seed", range(10))
    def test_never_exceeds_arithmetic_mean(self, seed):
        v = Rng(seed).uniform_matrix(1, 6, 0.05, 3.0)[0]
        assert harmonic_mean(v) <= v.mean() + 1e-12

    def test_equals_arithmetic_mean_iff_constant(self):
        assert harmonic_mean([2.0, 2.0]) == pytest.approx(2.0, abs=1e-15)
        v = [1.0, 2.0]
        assert harmonic_mean(v) < np.mean(v)

    def test_vector_gives_float_matrix_gives_rows(self):
        assert type(harmonic_mean([1.0, 2.0])) is float
        assert harmonic_mean(np.ones((4, 3))).shape == (4,)

    @pytest.mark.parametrize("width", range(1, 66))
    def test_matrix_rows_bitwise_equal_vector(self, width):
        m = Rng(width).uniform_matrix(20, width, 1e-3, 50.0)
        expected = [harmonic_mean(row) for row in m]
        assert harmonic_mean(m).tolist() == expected
        assert harmonic_mean(np.asfortranarray(m)).tolist() == expected


class TestNormalizeAndBucket:
    def test_three_point_example(self):
        result = analyze(_ids(3), _rows([1.0, 2.0, 3.0]))
        assert result.normalized.tolist() == [0.0, 0.5, 1.0]
        assert _buckets(result) == ["low", "mid", "high"]
        assert result.percentages == {
            "low": pytest.approx(100 / 3), "mid": pytest.approx(100 / 3), "high": pytest.approx(100 / 3)
        }

    def test_min_is_low_bucket(self):
        result = analyze(_ids(3), _rows([5.0, 9.0, 7.0]))
        lowest = int(np.argmin(result.score))
        assert result.normalized[lowest] == 0.0
        assert _buckets(result)[lowest] == "low"

    def test_percentages_sum_to_hundred(self):
        rows, _ = _random_rows(1, 37)
        result = analyze(_ids(37), rows)
        assert sum(result.percentages.values()) == pytest.approx(100.0, abs=1e-9)

    def test_all_equal_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            analyze(_ids(3), _rows([2.0, 2.0, 2.0]))

    def test_too_few_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            analyze(_ids(1), _rows([1.0]))
        with pytest.raises(ValueError, match="at least 2"):
            analyze([], np.ones((0, 3)))

    def test_bucketing_is_monotone_in_raw_score(self):
        rows, scores = _random_rows(2, 50)
        result = analyze(_ids(50), rows)
        assert result.score.tolist() == scores.tolist()
        buckets = result.bucket[np.argsort(scores)].tolist()
        assert buckets == sorted(buckets)

    def test_normalization_preserves_ranks(self):
        rows, scores = _random_rows(3, 25)
        result = analyze(_ids(25), rows)
        np.testing.assert_array_equal(np.argsort(scores), np.argsort(result.normalized))

    def test_bucket_boundaries(self):
        # scores 1..4 normalise to exactly 0, 1/3, 2/3 and 1
        result = analyze(_ids(4), _rows([1.0, 2.0, 3.0, 4.0]))
        assert result.normalized.tolist() == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
        assert _buckets(result) == ["low", "mid", "high", "high"]


class TestAnalyze:
    def test_scores_follow_ids_order(self):
        result = analyze(["a", "b", "c"], [[1.0, 1.0], [4.0, 4.0], [0.25, 0.25]])
        assert result.score[1] == pytest.approx(4.0, abs=1e-12)
        assert _buckets(result) == ["low", "high", "low"]
        assert sum(result.percentages.values()) == pytest.approx(100.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="ids"):
            analyze(["a"], [[1.0], [2.0]])

    def test_report_files(self, tmp_path):
        ids = ["a", "b"]
        write_report(ids, analyze(ids, [[1.0], [2.0]]), tmp_path / "u.csv", tmp_path / "s.txt")
        lines = (tmp_path / "u.csv").read_text().splitlines()
        assert lines[0] == "id,score,normalized,bucket"
        assert len(lines) == 3
        summary = (tmp_path / "s.txt").read_text()
        assert "percent_low" in summary and "samples = 2" in summary

    def test_report_bytes_at_bucket_edges(self, tmp_path):
        ids = ["s0", "s1", "s2", "s3"]
        write_report(ids, analyze(ids, _rows([1.0, 2.0, 3.0, 4.0])), tmp_path / "u.csv", tmp_path / "s.txt")
        assert (tmp_path / "u.csv").read_bytes() == (
            b"id,score,normalized,bucket\n"
            b"s0,1.0,0.0,low\n"
            b"s1,2.0,0.3333333333333333,mid\n"
            b"s2,3.0,0.6666666666666666,high\n"
            b"s3,4.0,1.0,high\n"
        )
        assert (tmp_path / "s.txt").read_bytes() == b"samples = 4\npercent_low = 25.0\npercent_mid = 25.0\npercent_high = 50.0\n"


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
