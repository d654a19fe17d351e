"""Ranking and the six retrieval metrics against hand values and the
brute-force oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from reference import evaluate_bruteforce, rank_bruteforce, six_metrics_bruteforce
from sketchshape.metrics import (
    RankedList,
    _blocks,
    _relevant_ranks,
    average_precision,
    dcg,
    e_measure,
    evaluate,
    query_metrics,
    rank,
    tier_metrics,
    write_metric_report,
    write_per_query_csv,
    write_pr_curve,
)
from sketchshape.ops import BLOCK_ROWS
from sketchshape.rng import Rng


def _ranked(rel):
    rel = np.asarray(rel, dtype=np.int64)
    return RankedList("q", list(range(len(rel))), rel)


def _dyadic(a, bits=40):
    return np.round(np.asarray(a) * 2.0**bits) / 2.0**bits


def _edge_instances():
    """(queries, gallery, qlabels, glabels) for the cases that blocked
    ranking has to get right.

    * Exact cosine ties: integer-valued embeddings whose ties are exact in
      the oracle's arithmetic and the library's alike, namely duplicated
      rows and all-zero rows.  Entries are positive and no two distinct
      rows are parallel, since the two compute the cosine of parallel or
      orthogonal rows with different rounding.
    * More queries than one block holds, one left over after two full
      blocks, against a small gallery.
    * Galleries smaller than the E-measure cutoff, down to a single item.
    """
    rng = Rng(9)
    pool = []
    while len(pool) < 5:
        row = [1 + rng.integer(4) for _ in range(3)]
        if math.gcd(*row) == 1 and row not in pool:
            pool.append(row)
    gallery = [pool[rng.integer(len(pool))] for _ in range(30)]
    for at in (0, 11, 30):
        gallery.insert(at, [0, 0, 0])
    queries = [pool[0], pool[3], [0, 0, 0]] + [[1 + rng.integer(4) for _ in range(3)] for _ in range(9)]
    instances = [
        (
            np.array(queries, dtype=np.float64),
            np.array(gallery, dtype=np.float64),
            [rng.integer(3) for _ in queries],
            [rng.integer(3) for _ in gallery],
        )
    ]
    for q, g in ((2 * BLOCK_ROWS + 1, 7), (5, 31), (5, 1)):
        instances.append(
            (
                rng.uniform_matrix(q, 3, -1.0, 1.0),
                rng.uniform_matrix(g, 3, -1.0, 1.0),
                [rng.integer(2) for _ in range(q)],
                [i % 2 for i in range(g)],
            )
        )
    return instances


class TestRank:
    def test_query_itself_ranks_first(self):
        rng = Rng(0)
        gallery = rng.uniform_matrix(6, 5, -1.0, 1.0)
        queries = gallery[2:3].copy()
        ranked = rank(queries, gallery, [0], [1, 1, 0, 1, 1, 1], ["q"], range(6))
        assert ranked[0].gallery_ids[0] == 2

    def test_tie_broken_by_lower_gallery_position(self):
        gallery = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # rows 0,1 parallel
        ranked = rank(np.array([[3.0, 0.0]]), gallery, [0], [0, 0, 1], ["q"], range(3))
        assert ranked[0].gallery_ids[:2] == [0, 1]

    def test_matches_bruteforce_on_random_case(self):
        rng = Rng(1)
        queries = rng.uniform_matrix(5, 8, -2.0, 2.0)
        gallery = rng.uniform_matrix(8, 8, -2.0, 2.0)
        qlabels = [rng.integer(3) for _ in range(5)]
        glabels = [rng.integer(3) for _ in range(8)]
        for queries, gallery, qlabels, glabels in [(queries, gallery, qlabels, glabels)] + _edge_instances():
            got = rank(queries, gallery, qlabels, glabels, range(len(queries)), range(len(gallery)))
            want = rank_bruteforce(queries.tolist(), gallery.tolist(), qlabels, glabels)
            assert len(got) == len(want)
            for r, (order, rel) in zip(got, want):
                assert r.gallery_ids == order
                assert r.relevance.tolist() == rel

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError, match="gallery"):
            rank(np.ones((1, 2)), np.zeros((0, 2)), [0], [], ["q"], [])

    @pytest.mark.parametrize("gallery_ids, count", [(["x"], 1), (["x", "y", "z", "w"], 4)], ids=["short", "long"])
    def test_gallery_ids_length_checked(self, gallery_ids, count):
        with pytest.raises(ValueError, match=rf"^gallery_ids has {count} entries for 3 gallery items$"):
            rank(np.eye(2), np.eye(3)[:, :2], [0, 1], [0, 1, 0], ["a", "b"], gallery_ids)


def _exact_ties_only(query, gallery):
    """Whether the query's nonzero cosines to the gallery rows are pairwise
    distinct as exact numbers.  Mathematically equal cosines of different
    rows may round differently in the library and the oracle, so only the
    exact zeros may tie."""
    squares = []
    for row in gallery:
        d = sum(a * b for a, b in zip(query, row))
        if d:
            squares.append(Fraction(d * d, sum(b * b for b in row)))
    return len(set(squares)) == len(squares)


def _tie_instance(duplicates):
    """(queries, gallery, qlabels, glabels): 2 * BLOCK_ROWS + 1 integer
    queries against 300 distinct, pairwise non-parallel, non-negative
    integer gallery rows, among them (1, 0, 0, 0), and one all-zero row.

    A query's cosine is exactly 0, in the library and the oracle alike, to
    the zero row and to every row whose support is disjoint from its own.
    So a query whose first entry is 0 ties the zero row with (1, 0, 0, 0),
    an all-zero query ties everywhere, and a query with all four entries
    positive has no tie.  With ``duplicates``, 20 gallery rows come again
    under another label and three more all-zero rows are added, which ties
    every query.
    """
    rng = Rng(12)
    gallery = [[1, 0, 0, 0]]
    while len(gallery) < 300:
        row = [rng.integer(6) for _ in range(4)]
        if math.gcd(*row) == 1 and row not in gallery:
            gallery.append(row)
    gallery.insert(150, [0, 0, 0, 0])
    queries = []
    while len(queries) < 2 * BLOCK_ROWS + 1:
        i = len(queries)
        query = [0 if k == 0 and i % 3 == 0 else 1 + rng.integer(1000) for k in range(4)]
        if i % 17 == 0:
            queries.append([0, 0, 0, 0])
        elif _exact_ties_only(query, gallery):
            queries.append(query)
    qlabels = [rng.integer(5) for _ in queries]
    glabels = [rng.integer(5) for _ in gallery]
    if duplicates:
        for i in range(0, 200, 10):
            gallery.append(gallery[i])
            glabels.append((glabels[i] + 1) % 5)
        for at in (0, 77, len(gallery)):
            gallery.insert(at, [0, 0, 0, 0])
            glabels.insert(at, 1)
    return np.array(queries, dtype=np.float64), np.array(gallery, dtype=np.float64), qlabels, glabels


def _tied_rows(keys):
    ordered = np.sort(keys, axis=1)
    return np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)


class TestTiedRows:
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_relevant_ranks_follow_the_stable_sort(self, duplicates):
        queries, gallery, qlabels, glabels = _tie_instance(duplicates)
        blocks = list(_blocks(queries, gallery, qlabels, glabels))
        assert [len(keys) for _, keys, _ in blocks] == [BLOCK_ROWS, BLOCK_ROWS, 1]
        tied = np.concatenate([_tied_rows(keys) for _, keys, _ in blocks])
        if duplicates:
            assert tied.all()
        else:
            assert tied.any() and not tied.all()
        for _, keys, rel in blocks:
            want = np.take_along_axis(rel, np.argsort(keys, axis=1, kind="stable"), axis=1)
            got = _relevant_ranks(keys, rel)
            assert len(got) == len(want)
            for ranks, row in zip(got, want):
                np.testing.assert_array_equal(ranks, np.flatnonzero(row))

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_evaluate_matches_bruteforce_bitwise(self, duplicates):
        queries, gallery, qlabels, glabels = _tie_instance(duplicates)
        report = evaluate(queries, gallery, qlabels, glabels)
        means, aps = evaluate_bruteforce(queries.tolist(), gallery.tolist(), qlabels, glabels)
        assert (report.nn, report.ft, report.st, report.e, report.dcg, report.map) == means
        assert report.per_query_ap == aps

    def test_signed_zero_keys_take_the_stable_sort(self):
        # +0.0 and -0.0 compare equal: a binary search would give both
        # relevant zeros of the first row rank 0, the stable sort ranks
        # them 1 and 2, after the 0.0 at position 0
        keys = np.array([[0.0, -0.0, 0.5, -0.0], [0.25, -0.5, 0.5, 0.0]])
        rel = np.array([[False, True, False, True], [True, False, True, True]])
        assert _tied_rows(keys).tolist() == [True, False]
        got = _relevant_ranks(keys, rel)
        assert [r.tolist() for r in got] == [[1, 2], [1, 2, 3]]


class TestAveragePrecision:
    def test_hand_enumeration(self):
        # relevant at ranks 1 and 3 of 4
        assert average_precision(_ranked([1, 0, 1, 0])) == (1.0 + 2.0 / 3.0) / 2.0

    def test_perfect_ranking(self):
        assert average_precision(_ranked([1, 1, 1, 0, 0])) == 1.0

    def test_single_relevant_at_last_rank(self):
        g = 7
        rel = [0] * (g - 1) + [1]
        assert average_precision(_ranked(rel)) == 1.0 / g

    def test_no_relevant_rejected(self):
        with pytest.raises(ValueError, match="no relevant"):
            average_precision(_ranked([0, 0]))


class TestTierMetrics:
    def test_perfect_tiers(self):
        nn, ft, st = tier_metrics(_ranked([1, 1, 1, 0, 0, 0]))
        assert (nn, ft, st) == (1.0, 1.0, 1.0)

    def test_top_one_irrelevant(self):
        nn, _, _ = tier_metrics(_ranked([0, 1, 1]))
        assert nn == 0.0

    def test_hand_enumeration(self):
        nn, ft, st = tier_metrics(_ranked([0, 1, 0, 1, 0, 0]))
        assert (nn, ft, st) == (0.0, 0.5, 1.0)


class TestEMeasure:
    def test_sixteen_of_thirty_two(self):
        rel = [1] * 16 + [0] * 24  # R = 16, all in top 32, G = 40
        assert e_measure(_ranked(rel)) == 2.0 * 0.5 * 1.0 / (0.5 + 1.0)

    def test_nothing_in_cutoff(self):
        rel = [0] * 32 + [1]
        assert e_measure(_ranked(rel)) == 0.0

    def test_small_gallery_cutoff(self):
        rel = [1] * 10
        assert e_measure(_ranked(rel)) == 1.0


class TestDcg:
    def test_ideal_ordering_is_one(self):
        assert dcg(_ranked([1, 1, 0, 0])) == 1.0

    def test_rank_two_discount_is_one(self):
        assert dcg(_ranked([0, 1, 0, 0])) == 1.0

    def test_rank_four(self):
        assert dcg(_ranked([0, 0, 0, 1])) == 0.5


class TestEvaluate:
    def test_perfect_retrieval_all_six_ones(self):
        # class-aligned embeddings with 32 gallery items per class: every
        # metric including the cutoff-32 E-measure reaches exactly 1
        queries = np.eye(2)
        gallery = np.repeat(np.eye(2), 32, axis=0)
        glabels = [0] * 32 + [1] * 32
        report = evaluate(queries, gallery, [0, 1], glabels)
        for key in ("nn", "ft", "st", "e", "dcg", "map"):
            assert getattr(report, key) == 1.0

    def test_perfect_ranking_small_gallery(self):
        queries = np.eye(4)
        gallery = np.vstack([np.eye(4), 0.9 * np.eye(4)])
        report = evaluate(queries, gallery, [0, 1, 2, 3], [0, 1, 2, 3, 0, 1, 2, 3])
        for key in ("nn", "ft", "st", "dcg", "map"):
            assert getattr(report, key) == 1.0
        assert report.e == pytest.approx(2.0 * 0.25 * 1.0 / 1.25, abs=1e-12)  # P=2/8, Rc=1

    def test_random_two_class_map_near_half(self):
        rng = Rng(2)
        queries = rng.normal_matrix(40, 16)
        gallery = rng.normal_matrix(200, 16)
        qlabels = [rng.integer(2) for _ in range(40)]
        glabels = [i % 2 for i in range(200)]
        report = evaluate(queries, gallery, qlabels, glabels)
        assert abs(report.map - 0.5) < 0.05

    def test_matches_bruteforce_bitwise_small_instances(self):
        rng = Rng(3)
        instances = []
        for _ in range(30):
            q = 1 + rng.integer(6)
            g = 2 + rng.integer(30)
            dim = 2 + rng.integer(6)
            classes = 1 + rng.integer(4)
            queries = rng.uniform_matrix(q, dim, -2.0, 2.0)
            gallery = rng.uniform_matrix(g, dim, -2.0, 2.0)
            qlabels = [rng.integer(classes) for _ in range(q)]
            glabels = [rng.integer(classes) for _ in range(g)]
            instances.append((queries, gallery, qlabels, glabels))
        for queries, gallery, qlabels, glabels in instances + _edge_instances():
            if not set(qlabels) & set(glabels):
                continue
            try:
                report = evaluate(queries, gallery, qlabels, glabels)
            except ValueError:
                continue
            (nn, ft, st, e, dcg_, ap), aps = evaluate_bruteforce(
                queries.tolist(), gallery.tolist(), qlabels, glabels
            )
            assert (report.nn, report.ft, report.st, report.e, report.dcg, report.map) == (
                nn,
                ft,
                st,
                e,
                dcg_,
                ap,
            )
            assert report.per_query_ap == aps

    def test_map_equals_mean_of_per_query_aps(self):
        rng = Rng(4)
        queries = rng.uniform_matrix(7, 6, -1.0, 1.0)
        gallery = rng.uniform_matrix(25, 6, -1.0, 1.0)
        qlabels = [rng.integer(3) for _ in range(7)]
        glabels = [rng.integer(3) for _ in range(25)]
        report = evaluate(queries, gallery, qlabels, glabels)
        assert report.map == math.fsum(report.per_query_ap) / len(report.per_query_ap)

    def test_ft_le_st_always(self):
        rng = Rng(5)
        for _ in range(20):
            rel = [rng.integer(2) for _ in range(12)]
            if sum(rel) == 0:
                continue
            _, ft, st = tier_metrics(_ranked(rel))
            assert ft <= st

    def test_ap_is_one_iff_relevant_prefix(self):
        rng = Rng(6)
        for _ in range(50):
            rel = [rng.integer(2) for _ in range(10)]
            total = sum(rel)
            if total == 0:
                continue
            ap = average_precision(_ranked(rel))
            prefix = all(rel[: total]) and not any(rel[total:])
            assert (ap == 1.0) == prefix

    def test_scale_invariance_exact(self):
        rng = Rng(7)
        queries = _dyadic(rng.uniform_matrix(6, 8, -2.0, 2.0))
        gallery = _dyadic(rng.uniform_matrix(30, 8, -2.0, 2.0))
        qlabels = [rng.integer(3) for _ in range(6)]
        glabels = [rng.integer(3) for _ in range(30)]
        base = evaluate(queries, gallery, qlabels, glabels)
        for c in (0.5, 3.0, 100.0):
            scaled = evaluate(c * queries, c * gallery, qlabels, glabels)
            assert (scaled.nn, scaled.ft, scaled.st, scaled.e, scaled.dcg, scaled.map) == (
                base.nn,
                base.ft,
                base.st,
                base.e,
                base.dcg,
                base.map,
            )
            assert scaled.per_query_ap == base.per_query_ap

    def test_queries_without_relevant_items_are_excluded_and_counted(self):
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        gallery = np.array([[1.0, 0.1], [0.9, 0.2]])
        report = evaluate(queries, gallery, [0, 5], [0, 0], query_ids=["a", "b"])
        assert report.num_queries == 1
        assert report.num_excluded == 1
        assert report.excluded_ids == ["b"]

    def test_non_finite_embeddings_rejected(self):
        for queries, gallery in ((np.array([[np.nan, 1.0]]), np.eye(2)), (np.eye(2), np.array([[1.0, np.inf]]))):
            with pytest.raises(ValueError, match="non-finite"):
                evaluate(queries, gallery, [0] * len(queries), [0] * len(gallery))

    @staticmethod
    def _six_queries_ten_items():
        rng = Rng(31)
        queries, gallery = rng.uniform_matrix(6, 4, -1.0, 1.0), rng.uniform_matrix(10, 4, -1.0, 1.0)
        return queries, gallery, [0, 1, 0, 1, 0, 1], [0, 1] * 5

    def test_one_label_for_every_query_rejected(self):
        queries, gallery, _, gallery_labels = self._six_queries_ten_items()
        with pytest.raises(ValueError, match=r"^query_labels has shape \(1,\) for 6 query rows$"):
            evaluate(queries, gallery, [0], gallery_labels)

    def test_fewer_query_ids_than_queries_rejected(self):
        queries, gallery, query_labels, gallery_labels = self._six_queries_ten_items()
        with pytest.raises(ValueError, match=r"^query_ids has 3 entries for 6 queries$"):
            evaluate(queries, gallery, query_labels, gallery_labels, query_ids=["a", "b", "c"])

    def test_fewer_gallery_labels_than_items_rejected(self):
        queries, gallery, query_labels, _ = self._six_queries_ten_items()
        with pytest.raises(ValueError, match=r"^gallery_labels has shape \(4,\) for 10 gallery rows$"):
            evaluate(queries, gallery, query_labels, [0, 1, 0, 1])

    def test_pr_curve_levels_and_perfect_case(self):
        queries = np.eye(3)
        gallery = np.eye(3)
        report = evaluate(queries, gallery, [0, 1, 2], [0, 1, 2])
        assert [r for r, _ in report.pr_curve] == [i / 10.0 for i in range(11)]
        assert all(p == 1.0 for _, p in report.pr_curve)


class TestReportFiles:
    def test_written_files(self, tmp_path):
        rng = Rng(8)
        queries = rng.uniform_matrix(4, 5, -1.0, 1.0)
        gallery = rng.uniform_matrix(12, 5, -1.0, 1.0)
        report = evaluate(queries, gallery, [0, 1, 0, 1], [i % 2 for i in range(12)])
        write_metric_report(report, tmp_path / "metrics.txt")
        write_per_query_csv(report, tmp_path / "per_query.csv")
        write_pr_curve(report, tmp_path / "pr_curve.txt")
        text = (tmp_path / "metrics.txt").read_text()
        assert text.startswith("nn = ")
        assert "map = " in text
        assert len((tmp_path / "per_query.csv").read_text().splitlines()) == 5
        assert len((tmp_path / "pr_curve.txt").read_text().splitlines()) == 11


def test_query_metrics_matches_bruteforce_row():
    rel = [0, 1, 1, 0, 1, 0]
    q = query_metrics(_ranked(rel))
    nn, ft, st, e, dcg_, ap = six_metrics_bruteforce(rel)
    assert (q.nn, q.ft, q.st, q.e, q.dcg, q.ap) == (nn, ft, st, e, dcg_, ap)
