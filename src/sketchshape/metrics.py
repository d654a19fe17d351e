"""Cosine-similarity ranking and the six standard retrieval metrics.

For each query the gallery is sorted by descending cosine similarity (ties
broken by ascending gallery position) and the binary relevance sequence of
that ranking feeds six metrics: nearest neighbor, first/second tier,
E-measure at a fixed cutoff, normalised discounted cumulated gain, and
average precision.  With R the number of gallery items sharing the query's
label and rel_k the relevance at rank k:

  NN  = rel_1
  FT  = (relevant within top R) / R
  ST  = (relevant within top min(2R, G)) / R
  E   = 2 P Rc / (P + Rc) at cutoff K = min(32, G), 0 if nothing relevant
  DCG = (rel_1 + sum_{k>=2} rel_k / log2 k) / (ideal list's value)
  AP  = (1/R) sum over relevant ranks k of precision@k

Queries with no relevant gallery item have no defined metrics; they are
excluded from averages and counted in the report.  Aggregation uses exactly
rounded summation (math.fsum), so any correct implementation of these
definitions produces bit-identical averages.

Queries are ranked and scored in blocks of ops.BLOCK_ROWS, so memory grows
with BLOCK_ROWS x G rather than with Q x G.  Each block's similarities
are one product of unit-length rows, the last block padded to
BLOCK_ROWS rows with copies of one of its queries (``ops.padded_blocks``)
and the gallery to a multiple of 16 items (``ops.padded_columns``).  So a
query's similarities depend on neither the other queries in its block nor
its row there, and a gallery row's similarity does not depend on the
row's place in the gallery: repeated gallery rows always tie.  Every
metric, and the interpolated precision-recall curve, follows from the ranks of the
relevant items alone, so the block ranks similarity values, not gallery
positions: numpy's value sort orders a copy of each row's keys, and the
relevant items' keys, sorted too, are found by binary search in the sorted
row, which yields their ranks in ascending order.  Where no two keys of a
row are equal these ranks are exact.  A row in which two sorted keys are
equal (+0.0 and -0.0 included) falls back to a stable argsort, which keeps
equal similarities in gallery order.  Beyond the similarities themselves
a block holds a boolean relevance mask and one sorted row at a time, and
the previous block's similarities are freed before the next product.
Embeddings must be finite: NaN compares unequal to itself and would hide
a tie.  Exact rescalings of a row, such as (1, 0) and (2, 0), tie too,
since ``ops.normalize_rows_fwd`` turns them into the same unit row.
Other equal cosines rank by gallery position only where both round to
the same value, as for all-zero rows; rows that are parallel only up to
rounding may not tie.  All six metrics come from one function,
``_score_block``; the single-query functions call it with one row.

The DCG discounts come from math.log2, as in the brute-force oracle, since
np.log2 may differ from it in the last ulp.
"""

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .ops import l2_normalize_rows, padded_blocks, padded_columns, require_finite

E_MEASURE_CUTOFF = 32
PR_RECALL_LEVELS = tuple(i / 10.0 for i in range(11))


@dataclass
class RankedList:
    """One query's gallery ordering, best match first."""

    query_id: str
    gallery_ids: list
    relevance: np.ndarray  # 0/1 per rank


@dataclass
class PerQueryMetrics:
    query_id: str
    nn: float
    ft: float
    st: float
    e: float
    dcg: float
    ap: float


@dataclass
class MetricReport:
    nn: float
    ft: float
    st: float
    e: float
    dcg: float
    map: float
    per_query: list = field(default_factory=list)
    pr_curve: list = field(default_factory=list)  # (recall, precision) pairs
    num_queries: int = 0
    num_excluded: int = 0
    excluded_ids: list = field(default_factory=list)

    @property
    def per_query_ap(self) -> list:
        return [q.ap for q in self.per_query]


def _ids(ids, count: int) -> list:
    ids = [str(i) for i in (range(count) if ids is None else ids)]
    if len(ids) != count:
        raise ValueError(f"query_ids has {len(ids)} entries for {count} queries")
    return ids


def _blocks(queries, gallery, query_labels, gallery_labels):
    """Yield (start, keys, rel) per block of up to ops.BLOCK_ROWS queries
    from row ``start`` on: ``keys[i]`` holds the negated cosine of query
    ``start + i`` to every gallery item, so ascending keys rank best match
    first, and ``rel[i]`` marks the gallery items that share its label."""
    queries = require_finite(np.asarray(queries, dtype=np.float64), "queries")
    gallery = require_finite(np.asarray(gallery, dtype=np.float64), "gallery")
    if queries.ndim != 2 or gallery.ndim != 2 or queries.shape[1] != gallery.shape[1]:
        raise ValueError(f"query/gallery dim mismatch: {queries.shape} vs {gallery.shape}")
    if gallery.shape[0] < 1:
        raise ValueError("gallery must not be empty")
    query_labels = np.asarray(query_labels, dtype=np.int64)
    gallery_labels = np.asarray(gallery_labels, dtype=np.int64)
    for name, labels, rows in (("query_labels", query_labels, queries), ("gallery_labels", gallery_labels, gallery)):
        if labels.shape != rows.shape[:1]:
            raise ValueError(f"{name} has shape {labels.shape} for {rows.shape[0]} {name.partition('_')[0]} rows")
    unit_gallery_t = padded_columns(l2_normalize_rows(gallery))
    for start, stop, block in padded_blocks(l2_normalize_rows(queries)):
        keys = (block @ unit_gallery_t)[: stop - start, : len(gallery)]
        np.negative(keys, out=keys)
        yield start, keys, gallery_labels == query_labels[start:stop, None]
        del keys


def _relevant_ranks(keys, rel):
    """(col, totals) for a block from ``_blocks``: ``totals[i]`` is the
    number of row i's relevant items, and ``col`` holds their ascending
    0-based ranks, row by row, ties ranked by gallery position."""
    ranks = []
    for row_keys, row_rel in zip(keys, rel):
        row_sorted = np.sort(row_keys)
        if (row_sorted[1:] == row_sorted[:-1]).any():
            ranks.append(np.flatnonzero(row_rel[np.argsort(row_keys, kind="stable")]))
        else:
            ranks.append(np.searchsorted(row_sorted, np.sort(row_keys[row_rel])))
    return np.concatenate(ranks), np.array([r.size for r in ranks], dtype=np.int64)


def rank(queries, gallery, query_labels, gallery_labels, query_ids, gallery_ids):
    """RankedList per query: descending cosine, ties by gallery position.

    >>> import numpy as np
    >>> ranked = rank(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0], [2.0, 0.0]]),
    ...               np.array([7]), np.array([3, 7]), ["q"], ["a", "b"])
    >>> ranked[0].gallery_ids, ranked[0].relevance.tolist()
    (['b', 'a'], [1, 0])
    """
    query_ids = _ids(query_ids, len(queries))
    if len(gallery_ids) != len(gallery):
        raise ValueError(f"gallery_ids has {len(gallery_ids)} entries for {len(gallery)} gallery items")
    ranked = []
    for start, keys, rel in _blocks(queries, gallery, query_labels, gallery_labels):
        order = np.argsort(keys, axis=1, kind="stable")
        hits = np.take_along_axis(rel, order, axis=1).astype(np.int64)
        for i, positions in enumerate(order.tolist()):
            ranked.append(RankedList(query_ids[start + i], [gallery_ids[j] for j in positions], hits[i]))
    return ranked


def _discounts(size: int) -> np.ndarray:
    # rank 1 undiscounted; rank k >= 2 contributes 1 / log2(k)
    return np.array([1.0] + [1.0 / math.log2(k) for k in range(2, size + 1)])


def _levels_below(totals):
    """Per query of R = ``totals`` relevant items, how many recalls j / R
    (j >= 1) lie below each level i / 10: max(ceil(i R / 10) - 1, 0).  Float
    recalls agree, since unequal j / R and i / 10 differ by at least
    1 / (10 R) and equal ones round alike."""
    return np.maximum((np.arange(len(PR_RECALL_LEVELS)) * totals[:, None] - 1) // 10, 0)


def _score_block(col, totals, discounts):
    """Six metrics and 11-point interpolated precisions for the queries of
    a block, given by ``_relevant_ranks``' (col, totals) of the queries
    with at least one relevant item in a gallery of ``discounts.size``
    items, with ``discounts`` from ``_discounts`` of that size.

    Returns a list with one (nn, ft, st, e, dcg, ap) tuple of floats per
    query and a queries x 11 array of interpolated precisions.  The j-th of
    a query's R relevant items, found at rank k, has precision j / k and
    recall j / R; precision falls between relevant items, so they alone
    decide every metric.
    """
    size = discounts.size
    row = np.repeat(np.arange(totals.size), totals)
    first = np.cumsum(totals) - totals  # each row's first entry in row / col
    nth = np.arange(1, col.size + 1) - first[row]
    precision = nth / (col + 1)

    def found(within):
        """Relevant items per query ranked within the top ``within``."""
        return np.bincount(row[col < within], minlength=totals.size)

    nn = (col[first] == 0).astype(np.float64)
    ft = found(totals[row]) / totals
    st = found(np.minimum(2 * totals, size)[row]) / totals
    cutoff = min(E_MEASURE_CUTOFF, size)
    hits = found(cutoff)
    p, rc = hits / cutoff, hits / totals
    with np.errstate(invalid="ignore"):
        e = np.where(hits > 0, 2.0 * p * rc / (p + rc), 0.0)

    # Interpolated precision at a recall level is the largest precision from
    # the first relevant item whose recall reaches the level to the row's
    # last one.  One reduceat takes the maximum over every (start, end) pair;
    # the results between pairs are dropped, and the appended 0.0 keeps the
    # last end a valid index.
    starts = first[:, None] + _levels_below(totals)
    ends = np.broadcast_to((first + totals)[:, None], starts.shape)
    bounds = np.stack([starts, ends], axis=-1).ravel()
    pr = np.maximum.reduceat(np.append(precision, 0.0), bounds)[::2].reshape(starts.shape)

    # Python floats take 32 bytes each, so each query's values become a
    # list only while that query is summed.
    gains = discounts[col]
    ideal = {total: math.fsum(discounts[:total].tolist()) for total in set(totals.tolist())}
    metrics = []
    heads = zip(nn.tolist(), ft.tolist(), st.tolist(), e.tolist())
    for a, total, head in zip(first.tolist(), totals.tolist(), heads):
        b = a + total
        metrics.append((*head, math.fsum(gains[a:b].tolist()) / ideal[total],
                        math.fsum(precision[a:b].tolist()) / total))
    return metrics, pr


def _score_one(r: RankedList):
    """_score_block for one ranked list: its metrics tuple and its list of
    interpolated precisions."""
    relevant = np.flatnonzero(r.relevance)
    if not relevant.size:
        raise ValueError(f"query {r.query_id}: no relevant gallery items, metrics undefined")
    [metrics], pr = _score_block(relevant, np.array([relevant.size]), _discounts(len(r.relevance)))
    return metrics, pr[0].tolist()


def query_metrics(r: RankedList) -> PerQueryMetrics:
    """The six metrics of one ranked list."""
    metrics, _ = _score_one(r)
    return PerQueryMetrics(r.query_id, *metrics)


def _interpolated_precisions(r: RankedList) -> list:
    """Precision interpolated at the 11 standard recall levels.

    Nothing in the package calls it; it keeps the name that
    perfbench/tracing.py traces.

    >>> _interpolated_precisions(RankedList("q", [0, 1, 2, 3], np.array([1, 0, 1, 0])))[4:8]
    [1.0, 1.0, 0.6666666666666666, 0.6666666666666666]
    """
    return _score_one(r)[1]


def average_precision(r: RankedList) -> float:
    """Mean of precision@k over the ranks k that hold a relevant item.

    >>> ap = average_precision(RankedList("q", [0, 1, 2, 3], np.array([1, 0, 1, 0])))
    >>> round(ap, 6)
    0.833333
    """
    return query_metrics(r).ap


def tier_metrics(r: RankedList):
    """(NN, FT, ST): top-1 relevance, recall within top R and top 2R."""
    q = query_metrics(r)
    return q.nn, q.ft, q.st


def e_measure(r: RankedList) -> float:
    """Harmonic mean of precision and recall at E_MEASURE_CUTOFF."""
    return query_metrics(r).e


def dcg(r: RankedList) -> float:
    """Discounted cumulated gain normalised by the ideal ordering's value.

    >>> round(dcg(RankedList("q", [0, 1, 2, 3], np.array([0, 0, 0, 1]))), 6)
    0.5
    """
    return query_metrics(r).dcg


def evaluate(queries, gallery, query_labels, gallery_labels, query_ids=None) -> MetricReport:
    """Rank every query and average the six metrics over queries that have
    at least one relevant gallery item; also builds the averaged 11-point
    interpolated precision-recall curve."""
    query_ids = _ids(query_ids, len(queries))
    discounts = _discounts(len(gallery))
    scores, totals, pr_blocks = [], [], []
    for _, keys, rel in _blocks(queries, gallery, query_labels, gallery_labels):
        col, block_totals = _relevant_ranks(keys, rel)
        del keys, rel
        metrics, pr = _score_block(col, block_totals[block_totals > 0], discounts)
        scores += metrics
        totals.append(block_totals)
        pr_blocks.append(pr)
    if not scores:
        raise ValueError("no query has a relevant gallery item; nothing to evaluate")

    n = len(scores)
    found = np.concatenate(totals) > 0
    excluded = list(compress(query_ids, ~found))
    pr_columns = np.concatenate(pr_blocks).T.tolist()
    return MetricReport(
        *(math.fsum(column) / n for column in zip(*scores)),  # nn, ft, st, e, dcg, map
        per_query=[PerQueryMetrics(qid, *m) for qid, m in zip(compress(query_ids, found), scores)],
        pr_curve=[(level, math.fsum(col) / n) for level, col in zip(PR_RECALL_LEVELS, pr_columns)],
        num_queries=n,
        num_excluded=len(excluded),
        excluded_ids=excluded,
    )


def write_metric_report(report: MetricReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for key in ("nn", "ft", "st", "e", "dcg", "map"):
            fh.write(f"{key} = {getattr(report, key)!r}\n")
        fh.write(f"num_queries = {report.num_queries}\n")
        fh.write(f"num_excluded = {report.num_excluded}\n")
        if report.excluded_ids:
            fh.write(f"excluded_ids = {','.join(report.excluded_ids)}\n")


def write_per_query_csv(report: MetricReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("query_id,nn,ft,st,e,dcg,ap\n")
        for q in report.per_query:
            fh.write(f"{q.query_id},{q.nn!r},{q.ft!r},{q.st!r},{q.e!r},{q.dcg!r},{q.ap!r}\n")


def write_pr_curve(report: MetricReport, path) -> None:
    """Two columns, 'recall precision', one line per recall level."""
    with open(path, "w", encoding="ascii") as fh:
        for recall, precision in report.pr_curve:
            fh.write(f"{recall!r} {precision!r}\n")
